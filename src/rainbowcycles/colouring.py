"""Edge colourings and the witness objects that certify rainbow structures.

Colours are 0-based everywhere; published 1-based formulas are shifted
uniformly at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidParameter
from .graph import Graph, _bfs_distances, _colex_masks, _members, _Palette


@dataclass(frozen=True)
class EdgeColouring:
    """Total map edge id -> colour id in 0..r-1 on a fixed graph.

    Constructors emit surjective colourings; a colouring that legitimately
    leaves declared colours unused (e.g. a raw random sample) must say so
    via ``unused_ok``. The flag only relaxes that check when the colouring
    is built; it is no part of the map, so equality ignores it.

    ``witnesses`` holds the rainbow cycles (or trees) that a self-verification
    found, which together hold every k-subset, so check_cover(c, k,
    c.witnesses) re-checks the colouring without a search. They are a hint,
    not part of the colouring: equality ignores them, and verification
    re-checks each one before using it.

    ``quotients`` holds vertex partitions, each a tuple giving the part of
    every vertex, that the walk search projects onto
    (search.find_subdivided_closed_walk). A rainbow walk crosses between two
    parts at most as often as there are distinct colours on the edges
    between them, and those counts are read from ``colour_of``, so any
    partition gives a sound bound: a partition is a hint that sets how
    strong the bound is, never whether it holds. The bound sums a path's
    crossings over the partitions only when they cut every edge, which is
    read from the graph too. Equality ignores them too.
    """

    graph: Graph
    colour_of: tuple[int, ...]
    r: int
    unused_ok: bool = field(default=False, compare=False)
    witnesses: tuple = field(default=(), compare=False, repr=False)
    quotients: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if len(self.colour_of) != self.graph.e:
            raise InvalidParameter("colouring must cover every edge")
        if self.r < 1 and self.graph.e > 0:
            raise InvalidParameter("need at least one colour")
        if self.colour_of and (min(self.colour_of) < 0 or max(self.colour_of) >= self.r):
            raise InvalidParameter("colour id out of range")
        if not self.unused_ok and self.graph.e > 0:
            if len(set(self.colour_of)) != self.r:
                raise InvalidParameter(
                    "declared colours unused; pass unused_ok=True if intended"
                )
        if any(len(part) != self.graph.n for part in self.quotients):
            raise InvalidParameter("a quotient partition must give every vertex a part")

    @cached_property
    def _palette(self) -> _Palette:
        """What the search kernels read of this colouring (graph._Palette)."""
        return _Palette(self.graph, self.colour_of, self.r)

    @cached_property
    def _quotient_graphs(self) -> tuple:
        """(graphs, cut), built on the first walk search that reads them.
        graphs holds, for each partition of quotients: the part id of each
        vertex, ids numbered in order of first appearance; the adjacency of
        the parts as (part, pair id) pairs in ascending part order; the
        number of distinct colours on the edges of each pair of parts, by
        pair id, a colour on the edges of several pairs counting on each of
        them; and the part distances, dist[p][q] the fewest moves between
        parts p and q (INF where there is none). cut is True iff every edge
        joins different parts in at least one partition, so that a path's
        crossings, summed over the partitions, are at least its length."""
        out = []
        for partition in self.quotients:
            ids = {}
            part = tuple(ids.setdefault(p, len(ids)) for p in partition)
            between = {}
            for (u, v), col in zip(self.graph.edges, self.colour_of):
                p, q = part[u], part[v]
                if p != q:
                    between.setdefault((min(p, q), max(p, q)), set()).add(col)
            parts = Graph(len(ids), tuple(between))  # pair ids are its edge ids
            dist = tuple(tuple(_bfs_distances(parts, p)) for p in range(len(ids)))
            out.append((part, parts.adjacency, tuple(len(between[pq]) for pq in parts.edges),
                        dist))
        cut = all(any(part[u] != part[v] for part, *_ in out) for u, v in self.graph.edges)
        return tuple(out), cut


def rainbow_colouring(g: Graph) -> EdgeColouring:
    """Every edge its own colour (colour id = edge id)."""
    return EdgeColouring(g, tuple(range(g.e)), g.e if g.e else 1, unused_ok=g.e == 0)


@dataclass(frozen=True)
class CycleWitness:
    """A simple cycle given as its vertex sequence plus the edge ids used."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class TreeWitness:
    """A tree given by its edge ids, spanning the requested vertex set."""

    edge_ids: tuple[int, ...]
    vertices: frozenset


@dataclass(frozen=True)
class WalkWitness:
    """An S-subdivided closed walk: anchors v_1..v_k plus a path per step.

    paths[i] runs from anchors[i] to anchors[(i+1) % k]; it is the one-vertex
    trivial path exactly when those anchors coincide, and has length >= 2
    otherwise. Paths share no internal vertex, and no anchor is internal to
    any path.
    """

    anchors: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]


def check_cover(c: EdgeColouring, k: int, witnesses) -> bool:
    """True iff witnesses prove that every k-subset of vertices lies on a
    rainbow cycle of c (all CycleWitness objects) or is joined by a rainbow
    tree of c (all TreeWitness objects).

    Each witness is re-checked with check_cycle_witness or
    check_tree_witness; then each k-subset, in colex order, must lie inside
    one of them: one AND over rows with a bit per witness on each vertex.
    Witnesses that mix the two kinds fail.
    """
    g = c.graph
    if not 1 <= k <= g.n:
        raise InvalidParameter(f"k must lie in 1..{g.n}")
    kinds = {type(w) for w in witnesses}
    if len(kinds) > 1 or not kinds <= {CycleWitness, TreeWitness}:
        return False
    holding = [0] * g.n  # per vertex: a bit for each witness on it
    for i, w in enumerate(witnesses):
        check = check_cycle_witness if type(w) is CycleWitness else check_tree_witness
        if not check(g, w, c, require_rainbow=True):
            return False
        for v in w.vertices:
            holding[v] |= 1 << i
    for mask in _colex_masks(g.n, k):
        held = -1
        for v in _members(mask):
            held &= holding[v]
        if not held:
            return False
    return True


_NO_EDGE = object()


def check_cycle_witness(g: Graph, w: CycleWitness, colouring: EdgeColouring | None = None,
                        require_rainbow: bool = False, containing=()) -> bool:
    """Re-validate a cycle witness against graph, colouring and required set.
    Without a colouring each edge is its own colour, as in the search
    kernels, so require_rainbow adds nothing to the distinct-edge test."""
    vs = w.vertices
    if len(vs) < 3 or len(set(vs)) != len(vs) or len(w.edge_ids) != len(vs):
        return False
    index = g.edge_index
    for a, b, eid in zip(vs, vs[1:] + vs[:1], w.edge_ids):
        # either order finds the edge; a pair that is no edge finds
        # _NO_EDGE, which equals no witness id
        if index.get((a, b), _NO_EDGE) != eid:
            return False
    if containing and not set(containing) <= set(vs):
        return False
    if require_rainbow and colouring is not None:
        colour_of = colouring.colour_of
        if len({colour_of[eid] for eid in w.edge_ids}) != len(vs):
            return False
    return True


def check_tree_witness(g: Graph, w: TreeWitness, colouring: EdgeColouring | None = None,
                       require_rainbow: bool = False, containing=()) -> bool:
    """Acyclic, connected, spans the requested vertices, rainbow if claimed
    (each edge its own colour without a colouring, as for
    check_cycle_witness). A tree without edges is one vertex of g."""
    eids = list(w.edge_ids)
    if not eids:
        return (len(w.vertices) == 1 and all(0 <= v < g.n for v in w.vertices)
                and set(containing) <= set(w.vertices))
    if len(set(eids)) != len(eids) or not all(0 <= eid < g.e for eid in eids):
        return False
    verts = set()
    for eid in eids:
        verts.update(g.edges[eid])
    if verts != set(w.vertices):
        return False
    if not set(containing) <= verts:
        return False
    if len(verts) != len(eids) + 1:
        return False  # wrong vertex/edge count for a tree
    # connected?
    adj = {v: [] for v in verts}
    for eid in eids:
        u, v = g.edges[eid]
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if seen != verts:
        return False
    if require_rainbow and colouring is not None:
        cols = [colouring.colour_of[eid] for eid in eids]
        if len(set(cols)) != len(cols):
            return False
    return True


def check_walk_witness(g: Graph, w: WalkWitness, colouring: EdgeColouring | None = None,
                       require_rainbow: bool = False) -> bool:
    """Re-validate an S-subdivided closed walk, including the repeat rules,
    rainbow if claimed (each edge its own colour without a colouring, as for
    check_cycle_witness). An anchor outside 0..n-1 fails, even on a trivial
    path."""
    k = len(w.anchors)
    if k < 1 or len(w.paths) != k or not all(0 <= a < g.n for a in w.anchors):
        return False
    anchor_set = set(w.anchors)
    index = g.edge_index
    internals_seen = set()
    edge_ids = []
    for i, path in enumerate(w.paths):
        a, b = w.anchors[i], w.anchors[(i + 1) % k]
        if a == b:
            if path != (a,):
                return False
            continue
        if len(path) < 3 or path[0] != a or path[-1] != b:
            return False  # non-trivial paths have length >= 2
        if len(set(path)) != len(path):
            return False
        for x, y in zip(path, path[1:]):
            eid = index.get((x, y))
            if eid is None:
                return False
            edge_ids.append(eid)
        inner = set(path[1:-1])
        if inner & anchor_set or inner & internals_seen:
            return False
        internals_seen |= inner
    if len(set(edge_ids)) != len(edge_ids):
        return False
    if require_rainbow and colouring is not None:
        cols = [colouring.colour_of[eid] for eid in edge_ids]
        if len(set(cols)) != len(cols):
            return False
    return True
