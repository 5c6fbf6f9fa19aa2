"""Simple undirected graphs and the structural algorithms built on them.

Vertices are dense integers 0..n-1. Edge ids are positions in the canonical
sorted edge list, so certificates and colourings are reproducible across runs.
All exhaustive searches take a node budget and either answer exactly or raise
BudgetExceeded; there is no silent approximation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceeded, InvalidParameter, NotTwoConnected

DEFAULT_BUDGET = 10_000_000
INF = float("inf")


class Budget:
    """Search-node counter. Budgets are in nodes, not wall time.

    ``cuts`` counts, per rule of the anchored-cycle search, the states that
    the rule ended (see _anchored_cycle): ``closing`` and ``sides``, and
    ``short``, the states whose children its forced-vertex test cut down to
    none or to one. The solver's rules add their own key once they run:
    ``incumbent``, the subsets the distance bound settled within its best
    bound so far (solver.crx_lower_bound_distance), and ``leaves``, the
    subtrees not grown past k leaves (solver._grow_subtrees). The walk
    search adds ``quotient``, the walks its block-quotient bound proved
    absent, once that bound runs (search.find_subdivided_closed_walk).
    """

    __slots__ = ("limit", "used", "cuts")

    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = DEFAULT_BUDGET if limit is None else int(limit)
        if self.limit < 0:
            raise InvalidParameter(f"a node budget must be non-negative, got {self.limit}")
        self.used = 0
        self.cuts = {"closing": 0, "sides": 0, "short": 0}

    @classmethod
    def of(cls, budget, default=DEFAULT_BUDGET):
        """budget if it is a Budget, else a Budget with that limit, or with
        default when budget is None."""
        if isinstance(budget, cls):
            return budget
        return cls(default if budget is None else budget)

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(self.limit)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: no loops, no duplicate edges, endpoints < n.

    Edges are normalised to (u, v) with u < v and stored sorted; the position
    of an edge in ``edges`` is its edge id.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParameter("vertex count must be non-negative")
        norm = []
        for u, v in self.edges:
            if u == v:
                raise InvalidParameter(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidParameter(f"edge ({u},{v}) has an endpoint >= {self.n}")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise InvalidParameter(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def e(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """adjacency[v] = ((neighbour, edge_id), ...) in ascending neighbour order."""
        adj = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _own_palette(self) -> _Palette:
        """The palette with each edge its own colour: what the search
        kernels read of an uncoloured graph."""
        return _Palette(self)

    @cached_property
    def _distance_rows(self) -> list:
        """BFS distance rows by source, each filled on first use by
        _bfs_distances; its readers must not modify a row."""
        return [None] * self.n

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Edge id by endpoint pair, keyed by (u, v) and (v, u) alike; built
        on the first lookup."""
        index = {}
        for eid, (u, v) in enumerate(self.edges):
            index[u, v] = index[v, u] = eid
        return index

    def edge_id(self, u: int, v: int) -> int:
        """The id of edge uv, in either endpoint order; KeyError if no edge."""
        return self.edge_index[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edge_index

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(w for w, _ in self.adjacency[v])

    def without_edge(self, eid: int) -> "Graph":
        return Graph(self.n, self.edges[:eid] + self.edges[eid + 1 :])


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on ``vertices``; returns (graph, old_id_of_new_id)."""
    keep = sorted(set(vertices))
    remap = {old: new for new, old in enumerate(keep)}
    edges = [
        (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
    ]
    return Graph(len(keep), tuple(edges)), tuple(keep)


def delete_vertex(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    return induced_subgraph(g, [w for w in range(g.n) if w != v])


# ---------------------------------------------------------------------------
# Connectivity


def is_connected(g: Graph) -> bool:
    return g.n > 0 and INF not in _bfs_distances(g, 0)


def _bfs_distances(g: Graph, source: int) -> list:
    """Distances from source (INF where unreachable). The row is computed
    once per graph and shared by every caller, which must not modify it:
    the search kernels, min_cycle_length_through, and through the row of
    vertex 0, is_connected and _bipartition."""
    rows = g._distance_rows
    dist = rows[source]
    if dist is None:
        dist = rows[source] = [INF] * g.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w, _ in g.adjacency[v]:
                if dist[w] is INF:
                    dist[w] = dist[v] + 1
                    queue.append(w)
    return dist


class _Palette:
    """The colour view of a graph that the search kernels read.

    adjacency[v] = ((neighbour, edge id, colour), ...) in ascending
    neighbour order, and colours is the number of colours. Without
    colour_of each edge is its own colour (g.e colours): the view of an
    uncoloured search. The rows of toward and closing are built on first
    use and kept; their readers must not modify a row. A palette holds no
    reference to its graph, so a graph that keeps its own palette forms no
    reference cycle.
    """

    __slots__ = ("adjacency", "colours", "own", "_toward", "_closing")

    def __init__(self, g: Graph, colour_of=None, colours=None):
        self.own = colour_of is None
        if self.own:
            colour_of, colours = range(g.e), g.e
        self.adjacency = tuple(tuple((w, eid, colour_of[eid]) for w, eid in nbrs)
                               for nbrs in g.adjacency)
        self.colours = colours
        self._toward = [None] * g.n
        self._closing = [None] * g.n

    def toward(self, target: int, dist):
        """Each vertex's triples ordered by (distance to target, neighbour),
        dist being the graph's distance row of target: the sort is stable
        and adjacency lists neighbours in ascending order."""
        row = self._toward[target]
        if row is None:
            row = self._toward[target] = tuple(
                tuple(sorted(nbrs, key=lambda t: dist[t[0]])) for nbrs in self.adjacency
            )
        return row

    def closing(self, anchor: int):
        """(closing, at_anchor) for a search anchored at anchor: closing[v]
        is the (edge id, colour) of the edge v-anchor, or None, and
        at_anchor[col] the anchor's neighbours by an edge of colour col. It
        is None in the own palette, where each colour is one edge."""
        row = self._closing[anchor]
        if row is None:
            closing = [None] * len(self.adjacency)
            at_anchor = None if self.own else [()] * self.colours
            for w, eid, col in self.adjacency[anchor]:
                closing[w] = (eid, col)
                if at_anchor is not None:
                    at_anchor[col] += (w,)
            row = self._closing[anchor] = (closing, at_anchor)
        return row


def _kernel_palette(g: Graph, colouring) -> _Palette:
    """The palette a search kernel reads: the EdgeColouring's, or without
    one g's own."""
    return g._own_palette if colouring is None else colouring._palette


def _bipartition(g: Graph):
    """(smaller class, larger class) of a connected bipartite graph with at
    least two vertices, else None. The classes are the distance parities
    from vertex 0; the graph is bipartite iff no edge joins equal parities."""
    if g.n < 2:
        return None
    dist = _bfs_distances(g, 0)
    if INF in dist or any(dist[u] % 2 == dist[v] % 2 for u, v in g.edges):
        return None
    a = [v for v in range(g.n) if dist[v] % 2 == 0]
    b = [v for v in range(g.n) if dist[v] % 2 == 1]
    return (a, b) if len(a) <= len(b) else (b, a)


def _bfs_path(g: Graph, start: int, ends, blocked=()):
    """Vertex tuple of the first-parent path from start to the first vertex
    of ends that a BFS reaches, or None if it reaches none.

    The BFS takes neighbours in ascending order and never expands a vertex
    of blocked (or of ends). In that order each vertex's first parent lies
    on its lex-least shortest path, so the path returned is the lex-least
    shortest path to ends whose interior avoids blocked.
    """
    parent = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w, _ in g.adjacency[v]:
            if w in parent:
                continue
            parent[w] = v
            if w in ends:
                path = [w]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            if w not in blocked:
                queue.append(w)
    return None


def _is_cycle_graph(g: Graph) -> bool:
    """True iff g is one cycle: connected, at least 3 vertices, all of degree 2."""
    return (g.n >= 3 and g.e == g.n and is_connected(g)
            and all(g.degree(v) == 2 for v in range(g.n)))


def _max_vertex_disjoint_paths_at_least(g: Graph, s: int, t: int, k: int) -> bool:
    """Menger check: >= k internally vertex-disjoint s-t paths (s, t non-adjacent).

    Unit-capacity max flow on the vertex-split digraph, stopped at k.
    """
    # node 2v = v_in, 2v+1 = v_out; res[a][b] is the residual capacity of a -> b.
    # Paths start at s_out and end at t_in, so no path uses the s or t split arc.
    res = [{} for _ in range(2 * g.n)]
    for v in range(g.n):
        res[2 * v][2 * v + 1] = 1
        res[2 * v + 1][2 * v] = 0
        for w, _ in g.adjacency[v]:
            res[2 * v + 1][2 * w] = 1
            res[2 * w][2 * v + 1] = 0
    flow = 0
    while flow < k:
        # BFS augmenting path from s_out to t_in
        parent = {2 * s + 1: None}
        queue = deque([2 * s + 1])
        while queue and 2 * t not in parent:
            x = queue.popleft()
            for y, c in res[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if 2 * t not in parent:
            return False
        y = 2 * t
        while parent[y] is not None:
            x = parent[y]
            res[x][y] -= 1
            res[y][x] += 1
            y = x
        flow += 1
    return True


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff |V| > k and no vertex set of size <= k-1 disconnects g.

    k = 2 is read off the block decomposition (no cut vertex); larger k
    counts disjoint paths between every non-adjacent pair (Menger).
    """
    if k < 1:
        raise InvalidParameter("k must be positive")
    if g.n <= k:
        return False
    if not is_connected(g):
        return False
    if k == 1:
        return True
    if k == 2:
        return not block_decomposition(g).cut_vertices
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if g.has_edge(s, t):
                continue
            if not _max_vertex_disjoint_paths_at_least(g, s, t, k):
                return False
    return True


def is_minimally_2_connected(g: Graph) -> bool:
    if not is_k_connected(g, 2):
        return False
    return all(not is_k_connected(g.without_edge(eid), 2) for eid in range(g.e))


# ---------------------------------------------------------------------------
# Block decomposition


@dataclass(frozen=True)
class Block:
    """A block: edge-id set plus covered vertices (isolated vertex: no edges)."""

    edge_ids: frozenset
    vertices: frozenset

    @property
    def is_two_connected(self) -> bool:
        return len(self.vertices) >= 3


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset
    # (block index, cut vertex) incidences of the block-cut tree
    block_cut_tree: tuple[tuple[int, int], ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Unique block decomposition, blocks ordered by smallest contained edge id.

    Iterative lowpoint DFS with an edge stack; isolated vertices become
    singleton blocks and are listed after the edged blocks.
    """
    n = g.n
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    pedge = [-1] * n
    it = [0] * n
    edge_stack = []
    raw_blocks = []
    timer = 0
    for root in range(n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [root]
        while stack:
            v = stack[-1]
            if it[v] < len(adj[v]):
                w, eid = adj[v][it[v]]
                it[v] += 1
                if disc[w] == -1:
                    pedge[w] = eid
                    disc[w] = low[w] = timer
                    timer += 1
                    edge_stack.append(eid)
                    stack.append(w)
                elif eid != pedge[v] and disc[w] < disc[v]:
                    edge_stack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        blk = set()
                        while True:
                            top = edge_stack.pop()
                            blk.add(top)
                            if top == pedge[v]:
                                break
                        raw_blocks.append(blk)

    blocks = []
    for blk in sorted(raw_blocks, key=min):
        verts = set()
        for eid in blk:
            verts.update(g.edges[eid])
        blocks.append(Block(frozenset(blk), frozenset(verts)))
    for v in range(n):
        if not adj[v]:
            blocks.append(Block(frozenset(), frozenset({v})))

    membership = [0] * n
    for blk in blocks:
        for v in blk.vertices:
            membership[v] += 1
    cut = frozenset(v for v in range(n) if membership[v] >= 2)
    tree = tuple(
        (i, v)
        for i, blk in enumerate(blocks)
        for v in sorted(blk.vertices)
        if v in cut
    )
    return BlockDecomposition(tuple(blocks), cut, tree)


# ---------------------------------------------------------------------------
# Ear decomposition


@dataclass(frozen=True)
class EarDecomposition:
    """Initial cycle plus ears; replaying them reproduces E(G) exactly."""

    initial_cycle: tuple[int, ...]
    ears: tuple[tuple[int, ...], ...]

    def replayed_edge_ids(self, g: Graph) -> frozenset:
        ids = set(cycle_vertices_to_edge_ids(g, self.initial_cycle))
        for ear in self.ears:
            for a, b in zip(ear, ear[1:]):
                ids.add(g.edge_id(a, b))
        return frozenset(ids)


def ear_decomposition(g: Graph) -> EarDecomposition:
    """Cycle-plus-ears build of a 2-connected graph.

    The initial cycle is the shortest cycle through vertex 0 (lexicographically
    least); each ear starts from the lowest uncovered edge id incident to the
    built subgraph and returns to it by a shortest, lex-least detour.
    """
    if not is_k_connected(g, 2):
        raise NotTwoConnected("ear decomposition needs a 2-connected graph")
    # ear_decomposition takes no budget: count against a limit no search reaches
    cycle, cycle_eids = _anchored_cycle(g, [0], Budget(1 << 63), range(3, g.n + 1))
    covered_v = set(cycle)
    covered_e = set(cycle_eids)
    ears = []
    while len(covered_e) < g.e:
        eid = min(
            e
            for e in range(g.e)
            if e not in covered_e
            and (g.edges[e][0] in covered_v or g.edges[e][1] in covered_v)
        )
        a, b = g.edges[eid]
        if a in covered_v and b in covered_v:
            ear = (a, b)
        else:
            u, x = (a, b) if a in covered_v else (b, a)
            tail = _bfs_path(g, x, covered_v - {u}, covered_v)
            ear = (u,) + tail
        ears.append(ear)
        covered_v.update(ear)
        for p, q in zip(ear, ear[1:]):
            covered_e.add(g.edge_id(p, q))
    return EarDecomposition(cycle, tuple(ears))


# ---------------------------------------------------------------------------
# Cycles: enumeration, girth, circumference, Hamiltonicity


def _rooted_cycles(g: Graph, b: Budget, roots=None):
    """Every simple cycle once per direction, as a vertex tuple that starts
    at its least vertex, in DFS order with neighbours ascending; with roots,
    only the cycles whose least vertex is in roots. One budget node is
    charged per path entered, the root alone included."""
    adj = g.adjacency
    on_path = bytearray(g.n)
    for root in range(g.n) if roots is None else roots:
        b.spend()
        path = [root]
        on_path[root] = 1
        stack = [iter(adj[root])]  # per path vertex: its neighbours not yet tried
        while stack:
            for w, _ in stack[-1]:
                if w <= root:
                    if w == root and len(path) >= 3:
                        yield tuple(path)
                    continue
                if on_path[w]:
                    continue
                b.spend()
                path.append(w)
                on_path[w] = 1
                stack.append(iter(adj[w]))
                break
            else:
                stack.pop()
                on_path[path.pop()] = 0


def enumerate_simple_cycles(g: Graph, budget=None):
    """All simple cycles, each once: rooted at its minimum vertex, direction
    fixed by second-vertex < last-vertex. Returns vertex tuples."""
    b = Budget.of(budget)
    return [c for c in _rooted_cycles(g, b) if c[1] < c[-1]]


def cycle_vertices_to_edge_ids(g: Graph, cycle) -> tuple[int, ...]:
    return tuple(g.edge_id(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def girth(g: Graph):
    """Length of the shortest cycle, or None if acyclic."""
    best = None
    for eid, (u, v) in enumerate(g.edges):
        # distance u..v avoiding this edge
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if best is not None and dist[x] + 1 >= best:
                break
            for y, e2 in g.adjacency[x]:
                if e2 == eid or y in dist:
                    continue
                dist[y] = dist[x] + 1
                if y == v:
                    queue.clear()
                    break
                queue.append(y)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def find_hamilton_cycle(g: Graph, budget=None):
    """First Hamilton cycle of the anchored-cycle search through every
    vertex, or None. That cycle is lexicographically least, so path[1] <
    path[-1] holds. A vertex of degree below 2, or a bipartite graph with
    classes of different sizes (a cycle alternates between the classes),
    gives None without a search node, and so does a disconnected graph, whose
    distance floor is infinite (_anchored_cycle). The search's distance rule
    reads only the row of the anchor, vertex 0, which _bipartition has
    already built."""
    if g.n < 3:
        return None
    if any(g.degree(v) < 2 for v in range(g.n)):
        return None
    classes = _bipartition(g)
    if classes is not None and len(classes[0]) != len(classes[1]):
        return None
    b = Budget.of(budget)
    found = _anchored_cycle(g, range(g.n), b, (g.n,))
    return None if found is None else found[0]


def enumerate_hamilton_cycles(g: Graph, budget=None):
    """All Hamilton cycles as enumerate_simple_cycles lists them: rooted at
    vertex 0, direction path[1] < path[-1]. Every one holds vertex 0, so
    only the root-0 pass of that rooted cycle DFS runs."""
    b = Budget.of(budget)
    return [c for c in _rooted_cycles(g, b, range(min(g.n, 1)))
            if len(c) == g.n and c[1] < c[-1]]


def circumference(g: Graph, budget=None) -> int:
    """Length of the longest cycle (0 if acyclic), by exhaustive DFS."""
    b = Budget.of(budget)
    if find_hamilton_cycle(g, b) is not None:
        return g.n
    return max((len(c) for c in _rooted_cycles(g, b)), default=0)


@dataclass(frozen=True)
class GraphInvariants:
    girth: int | None
    circumference: int
    is_hamiltonian: bool


def graph_invariants(g: Graph, budget=None) -> GraphInvariants:
    """Exact girth / circumference / Hamiltonicity.

    On budget exhaustion re-raises BudgetExceeded carrying the fields computed
    so far as the partial result.
    """
    b = Budget.of(budget)
    gr = girth(g)
    try:
        circ = circumference(g, b)
    except BudgetExceeded as exc:
        raise BudgetExceeded(exc.nodes, partial={"girth": gr}) from None
    return GraphInvariants(gr, circ, circ == g.n >= 3)


def is_hypohamiltonian(g: Graph, budget=None) -> bool:
    """Not Hamiltonian, but every vertex-deleted subgraph is."""
    if g.n < 3:
        raise InvalidParameter("need at least 3 vertices")
    b = Budget.of(budget)
    return find_hamilton_cycle(g, b) is None and _vertex_deleted_hamiltonian(g, b)


def _vertex_deleted_hamiltonian(g: Graph, b: Budget) -> bool:
    """Is every vertex-deleted subgraph of g Hamiltonian?"""
    return all(find_hamilton_cycle(delete_vertex(g, v)[0], b) is not None
               for v in range(g.n))


# ---------------------------------------------------------------------------
# Twins


def _twin_classes(g: Graph, colour_of=None) -> list:
    """The twin classes of g, ascending tuples in order of least vertex: its
    vertices grouped by open neighbourhood (and, given colour_of, colour on
    the edge to each neighbour), one dict lookup each, O(e) in all."""
    classes = {}
    for v, nbrs in enumerate(g.adjacency):
        key = (tuple(w for w, _ in nbrs) if colour_of is None
               else tuple((w, colour_of[eid]) for w, eid in nbrs))
        classes.setdefault(key, []).append(v)
    return [tuple(c) for c in classes.values()]


def _class_shifts(n: int, classes) -> list:
    """The cyclic shifts of each class of vertices of range(n), one class at
    a time: for a class c_0, ..., c_{L-1} and t in 1..L-1, c_i goes to
    c_{(i+t) mod L} and every other vertex stays. They carry each member of
    a class onto every other with L - 1 permutations per class, fewer to
    apply to each witness than the C(L, 2) transpositions."""
    shifts = []
    for cls in classes:
        for t in range(1, len(cls)):
            p = list(range(n))
            for i, v in enumerate(cls):
                p[v] = cls[(i + t) % len(cls)]
            shifts.append(p)
    return shifts


def _twin_shifts(g: Graph, colour_of=None) -> list:
    """The shifts of g's twin classes: automorphisms of g (and colour_of)."""
    return _class_shifts(g.n, _twin_classes(g, colour_of))


# ---------------------------------------------------------------------------
# k-subsets in colex order, and the witnesses that cover them


def colex_subsets(n: int, k: int):
    """All k-subsets of range(n) in colexicographic order, as sorted tuples.

    Each one follows from the last by the colex successor: raise the lowest
    element that can rise by one, then reset the elements below it to 0, 1, ...
    """
    if k > n:
        return
    c = list(range(k))
    while True:
        yield tuple(c)
        i = 0
        while i + 1 < k and c[i] + 1 == c[i + 1]:
            i += 1
        if k == 0 or c[i] + 1 == n:
            return
        c[i] += 1
        c[:i] = range(i)


class _WitnessCover:
    """The vertex bitmasks of the witnesses (cycles or trees) kept so far by
    a pass over vertex subsets. A witness that holds every vertex of S
    serves S too, so a subset inside a kept witness needs no search of its
    own. The caller keeps the witnesses themselves: their list, in the order
    they were added, is the whole cover.

    holding[v] has bit i set for each kept witness i through vertex v, so
    the witnesses that hold a set of vertices are one AND of these rows.
    below[p], for p >= 2, has bit i set for each kept witness i that holds
    every vertex below p. uncovered(k) walks every k-subset in colex order;
    covers(s) answers for one subset, for passes in any other order.
    add keeps a witness and its images under vertex permutations, each
    unless its vertex set is held.
    """

    __slots__ = ("masks", "holding", "below", "held", "identity")

    def __init__(self, n: int):
        self.identity = list(range(n))  # the witness itself, as add's first image
        self.masks = []
        self.holding = [0] * n  # per vertex: a bit for each witness on it
        self.below = [0] * (n + 1)
        self.held = set()  # the distinct masks

    def covers(self, s) -> bool:
        """Does a kept witness hold every vertex of the non-empty tuple s?"""
        holding = self.holding
        held = holding[s[0]]
        for v in s[1:]:
            held &= holding[v]
        return held != 0

    def add(self, vertices, perms=()) -> list:
        """Keep a witness whose vertex set is vertices, then its image under
        each permutation p in perms (vertex v goes to p[v]), each one unless
        a kept witness, earlier image included, already has its vertex set.
        Return the indices into perms of the images kept, in order."""
        holding, masks, held, below = self.holding, self.masks, self.held, self.below
        new = []
        for i, p in enumerate((self.identity, *perms), -1):
            mask = 0
            for v in vertices:
                mask |= 1 << p[v]
            if mask in held:
                continue
            bit = 1 << len(masks)
            for v in vertices:
                holding[p[v]] |= bit
            for q in range(2, (~mask & (mask + 1)).bit_length()):  # it holds range(q)
                below[q] |= bit
            masks.append(mask)
            held.add(mask)
            if i >= 0:
                new.append(i)
        return new

    def uncovered(self, k: int):
        """Yield, in colex order, each k-subset of the vertices (k >= 1) that
        no kept witness holds when the pass reaches it, as a sorted tuple.
        Before it resumes, the caller may add witnesses: they serve the
        yielded subset and every later one they hold.

        In colex order the lowest element x varies fastest below the upper
        part U, the k - 1 largest elements, and U runs over its own colex
        order. So the pass picks the elements of U largest first, carries
        down the witnesses that hold those picked so far, one AND per
        element, and then tries each x against the witnesses that hold U. A
        choice whose least element p so far is held by a witness that holds
        every vertex below p is skipped with all its completions. A witness
        added at x joins the witnesses carried for every part of the subset
        it holds, so it serves every later subset it holds.
        """
        holding = self.holding
        if k == 1:
            for x in range(len(holding)):
                if not holding[x]:
                    yield (x,)
        elif k <= len(holding):
            yield from self._completions(k - 1, len(holding), (), 0, -1)

    def _completions(self, j, top, upper, umask, held):
        """The uncovered subsets, in colex order, made of upper (ascending,
        its vertices as the bitmask umask), j >= 1 more elements of U below
        it, and x below those, all below top. held has a bit for each
        witness that holds upper (every bit while upper is empty)."""
        masks, holding, below = self.masks, self.holding, self.below
        count = len(masks)
        for u in range(j, top):  # the next element of U, below the ones picked
            if count < len(masks):  # witnesses added since: those holding upper join
                for i in range(count, len(masks)):
                    if not umask & ~masks[i]:
                        held |= 1 << i
                count = len(masks)
            held_u = held & holding[u]
            if held_u & below[u]:
                continue
            if j > 1:
                yield from self._completions(j - 1, u, (u, *upper), umask | 1 << u, held_u)
                continue
            umask_u = umask | 1 << u  # U is complete: x runs over range(u)
            for x in range(u):
                if count < len(masks):
                    for i in range(count, len(masks)):
                        if not umask & ~masks[i]:
                            held |= 1 << i
                            if not umask_u & ~masks[i]:
                                held_u |= 1 << i
                    count = len(masks)
                if not held_u & holding[x]:
                    yield (x, u, *upper)


# ---------------------------------------------------------------------------
# Cycles through prescribed vertices, F_k membership


def _anchored_cycle(g: Graph, s, b: Budget, limits, colouring=None):
    """First simple cycle through every vertex of the sorted sequence s, as
    (vertices, edge ids), or None.

    The DFS anchors at s[0] and takes neighbours in ascending order, so the
    first cycle found is deterministic. Each limit in ``limits`` is tried in
    turn, except those below the floor, which are skipped without a node.
    No cycle through s is shorter than the floor: such a cycle has at least
    len(s) edges and holds the closed walk anchor -> m -> m2 -> anchor for
    any vertices m, m2 of s besides the anchor (m2 = m gives 2 dist(anchor,
    m)). The floor is infinite when the anchor cannot reach a vertex of s,
    or when a vertex of s besides the anchor has fewer than two edges, which
    the forced-vertex test would find at the root of every level. One node
    is one DFS state entered: the anchor alone at the start of a limit, or
    a path extended by one vertex. A state that a cut rule ends at once
    still counts, so a rule can lower the count of a search but never
    change what it finds.

    A state entered by putting w on the path with an edge of colour col is
    first tried as the end of the cycle (w's edge to the anchor closes it).
    Otherwise its subtree is searched unless one of three rules shows that
    no completion fits within the limit:

    - distance: the path length plus a lower bound on the closing walk
      through the missing vertices of s exceeds the limit; at s = V the
      bound is the distance to the anchor alone;
    - closing edge (``closing``): the anchor has no neighbour x off the
      path whose edge x-anchor has a colour not yet used. Every completion
      ends with such an edge, and w is not its x: w either closes now,
      which was tried, or becomes an interior vertex;
    - two sides (``sides``): some missing vertex m of s has fewer than two
      edges in colours not yet used whose other end is w, the anchor or a
      vertex off the path. A cycle enters and leaves m by two such edges.

    Before it lists its children, a state makes its end vertex interior,
    which kills that vertex's edges to the missing vertices, and then runs
    once the test that each child would run (forced vertex, ``short``). If
    the anchor has no closing edge left or two vertices of s fall short,
    every child would be cut, or could not close the cycle, so the state
    lists no child. If one missing vertex m falls short, every child but m
    would be cut by the two-sides rule, so the state lists only the child m.

    The rules cut only subtrees with no completion, so the DFS order, the
    first cycle and every None stay as they would be without them. The
    last two rules and the forced-vertex test are kept incrementally: the
    DFS passes down the count of the anchor's usable closing edges and the
    number of vertices of s that fall short, and the usable edges of a
    vertex of s are recounted only when the path takes a vertex or colour
    that touches it. A state with nothing short pays one integer test. The
    states each rule cut, and those the forced-vertex test ended or
    narrowed to one child, are added to ``b.cuts`` on exit, as the nodes
    are to ``b.used``.

    The set-up builds only what depends on s: the anchor's closing edges
    are kept per anchor (_Palette.closing), and below s = V the distance rows
    of s and their row-wise largest detour ``top``. The floor's walks are
    read off those rows, by a loop over the pairs only when s has two
    vertices or more besides the anchor. At s = V the floor is n, or a
    larger 2 dist(anchor, m). The bound is taken on
    demand: a child pays one lookup in ``top``, and only where that could
    cut is the exact bound taken, by a loop over the missing vertices. At
    s = V only the distance to the anchor is checked: the exact bound needs
    a BFS row per end vertex, about a third of a Hamilton search's time on
    a fresh graph, and saved 0.5% of the nodes over 400 random 2-connected
    graphs with 10 to 22 vertices (17,148 against 17,238).

    With an EdgeColouring ``colouring`` the cycle must also be rainbow.
    Without one, each edge is its own colour. That rules out nothing,
    because a simple cycle never repeats an edge, so both cases run the
    same loop on the palette that _kernel_palette picks.
    """
    palette = _kernel_palette(g, colouring)
    adj = palette.adjacency
    anchor = s[0]
    dist_anchor = _bfs_distances(g, anchor)
    rest = [(m, dist_anchor[m]) for m in s[1:]]  # (vertex, its distance to the anchor)
    # The bound at x is the largest dist(x, m) + dist(m, anchor) over the
    # missing m of rest (each m's row of these sums is in detours), or
    # dist(x, anchor) when none is missing; neither that nor m = x raises it
    # (the triangle inequality). So top[x], the largest over all of rest,
    # bounds it, and is it while no vertex of rest is on the path.
    detours = []
    if len(s) < g.n:
        detours = [(m, [d + dm for d in _bfs_distances(g, m)]) for m, dm in rest]
    top = dist_anchor
    for _, row in detours:
        top = row if top is dist_anchor else list(map(max, top, row))
    on_path = bytearray(g.n)
    on_path[anchor] = 1
    used = bytearray(palette.colours)
    closing, at_anchor = palette.closing(anchor)
    in_rest = bytearray(g.n)
    # live[m], for m in rest: the edges a completion may still enter or
    # leave m by, while m is off the path
    live = [0] * g.n
    near = [()] * g.n  # vertex -> its (m, edge id, colour) triples to rest
    # colour -> ((m, other end), ...) for the edges at rest in that colour;
    # without a colouring each colour is one edge, the one just taken, which
    # touches no missing vertex, so by_colour is None
    by_colour = None if at_anchor is None else [()] * palette.colours
    root_short, floor = 0, len(s)  # a cycle through s has at least len(s) edges
    for m, dm in rest:
        in_rest[m] = 1
        live[m] = len(adj[m])
        root_short += live[m] < 2
        floor = max(floor, 2 * dm)  # the walk to m and back
        for y, eid, col in adj[m]:
            near[y] += ((m, eid, col),)
            if by_colour is not None:
                by_colour[col] += ((m, y),)
    near[anchor] = ()  # the anchor never becomes interior
    if len(detours) > 1:  # the walk anchor -> m2 -> m -> anchor
        floor = max(floor, max(row[m2] + dm2 for _, row in detours for m2, dm2 in rest))
    if root_short:  # some m has fewer than two edges
        floor = INF
    cut_closing = cut_sides = cut_short = 0
    found = []  # (vertex, edge id) from the closing edge back to the anchor
    left = b.limit - b.used  # nodes still allowed; Budget.used is set on exit

    def extend(v, depth, missing, closers, short):
        """Enter each child of the path that ends at v and has depth edges.
        missing counts the vertices of rest not on the path; closers counts
        the anchor's edges that may still close the cycle, and short the
        vertices of s that fall short: each missing m with live[m] < 2, and
        the anchor once closers is 0."""
        nonlocal left, cut_closing, cut_sides, cut_short
        depth += 1
        forced = None  # the edge v-m to the last missing m that falls short here
        for edge in near[v]:  # v is interior in every child: its edges to rest die
            m, _, c = edge
            if not on_path[m] and not used[c]:
                live[m] -= 1
                if live[m] == 1:
                    short += 1
                    forced = edge
        children = adj[v]
        if short:  # one missing m falls short: only the child m may help it
            cut_short += 1
            children = (forced,) if short == 1 and closers and forced else ()
        for w, eid, col in children:
            if on_path[w] or used[col]:
                continue
            left -= 1
            if left < 0:
                raise BudgetExceeded(b.limit)
            # the child's node: close the cycle, cut it by a rule, or go on;
            # w and col are marked only while the DFS is below the child
            if in_rest[w]:
                missing_w = missing - 1
                short_w = short - (live[w] < 2)  # w is no longer missing
            else:
                missing_w, short_w = missing, short
            close = closing[w]
            if not missing_w and depth >= 2:
                if close is not None and close[1] != col and not used[close[1]]:
                    found.append((anchor, close[0]))
                    found.append((w, eid))
                    return True
            if depth + top[w] > limit:  # only here can the bound cut
                if missing == len(rest) or not detours:
                    continue  # the bound is top[w]
                bound = dist_anchor[w]
                if missing_w:
                    for m, row in detours:
                        if not on_path[m] and row[w] > bound:
                            bound = row[w]
                if depth + bound > limit:
                    continue
            # taking w and col: w stops being a closer, and the other edges
            # of colour col at s die
            closers_w = closers
            if close is not None and not used[close[1]]:
                closers_w -= 1
                short_w += not closers_w
            on_path[w] = used[col] = 1
            if by_colour is not None:
                for y in at_anchor[col]:
                    if not on_path[y]:
                        closers_w -= 1
                        short_w += not closers_w
                for m, y in by_colour[col]:
                    if not on_path[m] and (not on_path[y] or y == anchor or y == w):
                        live[m] -= 1
                        short_w += live[m] == 1
            if not short_w:
                if extend(w, depth, missing_w, closers_w, short_w):
                    found.append((w, eid))
                    return True
            elif closers_w:
                cut_sides += 1
            else:
                cut_closing += 1
            if by_colour is not None:
                for m, y in by_colour[col]:
                    if not on_path[m] and (not on_path[y] or y == anchor or y == w):
                        live[m] += 1
            on_path[w] = used[col] = 0
        for m, _, c in near[v]:
            if not on_path[m] and not used[c]:
                live[m] += 1
        return False

    try:
        for limit in limits:
            if limit < floor:  # no cycle through s is this short
                continue
            left -= 1
            if left < 0:
                raise BudgetExceeded(b.limit)
            if extend(anchor, 0, len(rest), len(adj[anchor]), root_short):
                found.reverse()
                return (anchor,) + tuple(w for w, _ in found[:-1]), tuple(e for _, e in found)
        return None
    finally:
        b.used = b.limit - left
        b.cuts["closing"] += cut_closing
        b.cuts["sides"] += cut_sides
        b.cuts["short"] += cut_short
        del extend  # it refers to itself through its cell; free the search state now


def _vertex_ids(g: Graph, s) -> list:
    """The distinct vertices of s in ascending order. Raises
    InvalidParameter if s is empty or holds an id outside 0..n-1."""
    s = sorted(set(s))
    if not s:
        raise InvalidParameter("need at least one vertex")
    if s[0] < 0 or s[-1] >= g.n:
        raise InvalidParameter(f"vertex {s[0] if s[0] < 0 else s[-1]} is not in 0..{g.n - 1}")
    return s


def cycle_through_exists(g: Graph, s, budget=None) -> bool:
    """Exact: is there a simple cycle containing every vertex of s?"""
    s = _vertex_ids(g, s)
    b = Budget.of(budget)
    return _anchored_cycle(g, s, b, (g.n,)) is not None


def in_family_Fk(g: Graph, k: int, budget=None) -> bool:
    """Membership in F_k: any k vertices lie on a common cycle.

    k = 1 and k = 2 use the structural characterisations (2-connected blocks,
    2-connectivity). For k >= 3 a Hamilton cycle settles it: that is the
    anchored-cycle search through all n vertices (71 nodes on Q_6), and its
    nodes, at most 2 M of them, count against ``budget`` too. Without one,
    every k-subset is checked, which is exponential. The subsets are visited
    in colex order, and one inside a cycle found for an earlier subset, or
    inside its image under a shift of twins (_twin_shifts), needs no search.
    """
    if k < 1:
        raise InvalidParameter("k must be positive")
    if k > g.n:
        return False
    if k == 1:
        dec = block_decomposition(g)
        good = set()
        for blk in dec.blocks:
            if blk.is_two_connected:
                good.update(blk.vertices)
        return len(good) == g.n
    if not is_k_connected(g, 2):
        return False
    if k == 2:
        return True
    b = Budget.of(budget)
    # the shortcut may give up after 2 M nodes; what it spends and cuts is
    # charged to b, which may have run out already
    shortcut = Budget(max(0, min(b.limit - b.used, 2_000_000)))
    try:
        hamiltonian = find_hamilton_cycle(g, shortcut) is not None
    except BudgetExceeded:
        hamiltonian = False
    for rule, count in shortcut.cuts.items():
        b.cuts[rule] = b.cuts.get(rule, 0) + count
    b.spend(shortcut.used)
    if hamiltonian:
        return True
    cover, shifts = _WitnessCover(g.n), _twin_shifts(g)
    for s in cover.uncovered(k):
        found = _anchored_cycle(g, s, b, (g.n,))
        if found is None:
            return False
        cover.add(found[0], shifts)
    return True
