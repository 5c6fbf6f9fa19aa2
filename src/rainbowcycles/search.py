"""Exact decision procedures over coloured graphs.

Every search here is complete: it returns a witness iff one exists, or raises
BudgetExceeded when the node budget runs out. Cycle searches anchor at the
lowest-id vertex of the requested set and explore neighbours in ascending
order, so the first witness found is deterministic. They end a path as soon
as the cycle can no longer close within its limit: by a distance bound, when
the anchor has no usable closing edge left, or when a missing vertex has
fewer than two usable edges (graph._anchored_cycle). These rules lower node
counts but never change a witness; Budget.cuts counts the states each of
the last two ended. Verification runs in one
process: one colex pass over the k-subsets, on the caller's budget, that
searches only the subsets no kept witness already covers. The kept witnesses
start as those the colouring carries from a self-verification, each re-checked
first, and grow by every witness the pass finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .colouring import (
    CycleWitness,
    EdgeColouring,
    TreeWitness,
    WalkWitness,
    check_cycle_witness,
    check_tree_witness,
)
from .errors import BudgetExceeded, InvalidParameter, NotInFamily
from .graph import (
    INF,
    Budget,
    Graph,
    _anchored_cycle,
    _bfs_distances,
    _bipartition,
    _kernel_adjacency,
    _neighbours_toward,
    _WitnessCover,
    in_family_Fk,
    is_connected,
)


# ---------------------------------------------------------------------------
# Rainbow cycles


def rainbow_cycle_through(c: EdgeColouring, s, budget=None):
    """First rainbow simple cycle containing every vertex of s, else None."""
    s = sorted(set(s))
    if not s:
        raise InvalidParameter("need at least one vertex")
    b = budget if isinstance(budget, Budget) else Budget(budget)
    found = _anchored_cycle(c.graph, s, b, (c.r,), c)
    return None if found is None else CycleWitness(*found)


def min_cycle_length_through(g: Graph, s, budget=None):
    """Exact minimum length of a simple cycle containing s, or None if none.

    Iterative deepening: level L is a complete search over cycles of length
    at most L, so the first level that yields a cycle is the exact minimum.
    """
    s = sorted(set(s))
    if not s:
        raise InvalidParameter("need at least one vertex")
    b = budget if isinstance(budget, Budget) else Budget(budget)
    cycle = _shortest_cycle_through(g, s, b)
    return None if cycle is None else len(cycle)


def _shortest_cycle_through(g: Graph, s, b: Budget, best: int = 0):
    """The vertex tuple of the first shortest simple cycle through every
    vertex of the non-empty sorted sequence s, or None if there is none.

    Iterative deepening from the distance floor lb0. An incumbent best
    above lb0 makes best the first level, which admits every cycle of
    length at most best: the cycle returned is then the first one found
    within best, not always a shortest one. A cycle found at a later level
    L is still the exact minimum, as every length below L was refuted. So
    a result no longer than best shows only that s cannot raise best, and
    a longer one is exact.
    """
    anchor = s[0]
    dist = {v: _bfs_distances(g, v) for v in s}
    if any(dist[v][anchor] is INF for v in s[1:]):
        return None
    lb0 = 3
    for v in s[1:]:
        lb0 = max(lb0, 2 * int(dist[v][anchor]))
        for w in s[1:]:
            if w > v and dist[w][v] is not INF:
                lb0 = max(lb0, 2 * int(dist[w][v]))
    found = _anchored_cycle(g, s, b, range(max(lb0, best), g.n + 1))
    return None if found is None else found[0]


# ---------------------------------------------------------------------------
# Rainbow trees


def rainbow_tree_through(c: EdgeColouring, s, budget=None):
    """First rainbow tree connecting every vertex of s, else None.

    Grows a connected subtree from the lowest-id vertex of s; failed
    (vertex-set, colour-set) states are memoised, which keeps the search
    exact while taming the duplicate growth orders.
    """
    g = c.graph
    s = sorted(set(s))
    if not s:
        raise InvalidParameter("need at least one vertex")
    b = budget if isinstance(budget, Budget) else Budget(budget)
    start = s[0]
    needed = frozenset(s)
    adj = g.adjacency
    colour_of = c.colour_of
    dead = set()
    edges_taken = []

    def grow(tree: frozenset, cols: frozenset) -> bool:
        b.spend()
        if needed <= tree:
            return True
        if len(tree) > c.r:  # a rainbow tree has at most r edges
            return False
        key = (tree, cols)
        if key in dead:
            return False
        frontier = []
        for v in tree:
            for w, eid in adj[v]:
                if w not in tree and colour_of[eid] not in cols:
                    frontier.append((eid, v, w))
        for eid, v, w in sorted(frontier):
            edges_taken.append(eid)
            if grow(tree | {w}, cols | {colour_of[eid]}):
                return True
            edges_taken.pop()
        dead.add(key)
        return False

    try:
        if not grow(frozenset({start}), frozenset()):
            return None
    finally:
        del grow  # it refers to itself through its cell; free the search state now
    verts = set()
    for eid in edges_taken:
        verts.update(g.edges[eid])
    verts.add(start)
    return TreeWitness(tuple(edges_taken), frozenset(verts))


# ---------------------------------------------------------------------------
# Full verification


@dataclass(frozen=True)
class VerificationReport:
    """The outcome of one colex pass. witnesses lists the rainbow cycles (or
    trees) the pass kept, in the order it kept them: the carried ones that
    passed their re-check, then one per subset searched with success. They
    hold every k-subset when certified, and every subset before bad_set
    otherwise, so check_cover re-checks a certified report without a search.
    subsets_checked counts the subsets visited: C(n, k), or the colex rank
    of bad_set plus one."""

    status: str  # "certified" | "counterexample"
    bad_set: tuple | None
    subsets_checked: int
    subsets_searched: int  # the subsets no kept witness covered
    search_nodes: int
    witnesses: tuple

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _verify_each_subset(c: EdgeColouring, k: int, b: Budget, kind) -> VerificationReport:
    """The one verification loop: visit each k-subset in colex order and stop
    at the first that has no witness of type kind (CycleWitness or
    TreeWitness), so the counterexample is the colex-least one. A subset
    inside a kept witness is covered by it; any other is searched with
    rainbow_cycle_through or rainbow_tree_through, and the witness found is
    kept. k must lie in 1..n.

    The kept witnesses start as those of type kind that c carries
    (EdgeColouring.witnesses) and pass check_cycle_witness or
    check_tree_witness as rainbow structures of c; the others are dropped. A
    kept witness is a rainbow structure either way, so the seeds change which
    subsets are searched, but not the status, bad_set or subsets_checked.
    subsets_searched counts the searches, and search_nodes is b.used:
    covered subsets spend no nodes."""
    n = c.graph.n
    if not 1 <= k <= n:
        raise InvalidParameter(f"k must lie in 1..{n}")
    if kind is CycleWitness:
        through, check = rainbow_cycle_through, check_cycle_witness
    else:
        through, check = rainbow_tree_through, check_tree_witness
    kept = _WitnessCover(n)
    witnesses = []
    for w in c.witnesses:
        if type(w) is kind and check(c.graph, w, c, require_rainbow=True):
            kept.add(w.vertices)
            witnesses.append(w)
    searched = 0
    for s in kept.uncovered(k):
        searched += 1
        w = through(c, s, b)
        if w is None:
            rank = sum(math.comb(v, i + 1) for i, v in enumerate(s))
            return VerificationReport("counterexample", s, rank + 1, searched, b.used,
                                      tuple(witnesses))
        kept.add(w.vertices)
        witnesses.append(w)
    return VerificationReport("certified", None, math.comb(n, k), searched, b.used,
                              tuple(witnesses))


def verify_k_rainbow_cycle_colouring(c: EdgeColouring, k: int, budget=None,
                                     check_family: bool = True) -> VerificationReport:
    """Check that every k-subset of vertices lies on a rainbow cycle.

    A counterexample is the colex-least one (see _verify_each_subset). A
    graph outside F_k raises NotInFamily. F_k lies inside F_2 for k <= n,
    and F_2 is decided without a search, so that part runs first. A
    certified colouring puts every k-subset on a cycle, which proves F_k
    membership, so the search for k >= 3 runs only after a counterexample,
    on the same budget. Callers that know the graph is in F_k can skip both.
    """
    g = c.graph
    b = budget if isinstance(budget, Budget) else Budget(budget)
    if check_family and (k > g.n or not in_family_Fk(g, min(k, 2))):
        raise NotInFamily(k)
    report = _verify_each_subset(c, k, b, CycleWitness)
    if check_family and k >= 3 and not report.certified:
        if not in_family_Fk(g, k, b):
            raise NotInFamily(k)
        report = replace(report, search_nodes=b.used)
    return report


def verify_k_rainbow_index_colouring(c: EdgeColouring, k: int, budget=None) -> VerificationReport:
    """Check that every k-subset of vertices is connected by a rainbow tree."""
    if not is_connected(c.graph):
        raise InvalidParameter("rainbow index needs a connected graph")
    b = budget if isinstance(budget, Budget) else Budget(budget)
    return _verify_each_subset(c, k, b, TreeWitness)


# ---------------------------------------------------------------------------
# Pigeonhole collisions in complete bipartite graphs


def colour_class_collision(c: EdgeColouring, k: int, mode: str = "auto"):
    """k vertices of the large class with identical incident colour signatures.

    mode "vector": identical colour vectors indexed by the small class U.
    mode "palette": identical incident colour sets, padded to |U| with the
    smallest absent colours -- the pigeonhole form used when 2k > |U|, where
    any cycle through the k vertices must repeat a colour.
    """
    g = c.graph
    if g.n < 2 or not is_connected(g):
        raise InvalidParameter("not a complete bipartite graph")
    classes = _bipartition(g)
    if classes is None:
        raise InvalidParameter("not bipartite")
    small, large = classes
    if g.e != len(small) * len(large):
        raise InvalidParameter("bipartite but not complete")
    if mode == "auto":
        mode = "palette" if 2 * k > len(small) else "vector"
    if mode not in ("vector", "palette"):
        raise InvalidParameter(f"unknown collision mode {mode!r}")
    groups = {}
    for v in large:
        vec = tuple(c.colour_of[g.edge_id(u, v)] for u in small)
        if mode == "vector":
            sig = vec
        else:
            pal = sorted(set(vec))
            pad = 0
            while len(pal) < min(len(small), c.r):
                if pad not in pal:
                    pal.append(pad)
                pad += 1
            sig = tuple(sorted(pal))
        bucket = groups.setdefault(sig, [])
        bucket.append(v)
        if len(bucket) == k:
            return tuple(bucket)
    return None


# ---------------------------------------------------------------------------
# S-subdivided closed walks


def find_subdivided_closed_walk(g: Graph, s, colouring: EdgeColouring | None = None,
                                budget=None):
    """Exact search for an S-subdivided closed walk visiting the ordered tuple s.

    Repeated consecutive anchors get the trivial path; distinct consecutive
    anchors get a path of length >= 2 whose internal vertices avoid every
    anchor and every other path. With a colouring the walk must additionally
    be rainbow. Returns a WalkWitness or None (proven absent).

    Iterative deepening on the total walk length keeps the backtracking from
    wandering: each level is a complete search over walks of that total
    length, and the distance-based level bounds make the exhaustion exact.
    One node is one DFS state entered: a path started at its anchor, or a
    path extended by one vertex. A state that the distance bound cuts at
    once still counts.

    Without a colouring each edge is its own colour, which cuts nothing, so
    both cases run the same loop. A path never repeats an edge, and two paths
    never share one: every edge of a path of length >= 2 has an internal
    endpoint, and an internal vertex is neither an anchor nor on another path.
    """
    s = tuple(s)
    if not s:
        raise InvalidParameter("need at least one anchor")
    b = budget if isinstance(budget, Budget) else Budget(budget)
    k = len(s)
    anchor_set = set(s)
    segments = []  # (index, a, b) for the non-trivial steps
    for i in range(k):
        a, bv = s[i], s[(i + 1) % k]
        if a != bv:
            segments.append((i, a, bv))
    paths: list = [None] * k
    for i in range(k):
        if s[i] == s[(i + 1) % k]:
            paths[i] = (s[i],)
    if not segments:
        return WalkWitness(s, tuple(paths))

    palette = _kernel_adjacency(g, colouring)[1]
    # per target: its distance row, and the adjacency ordered toward it
    toward = {bv: (_bfs_distances(g, bv), _neighbours_toward(g, colouring, bv))
              for _, _, bv in segments}
    seg_lb = []
    for _, a, bv in segments:
        d = toward[bv][0][a]
        if d is INF:
            return None
        seg_lb.append(max(2, int(d)))
    rest_lb = [0] * (len(segments) + 1)
    for i in range(len(segments) - 1, -1, -1):
        rest_lb[i] = rest_lb[i + 1] + seg_lb[i]

    vertex_cap = (g.n - len(anchor_set)) + len(segments)
    cap = vertex_cap if colouring is None else min(vertex_cap, palette)
    if rest_lb[0] > cap:
        return None
    marks = bytearray(g.n)  # the anchors and the internal vertices of the paths
    for v in anchor_set:
        marks[v] = 1
    used = bytearray(palette)
    left = b.limit - b.used  # nodes still allowed; Budget.used is set on exit
    cuts = []  # each step refers to itself through its cell; these free them on exit

    def path_search(j, enter_next):
        """Entry to the DFS of segment j: enter(edges_left) is True once this
        path and, through enter_next, all later ones are found."""
        i, a, target = segments[j]
        dist, nbrs = toward[target]
        rest = rest_lb[j + 1]
        trail = []  # on success: the target, then the internal vertices backwards

        def step(v, done, room):
            # room = edges this path may still use at the current level
            nonlocal left
            for w, eid, col in nbrs[v]:
                if used[col]:
                    continue
                if marks[w]:
                    # the target is an anchor, so it is marked too; a
                    # non-trivial path needs length >= 2
                    if w == target and done:
                        used[col] = 1
                        if enter_next(room + rest - 1):
                            trail.append(w)
                            return True
                        used[col] = 0
                    continue
                # the child's node, cut when max(dist[w], 1 - done) > room - 1;
                # 1 - done > room - 1 cannot hold, as this node has 2 - done <= room
                left -= 1
                if left < 0:
                    raise BudgetExceeded(b.limit)
                if dist[w] >= room:
                    continue
                marks[w] = used[col] = 1
                if step(w, done + 1, room - 1):
                    trail.append(w)
                    return True
                marks[w] = used[col] = 0
            return False

        def enter(edges_left):
            nonlocal left
            left -= 1
            if left < 0:
                raise BudgetExceeded(b.limit)
            room = edges_left - rest
            if max(dist[a], 2) > room or not step(a, 0, room):
                return False
            paths[i] = (a,) + tuple(reversed(trail))
            return True

        def cut():
            nonlocal step
            step = None

        cuts.append(cut)
        return enter

    def closed(edges_left):  # entered after the last path: the walk is complete
        return True

    enter = closed
    for j in range(len(segments) - 1, -1, -1):
        enter = path_search(j, enter)
    try:
        for level in range(rest_lb[0], cap + 1):
            if enter(level):
                return WalkWitness(s, tuple(paths))
        return None
    finally:
        b.used = b.limit - left
        for cut in cuts:
            cut()
