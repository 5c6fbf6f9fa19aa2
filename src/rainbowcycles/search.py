"""Exact decision procedures over coloured graphs.

Every search here is complete: it returns a witness iff one exists, or raises
BudgetExceeded when the node budget runs out. Cycle searches anchor at the
lowest-id vertex of the requested set and explore neighbours in ascending
order, so the first witness found is deterministic; rainbow_cycle_through
returns the least vertex tuple of all rainbow cycles through the set, each
taken in both directions and rotated to start at its anchor. They end a path
as soon as the cycle can no longer close within its limit: by a distance
bound, when the anchor has no usable closing edge left, or when a missing
vertex has fewer than two usable edges; and a path whose missing vertex is
down to one usable edge is extended only to that vertex
(graph._anchored_cycle). These rules lower node counts but never change a
witness; Budget.cuts counts the states each of the last three ended or
narrowed. Verification runs in one process: one colex pass over the
k-subsets, on the caller's budget, that searches only the subsets no kept
witness already covers. The kept witnesses start as those the colouring
carries from a self-verification, each re-checked first, and grow by every
witness the pass finds and by its images under the caller's symmetries:
vertex permutations that map the coloured graph onto itself up to a renaming
of colours, each checked before the pass.
"""

from __future__ import annotations

import itertools
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
    _kernel_palette,
    _vertex_ids,
    _WitnessCover,
    in_family_Fk,
    is_connected,
)


# ---------------------------------------------------------------------------
# Rainbow cycles


def rainbow_cycle_through(c: EdgeColouring, s, budget=None):
    """First rainbow simple cycle containing every vertex of s, else None."""
    s = _vertex_ids(c.graph, s)
    b = Budget.of(budget)
    found = _anchored_cycle(c.graph, s, b, (c.r,), c)
    return None if found is None else CycleWitness(*found)


def min_cycle_length_through(g: Graph, s, budget=None):
    """Exact minimum length of a simple cycle containing s, or None if none.

    Iterative deepening: level L is a complete search over cycles of length
    at most L, so the first level that yields a cycle is the exact minimum.
    The kernel skips the levels below its distance floor without a node
    (graph._anchored_cycle).
    """
    s = _vertex_ids(g, s)
    found = _anchored_cycle(g, s, Budget.of(budget), range(3, g.n + 1))
    return None if found is None else len(found[0])


# ---------------------------------------------------------------------------
# Rainbow trees


def rainbow_tree_through(c: EdgeColouring, s, budget=None):
    """First rainbow tree connecting every vertex of s, else None.

    Grows a connected subtree from the lowest-id vertex of s; failed
    (vertex-set, colour-set) states are memoised, which keeps the search
    exact while taming the duplicate growth orders.
    """
    g = c.graph
    s = _vertex_ids(g, s)
    b = Budget.of(budget)
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
    passed their re-check, then, for each subset searched with success, the
    witness found and its new images under the kept symmetries. So a
    certified report has len(witnesses) >= subsets_searched. They hold every
    k-subset when certified, and every subset before bad_set otherwise, so
    check_cover re-checks a certified report without a search.
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


def _colour_symmetries(c: EdgeColouring, perms) -> list:
    """The permutations among perms that map c onto itself up to a renaming
    of colours, each as (p, edge_map) with edge_map[eid] the id of edge
    eid's image; the others are dropped.

    p is kept iff it is a permutation of range(n), it maps every edge onto
    an edge (one lookup each in edge_index, keyed by both orientations),
    and the pairs (colour of e, colour of e's image) name each colour of c
    once, so the renaming is a map. It is one-to-one too: p maps the edges
    one-to-one onto the edges, so the renaming is onto the colours used, of
    which there are as many as it renames. A rainbow structure then maps
    onto a rainbow structure. The check spends no budget nodes."""
    if not perms:
        return []
    g = c.graph
    vertices = set(range(g.n))
    index = dict(g.edge_index)
    index.update(((v, u), eid) for (u, v), eid in g.edge_index.items())
    tails = tuple(u for u, _ in g.edges)
    heads = tuple(v for _, v in g.edges)
    colour_of = c.colour_of
    used = len(set(colour_of))
    kept = []
    for p in perms:
        if len(p) != g.n or set(p) != vertices:
            continue
        edge_map = list(map(index.get, zip(map(p.__getitem__, tails),
                                           map(p.__getitem__, heads))))
        if None in edge_map:
            continue
        if len(set(zip(colour_of, map(colour_of.__getitem__, edge_map)))) == used:
            kept.append((p, edge_map))
    return kept


def _witness_image(w, p, edge_map):
    """The image of a cycle or tree witness under the vertex permutation p,
    whose edge ids map by edge_map."""
    edge_ids = tuple(map(edge_map.__getitem__, w.edge_ids))
    if type(w) is CycleWitness:
        return CycleWitness(tuple(map(p.__getitem__, w.vertices)), edge_ids)
    return TreeWitness(edge_ids, frozenset(map(p.__getitem__, w.vertices)))


def _verify_each_subset(c: EdgeColouring, k: int, b: Budget, kind,
                        symmetries=()) -> VerificationReport:
    """The one verification loop: visit each k-subset in colex order and stop
    at the first that has no witness of type kind (CycleWitness or
    TreeWitness), so the counterexample is the colex-least one. A subset
    inside a kept witness is covered by it; any other is searched with
    rainbow_cycle_through or rainbow_tree_through, and the witness found is
    kept, followed by its images under the symmetries that pass
    _colour_symmetries; the other symmetries are dropped. An image whose
    vertex set a kept witness already has is skipped
    (_WitnessCover.add). k must lie in 1..n.

    The kept witnesses start as those of type kind that c carries
    (EdgeColouring.witnesses) and pass check_cycle_witness or
    check_tree_witness as rainbow structures of c; the others are dropped. A
    kept witness or image is a rainbow structure either way, so the seeds and
    the symmetries change which subsets are searched, but not the status,
    bad_set or subsets_checked. subsets_searched counts the searches, and
    search_nodes is b.used: covered subsets, the symmetry check and the
    images spend no nodes."""
    n = c.graph.n
    if not 1 <= k <= n:
        raise InvalidParameter(f"k must lie in 1..{n}")
    if kind is CycleWitness:
        through, check = rainbow_cycle_through, check_cycle_witness
    else:
        through, check = rainbow_tree_through, check_tree_witness
    symmetries = _colour_symmetries(c, symmetries)
    perms = [p for p, _ in symmetries]
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
        witnesses.append(w)
        for i in kept.add(w.vertices, perms):
            witnesses.append(_witness_image(w, *symmetries[i]))
    return VerificationReport("certified", None, math.comb(n, k), searched, b.used,
                              tuple(witnesses))


def verify_k_rainbow_cycle_colouring(c: EdgeColouring, k: int, budget=None,
                                     check_family: bool = True,
                                     symmetries=()) -> VerificationReport:
    """Check that every k-subset of vertices lies on a rainbow cycle.

    A counterexample is the colex-least one (see _verify_each_subset). A
    graph outside F_k raises NotInFamily. F_k lies inside F_2 for k <= n,
    and F_2 is decided without a search, so that part runs first. A
    certified colouring puts every k-subset on a cycle, which proves F_k
    membership, so the search for k >= 3 runs only after a counterexample,
    on the same budget. Callers that know the graph is in F_k can skip both.

    symmetries, a sequence of vertex permutations, are hints: one that maps
    c onto itself up to a renaming of colours makes each witness found
    bring its images along, and any other is dropped (_colour_symmetries).
    """
    g = c.graph
    b = Budget.of(budget)
    if check_family and (k > g.n or not in_family_Fk(g, min(k, 2))):
        raise NotInFamily(k)
    report = _verify_each_subset(c, k, b, CycleWitness, symmetries)
    if check_family and k >= 3 and not report.certified:
        if not in_family_Fk(g, k, b):
            raise NotInFamily(k)
        report = replace(report, search_nodes=b.used)
    return report


def verify_k_rainbow_index_colouring(c: EdgeColouring, k: int, budget=None,
                                     symmetries=()) -> VerificationReport:
    """Check that every k-subset of vertices is connected by a rainbow tree.
    symmetries are hints, as for verify_k_rainbow_cycle_colouring."""
    if not is_connected(c.graph):
        raise InvalidParameter("rainbow index needs a connected graph")
    b = Budget.of(budget)
    return _verify_each_subset(c, k, b, TreeWitness, symmetries)


# ---------------------------------------------------------------------------
# Pigeonhole collisions in complete bipartite graphs


def colour_class_collision(c: EdgeColouring, k: int, mode: str = "auto"):
    """k vertices of the large class with identical incident colour signatures.

    mode "vector": identical colour vectors indexed by the small class U.
    mode "palette": identical incident colour sets, padded to |U| with the
    smallest absent colours -- the pigeonhole form used when 2k > |U|, where
    any cycle through the k vertices must repeat a colour. A k below 1
    raises InvalidParameter.
    """
    if k < 1:
        raise InvalidParameter("k must be positive")
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
    be rainbow. Returns a WalkWitness or None (proven absent). An empty s,
    an id outside 0..n-1 or a colouring of another graph than g raises
    InvalidParameter.

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

    A colouring with quotients (EdgeColouring.quotients) is first tested
    with a block-quotient bound. Map each vertex to its part: a rainbow walk
    becomes a closed walk on the parts that visits the anchors' parts in
    cyclic order, moves at least once between consecutive anchors in
    different parts, and crosses between parts p and q at most m(p, q)
    times, m(p, q) being the number of distinct colours on the edges between
    them, as no colour repeats. If some partition admits no such part walk
    (_part_walk_exists), the walk is absent: the result is None and
    b.cuts["quotient"] counts it. m is read from the colours, not from the
    hint, so the bound is sound for any partition; a colour on the edges of
    several pairs counts on each, which makes it weaker, not wrong. When the
    partitions cut every edge, each edge of a path crosses in at least one
    of them, so a path's crossings summed over the partitions are at least
    its length, 2 or more: a segment whose part distances sum to less than
    2 must cross more in some partition, and the walk is absent unless
    giving its missing crossings to one of the partitions lets every
    partition's part walk exist (_quotients_admit_walk). Each move of the
    part-walk search spends one node of the budget.
    """
    s = tuple(s)
    _vertex_ids(g, s)
    if colouring is not None and colouring.graph is not g and colouring.graph != g:
        raise InvalidParameter("the colouring is of another graph")
    b = Budget.of(budget)
    k = len(s)
    anchor_set = set(s)
    segments = []  # (index, a, b) for the non-trivial steps
    paths: list = [None] * k
    for i, a in enumerate(s):
        if a == s[(i + 1) % k]:
            paths[i] = (a,)
        else:
            segments.append((i, a, s[(i + 1) % k]))
    if not segments:
        return WalkWitness(s, tuple(paths))

    palette = _kernel_palette(g, colouring)
    toward = {}  # per target: its distance row, and the adjacency ordered toward it
    for _, _, bv in segments:
        dist = _bfs_distances(g, bv)
        toward[bv] = dist, palette.toward(bv, dist)
    rest_lb = [0]  # rest_lb[j]: the fewest edges of the paths from j on
    for _, a, bv in reversed(segments):
        d = toward[bv][0][a]
        if d is INF:
            return None
        rest_lb.insert(0, rest_lb[0] + max(2, int(d)))

    # a walk repeats no colour, and without a colouring no edge, as no two
    # paths share one: it has at most palette.colours edges
    cap = min(g.n - len(anchor_set) + len(segments), palette.colours)
    if rest_lb[0] > cap:
        return None
    if colouring is not None and colouring.quotients:
        refuted = not _quotients_admit_walk(colouring, s, b)
        b.cuts["quotient"] = b.cuts.get("quotient", 0) + refuted
        if refuted:
            return None
    marks = bytearray(g.n)  # the anchors and the internal vertices of the paths
    for v in anchor_set:
        marks[v] = 1
    used = bytearray(palette.colours)
    left = b.limit - b.used  # nodes still allowed; Budget.used is set on exit
    trail = []  # on success: a path's target, then its internal vertices backwards

    def enter(j, edges_left):  # True once path j and all later ones are found
        nonlocal left
        if j == len(segments):
            return True
        left -= 1
        if left < 0:
            raise BudgetExceeded(b.limit)
        i, a, target = segments[j]
        dist, nbrs = toward[target]
        room = edges_left - rest_lb[j + 1]
        if max(dist[a], 2) > room or not step(j, a, 0, room, target, dist, nbrs):
            return False
        paths[i] = (a, *reversed(trail))
        trail.clear()
        return True

    def step(j, v, done, room, target, dist, nbrs):
        # path j is at v after done edges; room = edges it may still use
        nonlocal left
        for w, eid, col in nbrs[v]:
            if used[col]:
                continue
            if marks[w]:
                # the target is an anchor, so it is marked too; a
                # non-trivial path needs length >= 2
                if w == target and done:
                    used[col] = 1
                    if enter(j + 1, room - 1 + rest_lb[j + 1]):
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
            if step(j, w, done + 1, room - 1, target, dist, nbrs):
                trail.append(w)
                return True
            marks[w] = used[col] = 0
        return False

    try:
        for level in range(rest_lb[0], cap + 1):
            if enter(0, level):
                return WalkWitness(s, tuple(paths))
        return None
    finally:
        b.used = b.limit - left
        del enter, step  # they refer to each other through their cells


def _quotients_admit_walk(c: EdgeColouring, s, b: Budget) -> bool:
    """Whether the partitions of c.quotients admit the part walks of a
    rainbow walk through s, one part walk each (_part_walk_exists).

    When every edge joins different parts in some partition (the cut flag
    of EdgeColouring._quotient_graphs), a path's crossings summed over the
    partitions are at least its length, which is at least 2 between
    distinct anchors. A segment whose part distances sum to less than 2 is
    tight, and a split gives the crossings it is short of to one partition,
    which must cross on that segment at least its part distance plus them.
    The walk is refuted iff no split lets every partition's part walk
    exist. This loses nothing: a segment 2 short has its anchors in one
    part of every partition, so a partition given 1 of its crossings must
    still leave that part and come back. Without a tight segment there is
    one split, with no demand, and each partition is checked once in
    order, stopping at the first that fails; a partition's answer for one
    demand is computed once."""
    graphs, cut = c._quotient_graphs
    k = len(s)
    tight = []  # (segment index, part distance in each partition, crossings short)
    if cut:
        for i in range(k):
            a, z = s[i], s[(i + 1) % k]
            if a != z:
                dists = [dist[part[a]][part[z]] for part, _, _, dist in graphs]
                if sum(dists) < 2:
                    tight.append((i, dists, 2 - sum(dists)))
    answers = [{} for _ in graphs]  # per partition: demand -> whether its walk exists
    for split in itertools.product(range(len(graphs)), repeat=len(tight)):
        for j, quotient in enumerate(graphs):
            demand = [0] * k
            for (i, dists, short), taker in zip(tight, split):
                if taker == j:
                    demand[i] = dists[j] + short
            demand = tuple(demand)
            if demand not in answers[j]:
                answers[j][demand] = _part_walk_exists(quotient, s, b, demand)
            if not answers[j][demand]:
                break
        else:
            return True
    return False


def _part_walk_exists(quotient, s, b: Budget, demand) -> bool:
    """Whether a closed walk on the parts of quotient, an entry of
    EdgeColouring._quotient_graphs, visits the parts of the anchors of s in
    cyclic order, crosses each pair of parts at most as often as its count
    allows, and makes at least demand[i] moves between the parts of s[i]
    and s[i + 1] (cyclically). The legs are the anchors' parts, each with
    the demand of the step that reaches it, and a part that repeats its
    cyclic predecessor with no demand is dropped; the walk starts at the
    last. A demand comes from the sum rule of _quotients_admit_walk: where
    the partitions cut every edge, a path's crossings summed over them are
    at least its length, so a segment short of 2 by its part distances must
    make the difference up in some partition.

    Two exact rules keep it small. A leg that passes some part twice after
    its demand is met still meets it once the loop between the two passes
    is cut out, which only frees crossings, so the rest of each leg is
    searched as a simple path; before that the leg may revisit parts, as
    cutting a loop there could leave it short of its demand. And a part's
    crossings, the sum of counts over its pairs, must cover two for each
    visit: slack[p] is what is left after the visits still due, so a part
    with slack below 0 refutes the walk at once, and a leg may pass through
    a part, the target of a leg whose demand is not yet met included, only
    while its slack is at least 2. Each move between parts spends one node
    of b."""
    part, adj, counts, _ = quotient
    seq = [part[v] for v in s]
    legs = [(p, demand[i - 1]) for i, p in enumerate(seq) if p != seq[i - 1] or demand[i - 1]]
    if not legs:  # every anchor in one part, and no demand
        return True
    slack = [sum(counts[pair] for _, pair in row) for row in adj]
    for p, _ in legs:
        slack[p] -= 2
    return min(slack) >= 0 and _part_path(adj, list(counts), slack, legs, b, 0,
                                          legs[-1][0], 0, legs[0][1])


def _part_path(adj, room, slack, legs, b: Budget, j, at, seen, due) -> bool:
    """Whether the legs from the j-th on can be walked, the walk being at
    part at, due the moves leg j must still make before it may end, and
    seen the parts that leg j has passed since its demand was met, one bit
    each; room and slack are restored on the way back."""
    target = legs[j][0]
    if not due:
        seen |= 1 << at
    for q, pair in adj[at]:
        if not room[pair] or seen >> q & 1:
            continue
        if q == target and due <= 1:
            b.spend()
            if j + 1 == len(legs):
                return True
            room[pair] -= 1
            if _part_path(adj, room, slack, legs, b, j + 1, q, 0, legs[j + 1][1]):
                return True
            room[pair] += 1
        elif slack[q] >= 2:
            b.spend()
            room[pair] -= 1
            slack[q] -= 2
            if _part_path(adj, room, slack, legs, b, j, q, seen, max(due - 1, 0)):
                return True
            room[pair] += 1
            slack[q] += 2
    return False
