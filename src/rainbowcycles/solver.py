"""Exact computation of crx_k and rx_k by canonical exhaustive enumeration.

Colourings are enumerated as restricted-growth strings over the canonical
edge order (first edge gets colour 0, each later edge a colour at most one
above the maximum so far), which kills the r! colour-permutation symmetry
exactly: the colourings with exactly r classes are counted by the Stirling
partition number S(e, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constructions as cons
from .colouring import CycleWitness, EdgeColouring, rainbow_colouring
from .errors import (
    AttemptsExhausted,
    BudgetExceeded,
    InvalidParameter,
    NotInFamily,
    RegimeUnsupported,
)
from .generators import _family_symmetries, wheel
from .graph import (
    Budget,
    Graph,
    _anchored_cycle,
    _is_cycle_graph,
    _multipartite_classes,
    _twin_shifts,
    _WitnessCover,
    _bfs_distances,
    _colex_masks,
    _members,
    _rooted_cycles,
    cycle_vertices_to_edge_ids,
    find_hamilton_cycle,
    girth,
    in_family_Fk,
    is_connected,
)
from .search import _witness_image

# The node budget of an exact solve given none. A solve with budget N walks
# at most N + 1 nodes and builds a cover table of at most
# _TABLE_CELLS_PER_NODE * N cells (see _reserve_table). Measured per unit
# (Python 3.11, 2 vCPUs): a propagator node up to about 160 us
# (rx_exact(wheel(8), 5), about 40 s at this default), a structure-listing
# node up to about 0.25 KB, as the listing keeps at most one entry per path
# or tree it walks besides the structures it lists (crx_exact(hypercube(5),
# 2); rx_exact(hypercube(5), 3) about 0.17 KB, and on complete(40) at
# k = 2 and 3 at most 0.24 KB for crx and 0.09 KB for rx), a table cell
# about 0.1 us and 7 bytes (rx_exact(hypercube(4), 3), 1.0 M cells) and up
# to about 1 us where its structure covers its subset.
DEFAULT_EXACT_BUDGET = 250_000
_TABLE_CELLS_PER_NODE = 16
SAMPLER_ATTEMPTS = 200  # samples a randomised constructor in crx_interval may draw


@dataclass(frozen=True)
class Certificate:
    """Lower-bound evidence as the solver found it; the library does not re-check it.

    distance_bound, payload ``subset``, ``length`` and ``mode``: every
    structure covering the k-subset ``subset`` has at least ``length`` edges
    (for crx the shortest cycle through it, for rx the smallest tree
    containing it), so a rainbow one needs that many colours. ``mode`` says
    how the bound was found: ``exhaustive`` (the most over every k-subset),
    ``exhaustive-partial`` (the most over the k-subsets before the budget
    ran out), ``girth`` (no cycle is shorter than the girth),
    ``diameter`` (``subset`` holds two vertices at distance d, the
    diameter, so a tree through it has at least d edges and a cycle 2d) or
    ``subset-size`` (a cycle through k vertices has k edges, a tree holding
    them k - 1).
    exhaustion: every one of the ``candidates`` canonical ``r``-colourings
    was refuted by the search.
    """

    kind: str  # distance_bound | exhaustion
    payload: dict


@dataclass(frozen=True)
class CrxResult:
    kind: str  # exact | interval
    lower: int
    upper: int
    witness: EdgeColouring | None = None
    evidence: tuple[Certificate, ...] = ()

    @property
    def value(self) -> int:
        if self.kind != "exact":
            raise InvalidParameter("no exact value; inspect lower/upper")
        return self.lower


def stirling2(n: int, k: int) -> int:
    """Stirling partition numbers by the standard recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def canonical_colourings(e: int, r: int):
    """All restricted-growth strings of length e using exactly r values."""
    seq = [0] * e

    def rec(i, used):
        if e - i < r - used:
            return
        if i == e:
            if used == r:
                yield tuple(seq)
            return
        for c in range(min(used + 1, r)):
            seq[i] = c
            yield from rec(i + 1, used + (1 if c == used else 0))

    yield from rec(0, 0)


def crx_exact(g: Graph, k: int, budget=None) -> CrxResult:
    """Exact k-rainbow cycle index by canonical enumeration (see _exact); the
    structures that must be rainbow are the simple cycles, listed by
    length (_cycle_lister) from the largest of 3, k and, for k >= 2, twice
    the diameter (_start). Without a budget it runs on DEFAULT_EXACT_BUDGET
    nodes. A budget spent after the F_k precheck and before the distance
    bound is known, or too small for the cover table (see _reserve_table),
    gives the interval [start, e], start being the largest of the girth
    and those terms, with its certificate; one spent inside the precheck
    raises BudgetExceeded, with no interval."""
    b = Budget.of(budget, DEFAULT_EXACT_BUDGET)
    if not in_family_Fk(g, k, b):
        raise NotInFamily(k)
    return _exact(g, k, b, _cycle_lister(g, b), *_start(g, k, cycles=True))


def rx_exact(g: Graph, k: int, budget=None) -> CrxResult:
    """Exact k-rainbow index by canonical enumeration (see _exact); rx_1 = 0.

    The structures that must be rainbow are the subtrees with at most k
    leaves, each covering the k-subsets that hold its leaves: pruning the
    leaves outside S from a rainbow tree through S leaves one of them. They
    are listed by edge count (_subtree_lister) from the larger of k - 1 and
    the diameter (_start). Without a budget it runs on DEFAULT_EXACT_BUDGET
    nodes. A budget spent before the distance bound is known, or too small
    for the cover table (see _reserve_table), gives the interval [start, e],
    start being that larger term, with its certificate.
    """
    if not is_connected(g):
        raise InvalidParameter("rx needs a connected graph")
    if not 1 <= k <= g.n:
        raise InvalidParameter(f"k must lie in 1..{g.n}")
    if k == 1:
        return CrxResult("exact", 0, 0, None, ())
    b = Budget.of(budget, DEFAULT_EXACT_BUDGET)
    return _exact(g, k, b, _subtree_lister(g, k, b), *_start(g, k, cycles=False))


def _diameter(g: Graph) -> tuple[int, tuple]:
    """The diameter of the connected graph g and the lexicographically least
    pair of vertices at that distance."""
    diameter, pair = 0, ()
    for u in range(g.n):
        row = _bfs_distances(g, u)
        far = max(row)
        if far > diameter:
            diameter, pair = far, (u, row.index(far))
    return diameter, pair


def _start(g: Graph, k: int, cycles: bool) -> tuple:
    """Where _exact's listing starts, a lower bound on its distance bound
    found without a search, and a function giving the certificate of that
    lower bound with the girth added for cycles. The terms: for cycles the
    girth, k (a cycle through k vertices has k edges) and for k >= 2 twice
    the diameter (a cycle through two vertices at distance d has at least
    2d edges), the listing starting at least at 3 in place of the girth,
    which costs a search; for trees k - 1 and the diameter. The
    certificate's mode names the first largest term, and its subset is the
    least k-subset holding the diametral pair of _diameter for the
    diameter, else range(k)."""
    diameter, pair = _diameter(g) if k >= 2 else (0, ())
    if cycles:
        terms = [("subset-size", k), ("diameter", 2 * diameter)]
    else:
        terms = [("subset-size", k - 1), ("diameter", diameter)]

    def certificate():
        lead = [("girth", girth(g))] if cycles else []
        mode, length = max(lead + terms, key=lambda term: term[1])
        subset = tuple(range(k))
        if mode == "diameter":
            subset = tuple(sorted([*pair, *[v for v in range(g.n) if v not in pair][:k - 2]]))
        return _distance_certificate(subset, length, mode)

    return max(3 if cycles else 0, *(length for _, length in terms)), certificate


def _reserve_table(g: Graph, k: int, b: Budget, structures: int = 1):
    """Raise BudgetExceeded when the cover table of _exact, a row of one cell
    per structure listed so far for each k-subset, would have more than
    _TABLE_CELLS_PER_NODE cells per node of b's limit. Adding structures to
    the table tests and may store every cell of theirs, and no node counts
    it, so this test, made after each listing and before its structures are
    added, stands in for that count; it spends nothing, and no node count
    changes. Made with one structure before the first listing, it stops a
    solve whose rows alone are too many without listing anything."""
    if math.comb(g.n, k) * structures > _TABLE_CELLS_PER_NODE * b.limit:
        raise BudgetExceeded(b.limit)


def _distance_certificate(subset, length: int, mode: str) -> Certificate:
    return Certificate("distance_bound", {"subset": subset, "length": length, "mode": mode})


def _lister(deferred, walk):
    """A lister for _exact: called with L, it takes from deferred, a dict
    from a length to the states kept at it, the states kept at lengths up
    to L, and returns walk(those states, L), the structures with at most L
    edges that no earlier call returned, and the least length still kept,
    None when nothing is: no structure not yet returned is shorter."""

    def upto(bound):
        ready = [state for length in sorted(deferred) if length <= bound
                 for state in deferred.pop(length)]
        return walk(ready, bound), min(deferred, default=None)

    return upto


def _cycle_lister(g: Graph, b: Budget):
    """The lister of crx_exact: the simple cycles as (edge ids, (), vertex
    tuple), resuming graph._rooted_cycles from the paths the earlier calls
    kept, so no path is entered twice."""
    deferred = {0: [((v,), None) for v in range(g.n)]}
    return _lister(deferred, lambda starts, bound: [
        (cycle_vertices_to_edge_ids(g, c), (), c)
        for c in _rooted_cycles(g, b, starts, bound, deferred)])


def _subtree_lister(g: Graph, k: int, b: Budget):
    """The lister of rx_exact: the subtrees with an edge and at most k
    leaves as (edge ids, leaves, vertices), resuming _grow_subtrees from the
    trees the earlier calls kept, so no tree is walked twice."""
    adj = g.adjacency
    deferred = {0: [(root, frozenset((root,)), (), [(eid, x) for x, eid in adj[root] if x > root],
                     frozenset()) for root in range(g.n)]}
    b.cuts.setdefault("leaves", 0)
    b.cuts.setdefault("length", 0)

    def walk(states, bound):
        trees = []
        for state in states:
            _grow_subtrees(adj, k, b, bound, trees, deferred, *state)
        return trees

    return _lister(deferred, walk)


def _grow_subtrees(adj, k, b, bound, out, deferred, root, verts, eids, frontier, ends, walked=False):
    """Append to out, as (edge ids, leaves, vertices), each subtree with an
    edge, at most k leaves and at most bound edges that has least vertex
    root and extends the tree (verts, eids), whose leaves are ends, by (edge
    id, new vertex) pairs of frontier. Each pair is included with only the
    pairs after it left to grow by, so each subtree is reached once.
    Walking the tree appends it to out and charges one budget node for it
    and one per pair of frontier.

    Growing a tree never lowers its leaves: the first edge gives two, and a
    new vertex hung on a leaf keeps the count, on an inner vertex adds one.
    So every tree on the way to one with at most k leaves has at most k,
    and an inclusion that would give more than k lists nothing; it is not
    made, and ``b.cuts["leaves"]`` counts it. A tree with bound edges makes
    no inclusion: ``b.cuts["length"]`` counts those it would make, and if
    there are any its arguments from root to ends are appended once, with
    walked True, to deferred[bound + 1]. Passing them back with a larger
    bound resumes the listing from its inclusions, so over the first calls
    and their resumptions no tree is walked twice, at most one entry is
    kept per tree walked, and each resumption lists exactly the subtrees
    with more edges than the earlier bound and at most its own."""
    if not walked:
        for _ in range(len(frontier) + 1):
            b.spend()
        if eids:
            out.append((eids, ends, verts))
    kept = False
    for i in reversed(range(len(frontier))):
        eid, w = frontier[i]
        p = next(x for x, e2 in adj[w] if e2 == eid)  # w hangs on p
        if not eids:
            grown_ends = frozenset((p, w))
        elif p in ends:
            grown_ends = ends - {p} | {w}
        else:
            grown_ends = ends | {w}
        if len(grown_ends) > k:
            if not walked:
                b.cuts["leaves"] += 1
            continue
        if len(eids) == bound:
            b.cuts["length"] += 1
            kept = True
            continue
        grown = [f for f in frontier[i + 1:] if f[1] != w]
        grown += [(e2, x) for x, e2 in adj[w] if x > root and x not in verts]
        _grow_subtrees(adj, k, b, bound, out, deferred, root, verts | {w}, eids + (eid,), grown,
                       grown_ends)
    if kept:
        deferred.setdefault(bound + 1, []).append((root, verts, eids, frontier, ends, True))


def _exact(g: Graph, k: int, b: Budget, lister, first: int, certificate) -> CrxResult:
    """The least r admitting a canonical r-colouring in which every k-subset
    S is covered by a rainbow structure, with evidence for each smaller r.

    A structure (edge ids, must, vertices) covers S iff S holds every
    vertex of must and lies within vertices. lister(L) returns the
    structures with at most L edges that no earlier call returned, for L
    rising from call to call, and the least edge count a structure not yet
    returned may have (None when none is left). first is at most the
    distance bound, the largest, over S, of the fewest edges of a structure
    covering S.

    One loop runs over r from first. Whenever the least count left is at
    most r, the structures up to r are listed. While some S is uncovered, r
    jumps to the least count left, which skips the bounds that list
    nothing. So the r at which the last S is covered is the distance bound,
    with the colex-first S that needs it as its certificate, and no smaller
    r can be feasible. A listing that resumes where the last one stopped
    enters the same states whatever bounds it passed through, so where it
    starts changes no node count. Then the pass for r walks the surjective
    canonical r-colourings depth-first; a partial colouring is abandoned
    only when some S already has every covering structure spoiled by a
    repeated colour, which holds for all completions. The first feasible
    colouring found is the canonically least witness. The pass at r = e
    finds the rainbow colouring if none before it found one.

    Structure si is bit si of the int bitsets cov[t], the structures covering
    the t-th k-subset in colex order, and tmask[eid], those through edge
    eid. The pass for r holds exactly the structures with at most r edges.
    This is exact: a structure with more than r edges is never rainbow in
    an r-colouring, so leaving it out changes no colouring's feasibility.
    The walk order is the same and only subtrees without a feasible
    completion are cut, so the witness and every refuted r are the same as
    over the full table.

    A budget spent before the distance bound is known, or a table too large
    for it (see _reserve_table), gives the interval [length, e] with the
    certificate() as its evidence, a lower bound on the distance bound of
    that length, at least first; one spent later, in the pass for r or the
    listing before it, gives [r, e] with the evidence so far.
    """
    subsets_of, tmask, evidence = [], [0] * g.e, []
    r = later = first
    try:
        _reserve_table(g, k, b)
        masks = list(_colex_masks(g.n, k))
        cov, shortest = [0] * len(masks), [0] * len(masks)
        uncovered = len(masks)
        while True:
            if later is not None and later <= r:
                batch, later = lister(r)
                if batch:
                    _reserve_table(g, k, b, len(subsets_of) + len(batch))
                    uncovered -= _add_rows(masks, batch, tmask, subsets_of, cov, shortest)
            if uncovered:
                if later is None:
                    s = _members(masks[cov.index(0)])
                    raise InvalidParameter(f"no structure covers the {k}-subset {s}")
                r = later
                continue
            if not evidence:
                evidence.append(_distance_certificate(
                    _members(masks[shortest.index(r)]), r, "exhaustive"))
            witness = _search_r(g, r, b, tmask, subsets_of, cov, (1 << len(subsets_of)) - 1)
            if witness is not None:
                return CrxResult("exact", r, r, witness, tuple(evidence))
            evidence.append(Certificate("exhaustion", {"r": r, "candidates": stirling2(g.e, r)}))
            r += 1
    except BudgetExceeded:
        if evidence:
            return _budget_out(g, r, tuple(evidence))
        cert = certificate()
        return _budget_out(g, cert.payload["length"], (cert,))


def _add_rows(masks, batch, tmask, subsets_of, cov, shortest) -> int:
    """Add the structures of batch to _exact's cover table, sorted by edge
    count, as the next bits of tmask and cov, each with the list of the
    subsets it covers in subsets_of. masks[t] is the t-th k-subset in colex
    order as a vertex bitmask. shortest[t] takes the edge count of the first
    structure to cover that subset. Returns how many subsets batch covers
    first."""
    base = len(subsets_of)
    batch = sorted(batch, key=lambda st: len(st[0]))
    through = [[] for _ in tmask]
    covers = {}  # t -> the structures of batch covering the t-th subset, ascending
    for si, (eids, must, verts) in enumerate(batch, base):
        for eid in eids:
            through[eid].append(si)
        outside = ~sum(1 << v for v in verts)
        held = sum(1 << v for v in must)
        rows = [t for t, m in enumerate(masks) if not m & outside and m & held == held]
        subsets_of.append(rows)
        for t in rows:
            covers.setdefault(t, []).append(si)
    for eid, sis in enumerate(through):
        if sis:
            tmask[eid] |= _bitset(sis)
    first = 0
    for t, sis in covers.items():
        if not cov[t]:
            shortest[t] = len(batch[sis[0] - base][0])
            first += 1
        cov[t] |= _bitset(sis)
    return first


def _bitset(indices) -> int:
    """The int with bit i set for each i of the ascending list indices, in
    time linear in its length and width. Up to 16 indices it ORs shifts,
    which is quadratic but faster there: measured per call (Python 3.11),
    shifts cost less at every width up to 20,000 bits for 16 indices, and
    the bytearray's fixed cost is about 1 us."""
    if len(indices) <= 16:
        bits = 0
        for i in indices:
            bits |= 1 << i
        return bits
    bits = bytearray((indices[-1] >> 3) + 1)
    for i in indices:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _budget_out(g: Graph, lower: int, evidence) -> CrxResult:
    """The interval [lower, e] left by a budget-out, with the evidence for
    lower. When lower == e the value is e, and the rainbow
    colouring, the only canonical e-colouring, is the canonically least
    witness."""
    if lower < g.e:
        return CrxResult("interval", lower, g.e, None, evidence)
    return CrxResult("exact", lower, lower, rainbow_colouring(g), evidence)


def _search_r(g, r, b, tmask, subsets_of, cov, live):
    """First feasible canonical r-colouring, else None (complete refutation).

    live, passed down the recursion, holds the structures with no repeated
    colour; has[c], read only through live, those with an edge of colour c.
    Giving edge i colour c kills tmask[i] & live & has[c], and only the
    k-subsets of killed structures can lose their last live cover. No node
    is cut for having fewer edges left than colours unused: fresh colours
    on those edges would give a feasible colouring with fewer than r
    colours, which no pass of _exact meets, as r starts at the distance
    bound and rises only past refuted values.
    """
    m = g.e
    has = [0] * r
    colour = [0] * m

    def rec(i, used, live):
        b.spend()
        if i == m:
            return tuple(colour) if used == r else None
        through = tmask[i]
        for c in range(min(used + 1, r)):
            killed = through & live & has[c]
            now = live ^ killed
            if killed and _uncovers(killed, now, subsets_of, cov):
                continue
            colour[i] = c
            held = has[c]
            has[c] = held | through
            res = rec(i + 1, used + (1 if c == used else 0), now)
            has[c] = held
            if res is not None:
                return res
        return None

    try:
        found = rec(0, 0, live)
    finally:
        del rec  # it refers to itself through its cell; free the search state now
    return None if found is None else EdgeColouring(g, found, r)


def _uncovers(killed, live, subsets_of, cov):
    """Whether some k-subset of a structure in killed has no cover in live."""
    while killed:
        low = killed & -killed
        for ti in subsets_of[low.bit_length() - 1]:
            if not cov[ti] & live:
                return True
        killed ^= low
    return False


def crx_lower_bound_distance(g: Graph, k: int, budget=None) -> tuple[int, Certificate]:
    """Best shortest-cycle lower bound: max of min_cycle_length_through over
    all k-subsets, in one colex pass. A pass the budget cuts short is a
    partial maximisation, still a valid lower bound.

    Branch and bound against the incumbent best, the largest minimum so
    far: a subset's iterative deepening (graph._anchored_cycle) starts at
    limit best, which admits every cycle no longer than best, and any cycle
    found there settles it, as it cannot raise best. Only a subset with no
    cycle within best costs the deeper levels, and the cycle they find is
    its exact minimum. Every cycle found is kept. Its length is at most the
    best bound from then on, so a later subset inside it has a cycle no
    longer than the bound and needs no search. The pass order is the same
    either way, a subset is passed over only when it has a cycle no longer
    than best, and a record needs a strict gain, so the bound, its
    colex-first subset and the mode do not change. ``b.cuts["incumbent"]``
    counts the settled subsets.

    Every cycle found also brings its images under the twin shifts of g
    (graph._twin_shifts) and, on a wheel, cube or complete graph, the
    family's automorphisms (generators._family_symmetries), so the pass
    searches about one subset per orbit. An image is as long as its cycle,
    at most best once it is kept, so it too hides only subsets that cannot
    set a record. crx_lower_bound_distance(wheel(12), 3) takes 909
    nodes, 1,570 with the identity alone."""
    return _distance_bound(g, k, Budget.of(budget), _detect_family(g))


def _distance_bound(g: Graph, k: int, b: Budget, family) -> tuple[int, Certificate]:
    """crx_lower_bound_distance for g, whose _detect_family is family."""
    if not in_family_Fk(g, k, b):
        raise NotInFamily(k)
    perms = _twin_shifts(g)
    if family is not None:
        perms += _family_symmetries(*family[:2])
    kept = _WitnessCover(g.n)
    mode = "exhaustive"
    best, best_set, settled = 0, None, 0
    try:
        for s in kept.uncovered(k):
            found = _anchored_cycle(g, s, b, range(max(3, best), g.n + 1))
            if found is not None:
                kept.add(found[0], perms)
                if len(found[0]) > best:
                    best, best_set = len(found[0]), s
                else:
                    settled += 1
    except BudgetExceeded:
        mode += "-partial"  # a partial maximisation is still a lower bound
    b.cuts["incumbent"] = b.cuts.get("incumbent", 0) + settled
    return best, _distance_certificate(best_set, best, mode)


# ---------------------------------------------------------------------------
# Interval assembly from constructions plus certificates


def _detect_family(g: Graph):
    """(kind, param, order) for a named family, else None: vertex order[i]
    of g plays vertex i of the family's canonical labelling (see generators).
    Complete (multi)partite graphs are found in any labelling by
    _multipartite_classes, whose stable sort of the classes by size keeps
    the identity order on a canonical input. The other families get
    the identity order: cubes and wheels are found in gen's labelling, and
    complete graphs and cycles in any (a cycle's bound, the rainbow
    colouring of g, needs no order)."""
    n = g.n
    identity = tuple(range(n))
    if n >= 3 and g.e == n * (n - 1) // 2:
        return ("complete", n, identity)
    if _is_cycle_graph(g):
        return ("cycle", n, identity)
    if (n & (n - 1)) == 0 and n >= 4:
        dim = n.bit_length() - 1
        if g.e == n * dim // 2 and all(
            ((u ^ v) & (u ^ v) - 1) == 0 for u, v in g.edges
        ):
            return ("hypercube", dim, identity)
    if n >= 5 and g.degree(n - 1) == n - 1 and all(g.degree(v) == 3 for v in range(n - 1)):
        if g.edges == wheel(n - 1).edges:
            return ("wheel", n - 1, identity)
    classes = _multipartite_classes(g)
    if classes is None:
        return None
    kind = "complete_bipartite" if len(classes) == 2 else "complete_multipartite"
    return (kind, tuple(map(len, classes)), tuple(v for c in classes for v in c))


def _upper_bound_construction(g: Graph, k: int, budget, seed, family) -> EdgeColouring:
    """A colouring of g by the best applicable constructor; its r is the
    upper bound. A family constructor colours the canonical graph, and one
    edge map built from the order of family (g's _detect_family) carries
    its colours and its witnesses onto g, in any labelling the class finder
    recognises. A cycle's bound is its rainbow colouring, whose one witness
    is the whole cycle, walked from vertex 0 to its lesser neighbour.
    Samplers may fail, unsupported regimes raise, and a
    self-verification may run out of the budget: each falls through to the
    Hamilton fallback, whose one witness is its rainbow Hamilton cycle, or
    to the plain rainbow colouring. A budget already run out skips the
    constructors and the fallback, which would each spend a node only to
    raise. A ConstructionRejected (transcription error) propagates."""
    soft = (AttemptsExhausted, RegimeUnsupported, InvalidParameter, BudgetExceeded)
    kind, param, order = family or (None, None, None)
    if kind == "cycle":
        cycle = [0, g.adjacency[0][0][0]]
        while len(cycle) < g.n:
            cycle.append(next(w for w, _ in g.adjacency[cycle[-1]] if w != cycle[-2]))
        cycle = tuple(cycle)
        return EdgeColouring(g, tuple(range(g.e)), g.e, witnesses=(
            CycleWitness(cycle, cycle_vertices_to_edge_ids(g, cycle)),))
    if budget.used > budget.limit:
        return rainbow_colouring(g)
    c = None
    try:
        if kind == "complete":
            c = (cons.colour_complete_2rainbow(param, budget=budget) if k <= 2 else
                 cons.colour_complete_random(param, k, seed, SAMPLER_ATTEMPTS, budget))
        elif kind == "wheel":
            c = cons.colour_wheel(param, k, budget=budget)
        elif kind == "hypercube":
            c = cons.colour_cube(param, k, budget=budget)
        elif kind == "complete_bipartite":
            c = cons.colour_bipartite(*param, k, budget=budget)
        elif kind == "complete_multipartite" and k == 1:
            c = cons.colour_multipartite_blowup(param, budget=budget)
        elif kind == "complete_multipartite" and len(set(param)) == 1:
            c = cons.colour_balanced_multipartite_random(
                len(param), param[0], k, seed, SAMPLER_ATTEMPTS, budget)
    except soft:
        pass
    if c is not None:
        edge_map = [g.edge_id(order[u], order[v]) for u, v in c.graph.edges]
        colour_of = [0] * g.e
        for eid, col in zip(edge_map, c.colour_of):
            colour_of[eid] = col
        witnesses = tuple(_witness_image(w, order, edge_map) for w in c.witnesses)
        return EdgeColouring(g, tuple(colour_of), c.r, c.unused_ok, witnesses)
    # fallback: a rainbow Hamilton cycle when one is found within the
    # budget, else rainbow all, which is always a valid upper bound
    try:
        ham = None if budget.used > budget.limit else find_hamilton_cycle(g, budget)
    except BudgetExceeded:
        ham = None
    if ham is None:
        return rainbow_colouring(g)
    return EdgeColouring(g, cons._rainbow_hamilton_colours(g, ham), g.n,
                         witnesses=(CycleWitness(ham, cycle_vertices_to_edge_ids(g, ham)),))


def crx_interval(g: Graph, k: int, budget=None, seed=0) -> CrxResult:
    """Bound crx_k without enumeration: best certificate lower bound versus
    best applicable constructor upper bound; exact when they meet. The
    distance bound runs the F_k precheck, and a budget spent inside it
    raises BudgetExceeded, with no interval. The witness is a colouring of
    g, in any labelling, with upper colours. A cycle found is at least the
    girth, so the girth is computed only when the bound found none."""
    b = Budget.of(budget)
    family = _detect_family(g)
    dist, cert = _distance_bound(g, k, b, family)
    if not dist:
        cert = _distance_certificate(tuple(range(k)), girth(g), "girth")
    lower = max(k, cert.payload["length"])
    witness = _upper_bound_construction(g, k, b, seed, family)
    kind = "exact" if lower == witness.r else "interval"
    return CrxResult(kind, lower, witness.r, witness, (cert,))
