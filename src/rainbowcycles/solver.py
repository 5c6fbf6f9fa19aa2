"""Exact computation of crx_k and rx_k by canonical exhaustive enumeration.

Colourings are enumerated as restricted-growth strings over the canonical
edge order (first edge gets colour 0, each later edge a colour at most one
above the maximum so far), which kills the r! colour-permutation symmetry
exactly: the colourings with exactly r classes are counted by the Stirling
partition number S(e, r).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import constructions as cons
from .colouring import EdgeColouring, rainbow_colouring
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
    _twin_classes,
    _twin_shifts,
    _WitnessCover,
    colex_subsets,
    cycle_vertices_to_edge_ids,
    enumerate_simple_cycles,
    find_hamilton_cycle,
    girth,
    in_family_Fk,
    is_connected,
)

# The node budget of an exact solve given none. A solve with budget N walks
# at most N + 1 nodes and builds a cover table of at most
# _TABLE_CELLS_PER_NODE * N cells (see _reserve_table). Measured per unit
# (Python 3.11, 2 vCPUs): a propagator node up to about 210 us
# (rx_exact(wheel(8), 5), about 45 s at this default), a structure-listing
# node about 0.5 KB (rx_exact(hypercube(4), 2)), a table cell up to about
# 0.8 us and 11 bytes (crx_2(K_9), where most cycles cover most pairs).
DEFAULT_EXACT_BUDGET = 250_000
_TABLE_CELLS_PER_NODE = 16
MAX_EXHAUSTIVE_SUBSETS = 20_000  # crx_lower_bound_distance samples beyond this
SAMPLER_ATTEMPTS = 200  # samples a randomised constructor in crx_interval may draw


@dataclass(frozen=True)
class Certificate:
    """Lower-bound evidence as the solver found it; the library does not re-check it.

    distance_bound, payload ``subset``, ``length`` and ``mode``: every
    structure covering the k-subset ``subset`` has at least ``length`` edges
    (for crx the shortest cycle through it, for rx the smallest tree
    containing it), so a rainbow one needs that many colours. ``mode`` says
    how the bound was found: ``exhaustive`` (the most over every k-subset),
    ``sampled`` (over a seeded sample), either with ``-partial`` when the
    budget ran out during the pass, ``girth`` (no cycle is shorter than the
    girth) or ``subset-size`` (a tree holding k vertices has k - 1 edges).
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
    structures that must be rainbow are the simple cycles. Without a budget
    it runs on DEFAULT_EXACT_BUDGET nodes. A budget spent after the F_k
    precheck and before the first pass, or too small for the cover table
    (see _reserve_table), gives the interval [max(k, girth), e]."""
    b = Budget.of(budget, DEFAULT_EXACT_BUDGET)
    if not in_family_Fk(g, k, b):
        raise NotInFamily(k)
    try:
        _reserve_table(g, k, b)
        cycles = [(cycle_vertices_to_edge_ids(g, c), frozenset(), frozenset(c))
                  for c in enumerate_simple_cycles(g, b)]
        _reserve_table(g, k, b, len(cycles))
    except BudgetExceeded:
        cert = _distance_certificate(tuple(range(k)), girth(g), "girth")
        return _budget_out(g, max(k, cert.payload["length"]), (cert,))
    return _exact(g, k, b, cycles)


def rx_exact(g: Graph, k: int, budget=None) -> CrxResult:
    """Exact k-rainbow index by canonical enumeration (see _exact); rx_1 = 0.

    The structures that must be rainbow are the subtrees with at most k
    leaves, each covering the k-subsets that hold its leaves: pruning the
    leaves outside S from a rainbow tree through S leaves one of them.
    Without a budget it runs on DEFAULT_EXACT_BUDGET nodes. A budget spent
    before the first pass, or too small for the cover table (see
    _reserve_table), gives the interval [k - 1, e].
    """
    if not is_connected(g):
        raise InvalidParameter("rx needs a connected graph")
    if not 1 <= k <= g.n:
        raise InvalidParameter(f"k must lie in 1..{g.n}")
    if k == 1:
        return CrxResult("exact", 0, 0, None, ())
    b = Budget.of(budget, DEFAULT_EXACT_BUDGET)
    adj, trees = g.adjacency, []
    try:
        _reserve_table(g, k, b)
        for root in range(g.n):
            frontier = [(eid, x) for x, eid in adj[root] if x > root]
            _grow_subtrees(adj, root, k, b, {root}, (), frontier, trees)
        _reserve_table(g, k, b, len(trees))
    except BudgetExceeded:
        cert = _distance_certificate(tuple(range(k)), k - 1, "subset-size")
        return _budget_out(g, k - 1, (cert,))
    return _exact(g, k, b, trees)


def _reserve_table(g: Graph, k: int, b: Budget, structures: int = 1):
    """Raise BudgetExceeded when the cover table of _exact, a row of one cell
    per structure for each k-subset, would have more than
    _TABLE_CELLS_PER_NODE cells per node of b's limit. The build tests and
    may store every cell before the first pass node, and no node counts it,
    so this test stands in for that count; it spends nothing, and no node
    count changes. Made with one structure before the listing, it stops a
    solve whose rows alone are too many without listing anything."""
    if math.comb(g.n, k) * structures > _TABLE_CELLS_PER_NODE * b.limit:
        raise BudgetExceeded(b.limit)


def _distance_certificate(subset, length: int, mode: str) -> Certificate:
    return Certificate("distance_bound", {"subset": subset, "length": length, "mode": mode})


def _grow_subtrees(adj, root, k, b, verts, eids, frontier, out, deg=None, leaves=0):
    """Append to out, as (edge ids, leaves, vertices), each subtree with an
    edge and at most k leaves that has least vertex root and extends the tree
    (verts, eids) by (edge id, new vertex) pairs of frontier. The first pair
    is excluded, then included, so each subtree is reached once. One call is
    one budget node.

    deg[v] is the degree of v in the tree and leaves its count of vertices
    of degree 1; the defaults are those of a tree with no edge. Growing a
    tree never lowers its leaves: the first edge gives two, and a new
    vertex hung on a leaf keeps the count, on an inner vertex adds one. So
    every tree on the way to one with at most k leaves has at most k, and
    an inclusion that would give more than k lists nothing; it is not
    made, and ``b.cuts["leaves"]`` counts it. The trees listed and their
    order are as without the cut."""
    if deg is None:
        deg = [0] * len(adj)
        b.cuts.setdefault("leaves", 0)
    b.spend()
    if frontier:
        (eid, w), rest = frontier[0], frontier[1:]
        _grow_subtrees(adj, root, k, b, verts, eids, rest, out, deg, leaves)
        p = next(x for x, e2 in adj[w] if e2 == eid)  # w hangs on p
        grown_leaves = leaves + 1 + (deg[p] == 0) - (deg[p] == 1)
        if grown_leaves > k:
            b.cuts["leaves"] += 1
            return
        grown = [f for f in rest if f[1] != w]
        grown += [(e2, x) for x, e2 in adj[w] if x > root and x not in verts]
        deg[p] += 1
        deg[w] = 1
        _grow_subtrees(adj, root, k, b, verts | {w}, eids + (eid,), grown, out, deg,
                       grown_leaves)
        deg[p] -= 1
        deg[w] = 0
    elif eids:
        out.append((eids, frozenset(v for v in verts if deg[v] == 1), frozenset(verts)))


def _exact(g: Graph, k: int, b: Budget, structures) -> CrxResult:
    """The least r admitting a canonical r-colouring in which every k-subset
    S is covered by a rainbow structure, with evidence for each smaller r.

    A structure (edge ids, must, vertices) covers S iff must <= S <= vertices.
    r starts at the distance bound: the largest, over S, of the fewest edges
    of a structure covering S. For each r the surjective canonical
    r-colourings are walked depth-first; a partial colouring is abandoned
    only when some S already has every covering structure spoiled by a
    repeated colour, which holds for all completions. The first feasible
    colouring found is the canonically least witness.

    Structure si is bit si of the int bitsets cov[t], the structures covering
    the t-th k-subset in colex order, and tmask[eid], the kept ones through
    edge eid. The pass for r keeps only the structures with at most r edges,
    a prefix of the table sorted by edge count that grows with r. This is
    exact: a structure with more than r edges is never rainbow in an
    r-colouring, so dropping it changes no colouring's feasibility. The walk
    order is the same and only subtrees without a feasible completion are
    cut, so the witness and every refuted r are the same as over the full
    table. Every S has a covering structure (the F_k precheck for crx,
    connectivity for rx), so from the distance bound on every S keeps one.
    """
    structures = sorted(structures, key=lambda st: len(st[0]))
    subsets_of = [[] for _ in structures]  # the k-subsets each structure covers
    cov = []
    bound, bound_set = 0, None
    for ti, s in enumerate(colex_subsets(g.n, k)):
        ss = set(s)
        cover = [si for si, (_, must, verts) in enumerate(structures) if must <= ss <= verts]
        if not cover:
            raise InvalidParameter(f"no structure covers the {k}-subset {s}")
        for si in cover:
            subsets_of[si].append(ti)
        cov.append(_bitset(cover))
        size = len(structures[cover[0]][0])  # the table is sorted by edge count
        if size > bound:
            bound, bound_set = size, s
    evidence = [_distance_certificate(bound_set, bound, "exhaustive")]
    tmask = [0] * g.e
    kept = 0
    for r in range(bound, g.e + 1):
        while kept < len(structures) and len(structures[kept][0]) <= r:
            for eid in structures[kept][0]:
                tmask[eid] |= 1 << kept
            kept += 1
        try:
            witness = _search_r(g, r, b, tmask, subsets_of, cov, (1 << kept) - 1)
        except BudgetExceeded:
            return _budget_out(g, r, tuple(evidence))
        if witness is not None:
            return CrxResult("exact", r, r, witness, tuple(evidence))
        evidence.append(Certificate("exhaustion", {"r": r, "candidates": stirling2(g.e, r)}))
    raise InvalidParameter(f"no feasible colouring with up to {g.e} colours")


def _bitset(indices) -> int:
    """The int with bit i set for each i of the ascending list indices, in
    time linear in its length and width (a sum of shifts is quadratic)."""
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
    k-subsets of killed structures can lose their last live cover.
    """
    m = g.e
    has = [0] * r
    colour = [0] * m

    def rec(i, used, live):
        b.spend()
        if m - i < r - used:
            return None
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
    all k-subsets when there are at most MAX_EXHAUSTIVE_SUBSETS of them,
    else over a seeded sample.
    A partial maximisation is still a valid lower bound.

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
    if math.comb(g.n, k) <= MAX_EXHAUSTIVE_SUBSETS:
        pool = kept.uncovered(k)
        mode = "exhaustive"
    else:
        rng = random.Random(0)
        sample = (tuple(sorted(rng.sample(range(g.n), k))) for _ in range(2000))
        pool = (s for s in sample if not kept.covers(s))
        mode = "sampled"
    best, best_set, settled = 0, None, 0
    try:
        for s in pool:
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
    Complete (multi)partite graphs are found in any labelling: their classes
    are the (independent) twin classes, at least two, joined by all
    (n^2 - sum |class|^2) / 2 pairs between them; a stable sort by size
    keeps the identity order on a canonical input. The other families get
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
    classes = sorted(_twin_classes(g), key=len)
    if len(classes) < 2 or 2 * g.e != n * n - sum(len(c) ** 2 for c in classes):
        return None
    kind = "complete_bipartite" if len(classes) == 2 else "complete_multipartite"
    return (kind, tuple(map(len, classes)), tuple(v for c in classes for v in c))


def _upper_bound_construction(g: Graph, k: int, budget, seed, family) -> EdgeColouring:
    """A colouring of g by the best applicable constructor; its r is the
    upper bound. A family constructor colours the canonical graph, carried
    onto g through the order of family (g's _detect_family); its witnesses
    name canonical vertices and are kept on the identity order only.
    Samplers may fail, unsupported regimes raise, and a self-verification
    may run out of the budget: each falls through to the Hamilton or
    rainbow fallback. A ConstructionRejected (transcription error) propagates."""
    soft = (AttemptsExhausted, RegimeUnsupported, InvalidParameter, BudgetExceeded)
    kind, param, order = family or (None, None, None)
    c = None
    try:
        if kind == "cycle":
            return rainbow_colouring(g)
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
    if c is not None and order == tuple(range(g.n)):
        return c
    if c is not None:
        colour_of = [0] * g.e
        for (u, v), col in zip(c.graph.edges, c.colour_of):
            colour_of[g.edge_id(order[u], order[v])] = col
        return EdgeColouring(g, tuple(colour_of), c.r, c.unused_ok)
    # fallback: a rainbow Hamilton cycle when one is found within the
    # budget, else rainbow all, which is always a valid upper bound
    try:
        ham = find_hamilton_cycle(g, budget)
    except BudgetExceeded:
        ham = None
    if ham is None:
        return rainbow_colouring(g)
    colour_of = [0] * g.e
    for i, eid in enumerate(cycle_vertices_to_edge_ids(g, ham)):
        colour_of[eid] = i
    return EdgeColouring(g, tuple(colour_of), g.n)


def crx_interval(g: Graph, k: int, budget=None, seed=0) -> CrxResult:
    """Bound crx_k without enumeration: best certificate lower bound versus
    best applicable constructor upper bound; exact when they meet. The
    distance bound runs the F_k precheck. The witness is a colouring of g,
    in any labelling, with upper colours. A cycle found is at least the
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
