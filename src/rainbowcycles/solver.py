"""Exact computation of crx_k and rx_k by canonical exhaustive enumeration.

Colourings are enumerated as restricted-growth strings over the canonical
edge order (first edge gets colour 0, each later edge a colour at most one
above the maximum so far), which kills the r! colour-permutation symmetry
exactly: the colourings with exactly r classes are counted by the Stirling
partition number S(e, r).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .colouring import EdgeColouring
from .errors import BudgetExceeded, InvalidParameter, NotInFamily, ScopeExceeded
from .graph import (
    Budget,
    Graph,
    _bipartition,
    cycle_vertices_to_edge_ids,
    enumerate_simple_cycles,
    find_hamilton_cycle,
    girth,
    in_family_Fk,
    is_connected,
)
from .search import (
    colex_subsets,
    min_cycle_length_through,
    rainbow_tree_through,
)

MAX_SOLVER_EDGES = 16
MAX_SOLVER_SUBSETS = 100_000


@dataclass(frozen=True)
class Certificate:
    """Lower-bound evidence as the solver found it; the library does not re-check it.

    distance_bound: ``subset`` lies on no cycle shorter than ``length``, so a
    rainbow cycle through it needs at least that many colours.
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
            new[j] = j * row[j] + (row[j - 1] if j - 1 <= i - 1 else 0)
        new[0] = 1 if i == 0 else 0
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


def _guard_scope(g: Graph, k: int, force: bool):
    import math

    if not force:
        if g.e > MAX_SOLVER_EDGES:
            raise ScopeExceeded(
                f"{g.e} edges exceeds the desk-scale envelope of {MAX_SOLVER_EDGES}; pass force=True"
            )
        if math.comb(g.n, k) > MAX_SOLVER_SUBSETS:
            raise ScopeExceeded(
                f"C({g.n},{k}) subsets exceed {MAX_SOLVER_SUBSETS}; pass force=True"
            )


def _cycles_by_subset(g: Graph, k: int, budget):
    """All simple cycles, and for each colex k-subset the cycles covering it."""
    cycles = enumerate_simple_cycles(g, budget)
    cycle_edges = [cycle_vertices_to_edge_ids(g, c) for c in cycles]
    cycle_verts = [set(c) for c in cycles]
    subsets = list(colex_subsets(g.n, k))
    covering = []
    for s in subsets:
        ss = set(s)
        covering.append([i for i, cv in enumerate(cycle_verts) if ss <= cv])
    return subsets, cycle_edges, covering


def crx_exact(g: Graph, k: int, budget=None, force: bool = False) -> CrxResult:
    """Exact k-rainbow cycle index by canonical enumeration.

    For each candidate colour count r (starting at the distance lower bound)
    the surjective canonical r-colourings are walked depth-first; a partial
    colouring is abandoned only when some k-subset already has every covering
    cycle spoiled by a repeated colour, which is valid for all completions.
    The first feasible colouring found is the canonically least witness.
    """
    if not in_family_Fk(g, k):
        raise NotInFamily(k)
    _guard_scope(g, k, force)
    b = budget if isinstance(budget, Budget) else Budget(budget)
    try:
        subsets, cycle_edges, covering = _cycles_by_subset(g, k, b)
    except BudgetExceeded:
        return CrxResult("interval", max(k, girth(g) or 3), g.e, None, ())
    dist_bound = max(min(len(cycle_edges[ci]) for ci in cov) for cov in covering)
    bound_set = subsets[
        max(range(len(subsets)), key=lambda i: min(len(cycle_edges[ci]) for ci in covering[i]))
    ]
    evidence = [
        Certificate(
            "distance_bound",
            {"subset": bound_set, "length": dist_bound,
             "covers_r_below": dist_bound},
        )
    ]
    r0 = max(k, dist_bound)
    m = g.e
    edge_cycles = [[] for _ in range(m)]  # cycle indices through each edge
    for ci, eids in enumerate(cycle_edges):
        for eid in eids:
            edge_cycles[eid].append(ci)
    subsets_of_cycle = [[] for _ in cycle_edges]
    for si, cov in enumerate(covering):
        for ci in cov:
            subsets_of_cycle[ci].append(si)

    for r in range(r0, m + 1):
        try:
            witness = _search_r(g, r, b, cycle_edges, covering, edge_cycles,
                                subsets_of_cycle)
        except BudgetExceeded:
            return CrxResult("interval", r, m, None, tuple(evidence))
        if witness is not None:
            return CrxResult("exact", r, r, witness, tuple(evidence))
        evidence.append(
            Certificate("exhaustion", {"r": r, "candidates": stirling2(m, r)})
        )
    raise InvalidParameter("no feasible colouring found; graph should be in F_k")


def _search_r(g, r, b, cycle_edges, covering, edge_cycles, subsets_of_cycle):
    """First feasible canonical r-colouring, else None (complete refutation)."""
    m = g.e
    n_cycles = len(cycle_edges)
    cycle_cols = [dict() for _ in range(n_cycles)]  # colour -> count on coloured edges
    cycle_dead = [False] * n_cycles
    alive = [len(cov) for cov in covering]
    colour = [0] * m

    def assign(eid, c, killed):
        # keep the update total even when a subset dies, so unassign is exact
        ok = True
        for ci in edge_cycles[eid]:
            counts = cycle_cols[ci]
            counts[c] = counts.get(c, 0) + 1
            if counts[c] == 2 and not cycle_dead[ci]:
                cycle_dead[ci] = True
                killed.append(ci)
                for si in subsets_of_cycle[ci]:
                    alive[si] -= 1
                    if alive[si] == 0:
                        ok = False
        return ok

    def unassign(eid, c, killed):
        for ci in killed:
            cycle_dead[ci] = False
            for si in subsets_of_cycle[ci]:
                alive[si] += 1
        for ci in edge_cycles[eid]:
            counts = cycle_cols[ci]
            counts[c] -= 1
            if not counts[c]:
                del counts[c]

    def rec(i, used):
        b.spend()
        if m - i < r - used:
            return None
        if i == m:
            return tuple(colour) if used == r else None
        for c in range(min(used + 1, r)):
            colour[i] = c
            killed = []
            ok = assign(i, c, killed)
            if ok:
                res = rec(i + 1, used + (1 if c == used else 0))
                if res is not None:
                    return res
            unassign(i, c, killed)
        return None

    found = rec(0, 0)
    if found is None:
        return None
    return EdgeColouring(g, found, r)


def rx_exact(g: Graph, k: int, budget=None, force: bool = False) -> CrxResult:
    """Exact k-rainbow index by the same canonical enumeration, with
    feasibility decided by rainbow-tree search; rx_1 = 0 by convention."""
    if not is_connected(g):
        raise InvalidParameter("rx needs a connected graph")
    if k < 1:
        raise InvalidParameter("k must be positive")
    if k == 1:
        return CrxResult("exact", 0, 0, None, ())
    _guard_scope(g, k, force)
    b = budget if isinstance(budget, Budget) else Budget(budget)
    m = g.e
    subsets = list(colex_subsets(g.n, k))
    evidence = []
    for r in range(1, m + 1):
        feasible = None
        try:
            for cand in canonical_colourings(m, r):
                b.spend()
                c = EdgeColouring(g, cand, r)
                if all(rainbow_tree_through(c, s, b) is not None for s in subsets):
                    feasible = c
                    break
        except BudgetExceeded:
            return CrxResult("interval", r, m, None, tuple(evidence))
        if feasible is not None:
            return CrxResult("exact", r, r, feasible, tuple(evidence))
        evidence.append(Certificate("exhaustion", {"r": r, "candidates": stirling2(m, r)}))
    raise InvalidParameter("even the rainbow colouring failed; graph not connected?")


def crx_lower_bound_distance(g: Graph, k: int, budget=None,
                             max_exhaustive: int = 20_000) -> tuple[int, Certificate]:
    """Best shortest-cycle lower bound: max of min_cycle_length_through over
    all k-subsets when their count is within budget, else a seeded sample.
    A partial maximisation is still a valid lower bound."""
    import math

    if not in_family_Fk(g, k):
        raise NotInFamily(k)
    b = budget if isinstance(budget, Budget) else Budget(budget)
    total = math.comb(g.n, k)
    if total <= max_exhaustive:
        pool = colex_subsets(g.n, k)
        mode = "exhaustive"
    else:
        rng = random.Random(0)
        pool = (tuple(sorted(rng.sample(range(g.n), k))) for _ in range(2000))
        mode = "sampled"
    best, best_set = 0, None
    try:
        for s in pool:
            if best and min_cycle_length_through(g, s, b, cap=best) is not None:
                continue  # cannot beat the current bound
            length = min_cycle_length_through(g, s, b)
            if length is not None and length > best:
                best, best_set = length, s
    except BudgetExceeded:
        mode += "-partial"  # a partial maximisation is still a lower bound
    return best, Certificate(
        "distance_bound", {"subset": best_set, "length": best, "mode": mode}
    )


# ---------------------------------------------------------------------------
# Interval assembly from constructions plus certificates


def _detect_family(g: Graph):
    """Recognise the named families in their canonical labellings."""
    n = g.n
    if n >= 3 and g.e == n * (n - 1) // 2:
        return ("complete", n)
    if n >= 3 and g.e == n and all(g.degree(v) == 2 for v in range(n)) and is_connected(g):
        return ("cycle", n)
    if (n & (n - 1)) == 0 and n >= 4:
        dim = n.bit_length() - 1
        if g.e == n * dim // 2 and all(
            ((u ^ v) & (u ^ v) - 1) == 0 for u, v in g.edges
        ):
            return ("hypercube", dim)
    if n >= 5 and g.degree(n - 1) == n - 1 and all(g.degree(v) == 3 for v in range(n - 1)):
        from .generators import wheel

        if g.edges == wheel(n - 1).edges:
            return ("wheel", n - 1)
    side = _bipartition(g)
    if side is not None and g.e == len(side[0]) * len(side[1]):
        return ("complete_bipartite", (len(side[0]), len(side[1])))
    parts = _try_multipartite(g)
    if parts is not None:
        return ("complete_multipartite", parts)
    return None


def _try_multipartite(g: Graph):
    classes = []
    assigned = [None] * g.n
    for v in range(g.n):
        if assigned[v] is not None:
            continue
        cls = {v} | {w for w in range(g.n) if w != v and not g.has_edge(v, w)}
        for w in cls:
            if assigned[w] is not None:
                return None
            assigned[w] = len(classes)
        classes.append(cls)
    if len(classes) < 3:
        return None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (assigned[u] == assigned[v]) == g.has_edge(u, v):
                return None
    return tuple(sorted(len(c) for c in classes))


def _upper_bound_construction(g: Graph, k: int, budget, seed, attempts):
    """Best applicable constructor upper bound; returns (r, witness or None).

    Samplers may fail and unsupported regimes fall through to the Hamilton or
    rainbow fallback; a ConstructionRejected (transcription error) propagates.
    """
    from . import constructions as cons
    from .errors import AttemptsExhausted, RegimeUnsupported

    soft = (AttemptsExhausted, RegimeUnsupported, InvalidParameter)
    fam = _detect_family(g)
    if fam is not None:
        kind, param = fam
        if kind == "cycle":
            from .colouring import rainbow_colouring

            return param, rainbow_colouring(g)
        if kind == "complete":
            if k <= 2:
                return 3, cons.colour_complete_2rainbow(param, budget=budget)
            try:
                c = cons.colour_complete_random(param, k, seed, attempts, budget)
                return 2 * k - 1, c
            except soft:
                pass
        elif kind == "wheel":
            try:
                return None, cons.colour_wheel(param, k, budget=budget)
            except soft:
                pass
        elif kind == "hypercube":
            if k in (1, 2, 3) or k >= 1 << (param - 1):
                return None, cons.colour_cube(param, k, budget=budget)
        elif kind == "complete_bipartite":
            m, nn = param
            try:
                return None, cons.colour_bipartite(m, nn, k, budget=budget)
            except soft:
                pass
        elif kind == "complete_multipartite":
            if k == 1:
                return 3, cons.colour_multipartite_blowup(param, budget=budget)
            if len(set(param)) == 1:
                try:
                    c = cons.colour_balanced_multipartite_random(
                        len(param), param[0], k, seed, attempts, budget
                    )
                    return 2 * k, c
                except soft:
                    pass
    # fallback: a rainbow Hamilton cycle when one exists, else rainbow all
    ham = find_hamilton_cycle(g, Budget(2_000_000)) if g.n >= 3 else None
    if ham is not None and k <= g.n:
        colour_of = [0] * g.e
        for i, (a, bv) in enumerate(zip(ham, ham[1:] + ham[:1])):
            colour_of[g.edge_id(a, bv)] = i
        from .colouring import EdgeColouring as EC

        return g.n, EC(g, tuple(colour_of), g.n, unused_ok=False)
    from .colouring import rainbow_colouring

    return g.e, rainbow_colouring(g)


def crx_interval(g: Graph, k: int, budget=None, seed=0, attempts: int = 200) -> CrxResult:
    """Bound crx_k without enumeration: best certificate lower bound versus
    best applicable constructor upper bound; exact when they meet."""
    if not in_family_Fk(g, k):
        raise NotInFamily(k)
    b = budget if isinstance(budget, Budget) else Budget(budget)
    dist, cert = crx_lower_bound_distance(g, k, b)
    lower = max(k, dist, girth(g) or 3)
    declared, witness = _upper_bound_construction(g, k, b, seed, attempts)
    upper = witness.r if witness is not None else declared
    kind = "exact" if lower == upper else "interval"
    return CrxResult(kind, lower, upper, witness, (cert,))
