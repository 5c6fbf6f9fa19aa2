"""Acceptance suite: one test per criterion, exact integer equality throughout.

Each test finishes by printing a single ACCEPTANCE line (visible with -s or
in the captured output on failure), so the suite doubles as a checklist.
"""

import itertools
import random

import pytest

from conftest import (
    brute_has_rainbow_cycle_through,
    brute_is_k_connected,
    random_connected_graph,
    small_corpus,
    theta,
)
from rainbowcycles import constructions as cons
from rainbowcycles import generators as gen
from rainbowcycles import solver
from rainbowcycles.colouring import EdgeColouring, check_walk_witness
from rainbowcycles.errors import AttemptsExhausted, BaseWalkNotFound, BudgetExceeded
from rainbowcycles.graph import (
    Budget,
    delete_vertex,
    enumerate_hamilton_cycles,
    find_hamilton_cycle,
    is_minimally_2_connected,
)
from rainbowcycles.search import (
    colour_class_collision,
    find_subdivided_closed_walk,
    min_cycle_length_through,
    rainbow_cycle_through,
    verify_k_rainbow_cycle_colouring,
    verify_k_rainbow_index_colouring,
)


def _passed(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def _evidence_covers_all_below(res):
    covered = set()
    for cert in res.evidence:
        if cert.kind == "distance_bound":
            covered.update(range(1, cert.payload["length"]))
        elif cert.kind == "exhaustion":
            covered.add(cert.payload["r"])
    return covered >= set(range(1, res.value))


def test_criterion_01_solver_exactness():
    cases = [
        (gen.cycle(3), 1, 3), (gen.cycle(4), 1, 4), (gen.cycle(5), 1, 5),
        (gen.cycle(6), 1, 6),
        (gen.complete(4), 1, 3), (gen.complete(4), 2, 3),
        (gen.complete_bipartite(2, 3), 2, 6),
        (gen.wheel(4), 2, 4), (gen.wheel(4), 3, 4),
    ]
    for g, k, expected in cases:
        res = solver.crx_exact(g, k)
        assert res.kind == "exact" and res.value == expected, (k, expected, res)
        assert res.witness is not None and res.witness.r == expected
        assert verify_k_rainbow_cycle_colouring(res.witness, k).certified
        assert _evidence_covers_all_below(res)
    _passed(1, "crx exact on C_3..C_6, K_4, K_{2,3}, W_4 with witnesses and"
               " per-r infeasibility evidence")


def _wheel_value(n, k):
    if k == 1:
        return 3
    if k == 2:
        return 3 if n == 3 else -(-n // 2) + 2
    if k == 3:
        return 3 if n == 3 else n if n <= 7 else n - 1 if n <= 11 else n - 2
    return n + 1 if n < 2 * k else n


def test_criterion_02_wheels():
    checked = 0
    for n in range(3, 15):
        for k in (1, 2, 3):
            c = cons.colour_wheel(n, k)  # self-verifies
            assert c.r == _wheel_value(n, k), (n, k)
            checked += 1
    for n in range(8, 13):
        c = cons.colour_wheel(n, 4)
        assert c.r == _wheel_value(n, 4), (n, 4)
        checked += 1
    _passed(2, f"colour_wheel certified at exact theorem counts ({checked} configs)")


def test_criterion_02_complete_2rainbow():
    for n in range(3, 11):
        assert cons.colour_complete_2rainbow(n).r == 3
    _passed(2, "colour_complete_2rainbow certified for n = 3..10 at 3 colours")


def test_criterion_02_bipartite():
    checked = 0
    for n in range(2, 11):
        assert cons.colour_bipartite(2, n, 1).r == 4
        checked += 1
    for n in range(36, 41):
        assert cons.colour_bipartite(3, n, 2).r == 8
        checked += 1
    for m in (4, 5, 6):
        for n in range(m, 21):
            assert cons.colour_bipartite(m, n, 2).r == 8
            checked += 1
    assert cons.colour_bipartite(6, 6, 2, regime="sixk").r == 12
    assert cons.colour_bipartite(9, 9, 3, regime="sixk").r == 18
    checked += 2
    _passed(2, f"colour_bipartite certified across regimes ({checked} configs)")


def test_criterion_02_multipartite_blowup():
    def partitions(total, parts, minimum=1):
        if parts == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total // parts + 1):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    checked = 0
    for total in range(3, 10):
        for t in range(3, total + 1):
            for sizes in partitions(total, t):
                assert cons.colour_multipartite_blowup(sizes).r == 3
                checked += 1
    _passed(2, f"colour_multipartite_blowup certified for all {checked} size"
               " tuples with total <= 9")


def test_criterion_02_cubes():
    for n in range(2, 7):
        assert cons.colour_cube(n, 1).r == 4
    for n in range(2, 5):
        k = 3 if n >= 3 else 2
        assert cons.colour_cube(n, k).r == 2 * n
    assert cons.colour_cube(2, 2).r == 4       # k = 2^{n-1} at n = 2
    assert cons.colour_cube(3, 4).r == 8       # k = 2^{n-1} at n = 3
    _passed(2, "colour_cube certified: k=1 up to Q_6, k=3 up to Q_4,"
               " k=2^{n-1} up to Q_3")


@pytest.mark.optional
def test_criterion_02_cube_q5_k3_optional():
    c = cons.colour_cube(5, 3, budget=100_000_000)
    assert c.r == 10
    _passed(2, "colour_cube(5, 3) certified at 10 colours (optional, 1e8 budget)")


def test_criterion_02_join_rainbow_trees():
    for k, t in ((2, 3), (2, 4), (3, 2), (3, 3)):
        c = cons.colour_join_rxk(k, t)  # rainbow-tree self-verified
        assert c.r == k * k - 1
    _passed(2, "colour_join_rxk rainbow-tree certified for (2,3),(2,4),(3,2),(3,3)")


def test_criterion_03_distance_bounds_and_collisions():
    for n in (2, 3, 4):
        assert min_cycle_length_through(gen.hypercube(n), [0, 2 ** n - 1]) == 2 * n
    for n in range(4, 11):
        assert min_cycle_length_through(gen.wheel(n), [0, n // 2]) == n // 2 + 2
    g = gen.complete_bipartite(3, 36)
    for seed in range(1000):
        rng = random.Random(seed)
        c = EdgeColouring(g, tuple(rng.randrange(7) for _ in range(g.e)), 7,
                          unused_ok=True)
        pair = colour_class_collision(c, 2)
        assert pair is not None, seed
        if seed % 200 == 0:  # independently re-check a sample of certificates
            assert rainbow_cycle_through(c, pair) is None
    _passed(3, "cube/wheel shortest-cycle values exact; collision pair found in"
               " all 1000 seeded 7-colourings of K_{3,36}")


def test_criterion_04_petersen_certificate():
    g = gen.petersen()
    assert find_hamilton_cycle(g) is None  # no 10-cycle can cover a 9-set
    pairs = 0
    for e, e2 in itertools.combinations(range(15), 2):
        v = cons.petersen_pair_obstruction(e, e2)
        assert v not in g.edges[e] and v not in g.edges[e2]
        sub, old = delete_vertex(g, v)
        inv = {o: i for i, o in enumerate(old)}
        need = [
            tuple(sorted((inv[a], inv[b]))) for a, b in (g.edges[e], g.edges[e2])
        ]
        hams = enumerate_hamilton_cycles(sub)
        assert hams, (e, e2, v)
        for h in hams:
            eids = {tuple(sorted(p)) for p in zip(h, h[1:] + h[:1])}
            assert need[0] in eids and need[1] in eids, (e, e2, v)
        pairs += 1
    assert pairs == 105
    # jointly with the trivial rainbow upper bound: crx_9(P_10) = 15
    from rainbowcycles.colouring import rainbow_colouring

    assert verify_k_rainbow_cycle_colouring(rainbow_colouring(g), 9).certified
    _passed(4, "all 105 edge pairs force Hamilton cycles of P_10 - v through"
               " both edges; rainbow upper bound certified: crx_9(P_10) = 15")


def test_criterion_05_minimal_2_connectivity():
    corpus = [g for _, g in small_corpus() if g.n <= 7 and g.e <= 10]
    rng = random.Random(11)
    for i in range(10):
        corpus.append(random_connected_graph(rng, rng.randrange(4, 8), rng.randrange(0, 4)))
    assert len(corpus) >= 20
    for g in corpus:
        brute = brute_is_k_connected(g, 2) and all(
            not brute_is_k_connected(g.without_edge(e), 2) for e in range(g.e)
        )
        assert is_minimally_2_connected(g) == brute
    from rainbowcycles.graph import cycle_vertices_to_edge_ids, enumerate_simple_cycles

    targets = [gen.complete_bipartite(2, n) for n in (3, 4, 5)]
    targets += [theta(2, 2, 3), theta(2, 3, 4), theta(3, 3, 3)]
    validated = 0
    for g in targets:
        cycles = enumerate_simple_cycles(g)
        data = [(set(c), set(cycle_vertices_to_edge_ids(g, c))) for c in cycles]
        for e, e2 in itertools.combinations(range(g.e), 2):
            u, v = cons.minimal_2conn_obstruction(g, e, e2)
            through = [eids for verts, eids in data if u in verts and v in verts]
            assert through and all(e in eids and e2 in eids for eids in through)
            validated += 1
    _passed(5, f"brute-force agreement on {len(corpus)} corpus graphs;"
               f" {validated} obstruction pairs validated by cycle enumeration")


def test_criterion_06_separation():
    diffs = {
        (gen.complete(4), 1): 3,
        (gen.complete(4), 2): 2,
        (gen.cycle(5), 3): 2,
    }
    for (g, k), want in diffs.items():
        crx = solver.crx_exact(g, k).value
        rx = solver.rx_exact(g, k).value
        assert crx - rx == want, (k, crx, rx)
    assert solver.crx_exact(gen.cycle(5), 3).value == 5
    assert solver.rx_exact(gen.cycle(5), 3).value == 3
    _passed(6, "crx - rx = 3, 2, 2 on (K_4,1), (K_4,2), (C_5,3);"
               " crx_3(C_5)=5, rx_3(C_5)=3")


def test_criterion_07_probabilistic_upper_bounds():
    complete_log = {}
    hit = None
    for n in range(3, 17):
        try:
            c = cons.colour_complete_random(n, 3, seed=2026, max_attempts=2000)
            complete_log[n] = f"certified {c.r} colours"
            if hit is None:
                hit = n
        except AttemptsExhausted as exc:
            complete_log[n] = f"exhausted {exc.attempts}"  # recorded, not an error
    assert hit is not None and hit <= 16
    multi_log = {}
    mhit = None
    for n in range(2, 13):
        try:
            c = cons.colour_balanced_multipartite_random(2, n, 2, seed=2026,
                                                         max_attempts=2000)
            multi_log[n] = f"certified {c.r} colours"
            if mhit is None:
                mhit = n
                break
        except AttemptsExhausted as exc:
            multi_log[n] = f"exhausted {exc.attempts}"
    assert mhit is not None and mhit <= 12
    _passed(7, f"K_n 5-colouring certified first at n={hit}; K_{{2xn}}"
               f" 4-colouring certified first at n={mhit};"
               f" record: {complete_log}")


def test_criterion_08_hadamard_spread():
    vs = gen.hadamard_spread_vertices(4, 64)
    assert len(vs) == 4
    for a, b in itertools.combinations(vs, 2):
        d = gen.hamming_distance(a, b)
        assert d >= 42 and d > 32
    # Q_64 cycle search is infeasible; the distance inequality is the check
    _passed(8, "hadamard_spread_vertices(4, 64): pairwise distance >= 42 > 32")


def test_criterion_09_recursive_cube_scaled():
    block = 3
    c = cons.colour_cube_recursive(6, 4, block)
    configured_c = 4  # 24 colours over n = 6
    assert c.r == cons.recursive_cube_colour_count(6, block) == 24
    assert c.r <= configured_c * 6
    # colour-disjointness invariant between the two layers of the recursion
    hat_cols = {c.colour_of[i] for i, (u, v) in enumerate(c.graph.edges) if (u ^ v) < 8}
    layer_cols = {c.colour_of[i] for i, (u, v) in enumerate(c.graph.edges) if (u ^ v) >= 8}
    assert hat_cols.isdisjoint(layer_cols)

    # 200 seeded random ordered 4-tuples. The scaled-down block makes some
    # projected tuples unreachable at the Q_3 base (BaseWalkNotFound, by
    # design: the remedy is raising K); those are re-derived at K = 4, whose
    # base covers Q_6, and every tuple must end with a verified rainbow walk.
    # The direct searches in between must each end in a walk or a proof of
    # absence: the block-quotient bound, with the crossings summed over the
    # blocks, leaves none of them to run out of budget.
    g6 = c.graph
    c_raised = cons.colour_cube_recursive(6, 4, 4)
    rng = random.Random(20260810)
    spliced = direct = escalated = 0
    direct_nodes = budget_outs = 0
    for _ in range(200):
        s = tuple(rng.randrange(64) for _ in range(4))
        witness = colouring = None
        try:
            witness, colouring = cons.recursive_cube_walk(6, block, s, colouring=c), c
            spliced += 1
        except BaseWalkNotFound:
            b = Budget(150_000)
            try:
                w = find_subdivided_closed_walk(g6, s, colouring=c, budget=b)
            except BudgetExceeded:
                w = None
                budget_outs += 1
            direct_nodes += b.used
            if w is not None:
                witness, colouring = w, c
                direct += 1
            else:
                witness = cons.recursive_cube_walk(6, 4, s, colouring=c_raised)
                colouring = c_raised
                escalated += 1
        assert check_walk_witness(g6, witness, colouring, require_rainbow=True), s
    assert spliced + direct > 0
    # 15.4 M nodes before the block-quotient bound, 4.03 M with it per block
    assert budget_outs == 0 and direct_nodes <= 1_540_000, (budget_outs, direct_nodes)
    _passed(9, f"24 <= 4*6 colours, layers colour-disjoint; walks: {spliced}"
               f" spliced + {direct} searched at K=3, {escalated} after the"
               f" documented raise-K remedy; direct searches: {direct_nodes} nodes,"
               f" {budget_outs} budget-outs; all 200 witnesses re-validated")


def test_criterion_10_enumeration_soundness():
    from rainbowcycles.solver import canonical_colourings, stirling2

    for e in range(1, 9):
        for r in range(1, e + 1):
            assert sum(1 for _ in canonical_colourings(e, r)) == stirling2(e, r)

    rng = random.Random(1234)
    graphs = []
    for _ in range(40):
        n = rng.randrange(4, 10)
        extra = rng.randrange(0, min(6, n * (n - 1) // 2 - (n - 1)))
        graphs.append(random_connected_graph(rng, n, extra))
    instances = 0
    g_idx = 0
    while instances < 500:
        g = graphs[g_idx % len(graphs)]
        g_idx += 1
        for _ in range(13):
            if instances >= 500:
                break
            r = rng.randrange(2, g.e + 1)
            c = EdgeColouring(g, tuple(rng.randrange(r) for _ in range(g.e)), r,
                              unused_ok=True)
            k = rng.randrange(1, min(4, g.n) + 1)
            s = tuple(sorted(rng.sample(range(g.n), k)))
            got = rainbow_cycle_through(c, s) is not None
            assert got == brute_has_rainbow_cycle_through(c, s), (g.edges, s)
            instances += 1
    assert instances == 500
    _passed(10, "canonical counts match Stirling numbers (e <= 8); search agrees"
                " with the naive all-cycles oracle on 500 seeded instances")
