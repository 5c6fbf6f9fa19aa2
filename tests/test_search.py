import gc
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_all_cycles,
    brute_has_rainbow_cycle_through,
    brute_subdivided_closed_walk_exists,
    brute_subtrees,
    random_connected_graph,
)
from rainbowcycles import constructions as cons
from rainbowcycles import generators as gen
from rainbowcycles import solver
from rainbowcycles.colouring import (
    Cover,
    CycleWitness,
    EdgeColouring,
    check_cover,
    check_cycle_witness,
    check_tree_witness,
    check_walk_witness,
    rainbow_colouring,
)
from rainbowcycles.errors import BudgetExceeded, InvalidParameter, NotInFamily
from rainbowcycles.graph import (
    Budget,
    Graph,
    circumference,
    cycle_through_exists,
    ear_decomposition,
    find_hamilton_cycle,
)
from rainbowcycles.search import (
    colex_subsets,
    colour_class_collision,
    find_subdivided_closed_walk,
    min_cycle_length_through,
    rainbow_cycle_through,
    rainbow_tree_through,
    verify_k_rainbow_cycle_colouring,
    verify_k_rainbow_index_colouring,
)
from rainbowcycles.solver import canonical_colourings


class TestColexOrder:
    def test_small(self):
        assert list(colex_subsets(4, 2)) == [
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)
        ]

    def test_matches_sort_by_reversed(self):
        subs = list(colex_subsets(7, 3))
        assert subs == sorted(subs, key=lambda s: tuple(reversed(s)))
        assert len(subs) == 35


class TestRainbowCycleThrough:
    def test_rainbow_square(self):
        c = rainbow_colouring(gen.hypercube(2))
        w = rainbow_cycle_through(c, [0])
        assert w is not None and len(w.vertices) == 4
        assert check_cycle_witness(c.graph, w, c, require_rainbow=True, containing=[0])

    def test_every_5_colouring_of_k23_has_bad_pair(self):
        # crx_2(K_{2,3}) = 6, so five colours always leave some pair uncovered
        g = gen.complete_bipartite(2, 3)
        for colours in canonical_colourings(6, 5):
            c = EdgeColouring(g, colours, 5)
            bad = None
            for pair in colex_subsets(5, 2):
                if rainbow_cycle_through(c, pair) is None:
                    bad = pair
                    break
            assert bad is not None, colours

    def test_wheel_pair_witness(self):
        c = cons.colour_wheel(5, 2)
        w = rainbow_cycle_through(c, [0, 2])
        assert w is not None and len(w.vertices) >= 4
        assert check_cycle_witness(c.graph, w, c, require_rainbow=True, containing=[0, 2])

    def test_budget(self):
        c = cons.colour_cube(4, 3, verify=False)
        with pytest.raises(BudgetExceeded):
            rainbow_cycle_through(c, [0, 15], budget=2)


class TestMinCycleLength:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cube_antipodal(self, n):
        q = gen.hypercube(n)
        assert min_cycle_length_through(q, [0, 2 ** n - 1]) == 2 * n

    @pytest.mark.parametrize("n", range(4, 11))
    def test_wheel_opposite_rim(self, n):
        assert min_cycle_length_through(gen.wheel(n), [0, n // 2]) == n // 2 + 2

    def test_cycle_pair(self):
        assert min_cycle_length_through(gen.cycle(9), [0, 4]) == 9

    def test_no_cycle(self):
        assert min_cycle_length_through(Graph(3, ((0, 1), (1, 2))), [0]) is None

    def test_never_exceeds_witness(self):
        c = cons.colour_wheel(7, 2)
        for pair in colex_subsets(8, 2):
            w = rainbow_cycle_through(c, pair)
            assert w is not None
            assert min_cycle_length_through(c.graph, pair) <= len(w.vertices)

    def test_matches_brute_shortest_cycle(self, corpus):
        from conftest import brute_all_cycles

        for name, g in corpus:
            if g.n > 8:
                continue
            cycles = brute_all_cycles(g)
            for k in (1, 2, 3):
                for s in itertools.combinations(range(g.n), k):
                    lengths = [len(e) for verts, e in cycles if set(s) <= verts]
                    expected = min(lengths) if lengths else None
                    assert min_cycle_length_through(g, s) == expected, (name, s)


class TestVerify:
    def test_cube_33_certified(self):
        report = verify_k_rainbow_cycle_colouring(cons.colour_cube(3, 3, verify=False), 3)
        assert report.certified
        assert report.subsets_checked == 56

    def test_rainbow_always_certified(self, corpus):
        from rainbowcycles.graph import in_family_Fk

        for name, g in corpus:
            if g.e == 0 or not in_family_Fk(g, 1):
                continue
            assert verify_k_rainbow_cycle_colouring(rainbow_colouring(g), 1).certified, name

    def test_two_colours_never_enough_for_k4(self):
        # exhausts all canonical 2-colourings: crx_1(K_4) = 3 > 2
        g = gen.complete(4)
        for colours in canonical_colourings(6, 2):
            c = EdgeColouring(g, colours, 2)
            assert not verify_k_rainbow_cycle_colouring(c, 1).certified

    def test_not_in_family(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        with pytest.raises(NotInFamily):
            verify_k_rainbow_cycle_colouring(rainbow_colouring(g), 1)

    def test_counterexample_is_colex_least(self):
        # worst wheel colouring: everything colour 0 except one edge
        g = gen.wheel(5)
        c = EdgeColouring(g, (0,) * (g.e - 1) + (1,), 2)
        rep = verify_k_rainbow_cycle_colouring(c, 2)
        assert rep.status == "counterexample"
        subs = list(colex_subsets(g.n, 2))
        for s in subs[: subs.index(rep.bad_set)]:
            assert rainbow_cycle_through(c, s) is not None

    def test_colour_permutation_invariance(self):
        g = gen.wheel(4)
        base = EdgeColouring(g, tuple(i % 4 for i in range(g.e)), 4)
        rep0 = verify_k_rainbow_cycle_colouring(base, 2)
        perm = [2, 0, 3, 1]
        shuffled = EdgeColouring(g, tuple(perm[c] for c in base.colour_of), 4)
        rep1 = verify_k_rainbow_cycle_colouring(shuffled, 2)
        assert rep0.status == rep1.status and rep0.bad_set == rep1.bad_set

    def test_certified_for_k_implies_smaller_k(self):
        for c, k in [(cons.colour_cube(3, 3, verify=False), 3),
                     (cons.colour_wheel(6, 3, verify=False), 3)]:
            assert verify_k_rainbow_cycle_colouring(c, k).certified
            for smaller in range(1, k):
                assert verify_k_rainbow_cycle_colouring(c, smaller).certified


class TestRainbowTrees:
    def test_join_pairs(self):
        c = cons.colour_join_rxk(2, 3, verify=False)
        for pair in colex_subsets(c.graph.n, 2):
            w = rainbow_tree_through(c, pair)
            assert w is not None
            assert check_tree_witness(c.graph, w, c, require_rainbow=True, containing=pair)

    def test_rainbow_cycle_gives_path_witness(self):
        c = rainbow_colouring(gen.cycle(6))
        w = rainbow_tree_through(c, [0, 2, 4])
        assert w is not None
        assert check_tree_witness(c.graph, w, c, require_rainbow=True, containing=[0, 2, 4])

    def test_bad_2_colouring_of_c4(self):
        # both 0-2 paths repeat a colour under this colouring
        g = gen.cycle(4)
        colours = {(0, 1): 0, (1, 2): 0, (2, 3): 1, (0, 3): 1}
        c = EdgeColouring(g, tuple(colours[e] for e in g.edges), 2)
        assert rainbow_tree_through(c, [0, 2]) is None
        rep = verify_k_rainbow_index_colouring(c, 2)
        assert rep.status == "counterexample" and rep.bad_set == (0, 2)

    def test_index_verify_needs_connected(self):
        g = Graph(4, ((0, 1), (2, 3)))
        with pytest.raises(InvalidParameter):
            verify_k_rainbow_index_colouring(rainbow_colouring(g), 2)


class TestColourClassCollision:
    def test_k3_36_pigeonhole(self):
        g = gen.complete_bipartite(3, 36)
        rng = random.Random(5)
        c = EdgeColouring(g, tuple(rng.randrange(7) for _ in range(g.e)), 7, unused_ok=True)
        pair = colour_class_collision(c, 2)
        assert pair is not None
        assert rainbow_cycle_through(c, pair) is None

    def test_rainbow_has_no_collision(self):
        c = rainbow_colouring(gen.complete_bipartite(3, 10))
        assert colour_class_collision(c, 2) is None

    def test_vector_mode_grouping(self):
        g = gen.complete_bipartite(2, 6)
        # v-columns: three identical vectors (0, 1), rest distinct
        cols = {}
        vecs = [(0, 1), (0, 1), (0, 1), (1, 0), (2, 3), (3, 2)]
        for j, vec in enumerate(vecs):
            cols[(0, 2 + j)] = vec[0]
            cols[(1, 2 + j)] = vec[1]
        c = EdgeColouring(g, tuple(cols[e] for e in g.edges), 4, unused_ok=True)
        assert colour_class_collision(c, 3, mode="vector") == (2, 3, 4)
        assert colour_class_collision(c, 4, mode="vector") is None

    def test_rejects_non_bipartite(self):
        with pytest.raises(InvalidParameter, match="^not bipartite$"):
            colour_class_collision(rainbow_colouring(gen.complete(4)), 2)
        with pytest.raises(InvalidParameter, match="^bipartite but not complete$"):
            colour_class_collision(rainbow_colouring(gen.cycle(6)), 2)
        with pytest.raises(InvalidParameter, match="^not a complete bipartite graph$"):
            colour_class_collision(rainbow_colouring(Graph(4, ((0, 1), (2, 3)))), 2)


class TestSubdividedWalks:
    def test_even_face_order_in_q3(self):
        g = gen.hypercube(3)
        w = find_subdivided_closed_walk(g, (0, 3, 5, 6))
        assert w is not None
        assert check_walk_witness(g, w)

    def test_repeat_gets_trivial_path(self):
        g = gen.hypercube(4)
        w = find_subdivided_closed_walk(g, (0, 0, 3, 5))
        assert w is not None
        assert w.paths[0] == (0,)
        assert check_walk_witness(g, w)

    def test_out_of_order_on_cycle_impossible(self):
        assert find_subdivided_closed_walk(gen.cycle(5), (0, 2, 1)) is None

    def test_adjacent_anchors_need_length_two_detours(self):
        # the 4-cycle 0-1-3-2 itself is not a subdivided walk: paths must
        # have length >= 2, which Q_3 cannot host for this face order
        assert find_subdivided_closed_walk(gen.hypercube(3), (0, 1, 3, 2)) is None

    def test_double_repeat_pattern_impossible_in_q3(self):
        # (u, v, u, v) needs four disjoint exits at u; Q_3 has degree 3
        assert find_subdivided_closed_walk(gen.hypercube(3), (0, 3, 0, 3)) is None
        assert find_subdivided_closed_walk(gen.hypercube(3), (0, 1, 0, 2)) is None

    def test_single_anchor(self):
        w = find_subdivided_closed_walk(gen.cycle(5), (2,))
        assert w is not None and w.paths == ((2,),)

    def test_rainbow_constrained(self):
        c = cons.colour_cube(3, 3, verify=False)
        w = find_subdivided_closed_walk(c.graph, (0, 3, 5), colouring=c)
        assert w is not None
        assert check_walk_witness(c.graph, w, c, require_rainbow=True)


def test_searches_leave_no_cyclic_garbage():
    """The recursive closures of the searches are unlinked on exit, and the
    other searches run on explicit stacks, so a call's state is freed
    without the cyclic collector."""
    q4 = gen.hypercube(4)
    c = cons.colour_cube(4, 2)
    c3 = cons.colour_cube(3, 2)
    calls = [
        lambda: cycle_through_exists(q4, (0, 5, 10)),
        lambda: rainbow_cycle_through(c, (0, 15)),
        lambda: min_cycle_length_through(q4, (0, 15)),
        lambda: find_subdivided_closed_walk(q4, (0, 5, 10, 3)),
        lambda: find_subdivided_closed_walk(q4, (0, 5, 10, 3), colouring=rainbow_colouring(q4)),
        lambda: find_subdivided_closed_walk(q4, (0, 1, 0, 1, 0, 1)),  # absent
        lambda: solver.crx_exact(gen.wheel(4), 2),
        lambda: solver.rx_exact(gen.cycle(5), 3),
        lambda: rainbow_tree_through(c3, (0, 3, 5, 6)),
        lambda: find_hamilton_cycle(gen.petersen()),
        lambda: ear_decomposition(gen.wheel(5)),
        lambda: circumference(gen.petersen()),
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGoldenNodeCounts:
    """Node counts and witnesses of fixed calls. A change that only makes a
    node cheaper must leave every one of them as it is."""

    @pytest.fixture(scope="class")
    def cube_k3(self):
        return cons.colour_cube_recursive(6, 4, 3)

    @pytest.mark.parametrize("s, nodes, paths", [
        ((41, 41, 41, 42), 4, ((41,), (41,), (41, 40, 42), (42, 43, 41))),
        ((38, 45, 10, 32), 1012,
         ((38, 39, 37, 45), (45, 13, 9, 11, 10), (10, 2, 0, 32), (32, 36, 38))),
    ])
    def test_coloured_q6_walk(self, cube_k3, s, nodes, paths):
        b = Budget(50_000)
        w = find_subdivided_closed_walk(cube_k3.graph, s, colouring=cube_k3, budget=b)
        assert (b.used, w.paths) == (nodes, paths)

    def test_coloured_q6_walk_budget_out(self, cube_k3):
        b = Budget(50_000)
        with pytest.raises(BudgetExceeded):
            find_subdivided_closed_walk(cube_k3.graph, (0, 15, 5, 33), colouring=cube_k3,
                                        budget=b)
        assert b.used == 50_001

    def test_uncoloured_q6_walk(self):
        b = Budget(50_000)
        w = find_subdivided_closed_walk(gen.hypercube(6), (0, 15, 5, 33), budget=b)
        assert b.used == 10
        assert w.paths == ((0, 1, 3, 7, 15), (15, 13, 5), (5, 37, 33), (33, 32, 0))

    def test_walks_over_several_levels(self):
        # odd cycles put the distance bound to work on every level tried
        b = Budget()
        w = find_subdivided_closed_walk(gen.petersen(), (0, 2, 4, 6), budget=b)
        assert b.used == 21
        assert w.paths == ((0, 1, 2), (2, 3, 4), (4, 9, 6), (6, 8, 5, 0))
        c = cons.colour_wheel(9, 3, verify=False)
        b = Budget()
        w = find_subdivided_closed_walk(c.graph, (1, 4, 7), colouring=c, budget=b)
        assert b.used == 87
        assert w.paths == ((1, 2, 3, 4), (4, 9, 7), (7, 8, 0, 1))
        b = Budget()
        assert find_subdivided_closed_walk(c.graph, (0, 3, 6, 8), colouring=c, budget=b) is None
        assert b.used == 11

    def test_wheel_verify_and_cycles(self):
        c = cons.colour_wheel(10, 3, verify=False)
        b = Budget()
        report = verify_k_rainbow_cycle_colouring(c, 3, b)
        # four cycles cover all 165 triples; a certified colouring needs no
        # F_3 search, so no Hamilton shortcut runs
        assert (report.subsets_checked, report.search_nodes, b.used) == (165, 151, 151)
        assert report.subsets_searched == 4
        b = Budget()
        w = rainbow_cycle_through(c, (0, 4, 7), b)
        assert b.used == 11
        assert w.vertices == (0, 1, 2, 3, 4, 10, 7, 8, 9)
        assert w.edge_ids == (0, 3, 5, 7, 10, 16, 15, 17, 1)

    def test_precheck_spends_the_callers_budget(self):
        # a certified colouring proves F_3 membership: no precheck search
        c = rainbow_colouring(gen.petersen())
        b = Budget()
        report = verify_k_rainbow_cycle_colouring(c, 3, b)
        assert (report.subsets_checked, report.search_nodes, b.used) == (120, 71, 71)
        assert verify_k_rainbow_cycle_colouring(c, 3, check_family=False).search_nodes == 71
        # after a counterexample the F_3 search runs on the same budget: Petersen
        # is not Hamiltonian, so it is the 142-node shortcut and 63 triple nodes
        c = EdgeColouring(gen.petersen(), tuple(i % 7 for i in range(15)), 7)
        plain = verify_k_rainbow_cycle_colouring(c, 3, check_family=False)
        b = Budget()
        report = verify_k_rainbow_cycle_colouring(c, 3, b)
        assert report.status == plain.status == "counterexample"
        assert report.bad_set == plain.bad_set
        assert report.search_nodes == b.used == plain.search_nodes + 142 + 63

    @pytest.mark.parametrize("colour, k, searched, nodes", [
        (lambda: cons.colour_wheel(14, 5, verify=False), 5, 6, 287),
        (lambda: cons.colour_cube(5, 3, verify=False), 3, 540, 101_921),
    ], ids=["wheel-14-5", "cube-5-3"])
    def test_covered_subsets_need_no_search(self, colour, k, searched, nodes):
        # one search per subset spent 47,646 and 561,949 nodes
        c = colour()
        b = Budget()
        report = verify_k_rainbow_cycle_colouring(c, k, b)
        assert report.certified and report.subsets_checked == math.comb(c.graph.n, k)
        assert (report.subsets_searched, report.search_nodes, b.used) == (searched, nodes, nodes)
        assert check_cover(c, k, report.cover)

    def test_far_pair_cut_at_the_anchor(self):
        # a cycle through antipodes of Q_4 needs 8 edges, more than 5 colours
        q = gen.hypercube(4)
        b = Budget()
        assert rainbow_cycle_through(EdgeColouring(q, tuple(i % 5 for i in range(q.e)), 5),
                                     (0, 15), b) is None
        assert b.used == 1

    def test_colex_bipartite_cycle(self):
        c = cons.colour_bipartite(3, 38, 2, verify=False)
        b = Budget()
        w = rainbow_cycle_through(c, (36, 40), b)
        assert b.used == 12_763
        assert w.vertices == (36, 0, 40, 1, 6, 2)
        assert w.edge_ids == (33, 37, 75, 41, 79, 109)

    @pytest.mark.parametrize("g, s, length, nodes", [
        (gen.hypercube(5), (0, 5, 26), 10, 218),
        (gen.wheel(10), (1, 4, 8), 8, 265),
    ])
    def test_min_cycle_length(self, g, s, length, nodes):
        b = Budget()
        assert min_cycle_length_through(g, s, b) == length
        assert b.used == nodes


class TestOracleAgreement:
    def test_walk_search_matches_brute(self):
        rng = random.Random(2024)
        graphs = [gen.hypercube(3), gen.cycle(6), gen.complete(4), gen.complete_bipartite(3, 3)]
        graphs += [random_connected_graph(rng, rng.randrange(5, 9), rng.randrange(3, 10))
                   for _ in range(6)]
        # (coloured, walk exists) -> calls with at least two distinct anchors
        outcomes = dict.fromkeys(itertools.product((False, True), repeat=2), 0)
        for g in graphs:
            for _ in range(60):
                s = tuple(rng.randrange(g.n) for _ in range(rng.randrange(1, 5)))
                r = rng.randrange(max(2, g.e // 2), g.e + 1)
                random_colouring = EdgeColouring(
                    g, tuple(rng.randrange(r) for _ in range(g.e)), r, unused_ok=True
                )
                for c in (None, random_colouring):
                    w = find_subdivided_closed_walk(g, s, colouring=c)
                    exists = brute_subdivided_closed_walk_exists(g, s, c)
                    assert (w is not None) == exists, (g.edges, s, c)
                    if len(set(s)) > 1:
                        outcomes[c is not None, exists] += 1
                    if w is not None:
                        assert w.anchors == s
                        assert check_walk_witness(g, w, c, require_rainbow=c is not None)
        assert min(outcomes.values()) >= 50, outcomes

    def test_rainbow_cycle_search_matches_naive(self, corpus):
        rng = random.Random(99)
        for name, g in corpus:
            if not 3 <= g.n <= 9 or g.e == 0:
                continue
            for _ in range(4):
                r = rng.randrange(2, g.e + 1)
                c = EdgeColouring(
                    g, tuple(rng.randrange(r) for _ in range(g.e)), r, unused_ok=True
                )
                k = rng.randrange(1, 4)
                s = tuple(sorted(rng.sample(range(g.n), min(k, g.n))))
                got = rainbow_cycle_through(c, s) is not None
                assert got == brute_has_rainbow_cycle_through(c, s), (name, s)


@st.composite
def coloured_graphs(draw, max_n=7, max_extra=8):
    """A small connected graph, a random spanning tree plus extra edges, with
    a colouring that may leave colours unused: either uniform over r colours,
    or the rainbow colouring with a few edges recoloured, which certifies
    more often."""
    n = draw(st.integers(3, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [p for p in itertools.combinations(range(n), 2) if p not in edges]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=max_extra, unique=True)))
    g = Graph(n, tuple(edges))
    if draw(st.booleans()):
        r = draw(st.integers(1, g.e))
        colours = draw(st.lists(st.integers(0, r - 1), min_size=g.e, max_size=g.e))
    else:
        r, colours = g.e, list(range(g.e))
        for _ in range(draw(st.integers(0, 3))):
            colours[draw(st.integers(0, g.e - 1))] = draw(st.integers(0, g.e - 1))
    return EdgeColouring(g, tuple(colours), r, unused_ok=True)


def _oracle_verdict(c, k, structures):
    """(status, bad set) by definition: the first k-subset in colex order,
    sorted here by reversed tuple, that lies in no rainbow structure from
    structures, given as (vertex set, edge ids) pairs."""
    subsets = sorted(itertools.combinations(range(c.graph.n), k), key=lambda s: s[::-1])
    for s in subsets:
        if not any(set(s) <= verts and len({c.colour_of[e] for e in eids}) == len(eids)
                   for verts, eids in structures):
            return "counterexample", s
    return "certified", None


class TestCover:
    @settings(max_examples=150, deadline=None)
    @given(coloured_graphs(), st.integers(1, 3))
    def test_cycle_verify_matches_brute(self, c, k):
        report = verify_k_rainbow_cycle_colouring(c, k, check_family=False)
        cycles = brute_all_cycles(c.graph)
        assert (report.status, report.bad_set) == _oracle_verdict(c, k, cycles)
        if report.certified:
            assert check_cover(c, k, report.cover)
        in_family = all(any(set(s) <= verts for verts, _ in cycles)
                        for s in itertools.combinations(range(c.graph.n), k))
        if in_family:
            checked = verify_k_rainbow_cycle_colouring(c, k)
            assert (checked.status, checked.bad_set, checked.cover) == (
                report.status, report.bad_set, report.cover)
        else:
            with pytest.raises(NotInFamily):
                verify_k_rainbow_cycle_colouring(c, k)

    @settings(max_examples=60, deadline=None)
    @given(coloured_graphs(max_n=6, max_extra=4), st.integers(2, 3))
    def test_tree_verify_matches_brute(self, c, k):
        report = verify_k_rainbow_index_colouring(c, k)
        assert (report.status, report.bad_set) == _oracle_verdict(c, k, brute_subtrees(c.graph))
        if report.certified:
            assert check_cover(c, k, report.cover)

    def test_report_lists_each_witness_once(self):
        c = cons.colour_cube(4, 2, verify=False)
        report = verify_k_rainbow_cycle_colouring(c, 2)
        ws = report.cover.witnesses
        assert len({frozenset(w.vertices) for w in ws}) == len(ws) == report.subsets_searched
        assert sorted(set(report.cover.index)) == list(range(len(ws)))
        assert all(isinstance(w, CycleWitness) for w in ws)

    def test_rx_and_k1_covers(self):
        c = cons.colour_join_rxk(2, 3, verify=False)
        report = verify_k_rainbow_index_colouring(c, 2)
        assert report.certified and check_cover(c, 2, report.cover)
        # single vertices are joined by the one-vertex tree
        report = verify_k_rainbow_index_colouring(c, 1)
        assert report.certified and check_cover(c, 1, report.cover)
        assert not check_cover(c, 2, report.cover)

    def test_counterexample_cover_is_partial(self):
        g = gen.wheel(5)
        c = EdgeColouring(g, (0,) * (g.e - 1) + (1,), 2)
        report = verify_k_rainbow_cycle_colouring(c, 2)
        assert report.status == "counterexample"
        assert len(report.cover.index) == report.subsets_checked - 1
        assert report.subsets_searched == len(report.cover.witnesses) + 1
        assert not check_cover(c, 2, report.cover)

    @pytest.fixture(scope="class")
    def certified(self):
        c = cons.colour_wheel(8, 3, verify=False)
        report = verify_k_rainbow_cycle_colouring(c, 3)
        assert report.certified and check_cover(c, 3, report.cover)
        return c, report.cover

    def test_flipped_colour_fails(self, certified):
        c, cover = certified
        # recolour an edge of a witness with the colour of its neighbour on it
        w = cover.witnesses[0]
        colours = list(c.colour_of)
        colours[w.edge_ids[0]] = colours[w.edge_ids[1]]
        flipped = EdgeColouring(c.graph, tuple(colours), c.r, unused_ok=True)
        assert not check_cover(flipped, 3, cover)

    def test_wrong_subset_index_fails(self, certified):
        c, cover = certified
        subsets = list(colex_subsets(c.graph.n, 3))
        # point a subset at a witness that misses one of its vertices
        for i, s in enumerate(subsets):
            wrong = next((j for j, w in enumerate(cover.witnesses)
                          if not set(s) <= set(w.vertices)), None)
            if wrong is not None:
                break
        index = cover.index[:i] + (wrong,) + cover.index[i + 1:]
        assert not check_cover(c, 3, Cover(cover.witnesses, index))
        assert not check_cover(c, 3, Cover(cover.witnesses, cover.index[:-1]))
        assert not check_cover(c, 3, Cover(cover.witnesses, cover.index[:-1] + (len(cover.witnesses),)))
