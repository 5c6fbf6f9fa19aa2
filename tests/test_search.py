import gc
import hashlib
import itertools
import math
import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_all_cycles,
    brute_has_rainbow_cycle_through,
    brute_lex_least_rainbow_cycle,
    brute_subdivided_closed_walk_exists,
    brute_subtrees,
    random_connected_graph,
)
from rainbowcycles import constructions as cons
from rainbowcycles import generators as gen
from rainbowcycles import solver
from rainbowcycles.colouring import (
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
    _anchored_cycle,
    _colex_masks,
    _members,
    circumference,
    cycle_through_exists,
    ear_decomposition,
    find_hamilton_cycle,
)
from rainbowcycles.search import (
    _colour_symmetries,
    _part_walk_exists,
    colour_class_collision,
    find_subdivided_closed_walk,
    min_cycle_length_through,
    rainbow_cycle_through,
    rainbow_tree_through,
    verify_k_rainbow_cycle_colouring,
    verify_k_rainbow_index_colouring,
)
from rainbowcycles.solver import canonical_colourings


def cube_translations(n: int) -> list:
    """The 2^n - 1 translations v -> v XOR t, t != 0, of Q_n's vertices."""
    return [[v ^ t for v in range(1 << n)] for t in range(1, 1 << n)]


def colex(n: int, k: int) -> list:
    """The k-subsets of range(n) in colex order, by sorting, as an oracle
    independent of graph._colex_masks."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


class TestColexOrder:
    def test_small(self):
        assert [_members(m) for m in _colex_masks(4, 2)] == [
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)
        ]

    def test_matches_sort_by_reversed(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert [_members(m) for m in _colex_masks(n, k)] == colex(n, k), (n, k)
        assert len(list(_colex_masks(7, 3))) == 35


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
            for pair in colex(5, 2):
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
        for pair in colex(8, 2):
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

    def test_not_in_f3_after_a_counterexample(self):
        # K_{2,3} is in F_2, so verification runs; its three-vertex side
        # lies on no cycle, and the F_3 test after the counterexample says so
        c = rainbow_colouring(gen.complete_bipartite(2, 3))
        with pytest.raises(NotInFamily) as exc:
            verify_k_rainbow_cycle_colouring(c, 3)
        assert exc.value.k == 3

    def test_counterexample_is_colex_least(self):
        # worst wheel colouring: everything colour 0 except one edge
        g = gen.wheel(5)
        c = EdgeColouring(g, (0,) * (g.e - 1) + (1,), 2)
        rep = verify_k_rainbow_cycle_colouring(c, 2)
        assert rep.status == "counterexample"
        subs = list(colex(g.n, 2))
        for s in subs[: subs.index(rep.bad_set)]:
            assert rainbow_cycle_through(c, s) is not None

    def test_k_beyond_n_is_rejected(self):
        # K_4 has no 9-subsets, so nothing can be certified for them
        c = cons.colour_complete_2rainbow(4)
        with pytest.raises(NotInFamily):
            verify_k_rainbow_cycle_colouring(c, 9)
        for verify in (partial(verify_k_rainbow_cycle_colouring, check_family=False),
                       verify_k_rainbow_index_colouring):
            for k in (0, 5, 9):
                with pytest.raises(InvalidParameter, match="1..4"):
                    verify(c, k)
        for k in (0, 5):
            with pytest.raises(InvalidParameter, match="1..4"):
                check_cover(c, k, c.witnesses)

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
        for pair in colex(c.graph.n, 2):
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

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        # refused before the graph is looked at, as by every other entry point
        with pytest.raises(InvalidParameter, match="^k must be positive$"):
            colour_class_collision(rainbow_colouring(gen.complete_bipartite(3, 10)), k)
        with pytest.raises(InvalidParameter, match="^k must be positive$"):
            colour_class_collision(rainbow_colouring(gen.complete(4)), k)


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

    def test_colouring_of_another_graph_is_refused(self):
        # distances would come from g and colours from K_6: a "walk" of
        # chords that are no edges of C_6
        g = gen.cycle(6)
        with pytest.raises(InvalidParameter, match="another graph"):
            find_subdivided_closed_walk(g, (0, 2), colouring=rainbow_colouring(gen.complete(6)))
        # an equal graph built apart is the same graph
        c = rainbow_colouring(gen.cycle(6))
        w = find_subdivided_closed_walk(g, (0, 2), colouring=c)
        assert check_walk_witness(g, w, c, require_rainbow=True)


@pytest.mark.parametrize("search", [
    lambda g, s: rainbow_cycle_through(rainbow_colouring(g), s),
    min_cycle_length_through,
    lambda g, s: rainbow_tree_through(rainbow_colouring(g), s),
    cycle_through_exists,
    find_subdivided_closed_walk,
], ids=["rainbow_cycle_through", "min_cycle_length_through", "rainbow_tree_through",
        "cycle_through_exists", "find_subdivided_closed_walk"])
@pytest.mark.parametrize("bad", [-1, 5])
def test_vertex_ids_outside_the_graph_are_refused(search, bad):
    # -1 would read the last vertex's entries and 5 would run off them
    with pytest.raises(InvalidParameter, match=f"vertex {bad} is not in 0..4"):
        search(gen.cycle(5), (bad, 2))


def test_searches_leave_no_cyclic_garbage():
    """The recursive closures of the searches are unlinked on exit, and the
    other searches run on explicit stacks, so a call's state is freed
    without the cyclic collector."""
    q4 = gen.hypercube(4)
    c = cons.colour_cube(4, 2)
    c3 = cons.colour_cube(3, 2)
    c42 = cons.colour_cube_recursive(4, 4, 2)

    def walk_budget_out():
        # (8, 0) passes the quotient bound in 8 nodes, and its search takes
        # 160 more: a budget of 100 stops the search partway
        with pytest.raises(BudgetExceeded):
            find_subdivided_closed_walk(c42.graph, (8, 0), colouring=c42, budget=Budget(100))

    calls = [
        lambda: cycle_through_exists(q4, (0, 5, 10)),
        lambda: rainbow_cycle_through(c, (0, 15)),
        lambda: min_cycle_length_through(q4, (0, 15)),
        lambda: find_subdivided_closed_walk(q4, (0, 5, 10, 3)),
        lambda: find_subdivided_closed_walk(q4, (0, 5, 10, 3), colouring=rainbow_colouring(q4)),
        lambda: find_subdivided_closed_walk(q4, (0, 1, 0, 1, 0, 1)),  # absent
        lambda: find_subdivided_closed_walk(c42.graph, (8, 0), colouring=c42),
        walk_budget_out,
        lambda: solver.crx_exact(gen.wheel(4), 2),
        lambda: solver.rx_exact(gen.cycle(5), 3),
        lambda: rainbow_tree_through(c3, (0, 3, 5, 6)),
        lambda: find_hamilton_cycle(gen.petersen()),
        lambda: ear_decomposition(gen.wheel(5)),
        lambda: circumference(gen.petersen()),
        # each palette is built while the cyclic collector is off
        lambda: find_subdivided_closed_walk(gen.hypercube(3), (0, 3, 5, 6)),
        lambda: rainbow_cycle_through(cons.colour_cube(3, 2, verify=False), (0, 7)),
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


def _outcome(search, *args):
    """(result or the exception type, Budget.used, Budget.cuts) of search
    run on a fresh budget of 20,000 nodes, passed last."""
    b = Budget(20_000)
    try:
        result = search(*args, b)
    except BudgetExceeded:
        result = BudgetExceeded
    return result, b.used, b.cuts


@pytest.mark.parametrize("g", [gen.wheel(8), gen.hypercube(4), gen.petersen(),
                               gen.complete_bipartite(3, 6), gen.complete(6)],
                         ids=["W8", "Q4", "Petersen", "K3,6", "K6"])
def test_uncoloured_search_equals_the_rainbow_colouring(g):
    """Without a colouring the kernels read the graph's own palette, each
    edge its own colour; under rainbow_colouring they read the colouring's.
    Both must give the same answer, nodes and cuts."""
    c = rainbow_colouring(g)
    rng = random.Random(g.n * 1000 + g.e)
    for _ in range(60):
        s = sorted(rng.sample(range(g.n), rng.randint(1, 5)))
        for limits in ((g.n,), range(3, g.n + 1)):
            assert (_outcome(lambda b: _anchored_cycle(g, s, b, limits))
                    == _outcome(lambda b: _anchored_cycle(g, s, b, limits, c))), (s, limits)
        walk = tuple(rng.choice(range(g.n)) for _ in range(rng.randint(2, 5)))
        assert (_outcome(partial(find_subdivided_closed_walk, g, walk, None))
                == _outcome(partial(find_subdivided_closed_walk, g, walk, c))), walk


class TestGoldenNodeCounts:
    """Node counts and witnesses of fixed calls. A change that only makes a
    node cheaper must leave every one of them as it is. A cut rule that only
    ends dead subtrees may lower a count, but it never changes a witness:
    the cycle search's forced-vertex test, which skips children that a rule
    would cut at once, lowered many of the counts below, and each keeps its
    count from before that test in a comment."""

    @pytest.fixture(scope="class")
    def cube_k3(self):
        return cons.colour_cube_recursive(6, 4, 3)

    # Each count includes the part-walk steps of the block-quotient bound,
    # which runs before the search; the ids keep the counts from before it
    @pytest.mark.parametrize("s, nodes, paths", [
        ((41, 41, 41, 42), 8, ((41,), (41,), (41, 40, 42), (42, 43, 41))),  # was 4
        ((38, 45, 10, 32), 1050,  # was 1012
         ((38, 39, 37, 45), (45, 13, 9, 11, 10), (10, 2, 0, 32), (32, 36, 38))),
    ], ids=["s0-4-paths0", "s1-1012-paths1"])
    def test_coloured_q6_walk(self, cube_k3, s, nodes, paths):
        b = Budget(50_000)
        w = find_subdivided_closed_walk(cube_k3.graph, s, colouring=cube_k3, budget=b)
        assert (b.used, w.paths) == (nodes, paths)
        assert b.cuts["quotient"] == 0

    def test_coloured_q6_walk_budget_out(self, cube_k3):
        # a tuple that the block-quotient bound leaves open, whose walk takes
        # 1,050 nodes (test_coloured_q6_walk), on a budget of 1,000
        b = Budget(1_000)
        with pytest.raises(BudgetExceeded):
            find_subdivided_closed_walk(cube_k3.graph, (38, 45, 10, 32), colouring=cube_k3,
                                        budget=b)
        assert (b.used, b.cuts["quotient"]) == (1_001, 0)

    def test_coloured_q6_walk_refuted_on_summed_crossings(self, cube_k3):
        # 5 -> 21 stays in part 5 of the low block and moves from part 0 to
        # part 2 of the high block: one crossing short of the 2 a path needs.
        # Given to the low block, it makes part 5 a leg's target twice, 4
        # crossings at a part with 3 (0 steps); given to the high block, it
        # asks for 2 moves from 0 to 2, and no closed part walk has them
        # (11 steps for the low block's plain walk, then 20). Each block's
        # part walk exists on its own, and the search used to run out of
        # 50 k nodes
        b = Budget(50_000)
        assert find_subdivided_closed_walk(cube_k3.graph, (41, 5, 21, 8), colouring=cube_k3,
                                           budget=b) is None
        assert (b.used, b.cuts["quotient"]) == (31, 1)

    def test_coloured_q6_walk_refuted_on_a_quotient(self, cube_k3):
        # the high block reads 0, 1, 0, 4: a closed walk on Q_3 through those
        # parts needs four crossings at part 0, which has three edges, each
        # of one colour. The low block's part walk exists and takes 6 steps;
        # without the bound the search ran out of 50 k nodes
        b = Budget(50_000)
        assert find_subdivided_closed_walk(cube_k3.graph, (0, 15, 5, 33), colouring=cube_k3,
                                           budget=b) is None
        assert (b.used, b.cuts["quotient"]) == (6, 1)

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
        # F_3 search, so no Hamilton shortcut runs. Before the forced-vertex
        # test the pass took 60 nodes and the search below 11
        assert (report.subsets_checked, report.search_nodes, b.used) == (165, 58, 58)
        assert report.subsets_searched == 4
        b = Budget()
        w = rainbow_cycle_through(c, (0, 4, 7), b)
        assert b.used == 9
        assert w.vertices == (0, 1, 2, 3, 4, 10, 7, 8, 9)
        assert w.edge_ids == (0, 3, 5, 7, 10, 16, 15, 17, 1)

    def test_precheck_spends_the_callers_budget(self):
        # a certified colouring proves F_3 membership: no precheck search
        c = rainbow_colouring(gen.petersen())
        b = Budget()
        report = verify_k_rainbow_cycle_colouring(c, 3, b)
        assert (report.subsets_checked, report.search_nodes, b.used) == (120, 46, 46)
        assert verify_k_rainbow_cycle_colouring(c, 3, check_family=False).search_nodes == 46
        # after a counterexample the F_3 search runs on the same budget: Petersen
        # is not Hamiltonian, so it is the 82-node shortcut and 46 triple nodes
        # (142 and 53, and 53 for the pass above, before the forced-vertex test)
        c = EdgeColouring(gen.petersen(), tuple(i % 7 for i in range(15)), 7)
        plain = verify_k_rainbow_cycle_colouring(c, 3, check_family=False)
        b = Budget()
        report = verify_k_rainbow_cycle_colouring(c, 3, b)
        assert report.status == plain.status == "counterexample"
        assert report.bad_set == plain.bad_set
        assert report.search_nodes == b.used == plain.search_nodes + 82 + 46

    @pytest.mark.parametrize("colour, k, searched, nodes", [
        (lambda: cons.colour_wheel(14, 5, verify=False), 5, 6, 108),
        (lambda: cons.colour_cube(5, 3, verify=False), 3, 540, 53_926),
        (lambda: cons.colour_bipartite(3, 38, 2, verify=False), 2, 643, 10_164),
    ], ids=["wheel-14-5", "cube-5-3", "bipartite-3-38-2"])
    def test_covered_subsets_need_no_search(self, colour, k, searched, nodes):
        # without the cycle search's cut rules these passes spent 287,
        # 101,921 and 1,176,193 nodes, and one search per subset 47,646,
        # 561,949 and about 1.31 M; with the closing-edge and two-sides
        # rules but before the forced-vertex test, 124, 56,698 and 48,925
        c = colour()
        b = Budget()
        report = verify_k_rainbow_cycle_colouring(c, k, b)
        assert report.certified and report.subsets_checked == math.comb(c.graph.n, k)
        assert (report.subsets_searched, report.search_nodes, b.used) == (searched, nodes, nodes)
        assert check_cover(c, k, report.witnesses)

    # each id ends in the case's node count before the forced-vertex test,
    # which keeps the ids of the earlier pins
    @pytest.mark.parametrize("n, k, searched, nodes", [
        (5, 3, 15, 1_043),
        (5, 2, 6, 88),
        (4, 3, 4, 27),
    ], ids=["5-3-15-1076", "5-2-6-88", "4-3-4-28"])
    def test_cube_translations_search_one_witness_per_orbit(self, n, k, searched, nodes):
        # every translation maps the k = 2, 3 colouring onto itself up to a
        # renaming of colours, so each witness brings its images along;
        # without them the passes search 540, 95 and 57 subsets and spend
        # 53,926, 3,752 and 749 nodes. Before the forced-vertex test they
        # spent 56,698, 3,860 and 810 nodes without the translations, and
        # 1,076, 88 and 28 with them
        c = cons.colour_cube(n, k, verify=False)
        b = Budget()
        report = verify_k_rainbow_cycle_colouring(c, k, b, symmetries=cube_translations(n))
        assert report.certified
        assert (report.subsets_searched, report.search_nodes, b.used) == (searched, nodes, nodes)
        # the constructor's self-verification is the same pass
        b = Budget()
        cons.colour_cube(n, k, budget=b)
        assert b.used == nodes

    # each id ends in the case's node count before the forced-vertex test,
    # which keeps the ids of the earlier pins
    @pytest.mark.parametrize("m, n, k, searched, nodes", [
        (6, 12, 2, 14, 674),
        (5, 11, 2, 13, 484),
        (4, 10, 2, 18, 341),
        (6, 6, 2, 11, 212),
        (9, 12, 3, 30, 141_717),
    ], ids=["6-12-2-14-694", "5-11-2-13-498", "4-10-2-18-367", "6-6-2-11-232",
            "9-12-3-30-171445"])
    def test_twin_shifts_search_one_witness_per_orbit(self, monkeypatch, m, n, k, searched,
                                                      nodes):
        # the self-verification of the eight (k = 2) and sixk (k = 3)
        # regimes passes the cyclic shifts of the twin classes; without
        # them it searches 89, 66, 54, 26 and 184 subsets and spends 5,523,
        # 2,625, 1,331, 564 and 718,418 nodes. Before the forced-vertex test
        # it spent 5,671, 2,955, 1,471, 622 and 894,578 nodes without the
        # shifts, and 694, 498, 367, 232 and 171,445 with them
        b = Budget()
        c, _, twins = _self_verification(monkeypatch,
                                         partial(cons.colour_bipartite, m, n, k, budget=b))
        assert b.used == nodes
        report = verify_k_rainbow_cycle_colouring(c, k, symmetries=twins)
        assert report.certified
        assert (report.subsets_searched, report.search_nodes) == (searched, nodes)

    def test_far_pair_cut_at_the_anchor(self):
        # a cycle through antipodes of Q_4 needs 8 edges, more than 5 colours,
        # so the limit 5 lies below the kernel's distance floor and is
        # skipped without a node (1 before: the anchor's own state)
        q = gen.hypercube(4)
        b = Budget()
        assert rainbow_cycle_through(EdgeColouring(q, tuple(i % 5 for i in range(q.e)), 5),
                                     (0, 15), b) is None
        assert b.used == 0

    def test_pendant_vertex_ends_every_level(self):
        # vertex 6 hangs off W_5's vertex 0: no cycle holds it, which the
        # forced-vertex test finds at the root of each level; the floor skips
        # the levels instead (5 nodes before, one per level 3..7)
        g = Graph(7, gen.wheel(5).edges + ((0, 6),))
        b = Budget()
        assert min_cycle_length_through(g, (0, 6), b) is None
        assert b.used == 0

    def test_hamilton_levels_below_n_skipped(self):
        # a cycle through every vertex has n edges, so only level n runs. The
        # search keeps no distance rows at s = V, so a path could close one
        # edge past its level: from level 3 the search used to return this
        # 5-cycle the other way round, (0, 4, 1, 2, 3), at level 4 and after
        # 10 nodes
        g = Graph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4)))
        for limits in ((5,), range(3, 6)):
            b = Budget()
            assert _anchored_cycle(g, range(5), b, limits)[0] == (0, 3, 2, 1, 4)
            assert b.used == 6

    def test_colex_bipartite_cycle(self):
        c = cons.colour_bipartite(3, 38, 2, verify=False)
        b = Budget()
        w = rainbow_cycle_through(c, (36, 40), b)
        assert b.used == 116  # 629 before the forced-vertex test
        assert w.vertices == (36, 0, 40, 1, 6, 2)
        assert w.edge_ids == (33, 37, 75, 41, 79, 109)
        # a cycle of K_{3,38} has at most 6 edges, but the search runs at
        # limit r = 8: the closing-edge rule ends a path once the small side
        # is used up, and the two-sides rule once a missing vertex has lost
        # its usable edges; each state cut is still one of the 116 nodes.
        # Once 40 is down to one usable edge, the forced-vertex test lists
        # only the child 40, so the children the two-sides rule would cut
        # are not entered: it cut 102 and 455 states before that test
        assert b.cuts == {"closing": 30, "sides": 14, "short": 22}

    # each id ends in the case's node count before the forced-vertex test
    # (W_10's fell from 261), which keeps the ids of the earlier pins; W_10's
    # fell from 222 to 176 once the distance floor took the closed walk
    # 1 -> 4 -> 8 -> 1, of length 6, so its search starts at level 6, where
    # twice the largest pairwise distance started it at 4
    @pytest.mark.parametrize("g, s, length, nodes", [
        (gen.hypercube(5), (0, 5, 26), 10, 218),
        (gen.wheel(10), (1, 4, 8), 8, 176),
    ], ids=["g0-s0-10-218", "g1-s1-8-261"])
    def test_min_cycle_length(self, g, s, length, nodes):
        b = Budget()
        assert min_cycle_length_through(g, s, b) == length
        assert b.used == nodes


def _cover_digest(witnesses) -> str:
    """sha256 of a cover: its witnesses in order."""
    data = repr(tuple((w.vertices, w.edge_ids) for w in witnesses))
    return hashlib.sha256(data.encode()).hexdigest()


class TestWitnessIdentity:
    """Covers recorded from the anchored-cycle search before it had its
    closing-edge and two-sides rules. A rule that only ends subtrees with
    no completion leaves every witness, and the order the colex pass finds
    them in, as it was."""

    @pytest.mark.parametrize("colour, k, digest", [
        (lambda: cons.colour_bipartite(3, 38, 2, verify=False), 2,
         "15c42996e703b44cd7baccf66076829bc53f0a8bf7b80b65445aa3d47d9db83c"),
        (lambda: cons.colour_cube(5, 3, verify=False), 3,
         "fbcf5621ccdae22fd089412193d5996ee1bc2fc8749cac6bc5cf0f5d5d16fa4c"),
        (lambda: cons.colour_wheel(14, 5, verify=False), 5,
         "23eb40908b1bd5adb09da756d439ded27a913115d4adf681127c0ec494615e64"),
    ], ids=["bipartite-3-38-2", "cube-5-3", "wheel-14-5"])
    def test_cover_digest(self, colour, k, digest):
        report = verify_k_rainbow_cycle_colouring(colour(), k)
        assert report.certified
        assert _cover_digest(report.witnesses) == digest


def sparse_coloured_graph(rng: random.Random) -> EdgeColouring:
    """A graph whose cycles soon run out of room, so the cycle search's cut
    rules fire often: a random subgraph of K_{a,b} (a <= 3, b <= 5, the
    small class first) or a random graph of maximum degree 3, with at least
    one edge. The colouring is uniform over r colours, or the rainbow
    colouring with a few edges recoloured."""
    if rng.random() < 0.5:
        a, b = rng.randint(1, 3), rng.randint(2, 5)
        n = a + b
        edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < 0.8]
    else:
        n = rng.randint(4, 8)
        degree = [0] * n
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        edges = []
        for u, v in pairs:
            if degree[u] < 3 and degree[v] < 3 and rng.random() < 0.6:
                edges.append((u, v))
                degree[u] += 1
                degree[v] += 1
    g = Graph(n, tuple(edges or [(0, n - 1)]))
    if rng.random() < 0.5:
        r = rng.randint(1, g.e)
        colours = [rng.randrange(r) for _ in range(g.e)]
    else:
        r, colours = g.e, list(range(g.e))
        for _ in range(rng.randint(0, 2)):
            colours[rng.randrange(g.e)] = rng.randrange(g.e)
    return EdgeColouring(g, tuple(colours), r, unused_ok=True)


def _match_cycle_oracles(c, budgets):
    """Check rainbow_cycle_through, cycle_through_exists and
    min_cycle_length_through on every vertex set of size 1 to 3 against the
    brute-force oracles; budgets holds one Budget per search, which keeps
    its counts across calls."""
    g = c.graph
    cycles = brute_all_cycles(g)
    b_rainbow, b_exists, b_min = budgets
    for k in (1, 2, 3):
        for s in itertools.combinations(range(g.n), k):
            w = rainbow_cycle_through(c, s, b_rainbow)
            assert (w is not None) == brute_has_rainbow_cycle_through(c, s), (g.edges, c, s)
            if w is not None:
                assert check_cycle_witness(g, w, c, require_rainbow=True, containing=s)
            lengths = [len(eids) for verts, eids in cycles if set(s) <= verts]
            assert cycle_through_exists(g, s, b_exists) == bool(lengths), (g.edges, s)
            assert min_cycle_length_through(g, s, b_min) == (min(lengths) if lengths else None)


class TestCutRulesAgainstOracles:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_searches_match_brute(self, rng):
        _match_cycle_oracles(sparse_coloured_graph(rng), [Budget() for _ in range(3)])

    def test_seeded_graphs_reach_both_rules(self):
        # In a search without a colouring, taking an edge changes the usable
        # edges of no missing vertex but the one taken, so a child falls
        # short only once the closing edges run out: there the forced-vertex
        # test leaves the two-sides rule nothing to cut, and only the
        # rainbow searches reach it
        budgets = [Budget() for _ in range(3)]
        for seed in range(60):
            _match_cycle_oracles(sparse_coloured_graph(random.Random(seed)), budgets)
        cuts = [b.cuts for b in budgets]
        assert all(c["closing"] >= 200 and c["short"] >= 200 for c in cuts), cuts
        assert cuts[0]["sides"] >= 200, cuts


class TestQuotientBound:
    """The block-quotient bound of the walk search: a rainbow walk projects
    onto each vertex partition of EdgeColouring.quotients as a closed walk
    on the parts that crosses each pair of parts at most as often as there
    are distinct colours between them."""

    def test_cube_refutations_match_brute(self):
        # a walk found is re-checked; an answer of None, from the bound or
        # not, is confirmed by the oracle where the bound gave it
        c = cons.colour_cube_recursive(4, 4, 2)
        assert c.quotients == (tuple(v & 3 for v in range(16)), tuple(v >> 2 for v in range(16)))
        rng = random.Random(23)
        b = Budget(10**6)
        refuted = 0
        for _ in range(600):
            s = tuple(rng.randrange(16) for _ in range(rng.randrange(2, 5)))
            before = b.cuts.get("quotient", 0)
            w = find_subdivided_closed_walk(c.graph, s, colouring=c, budget=b)
            if w is not None:
                assert w.anchors == s and check_walk_witness(c.graph, w, c, require_rainbow=True)
            elif b.cuts["quotient"] > before:
                refuted += 1
                assert not brute_subdivided_closed_walk_exists(c.graph, s, c), s
        assert refuted >= 8, refuted

    def test_random_partitions_leave_every_answer_unchanged(self):
        rng = random.Random(2310)
        refuted = found = 0
        for _ in range(30):
            g = random_connected_graph(rng, rng.randrange(8, 14), rng.randrange(2, 8))
            r = rng.randrange(g.e // 2, g.e + 1)
            c = EdgeColouring(g, tuple(rng.randrange(r) for _ in range(g.e)), r, unused_ok=True)
            for _ in range(5):
                parts = rng.randrange(2, 6)
                hinted = replace(c, quotients=tuple(
                    tuple(rng.randrange(parts) for _ in range(g.n))
                    for _ in range(rng.randrange(1, 3))))
                for _ in range(10):
                    s = tuple(rng.randrange(g.n) for _ in range(rng.randrange(2, 6)))
                    b = Budget()
                    w = find_subdivided_closed_walk(g, s, colouring=hinted, budget=b)
                    assert w == find_subdivided_closed_walk(g, s, colouring=c), (g.edges, s)
                    refuted += b.cuts.get("quotient", 0)
                    found += w is not None
        assert refuted >= 20 and found >= 50, (refuted, found)

    def test_a_colour_on_two_pairs_counts_on_each(self):
        # the 6-cycle 0..5 and the chord 1-5; parts A = {0}, B = {1, 2, 3} and
        # C = {4, 5}. Colour 0 lies on 0-1 (A-B) and on the chord 1-5 (B-C).
        # The walk (0, 3) is the 6-cycle, which crosses A-B in colour 0 and
        # B-C in colour 3: a bound that gave the B-C crossing its lowest free
        # colour, 0, would leave A-B none and refute a walk that exists
        g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 5)))
        colour_of = {(0, 1): 0, (1, 2): 1, (2, 3): 2, (3, 4): 3, (4, 5): 4, (0, 5): 5, (1, 5): 0}
        c = EdgeColouring(g, tuple(colour_of[uv] for uv in g.edges), 6)
        hinted = replace(c, quotients=((0, 1, 1, 1, 2, 2),))
        for s in ((0, 3), (3, 0), (0, 2, 4), (5, 3)):
            b = Budget()
            w = find_subdivided_closed_walk(g, s, colouring=hinted, budget=b)
            assert w == find_subdivided_closed_walk(g, s, colouring=c), s
            assert (w is not None) == brute_subdivided_closed_walk_exists(g, s, c), s
        assert find_subdivided_closed_walk(g, (0, 3), colouring=hinted).paths == (
            (0, 1, 2, 3), (3, 4, 5, 0))

    @staticmethod
    def _adjacent_biased_tuples(rng, count):
        """Tuples of Q_4 vertices whose next anchor is mostly a neighbour."""
        out = []
        for _ in range(count):
            s = [rng.randrange(16)]
            for _ in range(rng.randrange(1, 4)):
                s.append(s[-1] ^ 1 << rng.randrange(4) if rng.random() < 0.6
                         else rng.randrange(16))
            out.append(tuple(s))
        return out

    @staticmethod
    def _each_part_walk_exists(c, s):
        graphs, _ = c._quotient_graphs
        return all(_part_walk_exists(q, s, Budget(), (0,) * len(s)) for q in graphs)

    def test_summed_crossings_match_brute(self):
        # adjacent anchors leave each block's part walk a one-crossing leg,
        # so the refutations counted here come from the crossings summed
        # over the blocks; each is confirmed by the oracle
        c = cons.colour_cube_recursive(4, 4, 2)
        assert c._quotient_graphs[1]
        joint = 0
        for s in self._adjacent_biased_tuples(random.Random(26), 150):
            b = Budget(10**6)
            w = find_subdivided_closed_walk(c.graph, s, colouring=c, budget=b)
            if w is not None:
                assert check_walk_witness(c.graph, w, c, require_rainbow=True)
            elif b.cuts.get("quotient") and self._each_part_walk_exists(c, s):
                joint += 1
                assert not brute_subdivided_closed_walk_exists(c.graph, s, c), s
        assert joint >= 20, joint

    def test_short_crossings_split_between_the_blocks(self):
        # 8 and 0 differ in the high block only: each way between them has
        # part distances summing to 1, one crossing short of the 2 a path
        # needs. The walk found detours through the low block on the way to
        # 0 and through the high block on the way back, so the two missing
        # crossings fall one in each block: given both, the low block must
        # leave part 0 twice, and the high block must go from part 2 to
        # part 0 and back in at least 2 moves each; neither has room
        c = cons.colour_cube_recursive(4, 4, 2)
        (low, high), _ = c._quotient_graphs
        w = find_subdivided_closed_walk(c.graph, (8, 0), colouring=c)
        assert w.paths == ((8, 9, 1, 3, 2, 0), (0, 4, 12, 8))
        assert check_walk_witness(c.graph, w, c, require_rainbow=True)
        assert not _part_walk_exists(low, (8, 0), Budget(), (1, 1))
        assert not _part_walk_exists(high, (8, 0), Budget(), (2, 2))
        assert _part_walk_exists(low, (8, 0), Budget(), (1, 0))
        assert _part_walk_exists(high, (8, 0), Budget(), (0, 2))

    def test_a_segment_two_crossings_short_goes_to_one_partition(self):
        # a and z, distinct and not adjacent, form one part of each of two
        # partitions that together cut every edge, so a segment between
        # them has part distance 0 in both and is 2 crossings short. Given
        # 1 of them, a partition must still leave the part and come back,
        # so demand 1 and demand 2 agree, and the bound gives both to one
        # partition. The edges at a and z take few colours, which leaves
        # the part few crossings: the joint refutations are those where
        # each part walk exists without the demand.

        # the 6-cycle 0-3-1-4-2-5 in parts {0, 1}, {2, 3, 4, 5} and {0, 1},
        # {2}, {3, 4, 5}: its walk (0, 1, 2) leaves part {0, 1} no crossing
        # to spare, so the segment from 0 to 1 gets exactly its 2 missing ones
        g = Graph(6, ((0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)))
        hinted = replace(rainbow_colouring(g), quotients=((0, 0, 1, 1, 1, 1), (0, 0, 1, 2, 2, 2)))
        assert hinted._quotient_graphs[1]
        w = find_subdivided_closed_walk(g, (0, 1, 2), colouring=hinted)
        assert w.paths == ((0, 3, 1), (1, 4, 2), (2, 5, 0))
        rng = random.Random(28)
        graphs = refuted = joint = found = 0
        while graphs < 150:
            g = random_connected_graph(rng, rng.randrange(7, 11), rng.randrange(4, 10))
            a, z = rng.sample(range(g.n), 2)
            parts = tuple(tuple(-1 if v in (a, z) else rng.randrange(rng.randrange(2, 5))
                                for v in range(g.n)) for _ in range(2))
            if g.edge_index.get((min(a, z), max(a, z))) is not None or not all(
                    any(p[u] != p[v] for p in parts) for u, v in g.edges):
                continue
            graphs += 1
            few = rng.randrange(3, 6)
            c = EdgeColouring(g, tuple(rng.randrange(few) if a in uv or z in uv
                                       else rng.randrange(few + g.e) for uv in g.edges),
                              few + g.e, unused_ok=True)
            hinted = replace(c, quotients=parts)
            quotients, cut = hinted._quotient_graphs
            assert cut
            other = rng.choice([v for v in range(g.n) if v not in (a, z)])
            for s in ((a, z), (a, z, other), (z, a, rng.randrange(g.n))):
                for q in quotients:
                    assert _part_walk_exists(q, s, Budget(), (1,) + (0,) * (len(s) - 1)) == \
                        _part_walk_exists(q, s, Budget(), (2,) + (0,) * (len(s) - 1)), s
                b = Budget()
                w = find_subdivided_closed_walk(g, s, colouring=hinted, budget=b)
                assert w == find_subdivided_closed_walk(g, s, colouring=c), (g.edges, s)
                assert (w is not None) == brute_subdivided_closed_walk_exists(g, s, c), s
                refuted += b.cuts.get("quotient", 0)
                joint += b.cuts.get("quotient", 0) and self._each_part_walk_exists(hinted, s)
                found += w is not None
        assert joint >= 12 and refuted >= joint and found >= 30, (refuted, joint, found)

    def test_an_uncut_edge_skips_the_sum(self):
        # the low block alone leaves the high block's edges inside its parts,
        # so a path's crossings may sum to less than its length: each tuple
        # is checked on that block's part walk alone, and the answers are
        # those of the search without quotients
        c = cons.colour_cube_recursive(4, 4, 2)
        hinted = replace(c, quotients=c.quotients[:1])
        assert not hinted._quotient_graphs[1]
        refuted = found = 0
        for s in self._adjacent_biased_tuples(random.Random(2026), 300) + [(8, 0), (0, 4)]:
            b = Budget()
            w = find_subdivided_closed_walk(c.graph, s, colouring=hinted, budget=b)
            assert w == find_subdivided_closed_walk(c.graph, s, colouring=replace(c, quotients=()))
            if "quotient" in b.cuts:  # the rule ran, after the distance checks
                assert b.cuts["quotient"] == (not self._each_part_walk_exists(hinted, s)), s
                refuted += b.cuts["quotient"]
            found += w is not None
        assert refuted >= 5 and found >= 100, (refuted, found)

    def test_budget_holds_on_the_bound(self):
        c = cons.colour_cube_recursive(6, 4, 3)
        b = Budget(5)
        with pytest.raises(BudgetExceeded):
            find_subdivided_closed_walk(c.graph, (0, 15, 5, 33), colouring=c, budget=b)
        assert b.used == 6

    def test_cuts_key_only_where_the_rule_runs(self):
        c = cons.colour_cube_recursive(6, 4, 3)
        b = Budget()
        find_subdivided_closed_walk(c.graph, (0, 1, 2), budget=b)
        find_subdivided_closed_walk(c.graph, (0, 1, 2), colouring=replace(c, quotients=()),
                                    budget=b)
        assert "quotient" not in b.cuts
        find_subdivided_closed_walk(c.graph, (0, 1, 2), colouring=c, budget=b)
        assert b.cuts["quotient"] == 0


class TestOracleAgreement:
    def test_walk_search_matches_brute(self):
        rng = random.Random(2024)
        graphs = [gen.hypercube(3), gen.cycle(6), gen.complete(4), gen.complete_bipartite(3, 3)]
        graphs += [random_connected_graph(rng, rng.randrange(5, 9), rng.randrange(3, 10))
                   for _ in range(6)]
        # a triangle and a square: anchors in both components have no walk
        graphs.append(Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6))))
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


def _match_lex_least_witness(c):
    """rainbow_cycle_through returns the lex-least rainbow cycle through
    every vertex set of size 1 to 3, rotated to start at its least vertex."""
    for k in (1, 2, 3):
        for s in itertools.combinations(range(c.graph.n), k):
            w = rainbow_cycle_through(c, s)
            expected = brute_lex_least_rainbow_cycle(c, s)
            assert (None if w is None else w.vertices) == expected, (c.graph.edges, c, s)


class TestWitnessContract:
    """The witness the cycle search returns is fixed by its contract, not
    by how the search prunes: of all rainbow cycles through s, in both
    directions and rotated to start at min(s), the least vertex tuple."""

    def test_seeded_sparse_graphs(self):
        for seed in range(150):
            _match_lex_least_witness(sparse_coloured_graph(random.Random(seed)))

    @settings(max_examples=100, deadline=None)
    @given(coloured_graphs())
    def test_random_coloured_graphs(self, c):
        _match_lex_least_witness(c)


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


def _oracle_checked(n, k, bad_set):
    """The subsets a colex pass visits: all C(n, k) of them, or those up to
    and including bad_set, counted here by listing the subsets in order."""
    subsets = sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])
    return len(subsets) if bad_set is None else subsets.index(bad_set) + 1


class TestCover:
    @settings(max_examples=150, deadline=None)
    @given(coloured_graphs(), st.integers(1, 3))
    def test_cycle_verify_matches_brute(self, c, k):
        report = verify_k_rainbow_cycle_colouring(c, k, check_family=False)
        cycles = brute_all_cycles(c.graph)
        assert (report.status, report.bad_set) == _oracle_verdict(c, k, cycles)
        assert report.subsets_checked == _oracle_checked(c.graph.n, k, report.bad_set)
        if report.certified:
            assert check_cover(c, k, report.witnesses)
        in_family = all(any(set(s) <= verts for verts, _ in cycles)
                        for s in itertools.combinations(range(c.graph.n), k))
        if in_family:
            checked = verify_k_rainbow_cycle_colouring(c, k)
            assert (checked.status, checked.bad_set, checked.witnesses) == (
                report.status, report.bad_set, report.witnesses)
        else:
            with pytest.raises(NotInFamily):
                verify_k_rainbow_cycle_colouring(c, k)

    @settings(max_examples=60, deadline=None)
    @given(coloured_graphs(max_n=6, max_extra=4), st.integers(2, 3))
    def test_tree_verify_matches_brute(self, c, k):
        report = verify_k_rainbow_index_colouring(c, k)
        assert (report.status, report.bad_set) == _oracle_verdict(c, k, brute_subtrees(c.graph))
        assert report.subsets_checked == _oracle_checked(c.graph.n, k, report.bad_set)
        if report.certified:
            assert check_cover(c, k, report.witnesses)

    def test_report_lists_each_witness_once(self):
        c = cons.colour_cube(4, 2, verify=False)
        report = verify_k_rainbow_cycle_colouring(c, 2)
        ws = report.witnesses
        assert len({frozenset(w.vertices) for w in ws}) == len(ws) == report.subsets_searched
        assert all(isinstance(w, CycleWitness) for w in ws)

    def test_rx_and_k1_covers(self):
        c = cons.colour_join_rxk(2, 3, verify=False)
        report = verify_k_rainbow_index_colouring(c, 2)
        assert report.certified and check_cover(c, 2, report.witnesses)
        # single vertices are joined by the one-vertex tree
        report = verify_k_rainbow_index_colouring(c, 1)
        assert report.certified and check_cover(c, 1, report.witnesses)
        assert not check_cover(c, 2, report.witnesses)

    def test_counterexample_cover_is_partial(self):
        g = gen.wheel(5)
        c = EdgeColouring(g, (0,) * (g.e - 1) + (1,), 2)
        report = verify_k_rainbow_cycle_colouring(c, 2)
        assert report.status == "counterexample"
        assert report.subsets_searched == len(report.witnesses) + 1
        before = list(colex(g.n, 2))[: report.subsets_checked - 1]
        assert all(any(set(s) <= set(w.vertices) for w in report.witnesses) for s in before)
        assert not check_cover(c, 2, report.witnesses)

    @pytest.fixture(scope="class")
    def certified(self):
        c = cons.colour_wheel(8, 3, verify=False)
        report = verify_k_rainbow_cycle_colouring(c, 3)
        assert report.certified and check_cover(c, 3, report.witnesses)
        return c, report.witnesses

    def test_flipped_colour_fails(self, certified):
        c, witnesses = certified
        # recolour an edge of a witness with the colour of its neighbour on it
        w = witnesses[0]
        colours = list(c.colour_of)
        colours[w.edge_ids[0]] = colours[w.edge_ids[1]]
        flipped = EdgeColouring(c.graph, tuple(colours), c.r, unused_ok=True)
        assert not check_cover(flipped, 3, witnesses)

    def test_missing_sole_witness_fails(self, certified):
        c, witnesses = certified
        # a subset that one witness alone holds is left bare without it
        holders = ([w for w in witnesses if set(s) <= set(w.vertices)]
                   for s in colex(c.graph.n, 3))
        sole = next(h[0] for h in holders if len(h) == 1)
        assert not check_cover(c, 3, tuple(w for w in witnesses if w is not sole))
        assert not check_cover(c, 3, ())

    @settings(max_examples=120, deadline=None)
    @given(coloured_graphs(), st.integers(1, 3), st.integers(1, 3), st.data())
    def test_seeds_from_another_run_change_no_verdict(self, c, k, k_other, data):
        # another run: the rainbow colouring's cycles and this colouring's
        # trees; a seed is kept only if it is a rainbow cycle of c
        g = c.graph
        runs = (verify_k_rainbow_cycle_colouring(rainbow_colouring(g), k_other,
                                                 check_family=False),
                verify_k_rainbow_index_colouring(c, min(k_other, g.n)))
        pool = [w for run in runs for w in run.witnesses]
        seeds = data.draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
        bare = verify_k_rainbow_cycle_colouring(c, k, check_family=False)
        seeded = verify_k_rainbow_cycle_colouring(replace(c, witnesses=tuple(seeds)), k,
                                                  check_family=False)
        assert (seeded.status, seeded.bad_set, seeded.subsets_checked) == (
            bare.status, bare.bad_set, bare.subsets_checked)
        assert all(check_cycle_witness(g, w, c, require_rainbow=True)
                   for w in seeded.witnesses)
        if seeded.certified:
            assert check_cover(c, k, seeded.witnesses)


@st.composite
def coloured_circulants(draw, max_n=9):
    """The cycle C_n with the chords of up to two jump lengths below n / 2,
    so that every rotation v -> v + t is an automorphism. Edge {i, i + s}
    takes a colour of its jump s and of i mod d, for a divisor d of n, so
    each rotation renames the colours; a few edges may then be recoloured,
    which mostly spoils that."""
    n = draw(st.integers(3, max_n))
    jumps = [1]
    if n >= 5:
        jumps += draw(st.lists(st.integers(2, (n - 1) // 2), max_size=2, unique=True))
    d = draw(st.sampled_from([x for x in range(1, n + 1) if n % x == 0]))
    colour = {}
    for j, s in enumerate(jumps):
        for i in range(n):
            colour[tuple(sorted((i, (i + s) % n)))] = j * d + i % d
    g = Graph(n, tuple(colour))
    r = len(jumps) * d
    colours = [colour[e] for e in g.edges]
    for _ in range(draw(st.integers(0, 2))):
        colours[draw(st.integers(0, g.e - 1))] = draw(st.integers(0, r - 1))
    return EdgeColouring(g, tuple(colours), r, unused_ok=True)


def _self_verification(monkeypatch, build):
    """Call build() and return the colouring, k and symmetries that it gave
    its last self-verification (constructions._certify)."""
    calls = []
    certify = cons._certify

    def spy(c, k, *args, symmetries=(), **kwargs):
        calls.append((c, k, list(symmetries)))
        return certify(c, k, *args, symmetries=symmetries, **kwargs)

    monkeypatch.setattr(cons, "_certify", spy)
    build()
    return calls[-1]


def _hinted_verdict_holds(c, k, symmetries, index="crx"):
    """Verify c for k with and without the symmetries, and assert that the
    hints change no verdict and that every witness the hinted report keeps
    re-checks; returns both reports."""
    if index == "crx":
        verify = partial(verify_k_rainbow_cycle_colouring, check_family=False)
        check = check_cycle_witness
    else:
        verify, check = verify_k_rainbow_index_colouring, check_tree_witness
    bare = verify(c, k)
    hinted = verify(c, k, symmetries=symmetries)
    assert (hinted.status, hinted.bad_set, hinted.subsets_checked) == (
        bare.status, bare.bad_set, bare.subsets_checked)
    assert all(check(c.graph, w, c, require_rainbow=True) for w in hinted.witnesses)
    if hinted.certified:
        assert check_cover(c, k, hinted.witnesses)
        assert len(hinted.witnesses) >= hinted.subsets_searched
    return bare, hinted


class TestSymmetries:
    """Symmetries are hints: the verifier keeps a vertex permutation only if
    it maps the coloured graph onto itself up to a renaming of colours, and
    then adds each witness's images under it to the cover."""

    @settings(max_examples=120, deadline=None)
    @given(coloured_graphs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_random_permutations_change_no_verdict(self, c, k, seed):
        rng = random.Random(seed)
        perms = [list(range(c.graph.n))]
        for _ in range(4):
            perms.append(rng.sample(range(c.graph.n), c.graph.n))
        _hinted_verdict_holds(c, k, perms)

    @settings(max_examples=120, deadline=None)
    @given(coloured_circulants(), st.integers(1, 3))
    def test_rotations_change_no_verdict(self, c, k):
        n = c.graph.n
        rotations = [[(v + t) % n for v in range(n)] for t in range(n)]
        _hinted_verdict_holds(c, k, rotations)

    @pytest.mark.parametrize("case, k", [("join", 2), ("join", 3), ("q3", 2), ("q3", 3),
                                         ("q3", 4)])
    def test_trees(self, case, k):
        # rotating the rim of the join renames its spoke colours 0 and 1;
        # each translation of Q_3 renames the cube colouring's colours
        if case == "join":
            c = cons.colour_join_rxk(2, 3, verify=False)
            symmetries = [[0] + [1 + (i + t) % 6 for i in range(6)] for t in range(1, 6)]
        else:
            c, symmetries = cons.colour_cube(3, 2, verify=False), cube_translations(3)
        bare, hinted = _hinted_verdict_holds(c, k, symmetries, index="rx")
        assert hinted.subsets_searched < bare.subsets_searched

    @pytest.mark.parametrize("build, count", [
        (partial(cons.colour_bipartite, 4, 7, 1), 2 + 5),
        (partial(cons.colour_bipartite, 4, 10, 2), 0 + 6),
        (partial(cons.colour_bipartite, 6, 12, 2), 2 + 8),
        (partial(cons.colour_bipartite, 6, 8, 2, regime="sixk"), 1 + 3),
        (partial(cons.colour_bipartite, 9, 12, 3), 2 + 5),
        (partial(cons.colour_bipartite, 2, 5, 2), 0),
        (partial(cons.colour_bipartite, 3, 36, 2), 0),
        (partial(cons.colour_multipartite_blowup, (1, 2, 3)), 0 + 1 + 2),
        (partial(cons.colour_multipartite_blowup, (3, 3, 3)), 2 + 2 + 2),
        (partial(cons.colour_multipartite_blowup, (1, 1, 2, 4)), 0 + 0 + 1 + 3),
    ], ids=["four-4-7", "eight-4-10", "eight-6-12", "sixk-6-8", "sixk-9-12",
            "rainbow-2-5", "colex-3-36", "blowup-123", "blowup-333", "blowup-1124"])
    def test_twin_shifts_survive_the_colour_check(self, monkeypatch, build, count):
        # the twins are u_i and v_j for i, j >= 1 (four), >= 3 (eight) and
        # >= 2k (sixk), and the vertices of each class of a blow-up; the
        # rainbow and colex regimes have none
        c, k, twins = _self_verification(monkeypatch, build)
        assert len(twins) == count
        assert len(_colour_symmetries(c, twins)) == count
        _hinted_verdict_holds(c, k, twins)

    def _unchanged(self, c, k, symmetries):
        bare = verify_k_rainbow_cycle_colouring(c, k)
        assert verify_k_rainbow_cycle_colouring(c, k, symmetries=symmetries) == bare
        return bare

    def test_non_permutations_are_ignored(self):
        c = cons.colour_cube(4, 2, verify=False)
        self._unchanged(c, 2, [[0] * 16, list(range(15)), list(range(1, 17)),
                               list(range(17))])

    def test_a_map_onto_a_non_edge_is_ignored(self):
        # swapping 0 and 3 keeps edges 01 and 02 but sends 04 onto 34
        c = cons.colour_cube(4, 2, verify=False)
        swap = [3, 1, 2, 0] + list(range(4, 16))
        assert not c.graph.has_edge(3, 4)
        self._unchanged(c, 2, [swap])

    def test_an_automorphism_that_merges_colour_classes_is_ignored(self):
        # the rotation 0 -> 1 -> 2 -> 3 -> 0 of K_4 sends edges 02 and 03,
        # of colours 1 and 2, onto 13 and 01, both of colour 0
        g = gen.complete(4)
        colour = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 2, (1, 3): 0, (2, 3): 0}
        c = EdgeColouring(g, tuple(colour[e] for e in g.edges), 3)
        rotation = [1, 2, 3, 0]
        bare = self._unchanged(c, 1, [rotation])
        # kept, the rotation would have added a cycle that is not rainbow
        held = {frozenset(w.vertices) for w in bare.witnesses}
        images = [[rotation[v] for v in w.vertices] for w in bare.witnesses]
        assert any(frozenset(cycle) not in held and not check_cycle_witness(
            g, CycleWitness(tuple(cycle), tuple(g.edge_id(a, b) for a, b in zip(
                cycle, cycle[1:] + cycle[:1]))), c, require_rainbow=True)
            for cycle in images)

    def test_a_recoloured_cube_keeps_its_counterexample(self):
        # edge 7 in edge 8's colour: no translation renames the colours any
        # more, so all 31 are dropped and the pass searches as without them
        c = cons.colour_cube(5, 3, verify=False)
        colours = list(c.colour_of)
        colours[7] = colours[8]
        c = EdgeColouring(c.graph, tuple(colours), c.r, unused_ok=True)
        bare = self._unchanged(c, 3, cube_translations(5))
        assert (bare.bad_set, bare.subsets_checked) == ((1, 9, 16), 598)
