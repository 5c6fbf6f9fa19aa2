import itertools
import random

import pytest

from conftest import theta, two_triangles
from rainbowcycles import constructions as cons
from rainbowcycles import generators as gen
from rainbowcycles.colouring import EdgeColouring, check_cover, check_walk_witness
from rainbowcycles.errors import (
    AttemptsExhausted,
    BaseWalkNotFound,
    BudgetExceeded,
    InvalidParameter,
    IsCycle,
    MinimallyTwoConnected,
    NotInFamily,
    RegimeUnsupported,
)
from rainbowcycles.graph import Budget, Graph, enumerate_hamilton_cycles, delete_vertex
from rainbowcycles.search import verify_k_rainbow_cycle_colouring


def wheel_theorem_value(n, k):
    if k == 1:
        return 3
    if k == 2:
        return 3 if n == 3 else -(-n // 2) + 2
    if k == 3:
        if n == 3:
            return 3
        return n if n <= 7 else n - 1 if n <= 11 else n - 2
    return n + 1 if n < 2 * k else n


class TestWheel:
    @pytest.mark.parametrize("n,k", [(5, 2), (3, 3), (12, 3), (8, 4), (4, 3),
                                     (9, 5), (10, 5), (11, 4), (6, 7)])
    def test_theorem_colour_counts(self, n, k):
        c = cons.colour_wheel(n, k)  # self-verifies
        assert c.r == wheel_theorem_value(n, k)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            cons.colour_wheel(2, 1)
        with pytest.raises(InvalidParameter):
            cons.colour_wheel(4, 6)  # k > n + 1


class TestSelfVerification:
    def test_bad_colouring_rejected_with_counterexample(self):
        from rainbowcycles.errors import ConstructionRejected

        g = gen.wheel(4)
        bad = EdgeColouring(g, (0,) * (g.e - 1) + (1,), 2)
        with pytest.raises(ConstructionRejected) as exc:
            cons._certify(bad, 2, label="probe")
        assert exc.value.bad_set is not None


class TestComplete:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_2rainbow(self, n):
        c = cons.colour_complete_2rainbow(n)
        assert c.r == 3

    def test_every_pair_in_rainbow_triangle(self):
        c = cons.colour_complete_2rainbow(7, verify=False)
        g = c.graph
        for x, y in itertools.combinations(range(7), 2):
            found = any(
                len({c.colour_of[g.edge_id(x, y)], c.colour_of[g.edge_id(x, z)],
                     c.colour_of[g.edge_id(y, z)]}) == 3
                for z in range(7) if z not in (x, y)
            )
            assert found, (x, y)

    def test_random_deterministic(self):
        a = cons.colour_complete_random(6, 3, seed=2026, max_attempts=2000)
        b = cons.colour_complete_random(6, 3, seed=2026, max_attempts=2000)
        assert a.colour_of == b.colour_of
        assert a.r == 5

    def test_random_spends_one_budget(self):
        # seed 2026 certifies on the fifth sample; the F_k precheck and the
        # five verifications take 1,910 nodes together (2,091 before the
        # forced-vertex test), though each one alone takes at most 943
        for budget in (1_500, Budget(1_500)):
            with pytest.raises(BudgetExceeded):
                cons.colour_complete_random(8, 3, 2026, 200, budget=budget)
        b = Budget()
        cons.colour_complete_random(8, 3, 2026, 200, budget=b)
        assert b.used > 1_500

    def test_random_validates_parameters(self):
        with pytest.raises(InvalidParameter):
            cons.colour_complete_random(2, 3, seed=0, max_attempts=1)
        with pytest.raises(InvalidParameter):
            cons.colour_complete_random(5, 2, seed=0, max_attempts=1)

    @pytest.mark.parametrize("attempts", [0, -3])
    def test_samplers_need_an_attempt(self, attempts):
        # refused before the F_k precheck spends a node
        b = Budget()
        with pytest.raises(InvalidParameter):
            cons.colour_complete_random(6, 3, seed=1, max_attempts=attempts, budget=b)
        with pytest.raises(InvalidParameter):
            cons.colour_balanced_multipartite_random(2, 2, 2, seed=1, max_attempts=attempts,
                                                     budget=b)
        assert b.used == 0

    def test_random_exhaustion_is_loud(self):
        with pytest.raises(AttemptsExhausted) as exc:
            cons.colour_complete_random(12, 3, seed=2, max_attempts=1)
        assert exc.value.attempts == 1


class TestBipartite:
    @pytest.mark.parametrize("m,n,k,r", [
        (2, 5, 1, 4), (2, 4, 2, 8), (3, 36, 2, 8), (4, 8, 2, 8), (5, 5, 2, 8),
        (2, 3, 2, 6), (3, 5, 3, 15),
    ])
    def test_regimes(self, m, n, k, r):
        c = cons.colour_bipartite(m, n, k)
        assert c.r == r

    def test_sixk_override(self):
        assert cons.colour_bipartite(6, 6, 2, regime="sixk").r == 12

    def test_colex_r_boundaries(self):
        assert cons.colour_bipartite(3, 36, 2, verify=False).r == 8   # C(7,3)=35 < 36
        assert cons.colour_bipartite(3, 56, 2, verify=False).r == 8   # 56 = C(8,3)
        assert cons.colour_bipartite(3, 57, 2, verify=False).r == 9

    def test_unsupported_regimes(self):
        with pytest.raises(RegimeUnsupported):
            cons.colour_bipartite(3, 35, 2)
        with pytest.raises(RegimeUnsupported):
            cons.colour_bipartite(4, 10, 3)  # k < m < 3k
        with pytest.raises(RegimeUnsupported):
            cons.colour_bipartite(4, 8, 2, regime="sixk")  # m < 3k
        with pytest.raises(InvalidParameter):
            cons.colour_bipartite(5, 4, 2)  # m > n


class TestMultipartite:
    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 2), (1, 2, 3), (1, 1, 2, 2)])
    def test_blowup(self, sizes):
        c = cons.colour_multipartite_blowup(sizes)
        assert c.r == 3

    def test_blowup_needs_three_classes(self):
        with pytest.raises(InvalidParameter):
            cons.colour_multipartite_blowup((2, 2))

    def test_random_deterministic(self):
        a = cons.colour_balanced_multipartite_random(2, 2, 2, seed=1, max_attempts=500)
        b = cons.colour_balanced_multipartite_random(2, 2, 2, seed=1, max_attempts=500)
        assert a.colour_of == b.colour_of and a.r == 4

    def test_random_rejects_degenerate(self):
        with pytest.raises(InvalidParameter):
            cons.colour_balanced_multipartite_random(3, 1, 2, seed=0, max_attempts=1)


class TestCube:
    @pytest.mark.parametrize("n,k,r", [(2, 1, 4), (3, 1, 4), (2, 2, 4), (3, 3, 6),
                                       (3, 2, 6), (4, 3, 8), (2, 2, 4), (3, 4, 8)])
    def test_regimes(self, n, k, r):
        assert cons.colour_cube(n, k).r == r

    def test_mid_k_unsupported(self):
        with pytest.raises(RegimeUnsupported):
            cons.colour_cube(4, 4)

    @pytest.mark.parametrize("k", [-1, 0, 9, 100])
    def test_k_outside_the_vertices_refused(self, k):
        # Q_3 has 8 vertices; k = 0 used to be blamed on the regime
        with pytest.raises(InvalidParameter, match="1..8"):
            cons.colour_cube(3, k, verify=False)

    def test_gray_code_route(self):
        c = cons.colour_cube(3, 4)  # k = 2^{n-1}
        assert c.r == 8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_carried_witnesses_cover_and_are_distinct(self, n, k):
        # the self-verification keeps each search's witness and its new
        # images under the cube's translations
        c = cons.colour_cube(n, k)
        assert check_cover(c, k, c.witnesses)
        assert len({frozenset(w.vertices) for w in c.witnesses}) == len(c.witnesses)


class TestCubeRecursive:
    def test_base_is_rainbow(self):
        c = cons.colour_cube_recursive(3, 4, 3)
        assert c.r == c.graph.e

    def test_layer_colours_disjoint(self):
        c = cons.colour_cube_recursive(6, 4, 3)
        assert c.r == 24
        hat_cols = set()
        layer_cols = set()
        for eid, (u, v) in enumerate(c.graph.edges):
            if (u ^ v) < 8:
                hat_cols.add(c.colour_of[eid])
            else:
                layer_cols.add(c.colour_of[eid])
        assert hat_cols == set(range(12))
        assert layer_cols == set(range(12, 24))

    def test_colour_count_formula(self):
        assert cons.recursive_cube_colour_count(6, 3) == 24
        assert cons.recursive_cube_colour_count(9, 3) == 36
        assert cons.recursive_cube_colour_count(5, 3) == 80  # rainbow base

    def test_two_level_recursion_disjoint(self):
        c = cons.colour_cube_recursive(9, 4, 3)
        assert c.r == 36
        by_level = [set(), set(), set()]
        for eid, (u, v) in enumerate(c.graph.edges):
            b = (u ^ v).bit_length() - 1
            by_level[b // 3].add(c.colour_of[eid])
        assert by_level[0] == set(range(12))
        assert by_level[1] == set(range(12, 24))
        assert by_level[2] == set(range(24, 36))

    def test_spliced_walk_is_rainbow(self):
        c = cons.colour_cube_recursive(6, 4, 3)
        g = c.graph
        # hat and tilde projections are both (0, 3, 5, 6), a walkable order
        s = tuple(h + 8 * t for h, t in zip((0, 3, 5, 6), (0, 3, 5, 6)))
        w = cons.recursive_cube_walk(6, 3, s, colouring=c)
        assert check_walk_witness(g, w, c, require_rainbow=True)

    def test_spliced_walk_spends_one_budget(self):
        c = cons.colour_cube_recursive(6, 4, 3)
        s = tuple(h + 8 * t for h, t in zip((0, 3, 5, 6), (0, 3, 5, 6)))
        b = Budget()
        cons.recursive_cube_walk(6, 3, s, colouring=c, budget=b)
        assert b.used == 16  # the hat and the tilde base searches together
        with pytest.raises(BudgetExceeded):
            cons.recursive_cube_walk(6, 3, s, colouring=c, budget=15)

    def test_base_walk_not_found_bubbles(self):
        # both hat projections of (0, 8, 0, 16) collide at Q_3 vertex 0
        with pytest.raises(BaseWalkNotFound):
            cons.recursive_cube_walk(6, 3, (0, 8, 0, 16))

    def test_blocks_are_quotients(self):
        # one partition per coordinate block, the base block first; a rainbow
        # cube has one block and no partition
        c = cons.colour_cube_recursive(6, 4, 3)
        assert c.quotients == (tuple(v & 7 for v in range(64)), tuple(v >> 3 for v in range(64)))
        c9 = cons.colour_cube_recursive(9, 4, 3)
        assert c9.quotients == tuple(tuple((v >> low) & 7 for v in range(512))
                                     for low in (0, 3, 6))
        assert cons.colour_cube_recursive(7, 4, 3).quotients == (
            tuple(v & 15 for v in range(128)), tuple(v >> 4 for v in range(128)))
        assert cons.colour_cube_recursive(6, 4, 4).quotients == ()
        # each pair of adjacent blocks is joined in one colour, the parts lie
        # apart as the block's vertices do in Q_3, and the blocks cut every edge
        graphs, cut = c9._quotient_graphs
        assert cut
        for part, adj, counts, dist in graphs:
            assert len(counts) == 12 and set(counts) == {1}
            assert dist == tuple(tuple(bin(p ^ q).count("1") for q in range(8)) for p in range(8))

    def test_k_above_the_vertices_refused(self):
        assert cons.colour_cube_recursive(4, 16, 2).r == cons.recursive_cube_colour_count(4, 2)
        with pytest.raises(InvalidParameter, match="4..16"):
            cons.colour_cube_recursive(4, 99, 2)

    @pytest.mark.parametrize("block", [-1, 0, 1])
    def test_walk_refuses_a_block_below_2(self, block):
        # before any search: block 0 recursed without end, block 1 searched a
        # Q_1 base, and block -1 built ever larger cubes
        with pytest.raises(InvalidParameter, match="block"):
            cons.recursive_cube_walk(4, block, (0, 3, 5))

    def test_walk_rejects_a_colouring_of_another_size(self):
        c = cons.colour_cube_recursive(6, 4, 3)
        with pytest.raises(InvalidParameter, match="Q_5"):
            cons.recursive_cube_walk(5, 3, (0, 3, 5, 6), colouring=c)
        c7 = EdgeColouring(gen.complete(8), tuple(range(28)), 28)
        with pytest.raises(InvalidParameter, match="Q_3"):
            cons.recursive_cube_walk(3, 3, (0, 3, 5, 6), colouring=c7)

    def test_k_escalation_remedy(self):
        # raising K makes the whole cube a rainbow base, where the walk exists
        c4 = cons.colour_cube_recursive(6, 4, 4)
        assert c4.r == c4.graph.e
        w = cons.recursive_cube_walk(6, 4, (0, 8, 0, 16), colouring=c4)
        assert check_walk_witness(c4.graph, w, c4, require_rainbow=True)


class TestSaveOne:
    def test_k4(self):
        c = cons.colour_save_one_crx1(gen.complete(4))
        assert c.r == 5

    def test_theta(self):
        c = cons.colour_save_one_crx1(theta(2, 2, 2))  # 6-edge K_{2,3}
        assert c.r == 5

    def test_non_2connected_branch(self):
        c = cons.colour_save_one_crx1(two_triangles())
        assert c.r == 5

    def test_cycle_rejected(self):
        with pytest.raises(IsCycle):
            cons.colour_save_one_crx1(gen.cycle(7))

    def test_not_in_f1_rejected(self):
        with pytest.raises(NotInFamily):
            cons.colour_save_one_crx1(Graph(4, ((0, 1), (1, 2), (0, 2), (2, 3))))

    def test_crx2_k4_and_wheel(self):
        assert cons.colour_save_one_crx2(gen.complete(4)).r == 5
        assert cons.colour_save_one_crx2(gen.wheel(4)).r == 7

    def test_crx2_rejects_minimal(self):
        with pytest.raises(MinimallyTwoConnected):
            cons.colour_save_one_crx2(gen.complete_bipartite(2, 3))

    @pytest.mark.parametrize("name, colours", [
        ("K4", (0, 1, 2, 3, 4, 0)),
        ("K33", (0, 1, 2, 3, 4, 5, 6, 7, 1)),
        ("W5", (0, 1, 2, 3, 4, 5, 6, 7, 0, 8)),
        ("Q3", (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0)),
        ("theta234", (0, 1, 1, 2, 3, 4, 5, 6, 7)),
        ("two-triangles", (0, 1, 2, 0, 3, 4)),
        ("rand4", (0, 1, 2, 3, 4, 5, 6, 7, 0, 8, 9, 10)),
    ])
    def test_golden_colourings(self, corpus, name, colours):
        # the reused colour depends on the last ear and its shortest return path
        c = cons.colour_save_one_crx1(dict(corpus)[name])
        assert (c.colour_of, c.r) == (colours, max(colours) + 1)

    def test_exactly_one_colour_repeats(self):
        for c in (
            cons.colour_save_one_crx1(gen.complete(4), verify=False),
            cons.colour_save_one_crx1(two_triangles(), verify=False),
            cons.colour_save_one_crx2(gen.wheel(4), verify=False),
        ):
            counts = {}
            for col in c.colour_of:
                counts[col] = counts.get(col, 0) + 1
            assert sorted(counts.values()) == [1] * (c.r - 1) + [2]


class TestJoinColouring:
    @pytest.mark.parametrize("k,t", [(2, 3), (2, 4), (3, 2), (3, 3)])
    def test_colour_count(self, k, t):
        assert cons.colour_join_rxk(k, t).r == k * k - 1

    def test_k1_rejected(self):
        with pytest.raises(InvalidParameter):
            cons.colour_join_rxk(1, 5)


class TestMinimal2ConnObstruction:
    @pytest.mark.parametrize("g", [gen.complete_bipartite(2, 3), theta(2, 3, 4)])
    def test_all_pairs_validated(self, g):
        from rainbowcycles.graph import enumerate_simple_cycles, cycle_vertices_to_edge_ids

        cycles = enumerate_simple_cycles(g)
        data = [(set(c), set(cycle_vertices_to_edge_ids(g, c))) for c in cycles]
        for e, e2 in itertools.combinations(range(g.e), 2):
            u, v = cons.minimal_2conn_obstruction(g, e, e2)
            through = [eids for verts, eids in data if u in verts and v in verts]
            assert through
            assert all(e in eids and e2 in eids for eids in through)

    def test_cycle_any_pair(self):
        assert cons.minimal_2conn_obstruction(gen.cycle(5), 0, 3) is not None

    def test_rejects_non_minimal(self):
        with pytest.raises(InvalidParameter):
            cons.minimal_2conn_obstruction(gen.complete(4), 0, 1)

    def test_rejects_equal_edges(self):
        with pytest.raises(InvalidParameter):
            cons.minimal_2conn_obstruction(gen.cycle(4), 1, 1)


class TestPetersenObstruction:
    def test_adjacent_edges_third_neighbour(self):
        g = gen.petersen()
        # edges 0 and 1 are (0,1) and (0,4)... pick two sharing vertex 0
        shared = [
            (e, f)
            for e, f in itertools.combinations(range(15), 2)
            if set(g.edges[e]) & set(g.edges[f])
        ]
        e, f = shared[0]
        u = (set(g.edges[e]) & set(g.edges[f])).pop()
        v = cons.petersen_pair_obstruction(e, f)
        assert v in g.neighbours(u)
        assert v not in g.edges[e] and v not in g.edges[f]

    def test_validated_by_hamilton_enumeration(self):
        g = gen.petersen()
        rng = random.Random(4)
        pairs = rng.sample(list(itertools.combinations(range(15), 2)), 12)
        for e, f in pairs:
            v = cons.petersen_pair_obstruction(e, f)
            sub, old = delete_vertex(g, v)
            inv = {o: i for i, o in enumerate(old)}
            targets = [
                tuple(sorted((inv[a], inv[b]))) for a, b in (g.edges[e], g.edges[f])
            ]
            hams = enumerate_hamilton_cycles(sub)
            assert hams
            for h in hams:
                eids = {tuple(sorted(p)) for p in zip(h, h[1:] + h[:1])}
                assert targets[0] in eids and targets[1] in eids
