import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_colex_cover_pass,
    brute_hamilton_cycles,
    brute_is_k_connected,
    brute_lex_shortest_path,
    random_connected_graph,
    theta,
    two_triangles,
)
from rainbowcycles import generators as gen
from rainbowcycles.colouring import CycleWitness, check_cycle_witness
from rainbowcycles.errors import BudgetExceeded, InvalidParameter, NotTwoConnected
from rainbowcycles.graph import (
    Budget,
    Graph,
    _bfs_path,
    _bipartition,
    _is_cycle_graph,
    _twin_classes,
    _twin_shifts,
    _WitnessCover,
    block_decomposition,
    circumference,
    cycle_through_exists,
    cycle_vertices_to_edge_ids,
    delete_vertex,
    ear_decomposition,
    enumerate_hamilton_cycles,
    enumerate_simple_cycles,
    find_hamilton_cycle,
    girth,
    graph_invariants,
    in_family_Fk,
    is_hypohamiltonian,
    is_k_connected,
    is_minimally_2_connected,
)

import random


class TestGraph:
    def test_edges_canonicalised(self):
        g = Graph(4, ((3, 1), (0, 2), (1, 0)))
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        assert g.edge_id(1, 3) == 2 and g.edge_id(3, 1) == 2

    @pytest.mark.parametrize("g", [gen.cycle(7), gen.wheel(6), gen.hypercube(4),
                                   gen.complete_bipartite(3, 5), gen.petersen()],
                             ids=["C7", "W6", "Q4", "K3,5", "Petersen"])
    def test_edge_index_answers_either_order(self, g):
        index = g.edge_index
        assert len(index) == 2 * g.e
        for eid, (u, v) in enumerate(g.edges):
            assert index[(v, u)] == index[(u, v)] == g.edge_id(v, u) == eid
        non_edge = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                        if (u, v) not in g.edges)
        for pair in (non_edge, non_edge[::-1], (0, 0), (0, g.n), (g.n, 0), (-1, 0)):
            assert pair not in index and not g.has_edge(*pair)
            with pytest.raises(KeyError):
                g.edge_id(*pair)

    def test_rejects_loops_duplicates_range(self):
        with pytest.raises(InvalidParameter):
            Graph(3, ((1, 1),))
        with pytest.raises(InvalidParameter):
            Graph(3, ((0, 1), (1, 0)))
        with pytest.raises(InvalidParameter):
            Graph(2, ((0, 2),))

    def test_adjacency_sorted(self):
        g = gen.wheel(4)
        assert g.neighbours(4) == (0, 1, 2, 3)


class TestConnectivity:
    def test_cycle_is_2_connected(self):
        assert is_k_connected(gen.cycle(5), 2)

    def test_k4_minus_edge_not_3_connected(self):
        g = gen.complete(4).without_edge(0)
        assert not is_k_connected(g, 3)

    def test_cube_connectivity_is_dimension(self):
        q3 = gen.hypercube(3)
        assert is_k_connected(q3, 3)
        assert not is_k_connected(q3, 4)

    def test_agrees_with_brute_force(self, corpus):
        for name, g in corpus:
            if g.n > 9:
                continue
            for k in range(1, 4):
                assert is_k_connected(g, k) == brute_is_k_connected(g, k), (name, k)

    def test_2_connected_agrees_with_brute_force_beyond_20_vertices(self):
        rng = random.Random(11)
        answers = []
        for n in range(21, 31):
            for extra in (0, n // 4, n // 2, n, 2 * n):
                g = random_connected_graph(rng, n, extra)
                answers.append(is_k_connected(g, 2))
                assert answers[-1] == brute_is_k_connected(g, 2), (n, extra)
        assert True in answers and False in answers

    def test_cycle_graph_predicate(self):
        assert all(_is_cycle_graph(gen.cycle(n)) for n in (3, 4, 7))
        assert not _is_cycle_graph(Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))))
        assert not _is_cycle_graph(Graph(4, ((0, 1), (1, 2), (2, 3))))
        assert not _is_cycle_graph(gen.complete(4))
        assert not _is_cycle_graph(Graph(2, ((0, 1),)))

    def test_bipartition_is_the_distance_parity(self):
        assert _bipartition(gen.hypercube(3)) == ([0, 3, 5, 6], [1, 2, 4, 7])
        assert _bipartition(gen.complete_bipartite(2, 3)) == ([0, 1], [2, 3, 4])
        assert _bipartition(gen.cycle(5)) is None
        assert _bipartition(Graph(4, ((0, 1), (2, 3)))) is None
        assert _bipartition(Graph(1, ())) is None

    def test_large_graph_path_counting_route(self):
        q5 = gen.hypercube(5)  # k >= 3: Menger route
        assert is_k_connected(q5, 5)
        assert not is_k_connected(q5, 6)


class TestBlocks:
    def test_two_triangles(self):
        dec = block_decomposition(two_triangles())
        assert len(dec.blocks) == 2
        assert dec.cut_vertices == frozenset({2})

    def test_single_block_cycle(self):
        dec = block_decomposition(gen.cycle(6))
        assert len(dec.blocks) == 1
        assert not dec.cut_vertices

    def test_k23_plus_pendant(self):
        base = gen.complete_bipartite(2, 3)
        g = Graph(6, base.edges + ((0, 5),))
        dec = block_decomposition(g)
        assert len(dec.blocks) == 2
        assert dec.cut_vertices == frozenset({0})

    def test_isolated_vertices_form_blocks(self):
        g = Graph(4, ((0, 1),))
        dec = block_decomposition(g)
        kinds = sorted(len(b.vertices) for b in dec.blocks)
        assert kinds == [1, 1, 2]

    def test_partition_property(self, corpus):
        for name, g in corpus:
            dec = block_decomposition(g)
            seen = []
            for b in dec.blocks:
                seen.extend(b.edge_ids)
            assert sorted(seen) == list(range(g.e)), name
            # shared vertices are exactly the cut vertices
            for b1, b2 in itertools.combinations(dec.blocks, 2):
                shared = b1.vertices & b2.vertices
                assert len(shared) <= 1
                assert shared <= dec.cut_vertices

    def test_block_cut_tree_is_acyclic(self, corpus):
        for name, g in corpus:
            dec = block_decomposition(g)
            # bipartite incidence graph on blocks + cut vertices must be a forest
            nodes = len(dec.blocks) + len(dec.cut_vertices)
            parent = dict()

            def find(x):
                while parent.get(x, x) != x:
                    x = parent[x]
                return x

            cyclic = False
            for bi, v in dec.block_cut_tree:
                a, b = find(("b", bi)), find(("v", v))
                if a == b:
                    cyclic = True
                parent[a] = b
            assert not cyclic, name
            assert len(dec.block_cut_tree) <= max(0, nodes - 1)


class TestMinimally2Connected:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycles(self, n):
        assert is_minimally_2_connected(gen.cycle(n))

    def test_k2n_minimal(self):
        assert is_minimally_2_connected(gen.complete_bipartite(2, 3))
        assert is_minimally_2_connected(gen.complete_bipartite(2, 5))

    def test_k4_not_minimal(self):
        assert not is_minimally_2_connected(gen.complete(4))

    def test_definitional_brute_force(self, corpus):
        for name, g in corpus:
            if g.n > 7 or g.e > 10:
                continue
            expected = brute_is_k_connected(g, 2) and all(
                not brute_is_k_connected(g.without_edge(e), 2) for e in range(g.e)
            )
            assert is_minimally_2_connected(g) == expected, name


class TestEarDecomposition:
    def test_cycle_has_no_ears(self):
        ed = ear_decomposition(gen.cycle(5))
        assert len(ed.initial_cycle) == 5
        assert not ed.ears

    def test_k4(self):
        g = gen.complete(4)
        ed = ear_decomposition(g)
        assert len(ed.initial_cycle) == 3
        assert sum(len(e) - 1 for e in ed.ears) == 3
        assert ed.replayed_edge_ids(g) == frozenset(range(6))

    def test_theta(self):
        g = theta(2, 2, 2)  # K_{2,3}: shortest cycle C_4 plus one ear
        ed = ear_decomposition(g)
        assert len(ed.initial_cycle) == 4
        assert len(ed.ears) == 1

    def test_replay_reconstructs_exact_edge_set(self, corpus):
        for name, g in corpus:
            if not is_k_connected(g, 2):
                continue
            ed = ear_decomposition(g)
            assert ed.replayed_edge_ids(g) == frozenset(range(g.e)), name
            for ear in ed.ears:
                assert len(ear) >= 2 and ear[0] != ear[-1]

    def test_requires_2_connected(self):
        with pytest.raises(NotTwoConnected):
            ear_decomposition(Graph(4, ((0, 1), (1, 2), (2, 3))))

    def test_initial_cycle_is_lex_least_shortest(self):
        ed = ear_decomposition(gen.complete(4))
        assert ed.initial_cycle == (0, 1, 2)

    @pytest.mark.parametrize("g, cycle, ears", [
        (gen.wheel(5), (0, 1, 5), ((0, 4, 5), (1, 2, 5), (2, 3, 4), (3, 5))),
        (gen.petersen(), (0, 1, 2, 3, 4),
         ((0, 5, 7, 2), (1, 6, 8, 3), (4, 9, 6), (5, 8), (7, 9))),
    ])
    def test_golden_ears(self, g, cycle, ears):
        ed = ear_decomposition(g)
        assert (ed.initial_cycle, ed.ears) == (cycle, ears)


class TestBfsPath:
    def test_matches_brute_lex_shortest_path(self, corpus):
        rng = random.Random(11)
        found = 0
        for name, g in corpus:
            for start in range(g.n):
                others = [v for v in range(g.n) if v != start]
                for _ in range(3):
                    ends = set(rng.sample(others, rng.randint(1, len(others))))
                    blocked = set(rng.sample(others, rng.randint(1, len(others))))
                    for bl in ((), blocked, blocked | ends):
                        path = _bfs_path(g, start, ends, bl)
                        assert path == brute_lex_shortest_path(g, start, ends, bl), (
                            name, start, ends, bl)
                        found += path is not None
        assert found > 1000

    def test_ear_return_paths(self, corpus):
        # the call ear_decomposition makes: from a new vertex x back to the
        # covered set, avoiding the vertex u it left from
        for name, g in corpus:
            if not is_k_connected(g, 2):
                continue
            ed = ear_decomposition(g)
            covered = set(ed.initial_cycle)
            for ear in ed.ears:
                if len(ear) > 2:
                    ends = covered - {ear[0]}
                    assert ear[1:] == brute_lex_shortest_path(g, ear[1], ends, covered), name
                covered.update(ear)


class TestInvariants:
    def test_q3(self):
        inv = graph_invariants(gen.hypercube(3))
        assert (inv.girth, inv.circumference, inv.is_hamiltonian) == (4, 8, True)

    def test_petersen(self):
        inv = graph_invariants(gen.petersen())
        assert inv.girth == 5
        assert not inv.is_hamiltonian
        assert inv.circumference == 9

    def test_k4(self):
        inv = graph_invariants(gen.complete(4))
        assert (inv.girth, inv.circumference) == (3, 4)

    def test_acyclic(self):
        inv = graph_invariants(Graph(3, ((0, 1), (1, 2))))
        assert inv.girth is None and inv.circumference == 0

    def test_girth_le_circumference(self, corpus):
        for name, g in corpus:
            inv = graph_invariants(g)
            if inv.circumference:
                assert 3 <= inv.girth <= inv.circumference, name

    def test_budget_exhaustion_carries_partial(self):
        with pytest.raises(BudgetExceeded) as exc:
            graph_invariants(gen.petersen(), budget=10)
        assert exc.value.partial == {"girth": 5}

    @pytest.mark.parametrize("g, count, nodes", [
        (gen.petersen(), 57, 459), (gen.complete(7), 1172, 2372), (gen.wheel(9), 73, 787),
    ])
    def test_cycle_enumeration_golden_nodes(self, g, count, nodes):
        b = Budget()
        assert len(enumerate_simple_cycles(g, b)) == count
        assert b.used == nodes
        short = Budget(nodes - 1)
        with pytest.raises(BudgetExceeded):
            enumerate_simple_cycles(g, short)
        assert short.used == nodes

    def test_circumference_golden_nodes(self):
        b = Budget()
        assert circumference(gen.petersen(), b) == 9
        assert b.used == 541  # 601 before the forced-vertex test
        # the invariants take Hamiltonicity from the circumference: one
        # Hamilton search of 82 nodes (142 before), not two
        b = Budget()
        assert not graph_invariants(gen.petersen(), b).is_hamiltonian
        assert b.used == 541

    def test_brute_cycle_oracle(self):
        from conftest import brute_all_cycles

        for g in (gen.complete(4), gen.wheel(4), gen.hypercube(3)):
            cycles = brute_all_cycles(g)
            lengths = [len(e) for _, e in cycles]
            assert girth(g) == min(lengths)
            assert circumference(g) == max(lengths)
            assert len(enumerate_simple_cycles(g)) == len(cycles)


@st.composite
def graphs_up_to_8(draw):
    """A graph on 1 to 8 vertices, each pair an edge with a drawn probability."""
    n = draw(st.integers(1, 8))
    density = draw(st.sampled_from((0.3, 0.5, 0.7, 0.9)))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(p for p, x in zip(pairs, keep) if x < density))


def _match_hamilton_oracle(g):
    """find_hamilton_cycle is the lexicographically least Hamilton cycle,
    and enumerate_hamilton_cycles lists them all, as the oracle does."""
    cycles = brute_hamilton_cycles(g)
    assert find_hamilton_cycle(g) == (cycles[0] if cycles else None), g.edges
    assert enumerate_hamilton_cycles(g) == cycles, g.edges
    return bool(cycles)


class TestHamiltonCycles:
    def test_corpus_matches_the_permutation_oracle(self, corpus):
        found = [_match_hamilton_oracle(g) for _, g in corpus if g.n <= 8]
        assert True in found and False in found

    @settings(max_examples=150, deadline=None)
    @given(graphs_up_to_8())
    def test_random_graphs_match_the_permutation_oracle(self, g):
        _match_hamilton_oracle(g)

    @pytest.mark.parametrize("dim, nodes", [(6, 100), (7, 200)])
    def test_large_cubes(self, dim, nodes):
        # the search through all n vertices has the closing-edge and
        # distance rules of the anchored-cycle search: Q_6 takes 71 nodes
        # and Q_7 147 (79 and 166 before the forced-vertex test), where a
        # search with the two-sides rule alone ran out of 2 M nodes on each
        g = gen.hypercube(dim)
        b = Budget(1_000)
        cycle = find_hamilton_cycle(g, b)
        assert len(cycle) == g.n and b.used <= nodes
        assert check_cycle_witness(g, CycleWitness(cycle, cycle_vertices_to_edge_ids(g, cycle)))

    def test_fresh_search_reads_only_the_anchors_distance_row(self):
        # at S = V the distance rule checks dist(x, anchor) alone, so the
        # search computes no BFS row but the anchor's
        g = gen.wheel(14)
        assert find_hamilton_cycle(g) is not None
        assert [v for v, row in enumerate(g._distance_rows) if row is not None] == [0]

    def test_q6_is_in_f3_by_its_hamilton_cycle(self):
        b = Budget()
        assert in_family_Fk(gen.hypercube(6), 3, b)
        assert b.used <= 100  # 2,006,322 before the shortcut had the kernel's rules

    def test_q5_golden(self):
        b = Budget()
        assert find_hamilton_cycle(gen.hypercube(5), b) == (
            0, 1, 3, 2, 6, 4, 5, 7, 15, 11, 9, 8, 10, 14, 12, 13,
            29, 21, 17, 19, 18, 22, 23, 31, 27, 25, 24, 26, 30, 28, 20, 16)
        # 416 with the two-sides rule alone, 36 before the forced-vertex test
        assert b.used == 34

    @pytest.mark.parametrize("m, n", [(3, 5), (6, 12)])
    def test_unbalanced_bipartite_needs_no_search(self, m, n):
        # a cycle alternates between the classes, so it cannot hold every
        # vertex when they differ in size
        b = Budget()
        assert find_hamilton_cycle(gen.complete_bipartite(m, n), b) is None
        assert b.used == 0

    @pytest.mark.parametrize("g", [
        Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))),
        Graph(6, tuple((i, (i + 1) % 5) for i in range(5))),
    ], ids=["two disjoint triangles", "C5 plus an isolated vertex"])
    def test_disconnected_graph_needs_no_search(self, g):
        # the anchor cannot reach every vertex, so the distance floor is
        # infinite
        b = Budget()
        assert find_hamilton_cycle(g, b) is None
        assert b.used == 0

    def test_w8_enumeration_golden(self):
        # every Hamilton cycle holds vertex 0, so only the root-0 pass of
        # the rooted cycle DFS runs: 514 nodes with every root
        b = Budget()
        cycles = enumerate_hamilton_cycles(gen.wheel(8), b)
        assert len(cycles) == 8 and b.used == 261
        assert cycles == brute_hamilton_cycles(gen.wheel(8))
        short = Budget(260)
        with pytest.raises(BudgetExceeded):
            enumerate_hamilton_cycles(gen.wheel(8), short)


def _random_vertex_set(rng: random.Random, n: int, s=()):
    """s plus each vertex of range(n) with a chance drawn once per set."""
    p = rng.choice((0.2, 0.5, 0.9))
    return set(s) | {v for v in range(n) if rng.random() < p}


def _responder(rng: random.Random, n: int, caller: str):
    """What a caller of the colex pass does with a subset it is handed:
    'verify' adds a witness through it, or ends the pass at a
    counterexample; 'lower-bound' adds one or nothing and goes on; 'any'
    adds up to two vertex sets that need not hold it."""
    def respond(s):
        if caller == "verify":
            return None if rng.random() < 0.05 else [_random_vertex_set(rng, n, s)]
        if caller == "lower-bound":
            return [] if rng.random() < 0.3 else [_random_vertex_set(rng, n, s)]
        return [_random_vertex_set(rng, n) for _ in range(rng.randint(0, 2))]
    return respond


class TestColexCoverPass:
    """_WitnessCover.uncovered against a pass that tests each subset against
    every witness (conftest.brute_colex_cover_pass)."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 6),
           st.sampled_from(("verify", "lower-bound", "any")), st.integers(0, 10_000))
    def test_matches_the_subset_by_subset_oracle(self, n, k, seeds, caller, seed):
        rng = random.Random(seed)
        witnesses = [_random_vertex_set(rng, n) for _ in range(seeds)]
        handed = brute_colex_cover_pass(
            n, k, witnesses, _responder(random.Random(seed), n, caller))

        cover = _WitnessCover(n)
        for w in witnesses:
            cover.add(w)
        respond = _responder(random.Random(seed), n, caller)
        kept = list(witnesses)
        got = []
        for s in cover.uncovered(k):
            got.append(s)
            added = respond(s)
            if added is None:
                break
            for w in added:
                cover.add(w)
            kept += added
        assert got == handed
        # one subset at a time, in any order, against the witnesses kept
        for s in itertools.combinations(range(n), k):
            assert cover.covers(s) == any(w.issuperset(s) for w in kept)

    def test_yields_nothing_when_k_exceeds_n(self):
        assert list(_WitnessCover(3).uncovered(4)) == []

    def test_newest_witness_serves(self):
        # the pairs of range(5) in colex order: (0, 1), (0, 2), (1, 2), (0, 3),
        # (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4); a witness added
        # mid-pass serves each later pair it holds
        cover = _WitnessCover(5)
        cover.add((0, 1, 4))
        found = {(0, 2): (0, 2, 3), (1, 2): (1, 2, 3, 4)}
        handed = []
        for s in cover.uncovered(2):
            handed.append(s)
            cover.add(found[s])
        assert handed == [(0, 2), (1, 2)]


class TestHypohamiltonian:
    def test_petersen(self):
        assert is_hypohamiltonian(gen.petersen())

    def test_hamiltonian_graph_is_not(self):
        assert not is_hypohamiltonian(gen.cycle(6))

    def test_c4(self):
        assert not is_hypohamiltonian(gen.cycle(4))  # K_4 minus a perfect matching

    def test_petersen_minus_vertex_hamilton_counts(self):
        g = gen.petersen()
        for v in (0, 5):
            sub, _ = delete_vertex(g, v)
            assert enumerate_hamilton_cycles(sub)


class TestFamilyMembership:
    def test_path_not_in_f1(self):
        assert not in_family_Fk(Graph(4, ((0, 1), (1, 2), (2, 3))), 1)

    def test_two_triangles_in_f1_not_f2(self):
        g = two_triangles()
        assert in_family_Fk(g, 1)
        assert not in_family_Fk(g, 2)

    def test_disjoint_triangles_in_f1_not_f2(self):
        # each triangle is a 2-connected block, so F_1 holds; the graph is
        # not connected, and that alone keeps it out of F_2: neither
        # component has a cut vertex
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        assert not block_decomposition(g).cut_vertices
        assert not is_k_connected(g, 2)
        assert in_family_Fk(g, 1)
        assert not in_family_Fk(g, 2)

    def test_petersen_in_f9(self):
        assert in_family_Fk(gen.petersen(), 9)

    def test_k_above_order(self):
        assert not in_family_Fk(gen.complete(4), 5)

    def test_hamilton_shortcut_counts_against_the_budget(self):
        # Petersen is not Hamiltonian, so at k = 3 the shortcut fails and
        # the 3-subsets are checked; both searches spend the caller's budget.
        # A triple inside a cycle found for an earlier one is not searched:
        # 46 nodes instead of the 1,063 of one search per triple. Before the
        # forced-vertex test these were 142, 53 and 1,119 nodes
        g = gen.petersen()
        shortcut, subsets = Budget(), Budget()
        assert find_hamilton_cycle(g, shortcut) is None
        assert all(cycle_through_exists(g, s, subsets)
                   for s in itertools.combinations(range(g.n), 3))
        assert (shortcut.used, subsets.used) == (82, 1063)
        b = Budget()
        assert in_family_Fk(g, 3, b)
        assert b.used == 82 + 46

    def test_hamilton_shortcut_counts_its_cuts(self):
        # the failed Hamilton search on Petersen ends or narrows 36 states
        # by the forced-vertex test (it ended 48 by the two-sides rule
        # before that test); they are charged to the caller's budget with
        # its nodes, and the triple pass adds its own 1 and 6
        g = gen.petersen()
        shortcut = Budget()
        assert find_hamilton_cycle(g, shortcut) is None
        assert shortcut.cuts == {"closing": 0, "sides": 0, "short": 36}
        b = Budget()
        assert in_family_Fk(g, 3, b)
        assert b.cuts == {"closing": 1, "sides": 0, "short": 36 + 6}

    def test_unbalanced_bipartite_goes_straight_to_the_triples(self):
        # K_{6,12} has no Hamilton cycle: the shortcut's search ran out of
        # its 2 M nodes (2,005,247 in all), and now the triple pass runs alone;
        # it took 5,246 nodes before it kept each cycle's twin images, and
        # 108 before the forced-vertex test
        b = Budget()
        assert in_family_Fk(gen.complete_bipartite(6, 12), 3, b)
        assert b.used == 87

    def test_twin_images_fit_k3_38_in_the_default_budget(self):
        # the triple pass over K_{3,38} searched 11,056,821 nodes, past the
        # default 10 M, before it kept each cycle's images under the cyclic
        # shifts of the two sides, and 112,263 before the forced-vertex test
        b = Budget()
        assert in_family_Fk(gen.complete_bipartite(3, 38), 3, b)
        assert b.used == 5_652

    def test_matches_brute(self, corpus):
        from conftest import brute_all_cycles

        for name, g in corpus:
            if g.n > 8:
                continue
            cycles = brute_all_cycles(g)
            for k in range(1, g.n + 1):
                expected = all(any(set(s) <= verts for verts, _ in cycles)
                               for s in itertools.combinations(range(g.n), k))
                assert in_family_Fk(g, k) == expected, (name, k)

    def test_monotone_in_k(self, corpus):
        for name, g in corpus:
            for k in range(2, min(g.n, 5) + 1):
                if in_family_Fk(g, k):
                    assert in_family_Fk(g, k - 1), (name, k)

    def test_cycle_through_matches_brute(self, corpus):
        from conftest import brute_all_cycles

        rng = random.Random(3)
        for name, g in corpus:
            if g.n > 8:
                continue
            cycles = brute_all_cycles(g)
            for _ in range(5):
                k = rng.randrange(1, min(4, g.n) + 1)
                s = tuple(sorted(rng.sample(range(g.n), k)))
                expected = any(set(s) <= verts for verts, _ in cycles)
                assert cycle_through_exists(g, s) == expected, (name, s)


@st.composite
def graphs_with_planted_twins(draw):
    """(graph, colour per edge id): a random coloured graph on 1 to 6
    vertices, then up to 4 copies of drawn vertices (each joined to the
    copied vertex's neighbours, in the same colours), perhaps one edge
    recoloured, all under a drawn relabelling."""
    n = draw(st.integers(1, 6))
    colour = {}  # (u, v) with u < v -> colour
    for p in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            colour[p] = draw(st.integers(0, 2))
    for v in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        for (a, b), c in list(colour.items()):
            if v in (a, b):
                colour[(a + b - v, n)] = c
        n += 1
    if colour and draw(st.booleans()):
        colour[draw(st.sampled_from(sorted(colour)))] = 3
    perm = draw(st.permutations(range(n)))
    colour = {tuple(sorted((perm[u], perm[v]))): c for (u, v), c in colour.items()}
    g = Graph(n, tuple(colour))
    return g, [colour[e] for e in g.edges]


class TestTwins:
    @settings(max_examples=200, deadline=None)
    @given(graphs_with_planted_twins(), st.booleans())
    def test_matches_the_pairwise_oracle(self, drawn, coloured):
        g, colour_of = drawn
        if not coloured:
            colour_of = None
        # nbrs[v]: neighbour -> colour of the edge to it (0 when uncoloured)
        nbrs = [{} for _ in range(g.n)]
        for eid, (u, v) in enumerate(g.edges):
            c = 0 if colour_of is None else colour_of[eid]
            nbrs[u][v] = nbrs[v][u] = c
        expected = []
        for v in range(g.n):
            if not any(v in cls for cls in expected):
                expected.append(tuple(w for w in range(g.n) if nbrs[w] == nbrs[v]))
        assert _twin_classes(g, colour_of) == expected
        colour = {e: nbrs[e[0]][e[1]] for e in g.edges}
        shifts = _twin_shifts(g, colour_of)
        assert len(shifts) == sum(len(cls) - 1 for cls in expected)
        for p in shifts:
            assert sorted(p) == list(range(g.n)) and p != list(range(g.n))
            assert {tuple(sorted((p[u], p[v]))): c for (u, v), c in colour.items()} == colour

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (4, 7),
                                       (1, 1, 1), (1, 2, 3), (2, 2, 2), (1, 1, 2, 2),
                                       (2, 3, 3, 4)])
    def test_shifts_of_complete_multipartite_graphs(self, sizes):
        # the classes are the twins: sum(L - 1) class shifts, each a distinct
        # non-identity automorphism
        g = (gen.complete_bipartite(*sizes) if len(sizes) == 2
             else gen.complete_multipartite(sizes))
        perms = _twin_shifts(g)
        count = sum(sizes) - len(sizes)
        assert len(perms) == count
        assert len({tuple(p) for p in perms}) == count
        edges = {frozenset(e) for e in g.edges}
        for p in perms:
            assert sorted(p) == list(range(g.n))
            assert p != list(range(g.n))
            assert {frozenset((p[u], p[v])) for u, v in g.edges} == edges


class TestBudgets:
    def test_budget_object_counts(self):
        b = Budget(5)
        for _ in range(5):
            b.spend()
        with pytest.raises(BudgetExceeded):
            b.spend()

    def test_of_wraps_only_a_limit(self):
        b = Budget(5)
        assert Budget.of(b) is b
        assert Budget.of(7).limit == 7
        assert Budget.of(None).limit == Budget().limit
        assert Budget.of(None, 7).limit == 7
        assert Budget.of(b, 7) is b

    def test_negative_limit_is_refused(self):
        with pytest.raises(InvalidParameter):
            Budget(-5)
        assert Budget(0).limit == 0

    def test_spent_budget_reaches_the_family_shortcut(self):
        # the F_3 Hamilton shortcut gets the nodes left, clamped at 0 on a
        # budget that has run out; the caller's budget then raises
        b = Budget(0)
        with pytest.raises(BudgetExceeded):
            b.spend()
        with pytest.raises(BudgetExceeded):
            in_family_Fk(gen.complete(5), 3, b)

    def test_hamilton_budget(self):
        with pytest.raises(BudgetExceeded):
            find_hamilton_cycle(gen.hypercube(4), budget=3)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 9), st.integers(0, 6), st.integers(0, 10_000))
def test_block_partition_random(n, extra, seed):
    g = random_connected_graph(random.Random(seed), n, extra)
    dec = block_decomposition(g)
    seen = sorted(e for b in dec.blocks for e in b.edge_ids)
    assert seen == list(range(g.e))
