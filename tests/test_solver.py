import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_all_cycles, brute_cycle_index, brute_is_k_connected,
                      brute_rainbow_index, brute_subtrees, random_connected_graph, theta)
from rainbowcycles import generators as gen
from rainbowcycles import solver
from rainbowcycles.errors import BudgetExceeded, InvalidParameter, NotInFamily
from rainbowcycles.colouring import rainbow_colouring
from rainbowcycles.graph import Budget, Graph, find_hamilton_cycle, in_family_Fk
from rainbowcycles.search import (min_cycle_length_through, verify_k_rainbow_cycle_colouring,
                                  verify_k_rainbow_index_colouring)


def naive_partition_count(n, k):
    """Count set partitions of range(n) into exactly k blocks, directly."""
    def rec(i, blocks):
        if i == n:
            return 1 if len(blocks) == k else 0
        total = 0
        for b in blocks:
            b.append(i)
            total += rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            total += rec(i + 1, blocks)
            blocks.pop()
        return total

    return rec(0, [])


def covered_r(res):
    """The r that the evidence of res refutes."""
    covered = set()
    for cert in res.evidence:
        if cert.kind == "distance_bound":
            covered.update(range(1, cert.payload["length"]))
        elif cert.kind == "exhaustion":
            covered.add(cert.payload["r"])
    return covered


class TestEnumeration:
    def test_stirling_against_direct_partitions(self):
        for e in range(1, 9):
            for r in range(1, e + 1):
                assert solver.stirling2(e, r) == naive_partition_count(e, r)

    def test_canonical_colourings_count(self):
        for e in range(1, 9):
            for r in range(1, e + 1):
                got = sum(1 for _ in solver.canonical_colourings(e, r))
                assert got == solver.stirling2(e, r), (e, r)

    def test_canonical_colourings_are_rgs(self):
        for seq in solver.canonical_colourings(5, 3):
            top = -1
            for c in seq:
                assert c <= top + 1
                top = max(top, c)
            assert top == 2


class TestCrxExact:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycles(self, n):
        res = solver.crx_exact(gen.cycle(n), 1)
        assert res.kind == "exact" and res.value == n

    def test_k4(self):
        assert solver.crx_exact(gen.complete(4), 1).value == 3
        assert solver.crx_exact(gen.complete(4), 2).value == 3

    def test_k23(self):
        res = solver.crx_exact(gen.complete_bipartite(2, 3), 2)
        assert res.value == 6
        kinds = [c.kind for c in res.evidence]
        assert kinds.count("exhaustion") == 2  # r = 4, 5

    def test_w4(self):
        assert solver.crx_exact(gen.wheel(4), 2).value == 4
        assert solver.crx_exact(gen.wheel(4), 3).value == 4

    def test_witness_reverifies(self):
        res = solver.crx_exact(gen.wheel(4), 2)
        assert res.witness.r == res.value
        assert verify_k_rainbow_cycle_colouring(res.witness, 2).certified

    def test_witness_is_canonically_least(self):
        res = solver.crx_exact(gen.cycle(4), 1)
        assert res.witness.colour_of == (0, 1, 2, 3)

    def test_evidence_covers_every_smaller_r(self):
        # rx runs through the same driver and gives the same kinds of evidence
        for solve, g, k in [(solver.crx_exact, gen.complete_bipartite(2, 3), 2),
                            (solver.rx_exact, gen.cycle(5), 3),
                            (solver.rx_exact, gen.hypercube(3), 2),
                            (solver.rx_exact, gen.complete_bipartite(2, 5), 2)]:
            res = solve(g, k)
            assert covered_r(res) >= set(range(1, res.value))

    def test_monotone_in_k(self):
        for g in (gen.complete(4), gen.wheel(4), gen.hypercube(3)):
            prev = 0
            for k in (1, 2, 3):
                val = solver.crx_exact(g, k).value
                assert val >= prev
                prev = val

    def test_respects_distance_bound(self):
        g = gen.hypercube(3)
        res = solver.crx_exact(g, 2)
        bound, _ = solver.crx_lower_bound_distance(g, 2)
        assert res.value >= bound

    def test_not_in_family(self):
        with pytest.raises(NotInFamily):
            solver.crx_exact(Graph(4, ((0, 1), (1, 2), (2, 3))), 1)

    def test_default_budget_confirms_the_paper(self):
        # crx_2(K_n) = 3 and crx_2(W_n) = ceil(n/2) + 2, both past 16 edges;
        # crx_2(Q_4) = 8 takes 126,014 nodes, about 1.4 s, too slow for here
        for g, value, nodes in [(gen.complete(7), 3, 2_466), (gen.wheel(12), 8, 3_269)]:
            b = Budget.of(None, solver.DEFAULT_EXACT_BUDGET)
            res = solver.crx_exact(g, 2, b)
            assert (res.kind, res.value, b.used) == ("exact", value, nodes)
            assert verify_k_rainbow_cycle_colouring(res.witness, 2).certified
            assert solver.crx_exact(g, 2).witness == res.witness

    def test_default_budget_out_is_a_certified_interval(self):
        # Q_5 has too many cycles to list in the default budget; the girth
        # is the lower bound, and its certificate says so
        b = Budget.of(None, solver.DEFAULT_EXACT_BUDGET)
        res = solver.crx_exact(gen.hypercube(5), 2, b)
        assert (res.kind, res.lower, res.upper) == ("interval", 4, 80)
        assert b.used <= solver.DEFAULT_EXACT_BUDGET + 1
        assert [(c.kind, c.payload) for c in res.evidence] == [
            ("distance_bound", {"subset": (0, 1), "length": 4, "mode": "girth"})]
        assert solver.crx_exact(gen.hypercube(5), 2).evidence == res.evidence

    def test_rx_budget_out_is_certified_by_the_subset_size(self):
        res = solver.rx_exact(gen.hypercube(4), 3, budget=1_000)  # out while listing
        assert (res.kind, res.lower, res.upper) == ("interval", 2, 32)
        assert [(c.kind, c.payload) for c in res.evidence] == [
            ("distance_bound", {"subset": (0, 1, 2), "length": 2, "mode": "subset-size"})]

    def test_cover_table_beyond_the_budget_is_not_built(self, monkeypatch):
        # C(300, 3) = 4,455,100 table rows already exceed 16 cells per node of
        # the default budget, so the solve stops before listing; a cycle's
        # girth is its edge count, and the interval closes at 300
        def no_listing(*args):
            raise AssertionError("the structures were listed")

        monkeypatch.setattr(solver, "enumerate_simple_cycles", no_listing)
        monkeypatch.setattr(solver, "_exact", no_listing)
        res = solver.crx_exact(gen.cycle(300), 3)
        assert (res.kind, res.value) == ("exact", 300)
        assert res.witness.colour_of == tuple(range(300))

    def test_cover_table_is_bounded_by_its_cells(self, monkeypatch):
        # K_{2,100} has 5,151 pairs and 4,950 cycles, all 4-cycles: few rows
        # and a short listing, but 25,497,450 table cells, over 16 per node
        # of the default budget, so the table is not built
        def no_table(*args):
            raise AssertionError("the cover table was built")

        monkeypatch.setattr(solver, "_exact", no_table)
        b = Budget.of(None, solver.DEFAULT_EXACT_BUDGET)
        res = solver.crx_exact(gen.complete_bipartite(2, 100), 2, b)
        assert (res.kind, res.lower, res.upper) == ("interval", 4, 200)
        assert [(c.kind, c.payload) for c in res.evidence] == [
            ("distance_bound", {"subset": (0, 1), "length": 4, "mode": "girth"})]
        assert b.used < solver.DEFAULT_EXACT_BUDGET
        # rx: the 100-vertex path has 4,950 pairs and 4,950 subpaths
        path = Graph(100, tuple((i, i + 1) for i in range(99)))
        res = solver.rx_exact(path, 2)
        assert (res.kind, res.lower, res.upper) == ("interval", 1, 99)
        assert [c.payload["mode"] for c in res.evidence] == ["subset-size"]

    @pytest.mark.parametrize("index, g, k, value, colours, nodes", [
        ("crx", gen.wheel(5), 2, 5, (0, 0, 1, 0, 2, 3, 2, 4, 0, 1), 135),
        # K_5 at k = 3 includes 5 nodes of the F_3 precheck's Hamilton shortcut
        ("crx", gen.complete(5), 3, 4, (0, 0, 1, 1, 2, 0, 1, 3, 3, 2), 176),
        ("rx", gen.complete_bipartite(2, 5), 2, 3, (0, 0, 0, 1, 1, 0, 1, 2, 0, 1), 642),
        ("crx", gen.complete_bipartite(3, 4), 2, 4, (0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1), 3_619),
        # includes a refuted r = 4 pass
        ("crx", gen.complete_bipartite(3, 5), 2, 5,
         (0, 0, 1, 1, 2, 0, 2, 0, 3, 4, 3, 1, 4, 2, 4), 55_473),
    ])
    def test_golden_node_counts(self, index, g, k, value, colours, nodes):
        b = Budget()
        res = getattr(solver, index + "_exact")(g, k, b)
        assert (res.value, res.witness.colour_of, b.used) == (value, colours, nodes)

    def test_uncovered_subset_is_refused(self):
        # the distance bound reads the shortest covering structure, so a
        # k-subset without one must raise, not read another subset's
        with pytest.raises(InvalidParameter):
            solver._exact(gen.cycle(4), 2, Budget(), [])

    def test_long_structures_are_dropped(self):
        # without dropping the structures with more than r edges, W_9 at k = 2
        # runs out of this budget with the interval [6, 18], and rx_5(Q_3)
        # takes 9,006 nodes
        b = Budget(2_000)
        res = solver.crx_exact(gen.wheel(9), 2, b)
        assert (res.kind, res.value, b.used) == ("exact", 7, 878)
        assert verify_k_rainbow_cycle_colouring(res.witness, 2).certified
        b = Budget()
        res = solver.rx_exact(gen.hypercube(3), 5, b)
        assert (res.kind, res.value, b.used) == ("exact", 5, 2_733)
        assert verify_k_rainbow_index_colouring(res.witness, 5).certified

    def test_matches_brute_oracle(self):
        rng = random.Random(11)
        graphs = set()
        while len(graphs) < 30:
            n = rng.randint(4, 6)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph(n, tuple(sorted(rng.sample(pairs, rng.randint(n, min(8, len(pairs)))))))
            if g.edges in graphs or not in_family_Fk(g, 1):
                continue
            graphs.add(g.edges)
            for k in (1, 2, 3):
                if in_family_Fk(g, k):
                    res = solver.crx_exact(g, k)
                    assert (res.value, res.witness.colour_of) == brute_cycle_index(g, k), (g, k)

    def test_budget_out_at_e_is_exact(self):
        # the only canonical e-colouring is the rainbow one
        path = Graph(4, ((0, 1), (1, 2), (2, 3)))
        spent = Budget()
        solver.crx_exact(theta(2, 2, 3), 2, spent)  # minimally 2-connected: crx_2 = e
        for solve, g, k, budget in [(solver.crx_exact, gen.cycle(5), 1, 3),  # listing cycles
                                    (solver.rx_exact, path, 4, 2),  # listing subtrees
                                    (solver.crx_exact, theta(2, 2, 3), 2, spent.used - 1)]:
            res = solve(g, k, budget=budget)
            assert (res.kind, res.value) == ("exact", g.e)
            assert res.witness.colour_of == tuple(range(g.e))
            verify = (verify_k_rainbow_index_colouring if solve is solver.rx_exact
                      else verify_k_rainbow_cycle_colouring)
            assert verify(res.witness, k).certified
            assert covered_r(res) >= set(range(1, res.value))

    def test_budget_yields_interval(self):
        res = solver.crx_exact(gen.wheel(4), 2, budget=5)
        assert res.kind == "interval"
        assert res.lower <= 4 <= res.upper
        for g, k, value in [(gen.cycle(5), 3, 3), (gen.hypercube(3), 2, 3)]:
            # out of budget while listing the subtrees
            res = solver.rx_exact(g, k, budget=5)
            assert (res.kind, res.lower, res.upper) == ("interval", k - 1, g.e)
            # out of budget at the last node of the colouring search
            spent = Budget()
            solver.rx_exact(g, k, spent)
            res = solver.rx_exact(g, k, budget=spent.used - 1)
            assert (res.kind, res.lower, res.upper) == ("interval", value, g.e)


class TestRxExact:
    def test_rx1_is_zero(self):
        assert solver.rx_exact(gen.complete(5), 1).value == 0

    def test_c5(self):
        assert solver.rx_exact(gen.cycle(5), 3).value == 3
        assert solver.rx_exact(gen.cycle(5), 4).value == 4

    def test_k4(self):
        assert solver.rx_exact(gen.complete(4), 2).value == 1

    def test_witness_reverifies(self):
        res = solver.rx_exact(gen.cycle(5), 3)
        assert verify_k_rainbow_index_colouring(res.witness, 3).certified

    def test_separation_values(self):
        # crx - rx: 3 for (K_4, 1), 2 for (K_4, 2), 2 for (C_5, 3)
        assert solver.crx_exact(gen.complete(4), 1).value - solver.rx_exact(gen.complete(4), 1).value == 3
        assert solver.crx_exact(gen.complete(4), 2).value - solver.rx_exact(gen.complete(4), 2).value == 2
        assert solver.crx_exact(gen.cycle(5), 3).value - solver.rx_exact(gen.cycle(5), 3).value == 2

    def test_k_above_n_is_rejected(self):
        with pytest.raises(InvalidParameter):
            solver.rx_exact(gen.cycle(4), 5)

    def test_lists_every_subtree_once(self):
        for g in (gen.hypercube(3), gen.complete(5), theta(2, 3, 4)):
            trees = brute_subtrees(g)
            for k in range(1, g.n + 1):
                listed = []
                for root in range(g.n):
                    frontier = [(eid, x) for x, eid in g.adjacency[root] if x > root]
                    solver._grow_subtrees(g.adjacency, root, k, Budget(), {root}, (), frontier,
                                          listed)
                expected = []
                for verts, eids in trees:
                    ends = {v for v in verts if sum(v in g.edges[e] for e in eids) == 1}
                    if len(ends) <= k:
                        expected.append((eids, ends, verts))
                got = [(tuple(sorted(eids)), ends, verts) for eids, ends, verts in listed]
                assert sorted(got, key=repr) == sorted(expected, key=repr)

    def test_matches_brute_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(3, 7)
            g = random_connected_graph(rng, n, rng.randint(0, min(8, n * (n - 1) // 2) - (n - 1)))
            for k in range(2, n + 1):
                res = solver.rx_exact(g, k)
                assert (res.value, res.witness.colour_of) == brute_rainbow_index(g, k), (g, k)

    def test_golden_q3_pair_listing(self):
        # an inclusion that would give a third leaf is not made: listing every
        # subtree and then keeping those with at most two leaves took 2,504 nodes
        g, b, listed = gen.hypercube(3), Budget(), []
        for root in range(g.n):
            frontier = [(eid, x) for x, eid in g.adjacency[root] if x > root]
            solver._grow_subtrees(g.adjacency, root, 2, b, {root}, (), frontier, listed)
        assert (len(listed), b.used, b.cuts["leaves"]) == (444, 983, 87)
        b = Budget()
        assert solver.rx_exact(g, 2, b).value == 3
        assert (b.used, b.cuts) == (996, {"closing": 0, "sides": 0, "short": 0, "leaves": 87})

    def test_golden_q3(self):
        # witness recorded from the colouring-by-colouring search this solver
        # replaced; that search spent 3,166,422 nodes
        b = Budget()
        res = solver.rx_exact(gen.hypercube(3), 3, b)
        assert res.value == 3
        assert res.witness.colour_of == (0, 1, 2, 1, 2, 0, 2, 2, 0, 1, 1, 0)
        assert b.used <= 31_664

    def test_crx_always_exceeds_rx(self):
        for g, k in [(gen.complete(4), 2), (gen.cycle(5), 3), (gen.cycle(5), 4),
                     (theta(2, 2, 2), 2)]:
            assert solver.crx_exact(g, k).value > solver.rx_exact(g, k).value


def _relabelled(g, seed):
    """g with its vertices renamed by a seeded permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


class TestLowerBoundDistance:
    def test_q4_pair(self):
        bound, cert = solver.crx_lower_bound_distance(gen.hypercube(4), 2)
        assert bound == 8
        assert cert.kind == "distance_bound"
        assert min_cycle_length_through(gen.hypercube(4), cert.payload["subset"]) == 8

    def test_join_triple(self):
        bound, cert = solver.crx_lower_bound_distance(gen.path_cycle_join(3, 3), 3)
        assert bound >= 3

    def test_complete_pair_is_girth(self):
        bound, _ = solver.crx_lower_bound_distance(gen.complete(6), 2)
        assert bound == 3

    def test_golden_w12_triples(self):
        # 896 search nodes after the 13 of the F_3 precheck (911 before the
        # cycle kernel skipped the deepening levels below its distance floor
        # without a node, 996 before the cycle search's forced-vertex test,
        # whose states it ended or narrowed replace those of the closing-edge
        # and two-sides rules, 17 and 47 before); a triple inside a cycle
        # already found, or inside its image under a rim rotation or
        # reflection, is not searched, so no triple is left to be settled by
        # a cycle within the incumbent bound (1,557 search nodes and 11
        # settled triples with the cycles found alone, 8,458 without the
        # incumbent either, and one search per triple spent 70,837 before the
        # cycle search's cut rules)
        b = Budget()
        bound, cert = solver.crx_lower_bound_distance(gen.wheel(12), 3, b)
        assert (bound, cert.payload["mode"], b.used) == (10, "exhaustive", 909)  # 924 before
        assert cert.payload["subset"] == (0, 4, 8)
        assert b.cuts == {"closing": 14, "sides": 0, "short": 114, "incumbent": 0}

    @pytest.mark.parametrize("g, k", [
        (gen.wheel(9), 2), (gen.wheel(9), 3), (gen.wheel(10), 3), (gen.hypercube(4), 2),
        (gen.complete(8), 3), (gen.complete_multipartite((3, 3, 3)), 2),
        (gen.path_cycle_join(3, 3), 3),
        # the family's automorphisms reach a relabelled graph through the
        # detected order; on these labellings, images taken through the
        # order alone (not conjugated by it) hide the colex-first subset
        (_relabelled(gen.complete_bipartite(3, 4), 0), 2),
        (_relabelled(gen.complete_bipartite(3, 4), 0), 3),
        (_relabelled(gen.complete_multipartite((2, 2, 3)), 3), 2),
        (_relabelled(gen.complete_multipartite((2, 2, 3)), 3), 3),
        (gen.wheel(6), 4), (gen.hypercube(3), 3),
    ])
    def test_same_bound_as_one_search_per_subset(self, g, k):
        best, best_set = 0, None
        for s in itertools.combinations(range(g.n), k):
            length = min_cycle_length_through(g, s)
            # colex order: a tie goes to the subset whose reversed tuple is least
            if length > best or (length == best and s[::-1] < best_set[::-1]):
                best, best_set = length, s
        bound, cert = solver.crx_lower_bound_distance(g, k)
        assert (bound, cert.payload["subset"]) == (best, best_set)

    @pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
    def test_matches_brute_oracle(self, monkeypatch, sampled):
        # the oracle is a maximum over brute_all_cycles; a record needs a
        # strict gain, so the subset is the first to reach the bound in the
        # pass order: colex, or the seeded sample, taken here with the
        # sampler's seed and call sequence
        if sampled:
            monkeypatch.setattr(solver, "MAX_EXHAUSTIVE_SUBSETS", 1)
        rng = random.Random(13)
        checked = 0
        while checked < 24:
            n = rng.randint(5, 8)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph(n, tuple(sorted(rng.sample(pairs, rng.randint(n + 1, 2 * n)))))
            if not brute_is_k_connected(g, 2):
                continue
            checked += 1
            for k in (2, 3):
                shortest = {s: min((len(verts) for verts, _ in brute_all_cycles(g)
                                    if verts.issuperset(s)), default=None)
                            for s in itertools.combinations(range(n), k)}
                if None in shortest.values():  # outside F_k
                    with pytest.raises(NotInFamily):
                        solver.crx_lower_bound_distance(g, k)
                    continue
                if sampled:
                    draw = random.Random(0)
                    order = [tuple(sorted(draw.sample(range(n), k))) for _ in range(2000)]
                else:
                    order = sorted(shortest, key=lambda s: s[::-1])
                best, best_set = 0, None
                for s in order:
                    if shortest[s] > best:
                        best, best_set = shortest[s], s
                bound, cert = solver.crx_lower_bound_distance(g, k)
                assert (bound, cert.payload["subset"]) == (best, best_set), (g, k)
                assert cert.payload["mode"] == ("sampled" if sampled else "exhaustive")


class TestInterval:
    def test_hamilton_fallback_spends_the_callers_budget(self):
        # Petersen has no named family, so the upper bound falls back to a
        # Hamilton search, 82 nodes (it has no Hamilton cycle; 142 before the
        # forced-vertex test), charged to b
        g = gen.petersen()
        bound_only, ham = Budget(5000), Budget()
        solver.crx_lower_bound_distance(g, 2, bound_only)
        assert find_hamilton_cycle(g, ham) is None and ham.used == 82
        b = Budget(5000)
        res = solver.crx_interval(g, 2, b)
        assert b.used == bound_only.used + 82
        assert (res.lower, res.upper, res.witness.r) == (5, 15, 15)

    def test_hamilton_fallback_budget_out_is_rainbow(self):
        # the Hamilton search runs out of the caller's budget: the rainbow
        # colouring is still a valid upper bound
        g = gen.path_cycle_join(3, 3)
        bound_only, ham = Budget(), Budget()
        solver.crx_lower_bound_distance(g, 2, bound_only)
        assert find_hamilton_cycle(g, ham) is not None
        full = solver.crx_interval(g, 2)
        assert full.upper == g.n
        b = Budget(bound_only.used + ham.used - 1)
        res = solver.crx_interval(g, 2, b)
        assert (res.lower, res.upper, res.witness) == (full.lower, g.e, rainbow_colouring(g))

    @pytest.mark.parametrize("share, lower", [(0.25, 7), (0.5, 8), (0.999, 9)])
    def test_budget_out_keeps_the_partial_lower_bound(self, share, lower):
        # the distance bound overruns a budget of this share of its full run;
        # the wheel constructor's self-verification then runs out at once
        # and falls through to the rainbow colouring instead of raising
        g = gen.wheel(12)
        bound_only = Budget()
        solver.crx_lower_bound_distance(g, 3, bound_only)
        res = solver.crx_interval(g, 3, Budget(int(bound_only.used * share)))
        (cert,) = res.evidence
        assert cert.payload["mode"] == "exhaustive-partial"
        assert (res.kind, res.lower) == ("interval", lower)
        assert (res.upper, res.witness) == (g.e, rainbow_colouring(g))

    def test_construction_budget_out_is_rainbow(self):
        # the distance bound finishes, and the budget runs out inside the
        # wheel constructor's self-verification
        g = gen.wheel(12)
        bound_only = Budget()
        solver.crx_lower_bound_distance(g, 3, bound_only)
        full = solver.crx_interval(g, 3)
        assert (full.kind, full.lower, full.upper) == ("exact", 10, 10)
        res = solver.crx_interval(g, 3, Budget(bound_only.used + 10))
        assert res.evidence[0].payload["mode"] == "exhaustive"
        assert (res.lower, res.upper, res.witness) == (10, g.e, rainbow_colouring(g))

    def test_w9_k2(self):
        res = solver.crx_interval(gen.wheel(9), 2)
        assert (res.lower, res.upper) == (6, 7)
        assert res.kind == "interval"
        assert res.witness.r == 7

    def test_q3_k2_exact(self):
        res = solver.crx_interval(gen.hypercube(3), 2)
        assert res.kind == "exact" and res.lower == res.upper == 6

    def test_k8_k3(self):
        res = solver.crx_interval(gen.complete(8), 3, seed=2026)
        assert res.lower == 3
        assert res.upper in (5, 8)  # 5 when the seeded sampler lands

    def test_cycle_always_exact(self):
        res = solver.crx_interval(gen.cycle(6), 2)
        assert res.kind == "exact" and res.lower == 6

    def test_lower_bound_carries_its_certificate(self):
        # with no budget the pass finds no cycle, and the lower bound is the
        # girth: the certificate is the girth's, not an empty pass's
        res = solver.crx_interval(gen.cycle(5), 2, Budget(0))
        assert (res.kind, res.value) == ("exact", 5)
        assert [(c.kind, c.payload) for c in res.evidence] == [
            ("distance_bound", {"subset": (0, 1), "length": 5, "mode": "girth"})]
        for g, k, budget in [(gen.wheel(12), 2, 0), (gen.wheel(12), 3, 500),
                             (gen.complete(6), 2, 0), (gen.petersen(), 2, None)]:
            res = solver.crx_interval(g, k, budget)
            (cert,) = res.evidence
            assert res.lower == max(k, cert.payload["length"]), (g, k, budget)

    @pytest.mark.parametrize("relabel", [False, True], ids=["canonical", "relabelled"])
    def test_witness_colours_the_input_graph(self, relabel):
        # every family constructor colours a canonical graph; the interval's
        # witness must be a colouring of g itself, in any labelling
        graphs = ([gen.complete(n) for n in (4, 6)] + [gen.cycle(5), gen.hypercube(3)]
                  + [gen.wheel(n) for n in (4, 7)]
                  + [gen.complete_bipartite(m, n) for m, n in ((2, 3), (3, 2), (4, 3), (5, 6))]
                  + [gen.complete_multipartite(s) for s in ((1, 1, 2), (2, 2, 2), (1, 2, 3))]
                  + [gen.petersen()])
        for i, g in enumerate(graphs):
            if relabel:
                g = _relabelled(g, i)
            for k in (1, 2):
                res = solver.crx_interval(g, k)
                assert res.witness.graph == g, (g, k)
                assert res.witness.r == res.upper
                assert verify_k_rainbow_cycle_colouring(res.witness, k).certified, (g, k)

    def test_exactness_matches_solver_on_small(self):
        for g, k in [(gen.complete(4), 2), (gen.wheel(4), 2)]:
            iv = solver.crx_interval(g, k)
            ex = solver.crx_exact(g, k)
            assert iv.lower <= ex.value <= iv.upper


class TestFamilyDetection:
    def test_detects(self):
        detect = solver._detect_family
        assert detect(gen.complete(5)) == ("complete", 5, tuple(range(5)))
        assert detect(gen.cycle(6)) == ("cycle", 6, tuple(range(6)))
        assert detect(gen.hypercube(3)) == ("hypercube", 3, tuple(range(8)))
        assert detect(gen.wheel(6)) == ("wheel", 6, tuple(range(7)))
        assert detect(gen.complete_bipartite(3, 5)) == (
            "complete_bipartite", (3, 5), tuple(range(8)))
        assert detect(gen.complete_multipartite((1, 2, 2))) == (
            "complete_multipartite", (1, 2, 2), tuple(range(5)))
        # the smaller class comes first, so the order starts with vertices 4..6
        assert detect(gen.complete_bipartite(4, 3)) == (
            "complete_bipartite", (3, 4), (4, 5, 6, 0, 1, 2, 3))
        # in any labelling, order carries the canonical graph's edges onto h's
        g = gen.complete_multipartite((2, 2, 2))
        h = _relabelled(g, 3)
        kind, sizes, order = detect(h)
        assert (kind, sizes) == ("complete_multipartite", (2, 2, 2))
        assert sorted(order) == list(range(h.n)) and order != tuple(range(h.n))
        assert Graph(h.n, tuple((order[u], order[v]) for u, v in g.edges)) == h

    def test_unknown(self):
        assert solver._detect_family(theta(2, 3, 4)) is None
        # classes of the vertex plus its non-neighbours partition both, but an
        # edge inside a class, or a missing one across, fails the pair check
        k33 = gen.complete_bipartite(3, 3)
        assert solver._detect_family(Graph(6, k33.edges + ((1, 2),))) is None
        assert solver._detect_family(k33.without_edge(0)) is None


def _brute_multipartite(g):
    """(kind, sizes, order) by brute force when g is complete bipartite or
    multipartite, else None: non-adjacency must be transitive, so that its
    classes (a vertex and its non-neighbours) are independent and joined
    to each other; they are listed by least vertex, then stably by size."""
    apart = [[u != v and not g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)]
    for u, v, w in itertools.permutations(range(g.n), 3):
        if apart[u][v] and apart[v][w] and not apart[u][w]:
            return None
    classes = []
    for v in range(g.n):
        if not any(v in c for c in classes):
            classes.append([w for w in range(g.n) if w == v or apart[v][w]])
    if len(classes) < 2:
        return None
    classes.sort(key=len)
    kind = "complete_bipartite" if len(classes) == 2 else "complete_multipartite"
    return (kind, tuple(map(len, classes)), tuple(v for c in classes for v in c))


@st.composite
def graphs_to_detect(draw):
    """A random graph on 1 to 8 vertices, or a relabelled complete
    multipartite graph with 2 to 4 classes of 1 to 3 vertices, perhaps with
    one pair of vertices toggled."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        return Graph(n, tuple(p for p in itertools.combinations(range(n), 2)
                              if draw(st.booleans())))
    g = gen.complete_multipartite(sorted(draw(st.lists(st.integers(1, 3), min_size=2,
                                                       max_size=4))))
    perm = draw(st.permutations(range(g.n)))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges}
    if draw(st.booleans()):
        edges ^= {draw(st.sampled_from(list(itertools.combinations(range(g.n), 2))))}
    return Graph(g.n, tuple(edges))


_CANONICAL = {"complete": gen.complete, "cycle": gen.cycle, "hypercube": gen.hypercube,
              "wheel": gen.wheel, "complete_bipartite": lambda s: gen.complete_bipartite(*s),
              "complete_multipartite": gen.complete_multipartite}


class TestFamilyDetectionOracle:
    @settings(max_examples=300, deadline=None)
    @given(graphs_to_detect())
    def test_matches_the_brute_oracle(self, g):
        found = solver._detect_family(g)
        if found is not None and found[0] != "cycle":  # a cycle needs no order
            # order carries the canonical graph's edges onto g
            kind, param, order = found
            canonical = _CANONICAL[kind](param)
            assert Graph(g.n, tuple((order[u], order[v]) for u, v in canonical.edges)) == g
        if found is None or found[0].startswith("complete_"):
            assert found == _brute_multipartite(g)
        # else a complete graph, cycle, cube or wheel, which take precedence
