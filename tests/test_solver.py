import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_all_cycles, brute_cycle_index, brute_is_k_connected,
                      brute_rainbow_index, brute_subtrees, random_connected_graph, small_corpus,
                      theta)
from rainbowcycles import constructions as cons
from rainbowcycles import generators as gen
from rainbowcycles import solver
from rainbowcycles.errors import BudgetExceeded, InvalidParameter, NotInFamily
from rainbowcycles.colouring import CycleWitness, EdgeColouring, check_cover, rainbow_colouring
from rainbowcycles.graph import (INF, Budget, Graph, _rooted_cycles, cycle_vertices_to_edge_ids,
                                 find_hamilton_cycle, in_family_Fk)
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
        # crx_2(K_n) = 3, crx_2(W_n) = ceil(n/2) + 2 and crx_k(Q_n) = 2^(n-1)
        # for k = 2 and n >= 4, 4 for k = 1, all past 16 edges; listing
        # every cycle first took 2,466, 3,269 and 126,014 nodes on the first
        # three and ran out of this budget on Q_5. rx_2(Q_n) = n is the
        # rainbow connection number (Chartrand, Johns, McKeon & Zhang 2008);
        # listing every subtree first ran out of this budget on Q_4
        for solve, g, k, value, nodes in [(solver.crx_exact, gen.complete(7), 2, 3, 192),
                                          (solver.crx_exact, gen.wheel(12), 2, 8, 2_231),
                                          (solver.crx_exact, gen.hypercube(4), 2, 8, 4_388),
                                          (solver.crx_exact, gen.hypercube(5), 1, 4, 593),
                                          (solver.rx_exact, gen.hypercube(4), 2, 4, 5_392)]:
            b = Budget.of(None, solver.DEFAULT_EXACT_BUDGET)
            res = solve(g, k, b)
            assert (res.kind, res.value, b.used) == ("exact", value, nodes)
            verify = (verify_k_rainbow_index_colouring if solve is solver.rx_exact
                      else verify_k_rainbow_cycle_colouring)
            assert verify(res.witness, k).certified
            assert solve(g, k).witness == res.witness

    def test_default_budget_out_is_a_certified_interval(self):
        # Q_5 has too many cycles of up to 10 edges to list in the default
        # budget; the start of the listing, twice the diameter, is the lower
        # bound (the girth, 4, was until the listing started there), and
        # its certificate names the antipodal pair it reads
        b = Budget.of(None, solver.DEFAULT_EXACT_BUDGET)
        res = solver.crx_exact(gen.hypercube(5), 2, b)
        assert (res.kind, res.lower, res.upper) == ("interval", 10, 80)
        assert b.used <= solver.DEFAULT_EXACT_BUDGET + 1
        assert [(c.kind, c.payload) for c in res.evidence] == [
            ("distance_bound", {"subset": (0, 31), "length": 10, "mode": "diameter"})]
        assert solver.crx_exact(gen.hypercube(5), 2).evidence == res.evidence

    def test_rx_budget_out_is_certified_by_the_subset_size(self):
        # out while listing: on K_6 a tree holding 4 vertices has 3 edges,
        # more than the diameter, 1
        res = solver.rx_exact(gen.complete(6), 4, budget=50)
        assert (res.kind, res.lower, res.upper) == ("interval", 3, 15)
        assert [(c.kind, c.payload) for c in res.evidence] == [
            ("distance_bound", {"subset": (0, 1, 2, 3), "length": 3, "mode": "subset-size"})]

    def test_rx_budget_out_is_certified_by_the_diameter(self):
        # on Q_4 a tree through the antipodal pair (0, 15) has 4 edges, more
        # than the 2 of a tree holding 3 vertices (the bound was 2 until the
        # listing started at the diameter)
        res = solver.rx_exact(gen.hypercube(4), 3, budget=1_000)  # out while listing
        assert (res.kind, res.lower, res.upper) == ("interval", 4, 32)
        assert [(c.kind, c.payload) for c in res.evidence] == [
            ("distance_bound", {"subset": (0, 1, 15), "length": 4, "mode": "diameter"})]

    def test_cover_table_beyond_the_budget_is_not_built(self, monkeypatch):
        # C(300, 3) = 4,455,100 table rows already exceed 16 cells per node of
        # the default budget, so the solve stops before listing; a cycle's
        # girth is its edge count, and the interval closes at 300
        def no_listing(*args):
            raise AssertionError("the structures were listed")

        monkeypatch.setattr(solver, "_rooted_cycles", no_listing)
        monkeypatch.setattr(solver, "_add_rows", no_listing)
        res = solver.crx_exact(gen.cycle(300), 3)
        assert (res.kind, res.value) == ("exact", 300)
        assert res.witness.colour_of == tuple(range(300))

    def test_cover_table_is_bounded_by_its_cells(self, monkeypatch):
        # K_{2,100} has 5,151 pairs and 4,950 cycles, all 4-cycles: few rows
        # and a short listing, but 25,497,450 table cells, over 16 per node
        # of the default budget, so the table is not built
        def no_table(*args):
            raise AssertionError("the cover table was built")

        monkeypatch.setattr(solver, "_add_rows", no_table)
        b = Budget.of(None, solver.DEFAULT_EXACT_BUDGET)
        res = solver.crx_exact(gen.complete_bipartite(2, 100), 2, b)
        assert (res.kind, res.lower, res.upper) == ("interval", 4, 200)
        assert [(c.kind, c.payload) for c in res.evidence] == [
            ("distance_bound", {"subset": (0, 1), "length": 4, "mode": "girth"})]
        assert b.used < solver.DEFAULT_EXACT_BUDGET
        # rx: the 100-vertex path has 4,950 pairs and 4,950 subpaths; the
        # listing starts at the diameter, 99, which is e, so the bounds meet
        # (with the bound k - 1 they were [1, 99])
        path = Graph(100, tuple((i, i + 1) for i in range(99)))
        res = solver.rx_exact(path, 2)
        assert (res.kind, res.lower, res.upper) == ("exact", 99, 99)
        assert [c.payload for c in res.evidence] == [
            {"subset": (0, 99), "length": 99, "mode": "diameter"}]

    @pytest.mark.parametrize("index, g, k, value, colours, nodes", [
        ("crx", gen.wheel(5), 2, 5, (0, 0, 1, 0, 2, 3, 2, 4, 0, 1), 107),
        # K_5 at k = 3: its F_3 precheck needs no node, as K_5 is complete
        # multipartite (152 with the 5 nodes of the Hamilton shortcut, kept
        # in its id)
        pytest.param("crx", gen.complete(5), 3, 4, (0, 0, 1, 1, 2, 0, 1, 3, 3, 2), 147,
                     id="crx-g1-3-4-colours1-152"),
        ("rx", gen.complete_bipartite(2, 5), 2, 3, (0, 0, 0, 1, 1, 0, 1, 2, 0, 1), 522),
        ("crx", gen.complete_bipartite(3, 4), 2, 4, (0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1), 3_547),
        # includes a refuted r = 4 pass
        ("crx", gen.complete_bipartite(3, 5), 2, 5,
         (0, 0, 1, 1, 2, 0, 2, 0, 3, 4, 3, 1, 4, 2, 4), 55_313),
    ])
    def test_golden_node_counts(self, index, g, k, value, colours, nodes):
        b = Budget()
        res = getattr(solver, index + "_exact")(g, k, b)
        assert (res.value, res.witness.colour_of, b.used) == (value, colours, nodes)

    def test_uncovered_subset_is_refused(self):
        # the distance bound reads the shortest covering structure, so a
        # k-subset without one must raise, not read another subset's
        with pytest.raises(InvalidParameter):
            solver._exact(gen.cycle(4), 2, Budget(), lambda bound: ([], None), 3, None)

    def test_long_structures_are_dropped(self):
        # without dropping the structures with more than r edges, W_9 at k = 2
        # runs out of this budget with the interval [6, 18], and rx_5(Q_3)
        # takes 9,006 nodes; listing every structure first and then dropping
        # took 878 and 2,733
        b = Budget(2_000)
        res = solver.crx_exact(gen.wheel(9), 2, b)
        assert (res.kind, res.value, b.used) == ("exact", 7, 573)
        assert verify_k_rainbow_cycle_colouring(res.witness, 2).certified
        b = Budget()
        res = solver.rx_exact(gen.hypercube(3), 5, b)
        assert (res.kind, res.value, b.used) == ("exact", 5, 1_565)
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
        # the listing starts at k - 1 on C_5 and at the diameter, 3, on Q_3
        for g, k, start, value in [(gen.cycle(5), 3, 2, 3), (gen.hypercube(3), 2, 3, 3)]:
            # out of budget while listing the subtrees
            res = solver.rx_exact(g, k, budget=5)
            assert (res.kind, res.lower, res.upper) == ("interval", start, g.e)
            # out of budget at the last node of the colouring search
            spent = Budget()
            solver.rx_exact(g, k, spent)
            res = solver.rx_exact(g, k, budget=spent.used - 1)
            assert (res.kind, res.lower, res.upper) == ("interval", value, g.e)


def _listing_graphs():
    """The tier-1 corpus and seeded random connected graphs."""
    rng = random.Random(36)
    return [g for _, g in small_corpus()] + [
        random_connected_graph(rng, rng.randint(4, 8), rng.randint(0, 5)) for _ in range(12)]


def _leaves(g, eids):
    return frozenset(v for e in eids for v in g.edges[e]
                     if sum(v in g.edges[e2] for e2 in eids) == 1)


def _left_after(structures, bound, later):
    """later, what a lister gives as the least edge count left after
    listing up to bound, is None when no structure is left and otherwise
    no more than any left."""
    left = [len(st[0]) for st in structures if len(st[0]) > bound]
    return later is None and not left or later is not None and later <= min(left, default=INF)


class TestBoundedListing:
    """The listers of _exact against the brute-force oracles, at every bound
    and across each resume from L to L + 1."""

    def test_cycles(self):
        # no cycle has more than n edges, so a listing past n lists what the
        # listing at n does, and none is left after it
        for g in _listing_graphs():
            cycles = [(tuple(sorted(eids)), verts) for verts, eids in brute_all_cycles(g)]
            b_resumed = Budget()
            resumed = solver._cycle_lister(g, b_resumed)
            for bound in range(0, g.n + 3):
                b = Budget()
                fresh, later = solver._cycle_lister(g, b)(bound)
                got = [(tuple(sorted(eids)), frozenset(verts)) for eids, must, verts in fresh]
                assert all(not must for _, must, _ in fresh)
                assert sorted(got, key=repr) == sorted(
                    [c for c in cycles if len(c[0]) <= bound], key=repr), (g, bound)
                assert _left_after(cycles, bound, later), (g, bound)
                step, later = resumed(bound)
                step = [(tuple(sorted(eids)), frozenset(verts)) for eids, _, verts in step]
                assert sorted(step, key=repr) == sorted(
                    [c for c in cycles if len(c[0]) == bound], key=repr), (g, bound)
                assert _left_after(cycles, bound, later), (g, bound)
                assert later is None or bound < g.n, (g, bound)
                # the resumptions entered each path once: as many as one listing
                assert b_resumed.used == b.used, (g, bound)

    def test_cycles_resumed_past_bounds(self):
        # a resumption that skips bounds lists what the skipped ones would
        # have, with the same nodes; one past n, as a pass at r = e asks,
        # enters no node and lists nothing
        for g in _listing_graphs():
            cycles = [(tuple(sorted(eids)), verts) for verts, eids in brute_all_cycles(g)]
            b_skipping = Budget()
            skipping = solver._cycle_lister(g, b_skipping)
            listed = 0
            for bound in (3, g.n // 2 + 2, g.n, max(g.e, g.n + 1)):
                step, later = skipping(bound)
                got = [(tuple(sorted(eids)), frozenset(verts)) for eids, _, verts in step]
                assert sorted(got, key=repr) == sorted(
                    [c for c in cycles if listed < len(c[0]) <= bound], key=repr), (g, bound)
                assert _left_after(cycles, bound, later), (g, bound)
                assert later is None or bound < g.n, (g, bound)
                listed = bound
            b = Budget()
            solver._cycle_lister(g, b)(g.n)
            assert b_skipping.used == b.used, g

    def test_kept_paths_are_bounded_by_the_paths_entered(self):
        # on K_8 at bound 3 the 110 paths of 3 vertices with a child above
        # their root are each kept once, under 4, not once per child: their
        # 420 children are counted, not stored
        g = gen.complete(8)
        b = Budget()
        deferred = {}
        cycles = list(_rooted_cycles(g, b, None, 3, deferred))
        assert (len(cycles), b.used, b.cuts["length"]) == (56, 148, 420)
        assert list(deferred) == [4]
        kept = [path for path, _ in deferred[4]]
        assert len(kept) == len(set(kept)) == 110
        assert all(len(path) == 3 and tried == 3 for path, tried in deferred[4])

    def test_subtrees(self):
        for g in _listing_graphs():
            trees = [(tuple(sorted(eids)), _leaves(g, eids), verts)
                     for verts, eids in brute_subtrees(g)]
            for k in sorted({2, 3, g.n}):
                b_resumed = Budget()
                resumed = solver._subtree_lister(g, k, b_resumed)
                for bound in range(0, g.n):
                    b = Budget()
                    fresh, later = solver._subtree_lister(g, k, b)(bound)
                    got = [(tuple(sorted(eids)), ends, verts) for eids, ends, verts in fresh]
                    kept = [t for t in trees if len(t[1]) <= k]
                    assert sorted(got, key=repr) == sorted(
                        [t for t in kept if len(t[0]) <= bound], key=repr), (g, k, bound)
                    assert _left_after(kept, bound, later), (g, k, bound)
                    step, later = resumed(bound)
                    step = [(tuple(sorted(eids)), ends, verts) for eids, ends, verts in step]
                    assert sorted(step, key=repr) == sorted(
                        [t for t in kept if len(t[0]) == bound], key=repr), (g, k, bound)
                    assert _left_after(kept, bound, later), (g, k, bound)
                    assert b_resumed.used == b.used, (g, k, bound)

    def test_kept_trees_are_bounded_by_the_trees_walked(self):
        # on K_6 at k = 3 and bound 2 the 30 trees of 2 edges from vertex 0
        # are each kept once, not once per inclusion: the 160 inclusions
        # they would make are counted, not stored
        g = gen.complete(6)
        adj, b, out, deferred = g.adjacency, Budget(), [], {}
        b.cuts.update(leaves=0, length=0)
        solver._grow_subtrees(adj, 3, b, 2, out, deferred, 0, frozenset((0,)), (),
                              [(eid, x) for x, eid in adj[0] if x > 0], frozenset())
        assert (len(out), b.used, b.cuts["length"]) == (35, 231, 160)
        assert list(deferred) == [3]
        assert len({(eids, walked) for _, _, eids, _, _, walked in deferred[3]}) == 30
        assert all(len(eids) == 2 and walked for _, _, eids, _, _, walked in deferred[3])

    def test_length_cut_counts_the_deferred_paths(self):
        # Q_3 at k = 2 lists the 84 paths of at most 3 edges, the diameter,
        # and 72 inclusions of a fourth edge wait; its 6 faces, the cycles
        # of at most 4 edges, leave 24 paths waiting
        b = Budget()
        listed, later = solver._subtree_lister(gen.hypercube(3), 2, b)(3)
        assert (len(listed), later, b.cuts["length"]) == (84, 4, 72)
        b = Budget()
        listed, later = solver._cycle_lister(gen.hypercube(3), b)(4)
        assert (len(listed), later, b.cuts["length"]) == (6, 6, 24)


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
                listed, later = solver._subtree_lister(g, k, Budget())(g.n - 1)
                assert later is None
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
        g, b = gen.hypercube(3), Budget()
        listed, _ = solver._subtree_lister(g, 2, b)(g.n - 1)
        assert (len(listed), b.used, b.cuts["leaves"], b.cuts["length"]) == (444, 983, 87, 0)
        # the solve lists the 84 paths of at most 3 edges, the diameter: 996
        # nodes when it listed all 444 first
        b = Budget()
        assert solver.rx_exact(g, 2, b).value == 3
        assert (b.used, b.cuts) == (288, {"closing": 0, "sides": 0, "short": 0, "leaves": 27,
                                          "length": 72})

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

    def test_matches_brute_oracle(self):
        # the oracle is a maximum over brute_all_cycles; a record needs a
        # strict gain, so the subset is the first to reach the bound in
        # colex order
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
                order = sorted(shortest, key=lambda s: s[::-1])
                best, best_set = 0, None
                for s in order:
                    if shortest[s] > best:
                        best, best_set = shortest[s], s
                bound, cert = solver.crx_lower_bound_distance(g, k)
                assert (bound, cert.payload["subset"]) == (best, best_set), (g, k)
                assert cert.payload["mode"] == "exhaustive"

    def test_full_pass_on_a_tight_budget(self):
        # W_60 has 34,220 3-subsets; the colex pass reaches a bound of 23
        # before 200,000 nodes run out, and the interval keeps it
        g = gen.wheel(60)
        bound, cert = solver.crx_lower_bound_distance(g, 3, Budget(200_000))
        assert (bound, cert.payload) == (
            23, {"subset": (0, 1, 21), "length": 23, "mode": "exhaustive-partial"})
        res = solver.crx_interval(g, 3, Budget(200_000))
        assert (res.lower, res.evidence) == (23, (cert,))


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
        # the spent budget then skips the wheel constructor and the Hamilton
        # fallback, and the interval falls through to the rainbow colouring
        # instead of raising
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

    @pytest.mark.parametrize("g, k, results", [
        (gen.wheel(12), 3, {60: ("interval", 5, 24), 81: ("interval", 6, 24),
                            186: ("interval", 7, 24), 375: ("interval", 8, 24)}),
        (gen.petersen(), 2, {60: ("interval", 5, 15)}),
        (gen.hypercube(4), 2, {60: ("interval", 6, 32), 67: ("interval", 8, 32),
                               88: ("exact", 8, 8)}),
        (gen.complete_bipartite(3, 6), 2, {60: ("interval", 4, 18)}),
    ], ids=["W12", "petersen", "Q4", "K3,6"])
    def test_spent_budget_is_not_spent_again(self, g, k, results):
        # a budget spent in the distance bound or in a constructor skips the
        # searches after it: each spent one node more before it raised, so a
        # budget of N took up to N + 3 nodes (103 of 100 on W_12), with these
        # same results, keyed by the least N giving each
        for limit in range(60, 397, 7):
            b = Budget(limit)
            res = solver.crx_interval(g, k, b)
            kind, lower, upper = results[max(n for n in results if n <= limit)]
            assert (res.kind, res.lower, res.upper, res.witness.r) == (kind, lower, upper, upper)
            assert b.used <= limit + 1, limit

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

    def test_witness_is_a_colouring_of_g_itself(self):
        for g in (gen.complete(5), gen.cycle(5), gen.wheel(6), gen.hypercube(3),
                  gen.complete_bipartite(2, 3), gen.complete_multipartite((1, 2, 3)),
                  gen.petersen()):
            assert solver.crx_interval(g, 2).witness.graph is g

    def test_witnesses_cover_g_in_any_labelling(self, monkeypatch):
        # every constructor or Hamilton witness list covers the k-subsets of
        # g, relabelled or not; only the plain rainbow fallback carries none
        # (K_{3,4} at k = 2: no construction, no Hamilton cycle). On the
        # identity order the constructor's colours and witnesses come back
        # as it made them.
        made = []

        class Recorder:
            def __getattr__(self, name):
                def call(*args, **kwargs):
                    made.append(getattr(cons, name)(*args, **kwargs))
                    return made[-1]
                return call

        monkeypatch.setattr(solver, "cons", Recorder())
        for sizes in ((2, 4), (2, 3), (3, 3), (3, 4), (4, 4), (1, 1, 2), (2, 2, 2),
                      (1, 2, 3), (1, 1, 1, 2), (1, 2, 2, 2), (2, 2, 2, 2)):
            for seed in (None, 1, 2, 3):
                g = (gen.complete_bipartite(*sizes) if len(sizes) == 2
                     else gen.complete_multipartite(sizes))
                if seed is not None:
                    g = _relabelled(g, seed)
                for k in (1, 2):
                    made.clear()
                    c = solver.crx_interval(g, k).witness
                    if not c.witnesses:
                        assert (sizes, k) == ((3, 4), 2)
                        assert c == rainbow_colouring(g)
                        continue
                    assert check_cover(c, k, c.witnesses), (sizes, seed, k)
                    if seed is None and made and isinstance(made[-1], EdgeColouring):
                        assert c.colour_of == made[-1].colour_of
                        assert c.witnesses == made[-1].witnesses

    @pytest.mark.parametrize("g, k, bounds", [
        (_relabelled(gen.wheel(9), 0), 1, (3, 10)),
        (_relabelled(gen.hypercube(4), 0), 2, (8, 16)),
    ], ids=["W_9", "Q_4"])
    def test_hamilton_fallback_carries_its_cycle(self, g, k, bounds):
        res = solver.crx_interval(g, k)
        ham = find_hamilton_cycle(g)
        assert (res.lower, res.upper) == bounds
        assert res.witness.witnesses == (CycleWitness(ham, cycle_vertices_to_edge_ids(g, ham)),)
        assert check_cover(res.witness, k, res.witness.witnesses)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_cycle_carries_itself(self, n):
        # a cycle's bound is its rainbow colouring, and the whole cycle is
        # its one witness, in any labelling
        for g in (gen.cycle(n), _relabelled(gen.cycle(n), n)):
            for k in range(1, 4):
                res = solver.crx_interval(g, k)
                assert (res.kind, res.value, res.witness) == ("exact", n, rainbow_colouring(g))
                (w,) = res.witness.witnesses
                assert w.vertices[0] == 0 and w.vertices[1] < w.vertices[-1]
                assert check_cover(res.witness, k, res.witness.witnesses)

    def test_petersen_stays_rainbow(self):
        g = gen.petersen()
        res = solver.crx_interval(g, 2)
        assert (res.witness, res.witness.witnesses) == (rainbow_colouring(g), ())

    def test_exactness_matches_solver_on_small(self):
        for g, k in [(gen.complete(4), 2), (gen.wheel(4), 2)]:
            iv = solver.crx_interval(g, k)
            ex = solver.crx_exact(g, k)
            assert iv.lower <= ex.value <= iv.upper


def test_hamilton_fallback_colours_the_found_cycle():
    # a relabelled wheel is no detected family, so its upper bound is the
    # fallback: the Hamilton cycle found, edge i in colour i, the rest 0
    res = solver.crx_interval(_relabelled(gen.wheel(9), 0), 1)
    assert (res.lower, res.upper) == (3, 10)
    assert res.witness.colour_of == (0, 0, 9, 4, 5, 0, 1, 0, 2, 3, 0, 0, 0, 0, 6, 0, 7, 8)


@pytest.mark.parametrize("solve", [solver.crx_exact, solver.crx_interval])
def test_budget_out_in_the_precheck_raises(solve):
    # 10 nodes do not settle Petersen's F_3 membership: no interval comes back
    with pytest.raises(BudgetExceeded):
        solve(gen.petersen(), 3, Budget(10))


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
