import itertools
from collections import deque

import pytest

from conftest import loaded_by_cli_import
from rainbowcycles import generators as gen
from rainbowcycles.errors import InvalidParameter, SpreadTooSmall
from rainbowcycles.graph import girth, is_connected


def bfs_distance(g, s, t):
    dist = {s: 0}
    q = deque([s])
    while q:
        v = q.popleft()
        if v == t:
            return dist[v]
        for w, _ in g.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return None


class TestFamilies:
    def test_cycle(self):
        g = gen.cycle(5)
        assert (g.n, g.e) == (5, 5)
        assert all(g.degree(v) == 2 for v in range(5))

    def test_complete(self):
        g = gen.complete(6)
        assert (g.n, g.e) == (6, 15)

    def test_complete_bipartite(self):
        g = gen.complete_bipartite(2, 3)
        assert (g.n, g.e) == (5, 6)
        assert girth(g) == 4

    def test_complete_multipartite(self):
        g = gen.complete_multipartite((1, 2, 3))
        assert (g.n, g.e) == (6, 11)
        with pytest.raises(InvalidParameter):
            gen.complete_multipartite((3, 1, 2))

    def test_wheel3_is_k4(self):
        assert gen.wheel(3).edges == gen.complete(4).edges

    def test_wheel_labelling(self):
        g = gen.wheel(5)
        assert g.degree(5) == 5
        assert all(g.degree(v) == 3 for v in range(5))

    def test_hypercube_counts(self):
        g = gen.hypercube(3)
        assert (g.n, g.e) == (8, 12)
        assert all(g.degree(v) == 3 for v in range(8))
        assert gen.hypercube(4).e == 2 ** 3 * 4

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hypercube_distance_is_hamming(self, n):
        g = gen.hypercube(n)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert bfs_distance(g, u, v) == gen.hamming_distance(u, v)

    def test_petersen(self):
        g = gen.petersen()
        assert (g.n, g.e) == (10, 15)
        assert girth(g) == 5
        assert all(g.degree(v) == 3 for v in range(10))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            gen.cycle(2)
        with pytest.raises(InvalidParameter):
            gen.wheel(2)
        with pytest.raises(InvalidParameter):
            gen.hypercube(0)


class TestPathCycleJoin:
    def test_k1_is_plain_cycle(self):
        assert gen.path_cycle_join(1, 5).edges == gen.cycle(5).edges

    def test_k2_t3_is_wheel6(self):
        g = gen.path_cycle_join(2, 3)
        w = gen.wheel(6)
        # relabel: join centre is vertex 0, wheel centre is vertex 6
        remap = {0: 6, **{1 + i: i for i in range(6)}}
        mapped = sorted(
            tuple(sorted((remap[u], remap[v]))) for u, v in g.edges
        )
        assert tuple(mapped) == w.edges

    def test_3_3_counts(self):
        g = gen.path_cycle_join(3, 3)
        assert (g.n, g.e) == (11, 28)  # 1 path edge + 9 cycle + 18 join

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            gen.path_cycle_join(1, 2)  # kt = 2 < 3

    def test_connected(self):
        assert is_connected(gen.path_cycle_join(3, 2))


_BIPARTITE_SIZES = [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (4, 7)]
_MULTIPARTITE_SIZES = [(1, 1, 1), (1, 2, 3), (2, 2, 2), (1, 1, 2, 2), (2, 3, 3, 4)]


class TestFamilySymmetries:
    """Each permutation of the table is an automorphism of its canonical
    graph, none is the identity, and there are as many as the family has
    rotations, reflections, translations or shifts of K_n."""

    @pytest.mark.parametrize("kind, param, count", (
        [("wheel", n, 2 * n - 1) for n in range(3, 17)]
        + [("hypercube", d, 2 ** d - 1) for d in range(1, 7)]
        + [("complete", n, n - 1) for n in range(1, 10)]
        + [("cycle", 6, 0)]  # a kind outside the table gets none
    ))
    def test_automorphisms_of_the_canonical_graph(self, kind, param, count):
        # complete (multi)partite graphs get their class shifts from their
        # twins (test_graph_core.py TestTwins)
        g = getattr(gen, kind)(param)
        perms = gen._family_symmetries(kind, param)
        assert len(perms) == count
        assert len({tuple(p) for p in perms}) == count
        edges = {frozenset(e) for e in g.edges}
        for p in perms:
            assert sorted(p) == list(range(g.n))
            assert p != list(range(g.n))
            assert {frozenset((p[u], p[v])) for u, v in g.edges} == edges

    @pytest.mark.parametrize("sizes", _BIPARTITE_SIZES + _MULTIPARTITE_SIZES)
    def test_class_shifts_move_each_vertex_around_its_class(self, sizes):
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        classes = [range(a, a + s) for a, s in zip(starts, sizes)]
        shifts = gen._class_shifts(sum(sizes), classes)
        for cls in classes:
            for v in cls:
                assert {p[v] for p in shifts} | {v} == set(cls)


class TestCubeSplit:
    def test_roundtrip(self):
        split = gen.CubeSplit(3, 2)
        for v in range(32):
            hat, tilde = split.split(v)
            assert split.combine(hat, tilde) == v
            assert 0 <= hat < 8 and 0 <= tilde < 4


class TestHadamard:
    def test_order_one(self):
        h = gen.sylvester_hadamard(0)
        assert h.entries == ((1,),)

    def test_order_two(self):
        h = gen.sylvester_hadamard(1)
        assert h.entries == ((1, 1), (1, -1))

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_columns_orthogonal(self, t):
        assert gen.sylvester_hadamard(t).is_orthogonal()

    def test_first_row_all_ones(self):
        h = gen.sylvester_hadamard(3)
        assert all(x == 1 for x in h.entries[0])

    def test_order_eight_matches_block_recursion(self):
        m = [[1]]
        for _ in range(3):
            m = [row + row for row in m] + [row + [-x for x in row] for row in m]
        assert gen.sylvester_hadamard(3).entries == tuple(tuple(row) for row in m)


def test_cli_import_does_not_load_numpy():
    assert not loaded_by_cli_import("numpy")


class TestSpreadVertices:
    def test_4_64(self):
        vs = gen.hadamard_spread_vertices(4, 64)
        assert len(vs) == 4
        for a, b in itertools.combinations(vs, 2):
            d = gen.hamming_distance(a, b)
            assert d >= 42 and d > 32

    def test_2_9(self):
        vs = gen.hadamard_spread_vertices(2, 9)
        (a, b) = vs
        assert gen.hamming_distance(a, b) >= 6

    def test_4_8_too_small(self):
        with pytest.raises(SpreadTooSmall):
            gen.hadamard_spread_vertices(4, 8)

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 16), (4, 9), (5, 49), (8, 49), (6, 60)])
    def test_distance_postcondition(self, k, n):
        vs = gen.hadamard_spread_vertices(k, n)
        assert len(vs) == k
        for a, b in itertools.combinations(vs, 2):
            assert 2 * gen.hamming_distance(a, b) > n
