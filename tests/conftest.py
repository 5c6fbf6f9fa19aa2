import itertools
import os
import random
import subprocess
import sys

import pytest

from rainbowcycles import generators as gen
from rainbowcycles.graph import Graph


def pytest_addoption(parser):
    parser.addoption(
        "--run-optional", action="store_true", default=False,
        help="run the expensive optional acceptance checks",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-optional"):
        return
    skip = pytest.mark.skip(reason="optional; enable with --run-optional")
    for item in items:
        if "optional" in item.keywords:
            item.add_marker(skip)


def loaded_by_cli_import(module: str) -> bool:
    """Is ``module`` in sys.modules after ``import rainbowcycles.cli`` in a
    fresh interpreter?"""
    import rainbowcycles

    src = os.path.dirname(os.path.dirname(os.path.abspath(rainbowcycles.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, rainbowcycles.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip() == "True"


def theta(a: int, b: int, c: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths of the
    given lengths (each >= 2 keeps the graph simple)."""
    assert min(a, b, c) >= 2 or sorted((a, b, c))[:2] == [2, 2]
    edges = []
    hub0, hub1 = 0, 1
    nxt = 2
    for length in (a, b, c):
        prev = hub0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, hub1))
    return Graph(nxt, tuple(edges))


def two_triangles() -> Graph:
    return Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))


def random_connected_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random spanning tree plus ``extra`` random chords."""
    edges = set()
    for v in range(1, n):
        edges.add(tuple(sorted((v, rng.randrange(v)))))
    pool = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra])
    return Graph(n, tuple(edges))


def small_corpus() -> list[tuple[str, Graph]]:
    """Named graphs plus seeded random ones, all desk-sized."""
    out = [
        ("C3", gen.cycle(3)),
        ("C5", gen.cycle(5)),
        ("C7", gen.cycle(7)),
        ("K4", gen.complete(4)),
        ("K5", gen.complete(5)),
        ("K23", gen.complete_bipartite(2, 3)),
        ("K24", gen.complete_bipartite(2, 4)),
        ("K33", gen.complete_bipartite(3, 3)),
        ("W3", gen.wheel(3)),
        ("W4", gen.wheel(4)),
        ("W5", gen.wheel(5)),
        ("Q2", gen.hypercube(2)),
        ("Q3", gen.hypercube(3)),
        ("theta223", theta(2, 2, 3)),
        ("theta234", theta(2, 3, 4)),
        ("theta333", theta(3, 3, 3)),
        ("two-triangles", two_triangles()),
        ("join23", gen.path_cycle_join(2, 3)),
        ("P4", Graph(4, ((0, 1), (1, 2), (2, 3)))),
        ("triangle+pendant", Graph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))),
    ]
    rng = random.Random(7)
    for i in range(8):
        n = rng.randrange(5, 10)
        extra = rng.randrange(0, min(5, n * (n - 1) // 2 - (n - 1)))
        out.append((f"rand{i}", random_connected_graph(rng, n, extra)))
    return out


@pytest.fixture(scope="session")
def corpus():
    return small_corpus()


# ---------------------------------------------------------------------------
# Brute-force oracles, independent of the library's search paths


def brute_is_k_connected(g: Graph, k: int) -> bool:
    """Definitional check: |V| > k and removing any <= k-1 vertices leaves
    a connected graph."""
    if g.n <= k:
        return False
    for size in range(0, k):
        for cut in itertools.combinations(range(g.n), size):
            left = [v for v in range(g.n) if v not in cut]
            if not left:
                continue
            seen = {left[0]}
            stack = [left[0]]
            while stack:
                x = stack.pop()
                for y, _ in g.adjacency[x]:
                    if y not in cut and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != len(left):
                return False
    return True


_ALL_CYCLES = {}  # (n, edges) -> brute_all_cycles(g); the tests reuse a few graphs often


def brute_all_cycles(g: Graph):
    """Every simple cycle, as a (vertex set, edge id set) pair, by checking
    all rotations of all vertex subsets -- slow but independent. Cached per
    graph."""
    key = (g.n, g.edges)
    if key not in _ALL_CYCLES:
        _ALL_CYCLES[key] = tuple(_list_all_cycles(g))
    return _ALL_CYCLES[key]


def _list_all_cycles(g: Graph):
    for size in range(3, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            rest = subset[1:]
            for perm in itertools.permutations(rest):
                if len(rest) > 1 and perm[0] > perm[-1]:
                    continue  # fix orientation
                cyc = (subset[0],) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % size]) for i in range(size)):
                    eids = frozenset(
                        g.edge_id(cyc[i], cyc[(i + 1) % size]) for i in range(size)
                    )
                    yield frozenset(cyc), eids


def brute_hamilton_cycles(g: Graph):
    """Every Hamilton cycle once, as (0,) + p with p[0] < p[-1], in
    lexicographic order: all permutations p of 1..n-1 are tried."""
    if g.n < 3:
        return []
    return [(0,) + p for p in itertools.permutations(range(1, g.n))
            if p[0] < p[-1] and all(map(g.has_edge, (0,) + p, p + (0,)))]


def brute_colex_cover_pass(n: int, k: int, witnesses, respond):
    """The colex pass over the k-subsets of range(n), one subset at a time
    against every witness: witnesses is a list of vertex sets. Each subset
    that no witness holds is handed to respond(s), which returns the vertex
    sets to add (maybe none), or None to end the pass there. Returns the
    subsets handed over."""
    witnesses = [frozenset(w) for w in witnesses]
    handed = []
    for s in sorted(itertools.combinations(range(n), k), key=lambda t: t[::-1]):
        if not any(w.issuperset(s) for w in witnesses):
            handed.append(s)
            added = respond(s)
            if added is None:
                break
            witnesses += map(frozenset, added)
    return handed


def brute_lex_shortest_path(g: Graph, start: int, ends, blocked=()):
    """The shortest, then lexicographically least, simple path from start to
    a vertex of ends whose interior avoids ends and blocked, as a vertex
    tuple, or None; found by listing every such path."""
    best = None
    stack = [(start,)]
    while stack:
        path = stack.pop()
        for w, _ in g.adjacency[path[-1]]:
            if w in path:
                continue
            if w in ends:
                found = path + (w,)
                if best is None or (len(found), found) < (len(best), best):
                    best = found
            elif w not in blocked:
                stack.append(path + (w,))
    return best


def brute_has_rainbow_cycle_through(colouring, s) -> bool:
    g = colouring.graph
    ss = set(s)
    for verts, eids in brute_all_cycles(g):
        if ss <= verts and len({colouring.colour_of[e] for e in eids}) == len(eids):
            return True
    return False


def brute_subdivided_closed_walk_exists(g: Graph, s, colouring=None) -> bool:
    """Definitional check for an S-subdivided closed walk through the ordered
    tuple s: every simple path of length >= 2 between each pair of distinct
    consecutive anchors is listed, and one path per pair is chosen so that no
    internal vertex is an anchor or internal to another path, no edge repeats
    and, with a colouring, no colour repeats."""
    s = tuple(s)
    anchors = set(s)
    pairs = [(s[i], s[(i + 1) % len(s)]) for i in range(len(s))]
    pairs = [(a, b) for a, b in pairs if a != b]

    def simple_paths(a, b):
        out = []
        stack = [(a, (a,))]
        while stack:
            v, path = stack.pop()
            for w, _ in g.adjacency[v]:
                if w == b and len(path) >= 2:
                    out.append(path + (w,))
                elif w not in anchors and w not in path:
                    stack.append((w, path + (w,)))
        return out

    options = []
    for a, b in pairs:
        paths = []
        for path in simple_paths(a, b):
            eids = [g.edge_id(x, y) for x, y in zip(path, path[1:])]
            labels = eids if colouring is None else [colouring.colour_of[e] for e in eids]
            if len(set(labels)) == len(labels):
                paths.append((frozenset(path[1:-1]), frozenset(labels)))
        options.append(paths)

    def choose(i, inner, labels):
        if i == len(options):
            return True
        return any(
            choose(i + 1, inner | p_inner, labels | p_labels)
            for p_inner, p_labels in options[i]
            if not inner & p_inner and not labels & p_labels
        )

    return choose(0, frozenset(), frozenset())


def brute_subtrees(g: Graph):
    """(vertex set, edge ids) of every subtree with at least one edge, found
    by checking every edge subset of at most n - 1 edges."""
    def find(root, v):
        while root[v] != v:
            v = root[v]
        return v

    trees = []
    for size in range(1, g.n):
        for eids in itertools.combinations(range(g.e), size):
            root = list(range(g.n))  # union-find over the chosen edges
            acyclic = True
            for e in eids:
                a, b = (find(root, v) for v in g.edges[e])
                acyclic = acyclic and a != b
                root[a] = b
            verts = frozenset(v for e in eids for v in g.edges[e])
            if acyclic and len(verts) == size + 1:  # so the forest is one tree
                trees.append((verts, eids))
    return trees


def _brute_least_colouring(g: Graph, k: int, structures):
    """(value, colours of the first feasible colouring) for the index whose
    k-subsets must each lie in a rainbow structure, given as (vertex set, edge
    ids) pairs. Colourings are taken as restricted-growth strings with exactly
    r values, r = 1, 2, ..., each in lexicographic order."""
    options = [[eids for verts, eids in structures if set(s) <= verts]
               for s in itertools.combinations(range(g.n), k)]
    assert all(options), "some k-subset lies in no structure"

    def strings(prefix, top, r):
        if len(prefix) == g.e:
            if top == r - 1:
                yield prefix
            return
        for c in range(min(top + 2, r)):
            yield from strings(prefix + (c,), max(top, c), r)

    for r in range(1, g.e + 1):
        for colours in strings((), -1, r):
            if all(any(len({colours[e] for e in eids}) == len(eids) for eids in opts)
                   for opts in options):
                return r, colours
    raise AssertionError("the rainbow colouring makes every structure rainbow")


def brute_rainbow_index(g: Graph, k: int):
    """rx_k by definition for k >= 2: every k-subset lies in a rainbow tree
    from brute_subtrees."""
    return _brute_least_colouring(g, k, brute_subtrees(g))


def brute_cycle_index(g: Graph, k: int):
    """crx_k by definition for g in F_k: every k-subset lies on a rainbow
    cycle from brute_all_cycles."""
    return _brute_least_colouring(g, k, brute_all_cycles(g))
