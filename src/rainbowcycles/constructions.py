"""Explicit edge-colouring constructions and obstruction finders.

Every constructor self-verifies its output before returning (skippable with
``verify=False`` for large instances) and raises ConstructionRejected instead
of handing back an uncertified colouring. A self-verified colouring carries
the witnesses of its verification (EdgeColouring.witnesses), so a later
verification re-checks them instead of searching again. Colours are 0-based;
published 1-based schemes are shifted uniformly.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import replace

from .colouring import EdgeColouring, WalkWitness, check_walk_witness, rainbow_colouring
from .errors import (
    AttemptsExhausted,
    BaseWalkNotFound,
    ConstructionRejected,
    InvalidParameter,
    IsCycle,
    MinimallyTwoConnected,
    NotInFamily,
    RegimeUnsupported,
)
from .generators import (
    CubeSplit,
    _family_symmetries,
    complete,
    complete_bipartite,
    complete_multipartite,
    hypercube,
    path_cycle_join,
    petersen,
    wheel,
)
from .graph import (
    Budget,
    Graph,
    _bfs_path,
    _is_cycle_graph,
    _twin_shifts,
    block_decomposition,
    cycle_vertices_to_edge_ids,
    ear_decomposition,
    enumerate_simple_cycles,
    in_family_Fk,
    induced_subgraph,
    is_k_connected,
    is_minimally_2_connected,
)
from .search import (
    find_subdivided_closed_walk,
    verify_k_rainbow_cycle_colouring,
    verify_k_rainbow_index_colouring,
)


def _certify(c: EdgeColouring, k: int, label: str, verify: bool = True, budget=None,
             verifier=None, symmetries=()) -> EdgeColouring:
    """Self-verify with ``verifier`` (default
    verify_k_rainbow_cycle_colouring, looked up when called), which checks
    the vertex permutations in ``symmetries`` and adds each witness's images
    under the ones that map c onto itself up to a renaming of colours; a
    verified colouring comes back carrying the report's witnesses, images
    included."""
    if verify:
        report = (verifier or verify_k_rainbow_cycle_colouring)(c, k, budget,
                                                                 symmetries=symmetries)
        if not report.certified:
            raise ConstructionRejected(
                f"{label}: self-verification found bad {k}-set {report.bad_set}",
                bad_set=report.bad_set,
            )
        return replace(c, witnesses=report.witnesses)
    return c


# ---------------------------------------------------------------------------
# Wheels


def _wheel_colours_k1(n):
    cols = {}
    for i in range(n):
        cols[(i, (i + 1) % n)] = 2
        cols[(i, n)] = 0 if i % 2 == 1 else 1
    return cols, 3


def _wheel_colours_w3():
    # spoke to v_i and the opposite rim edge share colour i
    cols = {}
    for i in range(3):
        cols[(i, 3)] = i
        cols[((i + 1) % 3, (i + 2) % 3)] = i
    return cols, 3


def _wheel_colours_k2(n):
    half = -(-n // 2)  # ceil(n/2)
    cols = {}
    for i in range(1, n + 1):
        cols[((i - 1) % n, i % n)] = (i - 1) % half
    for i in range(n):
        cols[(i, n)] = half if i < half else half + 1
    return cols, half + 2


def _wheel_colours_k3(n):
    cols = {}
    if 4 <= n <= 7:
        for i in range(1, n + 1):
            cols[((i - 1) % n, i % n)] = (i - 1) % (n - 2)
        cols[(0, n)] = cols[(1, n)] = n - 2
        for i in (2, n - 2, n - 1):
            cols[(i, n)] = n - 1
        for i in range(3, n - 2):
            cols[(i, n)] = n - 1  # spokes off the four key cycles
        return cols, n
    if 8 <= n <= 11:
        cols[(0, 1)] = cols[(4, 5)] = 0
        cols[(2, 3)] = cols[(6, 7)] = 1
        for i in (2, 4, 6, 8):
            cols[(i - 2, n)] = cols[((i - 1) % n, i % n)] = i // 2 + 1
        for i in range(9, n + 1):
            cols[((i - 1) % n, i % n)] = i - 3
        for i in (1, 3, 5, 7):
            cols[(i, n)] = n - 2
        for i in range(8, n):
            cols[(i, n)] = n - 2  # spokes off the four key cycles
        return cols, n - 1
    # n >= 12
    cols[(0, 1)] = cols[(6, 7)] = 0
    cols[(3, 4)] = cols[(9, 10)] = 1
    for i in (2, 5, 8, 11):
        cols[(i - 2, n)] = cols[(i - 1, i)] = 2 * (i + 1) // 3
    for i in (3, 6, 9):
        cols[(i + 1, n)] = cols[(i - 1, i)] = 2 * i // 3 + 1
    cols[(1, n)] = 9
    cols[(11, 12 % n)] = 9
    for i in range(13, n + 1):
        cols[((i - 1) % n, i % n)] = i - 3
    for i in range(n):
        cols.setdefault((i, n), 9)  # spokes off the four key cycles
    return cols, n - 2


def _wheel_colours_k_ge4(n, k):
    if n < 2 * k:
        # rainbow Hamilton cycle centre, v_0, ..., v_{n-1}, centre;
        # the unused rim edge and spokes reuse colour 0
        cols = {(0, n): 0, (n - 1, n): n, (n - 1, 0): 0}
        for i in range(1, n):
            cols[(i - 1, i)] = i
        for i in range(1, n - 1):
            cols[(i, n)] = 0
        return cols, n + 1
    cols = {}
    for i in range(1, n + 1):
        cols[((i - 1) % n, i % n)] = i - 1
    hi = 2 * k - 1 if k % 2 == 0 else 2 * k - 7
    for j in range(0, hi + 1):
        cols[(j, n)] = j + 1 if j % 4 in (0, 1) else j - 2
    if k % 2 == 1:
        cols[(2 * k - 6, n)] = cols[(2 * k - 2, n)] = 2 * k - 5
        cols[(2 * k - 5, n)] = cols[(2 * k - 1, n)] = 2 * k - 3
        cols[(2 * k - 4, n)] = 2 * k - 6
        cols[(2 * k - 3, n)] = 2 * k - 2
    for j in range(2 * k, n):
        cols[(j, n)] = 0  # spokes off the key cycles
    return cols, n


def colour_wheel(n: int, k: int, verify: bool = True, budget=None) -> EdgeColouring:
    """k-rainbow cycle colouring of the wheel W_n at the exact theorem value:
    3 (k=1); 3 or ceil(n/2)+2 (k=2); n / n-1 / n-2 by regime (k=3);
    n+1 if n < 2k else n (k >= 4)."""
    if n < 3 or not 1 <= k <= n + 1:
        raise InvalidParameter("wheel colouring needs n >= 3 and 1 <= k <= n+1")
    g = wheel(n)
    if k == 1:
        cols, r = _wheel_colours_k1(n)
    elif k in (2, 3) and n == 3:
        cols, r = _wheel_colours_w3()
    elif k == 2:
        cols, r = _wheel_colours_k2(n)
    elif k == 3:
        cols, r = _wheel_colours_k3(n)
    else:
        cols, r = _wheel_colours_k_ge4(n, k)
    colour_of = [0] * g.e
    for (u, v), c in cols.items():
        colour_of[g.edge_id(u, v)] = c
    out = EdgeColouring(g, tuple(colour_of), r)
    return _certify(out, k, f"colour_wheel(n={n}, k={k})", verify, budget)


# ---------------------------------------------------------------------------
# Complete graphs


def colour_complete_2rainbow(n: int, verify: bool = True, budget=None) -> EdgeColouring:
    """Inductive 3-colouring of K_n in which every vertex pair spans a rainbow
    triangle: for odd old order, anchor the new vertex on a rainbow triangle;
    then pair the remaining old vertices and give the two new edges of each
    pair the colours missing from the pair's own edge."""
    if n < 3:
        raise InvalidParameter("need n >= 3")
    col = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
    for m in range(4, n + 1):
        u = m - 1
        old = list(range(m - 1))
        rest = old
        if (m - 1) % 2 == 1:
            anchor = next(
                t for t in itertools.combinations(old, 3)
                if {col[(t[0], t[1])], col[(t[0], t[2])], col[(t[1], t[2])]} == {0, 1, 2}
            )
            x1, x2, x3 = anchor
            col[(x1, u)] = col[(x2, x3)]
            col[(x2, u)] = col[(x1, x3)]
            col[(x3, u)] = col[(x1, x2)]
            rest = [v for v in old if v not in anchor]
        for a, b in zip(rest[::2], rest[1::2]):
            free = sorted({0, 1, 2} - {col[(a, b)]})
            col[(a, u)], col[(b, u)] = free
    g = complete(n)
    out = EdgeColouring(g, tuple(col[e] for e in g.edges), 3)
    return _certify(out, 2, f"colour_complete_2rainbow(n={n})", verify, budget)


def _random_until_certified(g: Graph, k: int, r: int, seed, max_attempts: int,
                            budget, label: str) -> EdgeColouring:
    """Samples until one verifies; the F_k precheck and every try spend one budget."""
    if max_attempts < 1:
        raise InvalidParameter("need max_attempts >= 1")
    b = Budget.of(budget)
    if not in_family_Fk(g, k, b):
        raise NotInFamily(k)
    rng = random.Random(seed)
    for _ in range(max_attempts):
        colours = tuple(rng.randrange(r) for _ in range(g.e))
        c = EdgeColouring(g, colours, r, unused_ok=True)
        report = verify_k_rainbow_cycle_colouring(c, k, b, check_family=False)
        if report.certified:
            return replace(c, witnesses=report.witnesses)
    raise AttemptsExhausted(max_attempts, f"{label}: {max_attempts} samples all failed")


def colour_complete_random(n: int, k: int, seed, max_attempts: int,
                           budget=None) -> EdgeColouring:
    """Seeded uniform (2k-1)-colourings of K_n until one verifies for k."""
    if k < 3:
        raise InvalidParameter("randomised complete-graph colouring needs k >= 3")
    if n < k:
        raise InvalidParameter("need n >= k")
    return _random_until_certified(
        complete(n), k, 2 * k - 1, seed, max_attempts, budget,
        f"colour_complete_random(n={n}, k={k}, seed={seed})",
    )


# ---------------------------------------------------------------------------
# Complete bipartite graphs


def _smallest_r_with_binom3_at_least(n: int) -> int:
    r = 3
    while r * (r - 1) * (r - 2) // 6 < n:
        r += 1
    return r


def bipartite_regime(m: int, n: int, k: int) -> str:
    """Name the construction covering (m, n, k); RegimeUnsupported outside."""
    if not 2 <= m <= n:
        raise InvalidParameter("need 2 <= m <= n")
    if k < 1:
        raise InvalidParameter("k must be positive")
    if k == 1:
        return "four"
    if k == 2:
        if m == 2:
            return "rainbow"
        if m == 3:
            if n >= 36:
                return "colex"
            raise RegimeUnsupported("k=2, m=3 is only covered for n >= 36")
        return "eight"
    if m == k:
        return "rainbow"
    if m >= 3 * k:
        return "sixk"
    raise RegimeUnsupported(
        f"crx_{k}(K_{{{m},{n}}}) has no known construction for k < m < 3k"
    )


def _colex_triples(r: int, count: int):
    out = []
    for top in range(2, r):
        for mid in range(1, top):
            for low in range(mid):
                out.append((low, mid, top))
                if len(out) == count:
                    return out
    raise InvalidParameter("not enough 3-sets of colours")


def _bipartite_colour_map(m: int, n: int, k: int, regime: str):
    """Colour per (u_index 0..m-1, v_index 0..n-1); returns (map, r)."""
    col = {}
    if regime == "four":
        for i in range(m):
            for j in range(n):
                col[(i, j)] = 0 if (i, j) == (0, 0) else 1 if i == 0 else 2 if j == 0 else 3
        return col, 4
    if regime == "rainbow":
        for c, (i, j) in enumerate(itertools.product(range(m), range(n))):
            col[(i, j)] = c
        return col, m * n
    if regime == "colex":
        r = _smallest_r_with_binom3_at_least(n)
        col[(0, 2)] = col[(1, 0)] = col[(2, 1)] = r - 2
        col[(0, 1)] = col[(1, 2)] = col[(2, 0)] = r - 1
        for i in range(3):
            col[(i, i)] = r - 5 + i
        # remaining v's carry the initial colex 3-sets, in vertex-id order
        for j, triple in enumerate(_colex_triples(r, n - 3), start=3):
            for i in range(3):
                col[(i, j)] = triple[i]
        return col, r
    if regime == "eight":
        special = {0: (3, 2, 1) + (0,) * (m - 3), 1: (4, 5, 6) + (7,) * (m - 3),
                   2: (7, 6, 5) + (4,) * (m - 3)}
        default = (0, 1, 2) + (3,) * (m - 3)
        for j in range(n):
            vec = special.get(j, default)
            for i in range(m):
                col[(i, j)] = vec[i]
        return col, 8
    if regime == "sixk":
        kk = 2 * k
        for i in range(m):
            for j in range(n):
                if i < kk and j < kk:
                    col[(i, j)] = (i - j) % kk
                elif i >= kk and j < kk:
                    col[(i, j)] = kk + j
                elif i < kk:
                    col[(i, j)] = 2 * kk + i
                else:
                    col[(i, j)] = 0  # residual block reuses the first colour
        return col, 6 * k
    raise InvalidParameter(f"unknown regime {regime!r}")


def colour_bipartite(m: int, n: int, k: int, regime: str = "auto",
                     verify: bool = True, budget=None) -> EdgeColouring:
    """Colour K_{m,n} for k at the covered regime's exact theorem value:
    4 (k=1); 2n, r with binom(r-1,3) < n <= binom(r,3), or 8 (k=2 by m);
    kn (m = k) or 6k (m >= 3k) for general k.

    The self-verification gets the shifts of the colouring's twin classes
    (graph._twin_shifts) as symmetries, so it searches about one subset
    per twin orbit."""
    auto = bipartite_regime(m, n, k)
    if regime == "auto":
        regime = auto
    elif regime == "sixk" and k >= 2 and 3 * k <= m:
        pass  # explicitly requested and applicable
    elif regime != auto:
        raise RegimeUnsupported(f"regime {regime!r} does not cover (m={m}, n={n}, k={k})")
    col, r = _bipartite_colour_map(m, n, k, regime)
    g = complete_bipartite(m, n)
    colour_of = [0] * g.e
    for (i, j), c in col.items():
        colour_of[g.edge_id(i, m + j)] = c
    out = EdgeColouring(g, tuple(colour_of), r)
    return _certify(out, k, f"colour_bipartite(m={m}, n={n}, k={k}, {regime})",
                    verify, budget, symmetries=_twin_shifts(g, colour_of) if verify else ())


# ---------------------------------------------------------------------------
# Complete multipartite graphs


def colour_multipartite_blowup(sizes, verify: bool = True, budget=None) -> EdgeColouring:
    """Blow-up of the 3-coloured K_t onto classes of the given sizes: an edge
    inherits the colour of its class pair. So the vertices of a class are
    twins, and the self-verification gets the cyclic shifts of each class
    as symmetries (graph._twin_shifts)."""
    sizes = tuple(int(s) for s in sizes)
    t = len(sizes)
    if t < 3:
        raise InvalidParameter("need at least 3 classes")
    g = complete_multipartite(sizes)
    kt = colour_complete_2rainbow(t, verify=False)
    base = {e: kt.colour_of[i] for i, e in enumerate(kt.graph.edges)}
    cls = []
    for idx, s in enumerate(sizes):
        cls.extend([idx] * s)
    colour_of = tuple(base[(cls[u], cls[v])] for u, v in g.edges)
    out = EdgeColouring(g, colour_of, 3)
    return _certify(out, 1, f"colour_multipartite_blowup({sizes})", verify, budget,
                    symmetries=_twin_shifts(g, colour_of) if verify else ())


def colour_balanced_multipartite_random(t: int, n: int, k: int, seed,
                                        max_attempts: int, budget=None) -> EdgeColouring:
    """Seeded uniform 2k-colourings of K_{t x n} until one verifies for k."""
    if t < 2 or k < 2:
        raise InvalidParameter("need t >= 2 and k >= 2")
    if n < k:
        raise InvalidParameter("need n >= k")
    return _random_until_certified(
        complete_multipartite((n,) * t), k, 2 * k, seed, max_attempts, budget,
        f"colour_balanced_multipartite_random(t={t}, n={n}, k={k}, seed={seed})",
    )


# ---------------------------------------------------------------------------
# Hypercubes


def _q2_face_colour(u: int, v: int) -> int:
    return {(0, 1): 0, (0, 2): 1, (1, 3): 2, (2, 3): 3}[(u & 3, v & 3)]


def colour_cube(n: int, k: int, verify: bool = True, budget=None) -> EdgeColouring:
    """Colour Q_n for k in {1, 2, 3} or k >= 2^{n-1}: 4 colours via rainbow
    Q_2 faces (k=1); 2n colours via the parity induction (k=2,3); 2^n colours
    via a rainbow Gray-code Hamilton cycle (k >= 2^{n-1}).

    For k = 2, 3 the self-verification gets the 2^n - 1 translations
    v -> v XOR t, t != 0, of Q_n as symmetries, from the family table
    (generators._family_symmetries). Each one maps the colouring onto
    itself up to a renaming of colours, so one witness stands for its
    whole orbit. k = 1 gets none, as checking them costs more than the
    searches they save, and neither does the Gray-code regime: its one
    rainbow Hamilton cycle holds every subset."""
    if n < 2:
        raise InvalidParameter("need n >= 2")
    if not 1 <= k <= 1 << n:
        raise InvalidParameter(f"k must lie in 1..{1 << n}, the vertices of Q_{n}")
    if not (k in (1, 2, 3) or k >= 1 << (n - 1)):
        raise RegimeUnsupported(
            f"crx_{k}(Q_{n}) for 4 <= k < 2^(n-1) needs colour_cube_recursive"
        )
    g = hypercube(n)
    if k in (2, 3):
        colour_of = []
        for u, v in g.edges:
            b = (u ^ v).bit_length() - 1
            if b <= 1:
                colour_of.append(_q2_face_colour(u, v))
            else:
                # crossing edges of the Q_{b+1} level split by low-bit parity
                colour_of.append(2 * b + ((u & ((1 << b) - 1)).bit_count() & 1))
        r = 2 * n
    elif k == 1:
        colour_of = [
            _q2_face_colour(u, v) if (u ^ v) <= 2 else 0 for u, v in g.edges
        ]
        r = 4
    else:
        size = 1 << n
        gray = [i ^ (i >> 1) for i in range(size)]
        ham = {}
        for i in range(size):
            a, b = gray[i], gray[(i + 1) % size]
            ham[(min(a, b), max(a, b))] = i
        colour_of = [ham.get(e, 0) for e in g.edges]
        r = size
    out = EdgeColouring(g, tuple(colour_of), r)
    translations = _family_symmetries("hypercube", n) if verify and k in (2, 3) else []
    return _certify(out, k, f"colour_cube(n={n}, k={k})", verify, budget,
                    symmetries=translations)


def recursive_cube_colour_count(n: int, block: int) -> int:
    """Colour count of colour_cube_recursive: a rainbow base plus one fresh
    rainbow Q_K layer per recursion level."""
    if n <= 2 * block - 1:
        return (1 << (n - 1)) * n
    return recursive_cube_colour_count(n - block, block) + (1 << (block - 1)) * block


def colour_cube_recursive(n: int, k: int, block: int) -> EdgeColouring:
    """Layered colouring of Q_n for k >= 4: cubes up to Q_{2K-1} are rainbow,
    larger ones split as Q_{n-K} blown up over Q_K with disjoint colour sets.

    The colouring is purely structural; rainbow walk witnesses come from
    recursive_cube_walk. A split colouring carries one partition per
    coordinate block as its quotients, the base block (the low coordinates
    left once every K-block is split off) first: the part of v is v's
    coordinates in that block. The edges between two adjacent parts are the
    copies of one edge of that block's cube, all in one colour, so a rainbow
    walk crosses each edge of each block's cube at most once, which lets
    the walk search refute many tuples before it runs
    (search.find_subdivided_closed_walk). The blocks cover every
    coordinate, so every edge joins different parts in the block of the
    coordinate it flips, and the search may sum a path's crossings over the
    blocks. A rainbow Q_n carries none.
    """
    if block < 2:
        raise InvalidParameter("need block K >= 2")
    if k < 4:
        raise InvalidParameter("use colour_cube for k <= 3")
    if k > 1 << n:
        raise InvalidParameter(f"k must lie in 4..{1 << n}, the vertices of Q_{n}")
    g = hypercube(n)
    if n <= 2 * block - 1:
        return rainbow_colouring(g)
    split = CubeSplit(n - block, block)
    hat = colour_cube_recursive(n - block, 4, block)  # the layers do not depend on k
    tilde = rainbow_colouring(hypercube(block))
    shift = hat.r
    colour_of = []
    for u, v in g.edges:
        hu, tu = split.split(u)
        hv, tv = split.split(v)
        if tu == tv:
            colour_of.append(hat.colour_of[hat.graph.edge_id(hu, hv)])
        else:
            colour_of.append(shift + tilde.colour_of[tilde.graph.edge_id(tu, tv)])
    base = n - block
    while base > 2 * block - 1:
        base -= block
    blocks = [(0, base)] + [(low, block) for low in range(base, n, block)]
    quotients = tuple(tuple((v >> low) & ((1 << width) - 1) for v in range(g.n))
                      for low, width in blocks)
    out = EdgeColouring(g, tuple(colour_of), shift + tilde.r, quotients=quotients)
    assert out.r == recursive_cube_colour_count(n, block)
    return out


@functools.cache
def _cube(n: int) -> Graph:
    """One Q_n per dimension for recursive_cube_walk, so that the distance
    and toward rows its base searches read are computed once per process."""
    return hypercube(n)


def recursive_cube_walk(n: int, block: int, s, colouring: EdgeColouring | None = None,
                        budget=None) -> WalkWitness:
    """Rainbow S-subdivided closed walk in the layered cube colouring.

    Base cubes are searched exactly; a recursion level splices the two copies
    of each hat path at its first internal vertex with the matching tilde
    path, so the walk uses each inherited colour at most once. Raises
    BaseWalkNotFound when a base cube has no walk for a projected tuple
    (a larger K is then needed). Every base search spends one budget.
    A colouring given is one of Q_n, whose graph the search and the check
    reuse; a graph of another size raises InvalidParameter. Without one, each
    dimension's cube is built once and shared by every call (_cube).
    """
    if block < 2:
        raise InvalidParameter("need block K >= 2")
    s = tuple(s)
    budget = Budget.of(budget)
    if colouring is None:
        g = _cube(n)
    else:
        g = colouring.graph
        if g.n != 1 << n or 2 * g.e != n << n:
            raise InvalidParameter(f"the colouring's graph is not the size of Q_{n}")
    if n <= 2 * block - 1:
        w = find_subdivided_closed_walk(g, s, budget=budget)
        if w is None:
            raise BaseWalkNotFound(f"Q_{n} has no subdivided closed walk for {s}")
        return w
    split = CubeSplit(n - block, block)
    hats = tuple(split.split(v)[0] for v in s)
    tildes = tuple(split.split(v)[1] for v in s)
    hat_walk = recursive_cube_walk(n - block, block, hats, budget=budget)
    tilde_walk = recursive_cube_walk(block, block, tildes, budget=budget)
    k = len(s)
    paths = []
    for i in range(k):
        a, b = s[i], s[(i + 1) % k]
        if a == b:
            paths.append((a,))
            continue
        ha, ta = split.split(a)
        hb, tb = split.split(b)
        tpath = tilde_walk.paths[i]
        if ha == hb:
            paths.append(tuple(split.combine(ha, t) for t in tpath))
            continue
        lpath = hat_walk.paths[i]
        u = lpath[1]  # first internal vertex of the hat path
        head = [split.combine(x, ta) for x in lpath[:2]]
        mid = [split.combine(u, t) for t in tpath[1:]] if ta != tb else []
        tail = [split.combine(x, tb) for x in lpath[2:]]
        paths.append(tuple(head + mid + tail))
    witness = WalkWitness(s, tuple(paths))
    if not check_walk_witness(g, witness, colouring,
                              require_rainbow=colouring is not None):
        raise ConstructionRejected(f"spliced walk for {s} failed validation")
    return witness


# ---------------------------------------------------------------------------
# Colour-saving constructions behind the crx = e(G) classifications


def colour_save_one_crx1(g: Graph, verify: bool = True, budget=None) -> EdgeColouring:
    """Rainbow cycle colouring of a non-cycle F_1 graph with e(G)-1 colours.

    2-connected case: rainbow G-e for an edge e of the final ear, then e
    reuses a colour from outside the ear and its return path. Otherwise all
    blocks are rainbow and the first two blocks share one colour.
    """
    if _is_cycle_graph(g):
        raise IsCycle("a lone cycle needs all e(G) colours")
    if not in_family_Fk(g, 1):
        raise NotInFamily(1)
    m = g.e
    if is_k_connected(g, 2):
        ears = ear_decomposition(g)
        last = ears.ears[-1]
        ear_edges = {g.edge_id(a, b) for a, b in zip(last, last[1:])}
        e0 = min(ear_edges)
        before = Graph(g.n, tuple(uv for i, uv in enumerate(g.edges) if i not in ear_edges))
        ret = _bfs_path(before, last[0], {last[-1]})
        off_limits = ear_edges | {g.edge_id(a, b) for a, b in zip(ret, ret[1:])}
        colour_of = [0] * m
        nxt = 0
        for eid in range(m):
            if eid != e0:
                colour_of[eid] = nxt
                nxt += 1
        colour_of[e0] = min(
            colour_of[eid] for eid in range(m) if eid != e0 and eid not in off_limits
        )
    else:
        dec = block_decomposition(g)
        edged = [b for b in dec.blocks if b.edge_ids]
        colour_of = list(range(m))
        colour_of[min(edged[1].edge_ids)] = colour_of[min(edged[0].edge_ids)]
        seen = {}
        colour_of = [seen.setdefault(c, len(seen)) for c in colour_of]
    out = EdgeColouring(g, tuple(colour_of), m - 1)
    return _certify(out, 1, "colour_save_one_crx1", verify, budget)


def colour_save_one_crx2(g: Graph, verify: bool = True, budget=None) -> EdgeColouring:
    """2-rainbow cycle colouring with e(G)-1 colours of a 2-connected but not
    minimally 2-connected graph: G-e is rainbow for a removable e, and e
    reuses colour 0."""
    if not is_k_connected(g, 2):
        raise NotInFamily(2)
    removable = next(
        (eid for eid in range(g.e) if is_k_connected(g.without_edge(eid), 2)), None
    )
    if removable is None:
        raise MinimallyTwoConnected("every edge is essential; crx_2 = e(G)")
    colour_of = [0] * g.e
    nxt = 0
    for eid in range(g.e):
        if eid != removable:
            colour_of[eid] = nxt
            nxt += 1
    colour_of[removable] = 0
    out = EdgeColouring(g, tuple(colour_of), g.e - 1)
    return _certify(out, 2, "colour_save_one_crx2", verify, budget)


# ---------------------------------------------------------------------------
# Join graphs: the rx_k <= k^2 - 1 separation construction


def colour_join_rxk(k: int, t: int, verify: bool = True, budget=None) -> EdgeColouring:
    """(k^2-1)-colouring of path_cycle_join(k, t): spoke u_j v_i gets
    (i mod k) + jk, path edge u_j u_{j+1} gets k^2-k+j, every cycle edge
    k^2-2; certified so that every k-set is connected by a rainbow tree."""
    if k < 2:
        raise InvalidParameter("the separation colouring starts at k = 2 (rx_1 = 0)")
    if k * t < 3:
        raise InvalidParameter("need kt >= 3")
    g = path_cycle_join(k, t)
    p = k - 1
    c = k * t
    colour_of = [0] * g.e
    for j in range(p):
        for i in range(c):
            colour_of[g.edge_id(j, p + i)] = (i % k) + j * k
    for j in range(p - 1):
        colour_of[g.edge_id(j, j + 1)] = k * k - k + j
    for i in range(c):
        colour_of[g.edge_id(p + i, p + (i + 1) % c)] = k * k - 2
    out = EdgeColouring(g, tuple(colour_of), k * k - 1)
    return _certify(out, k, f"colour_join_rxk(k={k}, t={t})", verify, budget,
                    verify_k_rainbow_index_colouring)


# ---------------------------------------------------------------------------
# Obstruction finders


def _linear_block_chain(g: Graph):
    """Blocks of g ordered into the linear chain the minimally-2-connected
    structure theorem guarantees; returns (chain, cut_vertex_between)."""
    dec = block_decomposition(g)
    blocks = [b for b in dec.blocks if b.edge_ids]
    if len(blocks) == 1:
        return blocks, []
    cut_count = {
        i: sum(v in dec.cut_vertices for v in b.vertices) for i, b in enumerate(blocks)
    }
    ends = [i for i, c in cut_count.items() if c <= 1]
    order = [min(ends, key=lambda i: min(blocks[i].edge_ids))]
    used = {order[0]}
    cuts = []
    while len(order) < len(blocks):
        last = blocks[order[-1]]
        nxt = next(
            (i, (blocks[i].vertices & last.vertices))
            for i in range(len(blocks))
            if i not in used and blocks[i].vertices & last.vertices
        )
        order.append(nxt[0])
        used.add(nxt[0])
        cuts.append(min(nxt[1]))
    return [blocks[i] for i in order], cuts


def minimal_2conn_obstruction(g: Graph, e: int, e2: int) -> tuple[int, int]:
    """Vertex pair (u, v) such that every cycle of g through both uses both
    edges e and e2, from the block-chain case analysis of g - e, validated by
    exhaustive cycle enumeration."""
    if e == e2:
        raise InvalidParameter("need two distinct edges")
    if not is_minimally_2_connected(g):
        raise InvalidParameter("graph is not minimally 2-connected")
    cycles = enumerate_simple_cycles(g)
    cycle_data = [(set(c), set(cycle_vertices_to_edge_ids(g, c))) for c in cycles]
    for u, v in _obstruction_candidates(g, e, e2):
        through = [eids for verts, eids in cycle_data if u in verts and v in verts]
        if through and all(e in eids and e2 in eids for eids in through):
            return (u, v) if u < v else (v, u)
    raise ConstructionRejected(f"no obstruction pair validated for edges {e}, {e2}")


def _obstruction_candidates(g: Graph, e: int, e2: int):
    x, y = g.edges[e]
    g1 = g.without_edge(e)
    chain, cuts = _linear_block_chain(g1)
    eid2 = g1.edge_index[g.edges[e2]]
    li = next(i for i, b in enumerate(chain) if eid2 in b.edge_ids)
    if li == 0 and len(chain) > 1:
        chain, cuts = chain[::-1], cuts[::-1]
        li = len(chain) - 1
    first_cut = cuts[0] if cuts else None
    x0 = x if x in chain[0].vertices and x != first_cut else y
    a, b = g.edges[e2]
    blk = chain[li]
    if len(blk.vertices) == 2:
        # e2 is a bridge of g - e: pair x0 with either bridge endpoint
        yield (x0, b)
        yield (x0, a)
        return
    # e2 sits in a 2-connected (hence minimally 2-connected) block: recurse
    # into the chain of blk - e2 and pair x0 with an endpoint of e2
    sub, old_v = induced_subgraph(g, blk.vertices)
    inv = {ov: nv for nv, ov in enumerate(old_v)}
    ia, ib = (inv[a], inv[b]) if inv[a] < inv[b] else (inv[b], inv[a])
    sub_no = sub.without_edge(sub.edge_index[(ia, ib)])
    dchain, dcuts = _linear_block_chain(sub_no)
    dfirst = dcuts[0] if dcuts else None
    y0 = next(
        v for v in (ia, ib) if v in dchain[0].vertices and v != dfirst
    )
    yq = ia if y0 == ib else ib
    yield (x0, old_v[yq])
    yield (x0, old_v[y0])


def petersen_pair_obstruction(e: int, e2: int) -> int:
    """For two distinct Petersen edges, the vertex v whose deletion forces
    every Hamilton cycle of P_10 - v through both edges: the third neighbour
    at a shared endpoint, else the lowest vertex off both edges adjacent to
    an endpoint of each."""
    g = petersen()
    if e == e2:
        raise InvalidParameter("need two distinct edges")
    a, b = g.edges[e]
    c, d = g.edges[e2]
    shared = {a, b} & {c, d}
    if shared:
        u = shared.pop()
        others = {a, b, c, d} - {u}
        return next(w for w in g.neighbours(u) if w not in others)
    for v in range(g.n):
        if v in (a, b, c, d):
            continue
        nb = set(g.neighbours(v))
        if nb & {a, b} and nb & {c, d}:
            return v
    raise ConstructionRejected(f"no candidate vertex for edges {e}, {e2}")
