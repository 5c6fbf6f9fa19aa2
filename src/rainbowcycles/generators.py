"""Named graph families, plus the Hadamard machinery for cube lower bounds.

Canonical labellings:
  cycle(n)                  0..n-1 in cyclic order
  complete(n)               0..n-1
  complete_bipartite(m, n)  class U = 0..m-1, class V = m..m+n-1
  complete_multipartite     classes consecutive, in the given (nondecreasing) order
  wheel(n)                  rim 0..n-1 in cyclic order, centre = n
  hypercube(n)              vertex id = binary encoding of the coordinate vector
  petersen                  outer C_5 0..4, inner pentagram 5..9, spokes i -> i+5
  path_cycle_join(k, t)     path u_0..u_{k-2} = 0..k-2, cycle v_0..v_{kt-1} after
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter, SpreadTooSmall
from .graph import Graph, _class_shifts


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameter("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameter("complete graph needs n >= 1")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidParameter("complete bipartite needs m, n >= 1")
    return Graph(m + n, tuple((i, m + j) for i in range(m) for j in range(n)))


def complete_multipartite(sizes) -> Graph:
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise InvalidParameter("need at least two classes of positive size")
    if any(a > b for a, b in zip(sizes, sizes[1:])):
        raise InvalidParameter("class sizes must be nondecreasing")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    classes = [range(starts[i], starts[i + 1]) for i in range(len(sizes))]
    edges = [
        (u, v)
        for i in range(len(sizes))
        for j in range(i + 1, len(sizes))
        for u in classes[i]
        for v in classes[j]
    ]
    return Graph(starts[-1], tuple(edges))


def wheel(n: int) -> Graph:
    """C_n plus a centre vertex joined to the whole rim. Centre id = n."""
    if n < 3:
        raise InvalidParameter("wheel needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    return Graph(n + 1, tuple(edges))


def hypercube(n: int) -> Graph:
    if n < 1:
        raise InvalidParameter("hypercube needs n >= 1")
    edges = [
        (v, v | (1 << i))
        for v in range(1 << n)
        for i in range(n)
        if not v & (1 << i)
    ]
    return Graph(1 << n, tuple(edges))


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, tuple(edges))


def path_cycle_join(k: int, t: int) -> Graph:
    """Join of a path on k-1 vertices with a cycle on kt vertices."""
    if k < 1 or k * t < 3:
        raise InvalidParameter("need k >= 1 and kt >= 3")
    p = k - 1
    c = k * t
    edges = [(j, j + 1) for j in range(p - 1)]
    edges += [(p + i, p + (i + 1) % c) for i in range(c)]
    edges += [(j, p + i) for j in range(p) for i in range(c)]
    return Graph(p + c, tuple(edges))


# ---------------------------------------------------------------------------
# Automorphisms of the canonical labellings


def _family_symmetries(kind: str, param) -> list:
    """Automorphisms of the canonical graph of a family, as vertex lists p
    (vertex v goes to p[v]), the identity left out; kind and param are as
    solver._detect_family names them. Wheels get the 2n - 1 rim rotations
    and reflections, with the centre fixed; cubes the 2^d - 1 translations
    v -> v XOR t; K_n the n - 1 cyclic shifts of its vertices. Any other
    kind gets none: the classes of a complete (multi)partite graph are
    twins, read off any graph by graph._twin_shifts. Searching one subset
    per orbit of these spares the search of its images, which have the
    same cycles up to relabelling."""
    if kind == "wheel":
        n = param
        return ([[(i + t) % n for i in range(n)] + [n] for t in range(1, n)]
                + [[(t - i) % n for i in range(n)] + [n] for t in range(n)])
    if kind == "hypercube":
        size = 1 << param
        return [[v ^ t for v in range(size)] for t in range(1, size)]
    if kind == "complete":
        return _class_shifts(param, [range(param)])
    return []


# ---------------------------------------------------------------------------
# Cube coordinate split


@dataclass(frozen=True)
class CubeSplit:
    """View of Q_n as Q_p (low coordinates) block-matched over Q_q (high)."""

    p: int
    q: int

    @property
    def n(self) -> int:
        return self.p + self.q

    def split(self, v: int) -> tuple[int, int]:
        return v & ((1 << self.p) - 1), v >> self.p

    def combine(self, hat: int, tilde: int) -> int:
        return hat | (tilde << self.p)


# ---------------------------------------------------------------------------
# Hadamard matrices and spread vertices


@dataclass(frozen=True)
class HadamardMatrix:
    """Square (-1, +1) matrix of power-of-two order with orthogonal columns."""

    order: int
    entries: tuple[tuple[int, ...], ...]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def is_orthogonal(self) -> bool:
        cols = [self.column(j) for j in range(self.order)]
        return all(
            sum(x * y for x, y in zip(cols[i], cols[j])) == (self.order if i == j else 0)
            for i in range(self.order)
            for j in range(self.order)
        )


def sylvester_hadamard(t: int) -> HadamardMatrix:
    """H_1 = (1) doubled t times by the [[H, H], [H, -H]] block recursion,
    whose entry (i, j) is (-1)^popcount(i & j)."""
    if t < 0:
        raise InvalidParameter("t must be non-negative")
    order = 1 << t
    return HadamardMatrix(order, tuple(
        tuple(-1 if (i & j).bit_count() & 1 else 1 for j in range(order))
        for i in range(order)
    ))


def hamming_distance(u: int, v: int) -> int:
    return (u ^ v).bit_count()


def hadamard_spread_vertices(k: int, n: int) -> tuple[int, ...]:
    """k vertices of Q_n with pairwise Hamming distance > n/2.

    Deletes the all-ones row of the Sylvester matrix of order k' (smallest
    power of two >= k), maps -1 -> 0, takes the first k columns, and blows the
    k'-1 remaining rows up over a balanced partition of the n coordinates.
    The distance post-condition >= (k'/2) * floor(n/(k'-1)) and > n/2 is always
    checked; SpreadTooSmall is raised when it cannot hold.
    """
    if k < 2:
        raise InvalidParameter("need k >= 2")
    kp = 1
    t = 0
    while kp < k:
        kp *= 2
        t += 1
    if n < (kp - 1) ** 2:
        raise SpreadTooSmall(
            f"n = {n} is below the analytic bound (k'-1)^2 = {(kp - 1) ** 2}"
        )
    h = sylvester_hadamard(t)
    # rows 1..k'-1 of the first k columns, -1 mapped to 0
    cols = [
        [1 if h.entries[row][col] == 1 else 0 for row in range(1, kp)]
        for col in range(k)
    ]
    parts = kp - 1
    base, extra = divmod(n, parts)
    sizes = [base + 1 if j < extra else base for j in range(parts)]
    vertices = []
    for cvec in cols:
        v = 0
        pos = 0
        for j in range(parts):
            if cvec[j]:
                for i in range(pos, pos + sizes[j]):
                    v |= 1 << i
            pos += sizes[j]
        vertices.append(v)
    floor_bound = (kp // 2) * (n // parts)
    for i in range(k):
        for j in range(i + 1, k):
            d = hamming_distance(vertices[i], vertices[j])
            if d < floor_bound or 2 * d <= n:
                raise SpreadTooSmall(
                    f"pair ({i},{j}) at distance {d} misses the bound"
                )
    return tuple(vertices)
