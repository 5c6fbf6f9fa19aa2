"""The four benchmark workloads: seeded request mixes plus their answer checks.

Each workload is a closed loop with one client: it builds a round of
requests from a per-round RNG, sends them one at a time and waits for each
answer. Every round holds the same multiset of request kinds, with the seed
choosing the concrete inputs and their order, so metrics do not depend on
how many rounds fit into a run.

Program functions are always reached through their module attribute
(``cli.main``, ``document.emit``, ...), so the tracer's wrappers see the
calls when a traced run installs them.

Checks never trust the search that is being timed: colour counts and index
values come from the published theorems in ``known_*`` below, walk
witnesses are re-validated, solver witnesses are re-verified by the
separate verification search, and answers are compared with
``reference.json``, recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from rainbowcycles import cli, colouring, constructions, document, errors, generators, search
from rainbowcycles.colouring import EdgeColouring
from rainbowcycles.graph import Graph

HERE = Path(__file__).resolve().parent
WALK_POOL = HERE / "walk_pool.json"

# The direct walk search's node budget. Criterion 9 uses 150 k; at that
# budget one exhausted search costs about 0.3 s and too few tuples fit in a
# run. 51 of the 52 searches that succeed in a 120-tuple sample of the
# criterion-9 stream need fewer than 50 k nodes.
WALK_BUDGET = 50_000


@dataclass
class Outcome:
    """One answer: ``answer`` is JSON data compared with the reference,
    ``artefact`` is whatever the independent check needs (e.g. a witness)."""

    answer: dict
    artefact: Any = None


@dataclass
class Request:
    kind: str
    key: str
    execute: Callable[[], Outcome]
    check: Callable[[Outcome], "str | None"]  # failure cause, or None when correct


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def call_cli(argv, text=""):
    """Run ``rainbowcycles.cli.main`` in-process on document text."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _doc(g: Graph, c: EdgeColouring | None = None) -> str:
    return document.emit(document.document_from_graph(g, c))


def _digest(items) -> str:
    return hashlib.sha1(json.dumps(items).encode()).hexdigest()[:12]


def _error_cause(code, err):
    return f"exit {code}: {err.strip()[:160]}"


# ---------------------------------------------------------------------------
# Published values used by the checks


def known_wheel_crx(n: int, k: int) -> int:
    """crx_k(W_n) for n >= 4 (the wheel theorems)."""
    if k == 1:
        return 3
    if k == 2:
        return -(-n // 2) + 2
    if k == 3:
        return n if n <= 7 else n - 1 if n <= 11 else n - 2
    return n + 1 if n < 2 * k else n


def known_bipartite_crx(m: int, n: int, k: int) -> int:
    """crx_k(K_{m,n}), m <= n, in the covered regimes (k = 1, 2)."""
    if k == 1:
        return 4
    if m == 2:
        return 2 * n
    if m == 3:
        r = 3
        while math.comb(r, 3) < n:
            r += 1
        return r
    return 8


def known_cube_crx(n: int, k: int) -> int:
    return 4 if k == 1 else 2 * n


def theta(a: int, b: int, c: int) -> Graph:
    """Two hubs 0 and 1 joined by three paths with a, b, c internal vertices."""
    edges, nxt = [], 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, 1))
    return Graph(nxt, tuple(edges))


def _two_connected(n: int, edges) -> bool:
    """Independent brute-force check: connected with no cut vertex."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected(skip):
        rest = [v for v in range(n) if v != skip]
        seen, stack = {rest[0]}, [rest[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(rest)

    return n >= 3 and connected(None) and all(connected(v) for v in range(n))


# ---------------------------------------------------------------------------
# certify: gen | colour | verify pipelines


def _certify_request(kind, gen_argv, colour_argv, k, expected):
    stages = (list(gen_argv), list(colour_argv), ["verify", "--k", str(k)])
    key = " | ".join(" ".join(s) for s in stages)

    def execute():
        text, codes, err = "", [], ""
        for argv in stages:
            code, text, err = call_cli(argv, text)
            codes.append(code)
            if code != 0:
                break
        answer = {"exit": codes, "status": None, "bad_set": None, "colours": None}
        if len(codes) == 3 and code in (0, 1):
            report = json.loads(text)
            answer.update(status=report["status"], bad_set=report["bad_set"],
                          colours=report["colours"])
        return Outcome(answer, err)

    def check(out):
        a = out.answer
        if a["exit"] != [0, 0, 0]:
            return _error_cause(a["exit"], out.artefact)
        if a["status"] != "certified":
            return f"status {a['status']}, bad set {a['bad_set']}"
        if a["colours"] != expected:
            return f"{a['colours']} colours, theorem says {expected}"
        return None

    return Request(kind, key, execute, check)


def certify_round(rng: random.Random) -> list:
    reqs = []
    for n in range(8, 15):
        for k in range(2, 6):
            reqs.append(_certify_request(
                "wheel", ["gen", "wheel", f"n={n}"], ["colour", "wheel", "--k", str(k)],
                k, known_wheel_crx(n, k)))
    for _ in range(3):
        n = rng.randint(3, 30)
        reqs.append(_certify_request(
            "bipartite-k1", ["gen", "complete-bipartite", "m=2", f"n={n}"],
            ["colour", "bipartite", "--k", "1"], 1, 4))
    # fixed sizes: these costs straddle the median, so seeded sizes would move it
    for m in (4, 5, 6):
        for n in (m, m + 6):
            reqs.append(_certify_request(
                "bipartite-k2", ["gen", "complete-bipartite", f"m={m}", f"n={n}"],
                ["colour", "bipartite", "--k", "2"], 2, known_bipartite_crx(m, n, 2)))
    # One colex-regime request per round, at a fixed n: across 36..40 its
    # cost varies 1.6x, which would make throughput depend on the seed.
    reqs.append(_certify_request(
        "bipartite-colex", ["gen", "complete-bipartite", "m=3", "n=38"],
        ["colour", "bipartite", "--k", "2"], 2, known_bipartite_crx(3, 38, 2)))
    for n in (4, 5):
        for k in (1, 2, 3):
            reqs.append(_certify_request(
                "cube", ["gen", "hypercube", f"n={n}"], ["colour", "cube", "--k", str(k)],
                k, known_cube_crx(n, k)))
    for _ in range(2):
        n = rng.randint(5, 12)
        reqs.append(_certify_request(
            "complete-2rainbow", ["gen", "complete", f"n={n}"],
            ["colour", "complete-2rainbow", "--k", "2"], 2, 3))
    for _ in range(2):
        sizes = sorted(rng.randint(1, 3) for _ in range(rng.randint(3, 5)))
        reqs.append(_certify_request(
            "multipartite-blowup",
            ["gen", "complete-multipartite", "sizes=" + ",".join(map(str, sizes))],
            ["colour", "multipartite-blowup", "--k", "1"], 1, 3))
    for _ in range(2):
        # small n: the seeded number of attempts then moves the cost below
        # the round's median instead of across it
        n = rng.randint(6, 7)
        seed = rng.randrange(10**6)
        reqs.append(_certify_request(
            "complete-random", ["gen", "complete", f"n={n}"],
            ["colour", "complete-random", "--k", "3", "--seed", str(seed),
             "--attempts", "200"], 3, 5))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# refute: verify of colourings with fewer colours than the index


def _refute_request(family, g, index, r, workers, rng):
    if r >= index:
        raise ValueError(f"{family}: {r} colours do not undercut the index {index}")
    colours = tuple(rng.randrange(r) for _ in range(g.e))
    text = _doc(g, EdgeColouring(g, colours, r, unused_ok=True))
    argv = ["verify", "--k", "2"] + (["--workers", str(workers)] if workers > 1 else [])
    mode = "par" if workers > 1 else "seq"
    key = f"{' '.join(argv)} < {family} r={r} colours={_digest(colours)}"

    def execute():
        code, out, err = call_cli(argv, text)
        answer = {"exit": code, "status": None, "bad_set": None, "colours": None}
        if code in (0, 1):
            report = json.loads(out)
            answer.update(status=report["status"], bad_set=report["bad_set"],
                          colours=report["colours"])
        return Outcome(answer, err)

    def check(out):
        a = out.answer
        if a["exit"] != 1 or a["status"] != "counterexample":
            return _error_cause(a["exit"], out.artefact) if a["status"] is None else (
                f"status {a['status']} on {r} < {index} colours")
        bad = a["bad_set"]
        if (not isinstance(bad, list) or len(bad) != 2 or not 0 <= bad[0] < bad[1] < g.n):
            return f"malformed bad set {bad}"
        return None

    return Request(f"{family.split('_')[0]}-{mode}", key, execute, check)


def refute_round(rng: random.Random) -> list:
    # (family label, graph, proven crx_2, colours used); each input is
    # verified sequentially, and every other one also with two workers.
    inputs = []
    for n in range(36, 41):
        for _ in range(2):
            inputs.append((f"bipartite_3_{n}", generators.complete_bipartite(3, n),
                           known_bipartite_crx(3, n, 2), 7))
    for n in (3, 4, 5):
        inputs.append((f"cube_{n}", generators.hypercube(n), 2 * n, 2 * n - 1))
    for n in (6, 9, 12, 15):
        idx = known_wheel_crx(n, 2)
        inputs.append((f"wheel_{n}", generators.wheel(n), idx, idx - 1))
    reqs = []
    for i, (family, g, index, r) in enumerate(inputs):
        reqs.append(_refute_request(family, g, index, r, 1, rng))
        if i % 2 == 0:
            reqs.append(_refute_request(family, g, index, r, 2, rng))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# solve: exact crx, exact rx, and intervals


def _solve_request(kind, label, g, argv, known=None):
    text = _doc(g)
    k = int(argv[argv.index("--k") + 1])
    rx = "rx" in argv
    key = f"{' '.join(argv)} < {label} edges={_digest(g.edges)}"

    def execute():
        code, out, err = call_cli(argv, text)
        answer = {"exit": code, "kind": None, "lower": None, "upper": None}
        witness = None
        if out:
            res = json.loads(out)["result"]
            answer.update(kind=res["kind"], lower=res["lower"], upper=res["upper"])
            witness = res.get("witness")
        return Outcome(answer, (witness, err))

    def check(out):
        a = out.answer
        witness, err = out.artefact
        if a["exit"] != 0 or a["kind"] is None:
            return _error_cause(a["exit"], err)
        if kind != "interval" and a["kind"] != "exact":
            return f"{a['kind']} [{a['lower']}, {a['upper']}] where an exact value was due"
        if not a["lower"] <= a["upper"]:
            return f"empty interval [{a['lower']}, {a['upper']}]"
        if known is not None and not a["lower"] <= known <= a["upper"]:
            return f"[{a['lower']}, {a['upper']}] misses the known value {known}"
        if witness is None:
            return "no witness colouring"
        if witness["r"] != a["upper"]:
            return f"witness uses {witness['r']} colours, upper bound is {a['upper']}"
        c = EdgeColouring(g, tuple(witness["colours"]), witness["r"], unused_ok=True)
        verify = (search.verify_k_rainbow_index_colouring if rx
                  else search.verify_k_rainbow_cycle_colouring)
        report = verify(c, k)
        if not report.certified:
            return f"witness fails at {report.bad_set}"
        return None

    return Request(kind, key, execute, check)


THETAS = list(itertools.combinations_with_replacement(range(1, 4), 3))


def _random_two_connected(rng: random.Random) -> Graph:
    while True:
        n = rng.randint(5, 8)
        pairs = list(itertools.combinations(range(n), 2))
        # at most 10 edges: crx_exact then stays under ~10 ms, where 11 and
        # 12 edges already give single requests of 250 ms
        edges = rng.sample(pairs, rng.randint(n, min(10, len(pairs))))
        if _two_connected(n, edges):
            return Graph(n, tuple(edges))


def solve_round(rng: random.Random) -> list:
    reqs = []

    def exact(label, g, k, known=None):
        reqs.append(_solve_request("exact", label, g, ["solve", "--k", str(k)], known))

    for n in range(4, 8):
        for k in (1, 2):
            exact(f"W{n}", generators.wheel(n), k, known_wheel_crx(n, k))
    for k in (1, 2):
        exact("petersen", generators.petersen(), k)
    for k in (1, 2, 3):
        exact("K5", generators.complete(5), k, 3 if k <= 2 else None)
    for k in (1, 2):
        exact("K3,3", generators.complete_bipartite(3, 3), k, 4 if k == 1 else None)
    for a, b, c in THETAS:
        g = theta(a, b, c)
        exact(f"theta{a}{b}{c}", g, 1)
        exact(f"theta{a}{b}{c}", g, 2, g.e)  # minimally 2-connected: crx_2 = e
    for _ in range(3):
        g = _random_two_connected(rng)
        for k in (1, 2):
            exact(f"random-n{g.n}", g, k)
    # rx_2 is the rainbow connection number: ceil(n/2) on C_n, 1 on K_n,
    # 2 on W_6, 3 on K_{2,5} and n on Q_n
    for label, g, known in (("C5", generators.cycle(5), 3), ("K5", generators.complete(5), 1),
                            ("W6", generators.wheel(6), 2),
                            ("K2,5", generators.complete_bipartite(2, 5), 3),
                            ("Q3", generators.hypercube(3), 3)):
        reqs.append(_solve_request("rx", label, g,
                                   ["solve", "--k", "2", "--index", "rx"], known))
    interval = ["--mode", "interval"]
    for n in range(9, 15):
        for k in (2, 3):
            reqs.append(_solve_request("interval", f"W{n}", generators.wheel(n),
                                       ["solve", "--k", str(k)] + interval,
                                       known_wheel_crx(n, k)))
    for label, g, k, known in (
            ("Q4", generators.hypercube(4), 2, 8), ("Q5", generators.hypercube(5), 2, 10),
            ("K8", generators.complete(8), 3, None),
            ("K4,10", generators.complete_bipartite(4, 10), 2, 8),
            ("K3x3", generators.complete_multipartite((3, 3, 3)), 2, None)):
        reqs.append(_solve_request("interval", label, g,
                                   ["solve", "--k", str(k)] + interval, known))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# walks: the criterion-9 flow on Q_6


class WalkFlow:
    """Criterion 9: the layered K = 3 colouring of Q_6, with the direct search
    and then the raise-K remedy (K = 4) as fall-backs."""

    def __init__(self, load_pool=True):
        self.c3 = constructions.colour_cube_recursive(6, 4, 3)
        self.c4 = constructions.colour_cube_recursive(6, 4, 4)
        self.g6 = self.c3.graph
        if load_pool:
            with open(WALK_POOL, encoding="utf-8") as fh:
                pool = json.load(fh)
            self.strata = [[tuple(s) for s in stratum] for stratum in pool["strata"]]
            self.per_round = [st["per_round"] for st in pool["summary"]]

    def run(self, s) -> Outcome:
        try:
            w = constructions.recursive_cube_walk(6, 3, s, colouring=self.c3)
            route, col = "spliced", self.c3
        except errors.BaseWalkNotFound:
            try:
                w = search.find_subdivided_closed_walk(self.g6, s, colouring=self.c3,
                                                       budget=WALK_BUDGET)
            except errors.BudgetExceeded:
                w = None
            route, col = "searched", self.c3
            if w is None:
                w = constructions.recursive_cube_walk(6, 4, s, colouring=self.c4)
                route, col = "raised", self.c4
        return Outcome({"route": route, "paths": [list(p) for p in w.paths]}, (w, col))

    def request(self, s) -> Request:
        def check(out):
            w, col = out.artefact
            if tuple(w.anchors) != s:
                return f"witness anchors {w.anchors}"
            if not colouring.check_walk_witness(self.g6, w, col, require_rainbow=True):
                return f"{out.answer['route']} witness fails check_walk_witness"
            return None

        return Request("walk", f"walk {list(s)}", lambda: self.run(s), check)

    def round(self, rng: random.Random) -> list:
        reqs = [self.request(s) for stratum, count in zip(self.strata, self.per_round)
                for s in rng.sample(stratum, count)]
        rng.shuffle(reqs)
        return reqs


def random_tuples(rng: random.Random, count: int) -> list:
    """The criterion-9 tuple distribution: ordered 4-tuples of Q_6 vertices."""
    return [tuple(rng.randrange(64) for _ in range(4)) for _ in range(count)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: int  # latency_tail_ms percentile; runs keep >= 10 samples beyond it
    trace_rounds: int  # fixed, so traced node counts repeat exactly
    make: Callable[[], Callable[[random.Random], list]]

    @property
    def min_requests(self) -> int:
        return math.ceil(10 * 100 / (100 - self.tail_pct))


WORKLOADS = {
    w.name: w for w in (
        # p80: a round's top tenth is five distinct requests, so its p90 rests on
        # two samples of one request (W_12 at k = 5), while its p80 falls among
        # five requests of 110-150 ms
        Workload("certify", "gen | colour | verify pipelines: the main user traffic, "
                 "dominated by the witness-finding cycle DFS", 80, 1, lambda: certify_round),
        Workload("refute", "verify of colourings below the proven index: one "
                 "counterexample per request after the F_k precheck", 90, 3,
                 lambda: refute_round),
        Workload("solve", "exact crx/rx and intervals: RGS propagator, cycle "
                 "enumeration, tree search, shortest cycles", 90, 2, lambda: solve_round),
        Workload("walks", "criterion-9 subdivided closed walks on Q_6, with budget-outs "
                 "and the raise-K remedy", 90, 3, lambda: WalkFlow().round),
    )
}
