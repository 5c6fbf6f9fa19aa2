"""Benchmark for rainbowcycles: one closed-loop workload per run.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs a fixed number of rounds untraced and then the same
rounds traced, and prints the per-layer metrics plus the tracing overhead.
The last line of standard output is the JSON result; the lines before it are
a readable report and a JSON line of run metadata. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import program

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_LAUNCHES = 5  # timed fresh launches per run; setup_s is their median

# The speed of a shared host drifts by 10-30 % over seconds to minutes, for
# all code alike, so raw request times depend on when a run happened. Before
# each request (outside the timed region) the loop times calibration_sample,
# a fixed piece of benchmark-only Python. Each request time is then scaled
# by CALIBRATION_REF_S over the median of the CALIBRATION_WINDOW samples
# around it. CALIBRATION_REF_S is the sample's median on the machine named in
# NOTES.md, so calibrated figures read as times on that machine at its usual
# speed. The uncalibrated figures are printed and kept in the run metadata.
CALIBRATION_REF_S = 0.0010
CALIBRATION_WINDOW = 8
_CALIBRATION_GRAPH = [tuple((v * 7 + d) % 97 for d in (1, 5, 11, 23)) for v in range(97)]


def calibration_sample():
    """Seconds for 20 depth-first traversals of a fixed 97-vertex graph: set,
    list and tuple work like the searches', but no program code, so a faster
    program does not change it."""
    start = perf_counter()
    for root in range(20):
        seen, stack, order = {root}, [root], []
        while stack:
            v = stack.pop()
            order.append((v, len(seen)))
            for w in _CALIBRATION_GRAPH[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return perf_counter() - start


def calibrated(latencies, samples):
    """Scale request i, which ran between samples i and i + 1, by the
    reference time over the median of the samples around it."""
    half = CALIBRATION_WINDOW // 2
    return [lat * CALIBRATION_REF_S / statistics.median(samples[max(0, i + 1 - half):i + 1 + half])
            for i, lat in enumerate(latencies)]


def percentile(values, pct):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import rainbowcycles.cli
    and build the workload's first round of inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--setup-only"]
    times = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch warms the bytecode cache
        start = perf_counter()
        subprocess.run(argv, cwd=program.ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(perf_counter() - start)
    return statistics.median(times)


class Loop:
    """Closed loop with one client: send a request, wait, check, repeat."""

    def __init__(self, workload, seed, reference):
        import workloads

        self.spec = workloads.WORKLOADS[workload]
        self.reference = reference.get(workload, {})
        self.rng_for = lambda r: workloads.round_rng(workload, seed, r)
        self.records = []  # [round, kind, key, latency_s, failure cause or None]
        self.answers = {}
        self.failures = []
        self.ref_checked = 0
        self.ref_route_changes = 0
        self.busy_s = 0.0  # input building plus requests, checks excluded
        self.calibration = []  # one sample before each request and one at the end

    def run(self, seconds=None, rounds=None, tracer=None):
        """Whole rounds until ``seconds`` have passed and the tail percentile
        has ten samples beyond it, or exactly ``rounds`` rounds."""
        start = perf_counter()
        make = None
        r = 0
        while True:
            if rounds is not None:
                if r >= rounds:
                    break
            elif perf_counter() - start >= seconds and len(self.records) >= self.spec.min_requests:
                break
            t0 = perf_counter()
            if tracer is not None:
                tracer.active, tracer.request = True, -1
            if make is None:
                make = self.spec.make()
            requests = make(self.rng_for(r))
            if tracer is not None:
                tracer.active = False
            self.busy_s += perf_counter() - t0
            for req in requests:
                self.calibration.append(calibration_sample())
                if tracer is not None:
                    tracer.active, tracer.request = True, len(self.records)
                t0 = perf_counter()
                try:
                    outcome = req.execute()
                except Exception as exc:  # a crash is a failed request, not a crashed run
                    outcome = None
                    cause = f"{type(exc).__name__}: {exc}"
                latency = perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                self.busy_s += latency
                if outcome is not None:
                    cause = self._check(req, outcome)
                self.records.append([r, req.kind, req.key, latency, cause])
                if cause is not None:
                    self.failures.append(f"{req.key}: {cause}")
            r += 1
        self.calibration.append(calibration_sample())
        return self

    def _check(self, req, outcome):
        self.answers[req.key] = outcome.answer
        cause = req.check(outcome)
        ref = self.reference.get(req.key)
        if cause is None and ref is not None:
            self.ref_checked += 1
            if ref.get("route", outcome.answer.get("route")) != outcome.answer.get("route"):
                # a walk found on another route (say, a search that no longer
                # runs out of budget) is still correct; its witness differs
                self.ref_route_changes += 1
            elif ref != outcome.answer:
                cause = f"differs from reference {ref} (got {outcome.answer})"
        return cause

    # -- metrics ----------------------------------------------------------

    @property
    def rounds(self):
        return len({rec[0] for rec in self.records})

    def end_to_end(self, calibrate=True):
        latencies = [rec[3] for rec in self.records]
        if calibrate:
            latencies = calibrated(latencies, self.calibration)
        per_round = {}
        for (r, _, _, _, cause), lat in zip(self.records, latencies):
            done, busy = per_round.get(r, (0, 0.0))
            per_round[r] = (done + (cause is None), busy + lat)
        rates = [done / busy for done, busy in per_round.values()]
        tail = percentile(latencies, self.spec.tail_pct)
        return {
            "throughput_rps": statistics.median(rates),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, sum(lat > tail for lat in latencies)


UNITS = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def run_metadata(loop, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": program.commit(),
        "source_sha256": program.source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": loop.rounds,
        "requests": len(loop.records),
        "requests_by_kind": dict(sorted(Counter(rec[1] for rec in loop.records).items())),
        "tail_percentile": loop.spec.tail_pct,
        "reference_checked": loop.ref_checked,
        "reference_route_changes": loop.ref_route_changes,
        "failures": loop.failures[:20],
    }


def timed_run(args, reference):
    setup_s = measure_setup(args.workload, args.seed)
    loop = Loop(args.workload, args.seed, reference).run(seconds=args.seconds)
    metrics, beyond = loop.end_to_end()
    metrics = {"setup_s": setup_s, **metrics}
    raw = {"setup_s": setup_s, **loop.end_to_end(calibrate=False)[0]}
    speed = statistics.median(loop.calibration) / CALIBRATION_REF_S
    attempted, failed = len(loop.records), len(loop.failures)
    notes = {
        "setup_s": f"median of {SETUP_LAUNCHES} fresh launches, not calibrated",
        "throughput_rps": f"correct answers per request-second, median of {loop.rounds} rounds",
        "latency_p50_ms": f"median of {attempted} requests",
        "latency_tail_ms": f"p{loop.spec.tail_pct}, {beyond} of {attempted} samples beyond it",
        "peak_rss_mb": "peak resident set of this process",
    }
    print(f"# {args.workload}: seed {args.seed}, {loop.rounds} rounds, {attempted} requests,"
          f" one client, closed loop; host ran at {1 / speed:.2f}x reference speed")
    print(f"{'metric':16s} {'calibrated':>12s} {'raw':>12s}")
    for name, value in metrics.items():
        print(f"{name:16s} {value:12.4f} {raw[name]:12.4f} {UNITS[name]:4s} {notes[name]}")
    print(f"{'failed_ratio':16s} {failed / attempted:12.4f} {'1':4s}"
          f" {failed} failed of {attempted} attempted")
    for cause in loop.failures:
        print(f"  failed: {cause}")
    print(json.dumps({"run": {**run_metadata(loop, args), "speed_factor": speed,
                              "uncalibrated": raw}}))
    return loop, {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}


def traced_run(args, reference):
    import tracer as tracing

    plain = Loop(args.workload, args.seed, reference)
    rounds = plain.spec.trace_rounds
    plain.run(rounds=rounds)
    t = tracing.Tracer()
    with t:
        traced = Loop(args.workload, args.seed, reference).run(rounds=rounds, tracer=t)
    for rec in traced.records:
        key = rec[2]
        if rec[4] is None and plain.answers.get(key) != traced.answers.get(key):
            rec[4] = (f"traced answer {traced.answers.get(key)} differs from untraced "
                      f"{plain.answers.get(key)}")
            traced.failures.append(f"{key}: {rec[4]}")
    layer = tracing.layer_metrics(t.spans)
    layer["trace.overhead_s"] = traced.busy_s - plain.busy_s
    print(f"# {args.workload}: seed {args.seed}, {rounds} rounds traced, "
          f"{len(traced.records)} requests, {len(t.spans)} spans; untraced "
          f"{plain.busy_s:.3f} s, traced {traced.busy_s:.3f} s")
    for name, (unit, _) in tracing.METRICS.items():
        value = layer[name]
        base = tracing.RATIO_BASE.get(name)
        extra = f" of {layer[base]} calls" if base else ""
        print(f"{name:34s} {value:14.6g} {unit}{extra}")
    for cause in traced.failures:
        print(f"  failed: {cause}")
    print(json.dumps({"run": run_metadata(traced, args)}))
    return traced, {name: {"value": layer[name], "unit": unit}
                    for name, (unit, _) in tracing.METRICS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the first round of inputs, then exit")
    args = parser.parse_args(argv)
    try:
        program.load()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.WORKLOADS[args.workload].make()(workloads.round_rng(args.workload, args.seed, 0))
        return 0
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    loop, metrics = (traced_run if args.trace else timed_run)(args, reference)
    print(json.dumps({"correct": not loop.failures, "attempted": len(loop.records),
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
