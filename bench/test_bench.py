"""The benchmark's own tests: tracer transparency, restoration, self-time
arithmetic, repeatable traced runs and the missing-program exit.

    python -m pytest bench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import program
import run
import tracer as tracing
import workloads
from rainbowcycles import constructions, generators, search
from rainbowcycles.colouring import EdgeColouring
from rainbowcycles.errors import BaseWalkNotFound, BudgetExceeded
from rainbowcycles.graph import Budget


def _bindings():
    """Every function-valued name in the traced modules, plus cli's table."""
    out = {}
    for name in ("rainbowcycles",) + tuple(f"rainbowcycles.{m}" for m in tracing.MODULES):
        for attr, value in vars(importlib.import_module(name)).items():
            if callable(value):
                out[(name, attr)] = value
    for family, entry in vars(importlib.import_module("rainbowcycles.cli"))["_FAMILIES"].items():
        out[("_FAMILIES", family)] = entry
    return out


def _flow():
    return workloads.WalkFlow()


def _budget_out_tuple(flow):
    """A tuple whose K = 3 walk raises BaseWalkNotFound and whose direct
    coloured search runs out of budget (third stratum of the pool)."""
    return flow.strata[2][0]


def test_wrappers_return_same_values_and_pass_exceptions():
    flow = _flow()
    s = _budget_out_tuple(flow)
    c = EdgeColouring(generators.wheel(6), tuple(range(12)), 12)
    plain_cycle = search.rainbow_cycle_through(c, [0, 3])
    plain_walk = search.find_subdivided_closed_walk(flow.g6, s)
    with tracing.Tracer() as t:
        t.active = True
        assert search.rainbow_cycle_through(c, [0, 3]) == plain_cycle
        assert search.find_subdivided_closed_walk(flow.g6, s) == plain_walk
        with pytest.raises(BaseWalkNotFound):
            constructions.recursive_cube_walk(6, 3, s, colouring=flow.c3)
        with pytest.raises(BudgetExceeded) as exc:
            search.find_subdivided_closed_walk(flow.g6, s, colouring=flow.c3, budget=50)
        assert exc.value.nodes == 50
    outcomes = {sp[tracing.NAME]: sp[tracing.OUTCOME] for sp in t.spans
                if sp[tracing.PARENT] is None}
    assert outcomes["constructions.recursive_cube_walk"] == "BaseWalkNotFound"
    assert outcomes["search.find_subdivided_closed_walk"] == "BudgetExceeded"


@pytest.mark.parametrize("how", ["position", "keyword", "object"])
def test_budget_keeps_the_callers_limit(how):
    flow = _flow()
    s = _budget_out_tuple(flow)

    def outcome():
        given = Budget(40) if how == "object" else 40
        try:
            if how == "position":
                return search.find_subdivided_closed_walk(flow.g6, s, flow.c3, given)
            return search.find_subdivided_closed_walk(flow.g6, s, flow.c3, budget=given)
        except BudgetExceeded as exc:
            return ("budget", exc.nodes)

    assert outcome() == ("budget", 40)
    with tracing.Tracer() as t:
        t.active = True
        assert outcome() == ("budget", 40)
    (span,) = t.spans
    assert span[tracing.NODES] == 41 and span[tracing.OUTCOME] == "BudgetExceeded"


def test_default_budget_is_counted():
    c = EdgeColouring(generators.wheel(6), tuple(range(12)), 12)
    plain = search.rainbow_cycle_through(c, [0, 3])
    with tracing.Tracer() as t:
        t.active = True
        assert search.rainbow_cycle_through(c, [0, 3]) == plain
    (span,) = t.spans
    assert span[tracing.NODES] > 0


def test_originals_restored_after_a_traced_run():
    before = _bindings()
    t = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with t:
            assert search.rainbow_cycle_through is not before[
                ("rainbowcycles.search", "rainbow_cycle_through")]
            assert constructions.verify_k_rainbow_cycle_colouring is not before[
                ("rainbowcycles.constructions", "verify_k_rainbow_cycle_colouring")]
            assert constructions.is_k_connected is not before[
                ("rainbowcycles.constructions", "is_k_connected")]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] or after[k] == before[k] for k in before)
    assert not t.active


def test_self_times_on_a_synthetic_span_tree():
    def span(name, parent, start, end):
        return [name, parent, 0, start, end, None, "value", None]

    spans = [
        span("solver.crx_exact", None, 0.0, 10.0),
        span("graph.enumerate_simple_cycles", 0, 1.0, 4.0),
        span("solver.crx_exact", 0, 5.0, 9.0),  # nested call of the same function
        span("graph.in_family_Fk", 2, 6.0, 7.0),
        span("graph.is_k_connected", 3, 6.25, 6.75),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 0.5, 0.5]
    assert tracing.outermost(spans, {"solver.crx_exact"}) == [0]
    m = tracing.layer_metrics(spans)
    assert m["solver.crx.calls"] == 1 and m["solver.crx.self_s"] == 6.0
    assert m["graph.in_family.s"] == 0.5 and m["graph.k_connected.calls"] == 1


def _cheap(workload, rng):
    """A few fast requests of every kind of one round, for repeatability tests."""
    reqs = workloads.WORKLOADS[workload].make()(rng)
    heavy = ("n=38", "hypercube n=5", "bipartite_3", "cube_5", "W7", "petersen", "Q5",
             "W13", "W14", "K2,5", "Q3", "m=6")
    return [r for r in reqs if not any(h in r.key for h in heavy)][:12]


def _traced(workload, seed):
    t = tracing.Tracer()
    answers = {}
    with t:
        for i, req in enumerate(_cheap(workload, workloads.round_rng(workload, seed, 0))):
            t.active, t.request = True, i
            out = req.execute()
            t.active = False
            assert req.check(out) is None, req.key
            answers[req.key] = out.answer
    metrics = tracing.layer_metrics(t.spans)
    counts = {k: v for k, v in metrics.items()
              if tracing.METRICS[k][0] != "s"}
    return answers, counts


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_and_match_untraced(workload):
    untraced = {}
    for req in _cheap(workload, workloads.round_rng(workload, 7, 0)):
        out = req.execute()
        assert req.check(out) is None, req.key
        untraced[req.key] = out.answer
    first = _traced(workload, 7)
    second = _traced(workload, 7)
    assert first == second
    assert first[0] == untraced
    assert any(v for k, v in first[1].items() if k.endswith(".nodes"))


def test_percentile_interpolates_between_ranks():
    assert run.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert run.percentile([5.0], 90) == 5.0
    assert workloads.WORKLOADS["walks"].min_requests == 100


def test_calibration_scales_by_the_samples_around_each_request():
    ref = run.CALIBRATION_REF_S
    assert run.calibrated([0.1, 0.2], [ref] * 3) == pytest.approx([0.1, 0.2])
    # a host running at half speed doubles both the samples and the requests
    assert run.calibrated([0.2, 0.4], [2 * ref] * 3) == pytest.approx([0.1, 0.2])
    slow_later = [ref] * 5 + [2 * ref] * 5
    scaled = run.calibrated([0.1] * 9, slow_later)
    assert scaled[0] == pytest.approx(0.1) and scaled[-1] == pytest.approx(0.05)


def test_untraced_run_prints_the_result_line(capsys):
    assert run.main(["--workload", "walks", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["run"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 100 and result["failed"] == 0
    declared = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["seed"] == 3 and meta["requests_by_kind"] == {"walk": result["attempted"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(program.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
