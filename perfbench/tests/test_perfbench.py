"""Tests of the benchmark itself, at small sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics  # noqa: E402
from relq import instance  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


def small_state(name, seed=SEED):
    """The workload's own set-up with its fixed work shrunk."""
    state = WORKLOADS[name].setup(seed)
    if name == "solve_tight":
        state["instances"] = dict(list(state["instances"].items())[:2])
    elif name == "round_e2e":
        state["trials"] = 200
    return state


@pytest.fixture(scope="module")
def runs():
    """Each small workload run twice from a fresh set-up: plain, then traced."""
    out = {}
    for name in ("walk_mc", "solve_tight", "round_e2e"):
        wl = WORKLOADS[name]
        state = small_state(name)
        plain = wl.unit(state, workloads.no_span)
        tr = tracer.Tracer()
        traced, _ = tr.run_unit(lambda span: wl.unit(state, span))
        again = small_state(name)
        tr2 = tracer.Tracer()
        traced2, _ = tr2.run_unit(lambda span: wl.unit(again, span))
        out[name] = {"state": state, "plain": plain, "traced": [(traced, tr), (traced2, tr2)]}
    return out


def test_checks_pass_on_correct_runs(runs):
    for name, run in runs.items():
        checks = WORKLOADS[name].checks(run["state"], run["plain"])
        assert checks, name
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]
        assert workloads.failed_frac(checks) == 0.0


def test_shifted_crossing_counts_are_flagged(runs):
    sign = runs["walk_mc"]["plain"]["signchange"]
    rows = [list(r) for r in sign.rows]
    by_name = {r[0]: r for r in rows}
    by_name["count_one"][1] -= 0.03
    by_name["count_two_plus"][1] += 0.03
    bad = dataclasses.replace(sign, rows=rows)
    out = dict(runs["walk_mc"]["plain"], signchange=bad)
    checks = WORKLOADS["walk_mc"].checks(runs["walk_mc"]["state"], out)
    failed = {c.name for c in checks if not c.ok}
    assert failed == {"signchange.count_one", "signchange.count_two_plus"}
    assert workloads.failed_frac(checks) == pytest.approx(2 / len(checks))


def test_conjecture_profile_drift_is_flagged(runs):
    conj = runs["walk_mc"]["plain"]["conjecture"]
    col = conj.columns.index("mean_distance")
    rows = [list(r) for r in conj.rows]
    rows[1][col] += 0.05
    checks = workloads.conjecture_checks(dataclasses.replace(conj, rows=rows))
    assert [c.ok for c in checks] == [True, False, True]


def test_rung_value_below_optimum_is_flagged(runs):
    run = runs["solve_tight"]
    name = next(iter(run["plain"]["rungs"]))
    rung = run["plain"]["rungs"][name]
    _, optimum = instance.brute_force_optimum(run["state"]["instances"][name])
    report = copy.copy(rung["report"])
    report.objective = float(optimum) - 0.01
    out = {"rungs": dict(run["plain"]["rungs"], **{name: dict(rung, report=report)})}
    checks = WORKLOADS["solve_tight"].checks(run["state"], out)
    assert [c.name for c in checks if not c.ok] == [f"rung.{name}"]
    assert workloads.failed_frac(checks) == pytest.approx(1 / len(checks))


def test_broken_sandwich_is_flagged(runs):
    report = runs["round_e2e"]["plain"]["report"]
    col = report.columns.index("sandwich_ok")
    row = list(report.rows[0])
    row[col] = False
    check = workloads.e2e_check(dataclasses.replace(report, rows=[row]))
    assert not check.ok


def test_counters_repeat_across_runs(runs):
    for name, run in runs.items():
        wl = WORKLOADS[name]
        (first, tr1), (second, tr2) = run["traced"]
        assert wl.counters(run["plain"]) == wl.counters(first) == wl.counters(second), name
        assert metrics.traced_counters(tr1) == metrics.traced_counters(tr2), name
    e2e = metrics.traced_counters(runs["round_e2e"]["traced"][0][1])
    variables = runs["round_e2e"]["state"]["instance"].n
    assert sum(e2e["statuses"].values()) == 200 * variables
    assert e2e["calls"]["rounding.uniform"] == 200 * variables - e2e["statuses"]["OneCrossing"]
    tight = metrics.traced_counters(runs["solve_tight"]["traced"][0][1])
    assert set(tight["eigh_calls"]) == {f"rung.{n}" for n in runs["solve_tight"]["state"]["instances"]}


def test_self_times_add_up_to_the_unit(runs):
    for name, run in runs.items():
        tr = run["traced"][0][1]
        summary = tracer.summarize(tr.spans)
        assert sum(summary["layer_self_s"].values()) == pytest.approx(summary["total_s"], rel=1e-9), name
        layer, seconds = metrics.layer_metrics([tr])
        assert sum(layer[f"self_pct.{x}"] for x in tracer.LAYERS) == pytest.approx(100.0)


def test_tracing_restores_the_callers_names():
    import numpy as np
    import relq.harness
    import relq.rounding

    before = (relq.harness.trace_stats_batch, relq.rounding.GaussianSampler.sample, np.linalg.eigh)
    tr = tracer.Tracer()
    with tr.installed():
        assert relq.harness.trace_stats_batch is not before[0]
    assert (relq.harness.trace_stats_batch, relq.rounding.GaussianSampler.sample, np.linalg.eigh) == before


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "solve_tight", "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_the_declared_metrics(trace, kind):
    res = _run(ROOT, "--trace", trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # five rungs; a traced run adds both counter-repeat checks and the self-time check
    assert result["attempted"] >= (8 if trace == "1" else 5)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[kind]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _run(tmp_path, "--trace", "0")
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
