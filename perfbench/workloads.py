"""The benchmark's workloads: inputs, one fixed unit of work, checks and counters.

Each workload has

* ``setup(seed)``: build the inputs and make one small warm-up call on
  every layer the unit uses (a cold first call can cost 30x a warm one, so
  that belongs to set-up, not to the timed unit);
* ``unit(state, span)``: the fixed work that is timed.  ``span(name)`` is
  a context manager that marks the benchmark's own steps in a traced run
  and does nothing otherwise;
* ``checks(state, out)``: correctness of the unit's outputs, one
  :class:`Check` per report row or solver rung, run outside the timed
  region;
* ``counters(out)``: values that repeat exactly at a fixed seed.

Why these workloads (see README.md for the layer-to-metric map):

* ``walk_mc``: the shape of acceptance criteria 3 and 10, which dominate
  the test suite's wall time.  Sampler and walk kernels do almost all the
  work; ``sdp`` and ``instance`` are absent, so it is the control for
  solver changes.
* ``solve_tight``: solver rungs whose value equals the integer optimum;
  they finish right after the splitting engine, so PSD projection speed
  decides them.
* ``solve_gap``: one rung with a relaxation gap, which spends its time in
  line-search polishes; a change to polish acceptance moves it, not the
  tight rungs.  Rungs are fixed rather than seeded because solve cost
  varies by more than 1000x across seeds of one shape.
* ``round_e2e``: the full solve-lift-round-score pipeline on a planted
  instance, rounding one trial at a time.  It shares the ``rounding``
  layer with ``walk_mc`` but is bound by per-trial stream construction,
  crossing detection and exact scoring, so a stream change can move the
  two in opposite directions.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable

import relq.cli  # noqa: F401  (the user-facing entry point; importing it is part of set-up)
from relq import harness, instance, sdp

WALK_S = 2000
SIGNCHANGE_TRIALS = 4096  # one kernel chunk
CONJECTURE_TRIALS = 1024
THETAS = (math.pi / 12, math.pi / 6, math.pi / 4)
# criterion 10's measured conditioned mean distances at THETAS; the
# conjectured bound theta/(2*pi) fails by design and is not checked here
CONJECTURE_PROFILE = (0.0436, 0.0865, 0.1285)

TIGHT_RUNGS = ((4, 8, 6, 1), (4, 12, 8, 1), (4, 16, 10, 1), (5, 12, 10, 1), (6, 8, 8, 1))
GAP_RUNGS = ((6, 8, 12, 3),)
WARMUP_RUNG = (4, 8, 6, 1)

E2E_INSTANCE = (4, 8, 6, 21)  # planted
E2E_ELL = 4
E2E_TRIALS = 2000


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    calibration: str  # kind of reference work in calibrate.py
    setup: Callable[[int], dict]
    unit: Callable[[dict, Callable], dict]
    checks: Callable[[dict, dict], list]
    counters: Callable[[dict], dict]
    rates: Callable[[dict, list, list], list]


def no_span(name):
    return contextlib.nullcontext()


def rung_name(rung) -> str:
    n, p, m, seed = rung
    return f"n{n}p{p}m{m}s{seed}"


def failed_frac(checks) -> float:
    return sum(not c.ok for c in checks) / len(checks)


# ---------------------------------------------------------------------------
# walk_mc


def _walk_setup(seed: int) -> dict:
    harness.mc_sign_change(s=100, trials=64, seed=seed)
    harness.conjecture_experiment(THETAS[:1], s=100, trials=64, seed=seed)
    return {
        "seed": seed,
        "s": WALK_S,
        "signchange_trials": SIGNCHANGE_TRIALS,
        "conjecture_trials": CONJECTURE_TRIALS,
    }


def _walk_unit(state: dict, span=no_span) -> dict:
    t0 = perf_counter()
    sign = harness.mc_sign_change(s=state["s"], trials=state["signchange_trials"], seed=state["seed"])
    t1 = perf_counter()
    conj = harness.conjecture_experiment(THETAS, s=state["s"], trials=state["conjecture_trials"], seed=state["seed"])
    t2 = perf_counter()
    return {"signchange": sign, "conjecture": conj, "signchange_s": t1 - t0, "conjecture_s": t2 - t1}


def signchange_checks(report) -> list:
    """Criterion 3's rule widened by the run's own stderr: every frequency
    within 0.005 + 5*stderr of its quadrature reference, and count_one at
    least 0.96 - 5*stderr."""
    out = []
    for name, freq, stderr, ref in report.rows:
        tol = 0.005 + 5.0 * stderr
        ok = abs(freq - ref) <= tol and (name != "count_one" or freq >= 0.96 - 5.0 * stderr)
        out.append(Check(f"signchange.{name}", ok, f"{freq:.5f} vs reference {ref:.5f} (tol {tol:.5f})"))
    return out


def conjecture_checks(report) -> list:
    """Each angle audited, and its mean distance within 5*stderr + 0.002 of
    criterion 10's measured profile."""
    out = []
    for row, want in zip(report.rows, CONJECTURE_PROFILE):
        cell = dict(zip(report.columns, row))
        tol = 5.0 * cell["stderr"] + 0.002
        ok = bool(cell["audit_ok"]) and abs(cell["mean_distance"] - want) <= tol
        out.append(
            Check(
                f"conjecture.theta={cell['theta']:.4f}",
                ok,
                f"audit_ok={cell['audit_ok']} mean {cell['mean_distance']:.5f} vs profile {want} (tol {tol:.5f})",
            )
        )
    if len(report.rows) != len(CONJECTURE_PROFILE):
        out.append(Check("conjecture.rows", False, f"{len(report.rows)} rows, expected {len(CONJECTURE_PROFILE)}"))
    return out


def _walk_checks(state: dict, out: dict) -> list:
    return signchange_checks(out["signchange"]) + conjecture_checks(out["conjecture"])


def _walk_counters(out: dict) -> dict:
    sign = out["signchange"]
    trials = sign.parameters["trials"]
    conj = out["conjecture"]
    col = conj.columns.index("conditioned")
    return {
        "signchange.histogram": {row[0]: round(row[1] * trials) for row in sign.rows},
        "conjecture.conditioned": [row[col] for row in conj.rows],
    }


def _walk_rates(state: dict, outs: list, times: list) -> list:
    sign_s = median([o["signchange_s"] for o in outs])
    conj_s = median([o["conjecture_s"] for o in outs])
    return [
        ("signchange_trials_per_s", state["signchange_trials"] / sign_s, "1/s"),
        ("conjecture_trials_per_s", len(THETAS) * state["conjecture_trials"] / conj_s, "1/s"),
    ]


# ---------------------------------------------------------------------------
# solver rungs


def _solve_setup(rungs):
    def setup(seed: int) -> dict:
        warm, _ = instance.generate_instance(*WARMUP_RUNG[:3], seed=WARMUP_RUNG[3])
        sdp.solve_p_plus(warm)
        insts = {rung_name(r): instance.generate_instance(*r[:3], seed=r[3])[0] for r in rungs}
        return {"seed": seed, "instances": insts}

    return setup


def _solve_unit(state: dict, span=no_span) -> dict:
    rungs = {}
    for name, inst in state["instances"].items():
        with span(f"rung.{name}"):
            sol, rep = sdp.solve_p_plus(inst)
            rungs[name] = {"sol": sol, "report": rep}
    return {"rungs": rungs}


def rung_check(name: str, inst, sol, rep, optimum: float) -> tuple[Check, float]:
    """Criterion 6's tolerances: converged, max residual <= 1e-6, value >= optimum - 1e-3.

    Returns the check and the measured residual.
    """
    residual = sdp.feasibility_report(sol, inst).max_residual
    ok = bool(rep.converged) and residual <= 1e-6 and rep.objective >= optimum - 1e-3
    detail = f"converged={rep.converged} residual {residual:.2e} value {rep.objective:.6f} optimum {optimum:.6f}"
    return Check(f"rung.{name}", ok, detail), residual


def _solve_checks(state: dict, out: dict) -> list:
    checks = []
    state["optimum"] = {}
    state["residual"] = {}
    state["brute_force_s"] = 0.0
    for name, inst in state["instances"].items():
        t0 = perf_counter()
        _, opt = instance.brute_force_optimum(inst)
        state["brute_force_s"] += perf_counter() - t0
        state["optimum"][name] = float(opt)
        got = out["rungs"].get(name)
        if got is None:
            checks.append(Check(f"rung.{name}", False, "not solved"))
            continue
        check, state["residual"][name] = rung_check(name, inst, got["sol"], got["report"], float(opt))
        checks.append(check)
    return checks


def _solve_counters(out: dict) -> dict:
    return {
        name: {"iterations": r["report"].iterations, "trace_len": len(r["report"].objective_trace)}
        for name, r in out["rungs"].items()
    }


def _solve_rates(label):
    def rates(state: dict, outs: list, times: list) -> list:
        return [(label, median(times), "s")]

    return rates


# ---------------------------------------------------------------------------
# round_e2e


def _e2e_setup(seed: int) -> dict:
    n, p, m, inst_seed = E2E_INSTANCE
    inst, _ = instance.generate_instance(n, p, m, seed=inst_seed, planted=True)
    harness.end_to_end_ratio(inst, harness.ExperimentConfig(trials=8, seed=seed, ell=E2E_ELL))
    return {"seed": seed, "instance": inst, "trials": E2E_TRIALS}


def _e2e_unit(state: dict, span=no_span) -> dict:
    cfg = harness.ExperimentConfig(trials=state["trials"], seed=state["seed"], ell=E2E_ELL)
    return {"report": harness.end_to_end_ratio(state["instance"], cfg)}


def e2e_check(report) -> Check:
    cell = dict(zip(report.columns, report.rows[0]))
    ok = bool(cell["sandwich_ok"]) and bool(cell["solver_converged"])
    detail = (
        f"sandwich_ok={cell['sandwich_ok']} solver_converged={cell['solver_converged']} "
        f"mean {cell['mean_rounded']:.5f} optimum {cell['brute_optimum']} relaxation {cell['sdp_value']:.6f}"
    )
    return Check("e2e.row", ok, detail)


def _e2e_checks(state: dict, out: dict) -> list:
    return [e2e_check(out["report"])]


def _e2e_counters(out: dict) -> dict:
    cell = dict(zip(out["report"].columns, out["report"].rows[0]))
    return {k: cell[k] for k in ("mean_rounded", "stderr", "sdp_value")}


def _e2e_rates(state: dict, outs: list, times: list) -> list:
    return [("e2e_trials_per_s", state["trials"] / median(times), "1/s")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk_mc", "stream", _walk_setup, _walk_unit, _walk_checks, _walk_counters, _walk_rates),
        Workload("solve_tight", "dense", _solve_setup(TIGHT_RUNGS), _solve_unit, _solve_checks, _solve_counters, _solve_rates("solve_tight_s")),
        Workload("solve_gap", "dense", _solve_setup(GAP_RUNGS), _solve_unit, _solve_checks, _solve_counters, _solve_rates("solve_gap_s")),
        Workload("round_e2e", "scalar", _e2e_setup, _e2e_unit, _e2e_checks, _e2e_counters, _e2e_rates),
    )
}
