"""Experiment drivers: Monte-Carlo studies, end-to-end rounding, report emission.

Every driver returns a Report that is a pure function of its parameters and
seed: floats are carried at full precision (shortest-repr in CSV, native in
JSON), no timestamps or environment data enter the artifact, and rerunning
with the same arguments reproduces the output byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relq import __version__
from relq._kernels import canonical_values_batch, trace_stats_batch
from relq.brownian import constants_table, prob_at_least_one, prob_three_or_more
from relq.constellation import canonical_constellation
from relq.instance import (
    Instance,
    brute_force_optimum,
    circular_distance,
    evaluate,  # noqa: F401  (perfbench/tracer.py traces this name)
    scale_instance,
    score_positions,
)
from relq.rounding import STREAM_VERSION, GaussianSampler, round_lifted_solution
from relq.sdp import SolverConfig, convert_to_p, feasibility_report, solve_p_plus

# walk values per block of rows: 4 MB of float64.  conjecture_experiment
# draws each block's r1 and then its r2, so this size is part of its
# seeded numbers
_BLOCK_VALUES = 1 << 19


def _block_rows(width: int) -> int:
    return max(1, _BLOCK_VALUES // width)


@dataclass
class ExperimentConfig:
    """Knobs of the end-to-end rounding experiment."""

    trials: int = 100_000
    seed: int = 0
    alpha: float = 1.0
    ell: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")


@dataclass
class Report:
    """Tabular experiment result plus the context needed to rerun it."""

    name: str
    parameters: dict
    columns: list[str]
    rows: list[list]
    provenance: dict = field(default_factory=dict)


def _provenance(seed) -> dict:
    return {"package": "relq", "version": __version__, "seed": seed, "stream_version": STREAM_VERSION}


def _binomial_stderr(freq: float, n: int) -> float:
    return math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    if n == 0:
        return float("nan"), float("nan")
    mean = float(math.fsum(values) / n)
    if n == 1:
        return mean, float("nan")
    var = float(math.fsum((values - mean) ** 2) / (n - 1))
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# report serialization


def _cell_to_text(cell) -> str:
    if isinstance(cell, bool) or isinstance(cell, np.bool_):
        return "True" if cell else "False"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    return str(cell)


def _cell_from_text(text: str):
    if text == "True":
        return True
    if text == "False":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def format_report_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([_cell_to_text(c) for c in row])
    return buf.getvalue()


def parse_report_csv(text: str) -> tuple[list[str], list[list]]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ValueError("empty report")
    return rows[0], [[_cell_from_text(c) for c in row] for row in rows[1:]]


def format_report_json(report: Report) -> str:
    summary = {
        "name": report.name,
        "parameters": report.parameters,
        "provenance": report.provenance,
        "columns": report.columns,
        "row_count": len(report.rows),
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def write_report(report: Report, csv_path: str | Path) -> tuple[Path, Path]:
    """Write the data CSV plus a sibling .json summary; returns both paths."""
    csv_path = Path(csv_path)
    json_path = csv_path.with_suffix(".json")
    csv_path.write_text(format_report_csv(report))
    json_path.write_text(format_report_json(report))
    return csv_path, json_path


# ---------------------------------------------------------------------------
# sign-change statistics


def mc_sign_change(s: int, trials: int, seed: int, alpha: float = 1.0) -> Report:
    """Crossing-count frequencies of simulated circular walks vs. the closed forms.

    s counts the forward-walk steps (the Gaussian increments per trial); the
    circular trace has 2*s positions, the second half being the antipodal
    mirror of the first.  Blocks of traces come from one sequential stream;
    the report carries frequencies of {0, 1, >=2} extreme sign changes at
    the given threshold, and separately of the event that the first half of
    the trace alternates three or more times.  Reference values are the
    closed-form barrier-crossing probabilities; they are continuum limits,
    so the frequencies approach them from a finite-step bias of order
    1/sqrt(s).
    """
    if s < 100:
        raise ValueError(f"s must be >= 100, got {s}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sampler = GaussianSampler(seed)
    zero = one = two_plus = alt3 = 0
    block = _block_rows(s)
    done = 0
    while done < trials:
        rows = min(block, trials - done)
        incr = sampler.sample(rows * s).reshape(rows, s)
        values = canonical_values_batch(incr)
        counts, _, half_runs = trace_stats_batch(values, alpha)
        zero += int(np.sum(counts == 0))
        one += int(np.sum(counts == 1))
        two_plus += int(np.sum(counts >= 2))
        alt3 += int(np.sum(half_runs >= 3))
        done += rows
    p1 = prob_at_least_one()
    p3 = prob_three_or_more()
    stats = [
        ("count_zero", zero / trials, 1.0 - p1),
        ("count_one", one / trials, p1 - p3),
        ("count_two_plus", two_plus / trials, p3),
        ("half_alternations_three_plus", alt3 / trials, p3),
    ]
    rows_out = [
        [name, freq, _binomial_stderr(freq, trials), ref] for name, freq, ref in stats
    ]
    return Report(
        name="mc_sign_change",
        parameters={"s": s, "trials": trials, "alpha": alpha, "seed": seed},
        columns=["statistic", "frequency", "stderr", "reference"],
        rows=rows_out,
        provenance=_provenance(seed),
    )


# ---------------------------------------------------------------------------
# correlation gap


def correlation_gap_closed_form(theta: float) -> float:
    """E|x.r - y.r| for unit vectors at angle theta and standard normal r."""
    return 2.0 * math.sqrt(2.0) / math.sqrt(math.pi) * math.sin(0.5 * theta)


def mc_correlation_gap(theta: float, trials: int, seed: int) -> Report:
    """MC estimate of the mean absolute projection gap at angle theta."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sampler = GaussianSampler(seed)
    c1 = 1.0 - math.cos(theta)
    c2 = math.sin(theta)
    sums: list[float] = []
    sq_sums: list[float] = []
    block = _block_rows(2)
    done = 0
    while done < trials:
        rows = min(block, trials - done)
        r = sampler.sample(2 * rows).reshape(rows, 2)
        gap = np.abs(c1 * r[:, 0] - c2 * r[:, 1])
        sums.append(float(np.sum(gap)))
        sq_sums.append(float(np.sum(gap * gap)))
        done += rows
    mean = math.fsum(sums) / trials
    if trials > 1:
        var = max(math.fsum(sq_sums) - trials * mean * mean, 0.0) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = float("nan")
    return Report(
        name="mc_correlation_gap",
        parameters={"theta": theta, "trials": trials, "seed": seed},
        columns=["theta", "trials", "mean_abs_gap", "stderr", "closed_form"],
        rows=[[theta, trials, mean, stderr, correlation_gap_closed_form(theta)]],
        provenance=_provenance(seed),
    )


# ---------------------------------------------------------------------------
# correlated-pair walk experiment


def _audit_correlated_pair(
    theta: float, s: int, picks: list[int], base: np.ndarray, tol: float = 1e-9
) -> bool:
    """Spot-check the two-variable construction against its target Gram.

    Variable i carries the canonical constellation in the first s ambient
    coordinates, variable j carries cos(theta) times the same constellation
    plus sin(theta) times a copy in the second s coordinates.  Norms stay 1
    and cross inner products must equal cos(theta) * (1 - 4 d(k,l)/s) on the
    sampled labels picks, whose constellation rows are base.
    """
    cos_t = math.cos(theta)
    for a, k in enumerate(picks):
        if abs(float(base[a] @ base[a]) - 1.0) > tol:
            return False
        for b, l in enumerate(picks):
            want = cos_t * (1.0 - 4.0 * circular_distance(k, l, s) / s)
            got = cos_t * float(base[a] @ base[b])
            if abs(got - want) > tol:
                return False
    return True


def conjecture_experiment(
    theta_grid, s: int, trials: int, seed: int, alpha: float = 1.0
) -> Report:
    """Distance between rounded positions of an analytically correlated pair.

    For each angle, variable j's walk uses increments cos(theta)*r1 +
    sin(theta)*r2 (the walk map is linear in the ambient Gaussian, so this
    equals the walk of the rotated constellation).  Trials where both walks
    show exactly one extreme sign change contribute the normalized circular
    distance between the two positions; each cell reports the conditioned
    mean next to the fraction-of-circle bound theta/(2*pi).  Cell c draws
    from spawn(c) of the seed's sampler, one block of about 2^19 walk
    values at a time: the block's r1, then its r2.
    """
    if s < 100 or s % 2:
        raise ValueError(f"s must be even and >= 100, got {s}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    thetas = list(theta_grid)
    for theta in thetas:
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"angles must lie in [0, pi], got {theta}")
    sampler = GaussianSampler(seed)
    half = s // 2
    block = _block_rows(half)
    # the audit reads only the sampled rows; fancy indexing copies them, so
    # the full s x s/2 constellation is freed before the walks start
    picks = list(range(0, s, max(1, s // 8)))
    base = canonical_constellation(s).vectors[picks]
    rows_out = []
    for cell, theta in enumerate(thetas):
        audit_ok = _audit_correlated_pair(theta, s, picks, base)
        if not audit_ok:
            rows_out.append(
                [theta, math.cos(theta), s, trials, 0, 0.0, 0.0, float("nan"), float("nan"), theta / (2.0 * math.pi), False]
            )
            continue
        sub = sampler.spawn(cell)
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        one_i = 0
        both = 0
        dists: list[np.ndarray] = []
        done = 0
        while done < trials:
            rows = min(block, trials - done)
            r1 = sub.sample(rows * half).reshape(rows, half)
            ci, fi, _ = trace_stats_batch(canonical_values_batch(r1), alpha)
            r2 = sub.sample(rows * half).reshape(rows, half)
            r1 *= cos_t
            r2 *= sin_t
            r2 += r1  # cos_t * r1 + sin_t * r2, bit for bit
            cj, fj, _ = trace_stats_batch(canonical_values_batch(r2), alpha)
            one_i += int(np.sum(ci == 1))
            mask = (ci == 1) & (cj == 1)
            both += int(np.sum(mask))
            delta = (fj[mask] - fi[mask]) % s
            dists.append(np.minimum(delta, s - delta) / s)
            done += rows
        sample = np.concatenate(dists) if dists else np.empty(0)
        mean, stderr = _mean_stderr(sample)
        rows_out.append(
            [
                theta,
                cos_t,
                s,
                trials,
                both,
                both / trials,
                one_i / trials,
                mean,
                stderr,
                theta / (2.0 * math.pi),
                True,
            ]
        )
    return Report(
        name="conjecture_experiment",
        parameters={"s": s, "trials": trials, "alpha": alpha, "seed": seed, "theta_grid": thetas},
        columns=[
            "theta",
            "cos_theta",
            "s",
            "trials",
            "conditioned",
            "conditioning_rate",
            "marginal_one_rate",
            "mean_distance",
            "stderr",
            "bound",
            "audit_ok",
        ],
        rows=rows_out,
        provenance=_provenance(seed),
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline


def end_to_end_ratio(
    inst: Instance,
    cfg: ExperimentConfig,
    solver_cfg: SolverConfig | None = None,
    tol: float = 1e-3,
) -> Report:
    """Solve, convert, lift, round, and compare against the brute-force optimum.

    Trial t rounds with the substream spawn(t) of GaussianSampler(seed);
    all trials go through one batched rounding call and are scored with
    exact integers.

    The rounded mean can never beat the optimum (every rounded point is a
    feasible assignment of the scaled instance, whose optimum equals the
    original one), and the optimum can never beat the relaxation value, so
    the report carries a sandwich flag: mean <= opt + 3*stderr and
    opt <= relaxation + tol.  Ratios are informational only.
    """
    sampler = GaussianSampler(cfg.seed)  # first, so a bad seed fails before the solve
    _, opt = brute_force_optimum(inst)
    opt_f = float(opt)
    sol, solver_report = solve_p_plus(inst, solver_cfg)
    sdp_value = solver_report.objective
    sol_p = convert_to_p(sol)
    audit = feasibility_report(sol_p)
    if audit.max_residual > 1e-5:
        raise ValueError(f"converted solution infeasible: {audit.max_residual:.3e}")
    scaled = scale_instance(inst, cfg.ell)
    trial_samplers = [sampler.spawn(t) for t in range(cfg.trials)]
    outcome = round_lifted_solution(sol_p, cfg.ell, trial_samplers, alpha=cfg.alpha, audit=False)
    # score / s is the correctly rounded value of the exact Fraction total
    values = score_positions(scaled, outcome.positions) / scaled.p
    mean, stderr = _mean_stderr(values)
    slack = 3.0 * stderr if math.isfinite(stderr) else 0.0
    sandwich_ok = bool(mean <= opt_f + slack and opt_f <= sdp_value + tol)
    row = [
        inst.p,
        inst.n,
        inst.m,
        cfg.ell,
        cfg.trials,
        cfg.alpha,
        sdp_value,
        opt_f,
        mean,
        stderr,
        mean / opt_f if opt_f != 0.0 else float("nan"),
        mean / sdp_value if sdp_value != 0.0 else float("nan"),
        bool(solver_report.converged),
        solver_report.max_residual,
        sandwich_ok,
    ]
    return Report(
        name="end_to_end_ratio",
        parameters={
            "p": inst.p,
            "n": inst.n,
            "m": inst.m,
            "ell": cfg.ell,
            "trials": cfg.trials,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
            "tol": tol,
        },
        columns=[
            "p",
            "n",
            "m",
            "ell",
            "trials",
            "alpha",
            "sdp_value",
            "brute_optimum",
            "mean_rounded",
            "stderr",
            "ratio_rounded_to_opt",
            "ratio_rounded_to_sdp",
            "solver_converged",
            "solver_max_residual",
            "sandwich_ok",
        ],
        rows=[row],
        provenance=_provenance(cfg.seed),
    )


# ---------------------------------------------------------------------------
# constants report


def reproduce_constants() -> Report:
    """Computed barrier-crossing constants next to their reference values."""
    rows = []
    for entry in constants_table():
        if entry.kind == "quoted":
            ok = entry.delta <= 1e-4
        elif entry.kind == "bound":
            ok = entry.computed >= entry.reference
        else:
            ok = True
        rows.append([entry.name, entry.kind, entry.reference, entry.computed, entry.delta, ok])
    return Report(
        name="reproduce_constants",
        parameters={"tolerance": 1e-4},
        columns=["name", "kind", "reference", "computed", "abs_delta", "ok"],
        rows=rows,
        provenance=_provenance(None),
    )


def report_gate_ok(report: Report) -> bool:
    """True when every gating row of a report passed its own check."""
    cols = {name: idx for idx, name in enumerate(report.columns)}
    if "ok" in cols:
        kind = cols.get("kind")
        return all(row[cols["ok"]] for row in report.rows if kind is None or row[kind] != "info")
    if "sandwich_ok" in cols:
        return all(row[cols["sandwich_ok"]] for row in report.rows)
    raise ValueError(f"report {report.name} has no gate column")
