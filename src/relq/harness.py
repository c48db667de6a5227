"""Experiment drivers: Monte-Carlo studies, end-to-end rounding, report emission.

Every driver returns a Report that is a pure function of its parameters and
seed: floats are carried at full precision (shortest-repr in CSV, native in
JSON), no timestamps or environment data enter the artifact, and rerunning
with the same arguments reproduces the output byte for byte.

The Monte-Carlo drivers (mc_sign_change, mc_correlation_gap and
conjecture_experiment) split their trials into blocks of a fixed size, a
stream constant.  Block g runs whole on a worker thread, one per CPU
available to the process and at most _MAX_WORKERS, and reads its own
Philox substream, which the worker spawns from the seed's sampler.
Counter-based substreams are disjoint, so the blocks are independent.  Each
worker adds its blocks' tallies to a running total as they finish, and the
workers' totals are added after the join.  The tallies are integers, or
partial sums that math.fsum reduces exactly, so no number depends on the
worker count or on the scheduling.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relq import __version__
from relq._kernels import _check_alpha, _check_int, canonical_values_batch, trace_stats_batch
from relq.brownian import QUOTED_TOLERANCE, constants_table, prob_at_least_one, prob_three_or_more
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
from relq.sdp import (
    convert_to_p,
    feasibility_report,  # noqa: F401  (perfbench/tracer.py traces this name)
    solve_p_plus,
)

# normals per block of walks.  Block g of mc_sign_change reads
# _BLOCK_VALUES // s rows of s increments from spawn(g), and block g of
# conjecture_experiment as many rows of r1 and of r2, s/2 each, from
# spawn(0).spawn(g) and spawn(1).spawn(g).  Every block reads its own
# substream from its start, so this size decides which normals feed which
# walk: it is part of the stream layout, and changing it changes seeded
# numbers (STREAM_VERSION 6)
_BLOCK_VALUES = 1 << 18
# pairs per block in mc_correlation_gap, which reads block g from
# spawn(g): a stream constant like _BLOCK_VALUES.  The mean adds up
# per-block np.sum partial sums, so it also fixes the summation order
_GAP_BLOCK_ROWS = 1 << 18
# most worker threads one MC driver call runs.  Each worker owns its block
# buffers, 4 MB in mc_sign_change and conjecture_experiment, plus the
# kernels' temporaries, so this bounds a call's memory on a machine with
# many CPUs.  The worker count changes no number
_MAX_WORKERS = 4
# end_to_end_ratio's sandwich: the optimum may exceed the relaxation value by this much
_SANDWICH_TOL = 1e-3
# conjecture_experiment's audit: largest error allowed in a sampled norm or Gram entry
_AUDIT_TOL = 1e-9


def _block_rows(width: int) -> int:
    return max(1, _BLOCK_VALUES // width)


def _workers() -> int:
    """One worker per CPU this process may run on, at most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS))


def _add_fields(total: list, tally) -> list:
    return [a + b for a, b in zip(total, tally)]


def _block_map(job, trials: int, rows: int, arrays: int, width: int) -> list:
    """The field-by-field sum of job(g, rows_g, *buffers) over the blocks g of trials.

    Block g holds min(rows, trials - g*rows) trials.  job returns a
    sequence of fields, each added with +: an int or an integer array adds
    exactly, and a list collects partial sums for math.fsum.  Each worker
    thread owns one set of `arrays` float64 buffers of min(rows, trials) x
    width, claims the next block from a shared counter (next() on an
    itertools.count is one C call under the GIL, so no block runs twice)
    until none is left or a block has failed, and adds each block's fields
    to its own total when the block ends: no state grows with the blocks.
    The workers overlap in the Philox fills and element-wise kernels, which
    release the GIL, and take turns in canonical_values_batch's 2-D
    in-place np.cumsum, which holds it.  A block reads only its own
    substreams, and the fields add in any order to the same numbers, so no
    result depends on which worker ran a block.  The workers are joined,
    then the first error in block order is raised, and otherwise their
    totals are added.
    """
    blocks = -(-trials // rows)
    claims = itertools.count()
    totals: list = []
    errors: dict = {}

    def work(*buffers):
        total = None
        for g in claims:
            if errors or g >= blocks:
                break
            try:
                tally = job(g, min(rows, trials - g * rows), *buffers)
            except BaseException as exc:
                errors[g] = exc
                return
            total = list(tally) if total is None else _add_fields(total, tally)
        if total is not None:
            totals.append(total)

    # the buffers are allocated in this thread: allocated on the workers,
    # they raised walk_mc's peak RSS (BENCH_walk_mc_worker_loop.json)
    threads = [
        threading.Thread(target=work, args=[np.empty((min(rows, trials), width)) for _ in range(arrays)], name="relq-block")
        for _ in range(min(_workers(), blocks))
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        blocks = 0  # no block starts once the caller stops waiting
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[min(errors)]
    return functools.reduce(_add_fields, totals)


@dataclass
class ExperimentConfig:
    """Knobs of the end-to-end rounding experiment."""

    trials: int = 100_000
    seed: int = 0
    alpha: float = 1.0
    ell: int = 1

    def __post_init__(self):
        self.trials = _check_int("trials", self.trials, 1)
        self.ell = _check_int("ell", self.ell, 1)
        _check_alpha(self.alpha)


@dataclass
class Report:
    """Tabular experiment result plus the context needed to rerun it."""

    name: str
    parameters: dict
    columns: list[str]
    rows: list[list]
    provenance: dict = field(default_factory=dict)


def _report(name: str, parameters: dict, records: list[dict], seed) -> Report:
    """A Report whose columns are the first record's keys, in order, and whose rows are the records' values."""
    return Report(
        name=name,
        parameters=parameters,
        columns=list(records[0]),
        rows=[list(record.values()) for record in records],
        provenance={"package": "relq", "version": __version__, "seed": seed, "stream_version": STREAM_VERSION},
    )


def _binomial_stderr(freq: float, n: int) -> float:
    return math.sqrt(max(freq * (1.0 - freq), 0.0) / n)


def _exact_sum(values: np.ndarray, counts: list[int]) -> float:
    """Correctly rounded sum of counts[i] copies of each finite values[i].

    Every float is an integer over a power of two, so over the largest of
    those denominators, 2**(bits - 1), the sum is an exact integer, and
    int / int rounds correctly: the same float as math.fsum of the
    expanded values.
    """
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    bits = max((den.bit_length() for _, den in ratios), default=1)
    return sum(c * num << (bits - den.bit_length()) for c, (num, den) in zip(counts, ratios)) / (1 << (bits - 1))


def _mean_stderr(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a sample that holds counts[i] copies of values[i].

    Both sums are exact (_exact_sum), and each squared deviation is formed
    once per value, so the result equals that of the expanded sample summed
    by math.fsum, in any order.
    """
    keep = counts > 0
    values, counts = values[keep], counts[keep].tolist()
    n = sum(counts)
    if n == 0:
        return float("nan"), float("nan")
    mean = _exact_sum(values, counts) / n
    if n == 1:
        return mean, float("nan")
    var = _exact_sum((values - mean) ** 2, counts) / (n - 1)
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


def format_report_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([_cell_to_text(c) for c in row])
    return buf.getvalue()


def format_report_json(report: Report) -> str:
    summary = {
        "name": report.name,
        "parameters": report.parameters,
        "provenance": report.provenance,
        "columns": report.columns,
        "row_count": len(report.rows),
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def _report_paths(csv_path: str | Path) -> tuple[Path, Path]:
    """csv_path and its sibling .json summary path; a ValueError when they are one path."""
    csv_path = Path(csv_path)
    if csv_path.suffix == ".json":
        raise ValueError(f"CSV path {str(csv_path)!r} is also its .json summary path")
    return csv_path, csv_path.with_suffix(".json")


def write_report(report: Report, csv_path: str | Path) -> tuple[Path, Path]:
    """Write the data CSV plus a sibling .json summary; returns both paths."""
    csv_path, json_path = _report_paths(csv_path)
    csv_path.write_text(format_report_csv(report))
    json_path.write_text(format_report_json(report))
    return csv_path, json_path


# ---------------------------------------------------------------------------
# sign-change statistics


def mc_sign_change(s: int, trials: int, seed: int, alpha: float = 1.0) -> Report:
    """Crossing-count frequencies of simulated circular walks vs. the closed forms.

    s counts the forward-walk steps (the Gaussian increments per trial); the
    circular trace has 2*s positions, the second half being the antipodal
    mirror of the first.  Block g of traces reads its increments from
    spawn(g) of the seed's sampler, on a worker thread (see _block_map);
    the report carries frequencies of {0, 1, >=2} extreme sign changes at
    the given threshold.  Reference values are the closed-form
    barrier-crossing probabilities for barriers alpha apart; they are
    continuum limits, so the frequencies approach them from a finite-step
    bias of order 1/sqrt(s).
    """
    s, trials = _check_int("s", s, 100), _check_int("trials", trials, 1)
    _check_alpha(alpha)
    sampler = GaussianSampler(seed)

    def block(g, rows, normals, walks):
        values = canonical_values_batch(sampler.spawn(g).fill(normals[:rows]), out=walks[:rows])
        counts, _ = trace_stats_batch(values, alpha)
        return [int(np.sum(event)) for event in (counts == 0, counts == 1, counts >= 2)]

    zero, one, two_plus = _block_map(block, trials, _block_rows(s), 2, s)
    p1, p3 = prob_at_least_one(alpha), prob_three_or_more(alpha)
    stats = [
        ("count_zero", zero / trials, 1.0 - p1),
        ("count_one", one / trials, p1 - p3),
        ("count_two_plus", two_plus / trials, p3),
    ]
    records = [
        {"statistic": name, "frequency": freq, "stderr": _binomial_stderr(freq, trials), "reference": ref}
        for name, freq, ref in stats
    ]
    return _report("mc_sign_change", {"s": s, "trials": trials, "alpha": alpha, "seed": seed}, records, seed)


# ---------------------------------------------------------------------------
# correlation gap


def correlation_gap_closed_form(theta: float) -> float:
    """E|x.r - y.r| for unit vectors at angle theta and standard normal r."""
    return 2.0 * math.sqrt(2.0) / math.sqrt(math.pi) * math.sin(0.5 * theta)


def mc_correlation_gap(theta: float, trials: int, seed: int) -> Report:
    """MC estimate of the mean absolute projection gap at angle theta.

    Block g of _GAP_BLOCK_ROWS pairs reads spawn(g) of the seed's sampler,
    on a worker thread (see _block_map).
    """
    trials = _check_int("trials", trials, 1)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    sampler = GaussianSampler(seed)
    c1 = 1.0 - math.cos(theta)
    c2 = math.sin(theta)

    def block(g, rows, normals):
        # in place: each worker's block makes one temporary, not five
        r = sampler.spawn(g).fill(normals[:rows])
        gap = np.multiply(r[:, 0], c1)
        np.subtract(gap, np.multiply(r[:, 1], c2, out=r[:, 1]), out=gap)
        np.abs(gap, out=gap)
        return [float(np.sum(gap))], [float(np.sum(np.multiply(gap, gap, out=gap)))]

    sums, sq_sums = _block_map(block, trials, _GAP_BLOCK_ROWS, 1, 2)
    mean = math.fsum(sums) / trials
    if trials > 1:
        var = max(math.fsum(sq_sums) - trials * mean * mean, 0.0) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = float("nan")
    record = {
        "theta": theta,
        "trials": trials,
        "mean_abs_gap": mean,
        "stderr": stderr,
        "closed_form": correlation_gap_closed_form(theta),
    }
    return _report("mc_correlation_gap", {"theta": theta, "trials": trials, "seed": seed}, [record], seed)


# ---------------------------------------------------------------------------
# correlated-pair walk experiment


def _audit_correlated_pair(s: int) -> bool:
    """Spot-check the constellation both variables of the pair are built from.

    Variable i carries the canonical constellation in the first s/2 ambient
    coordinates, variable j carries cos(theta) times the same constellation
    plus sin(theta) times a copy in the second s/2, so norms stay 1 and the
    cross inner products are cos(theta) times the constellation's own.
    Checking norms and the Gram law 1 - 4 d(k,l)/s on sampled labels at
    full scale therefore covers every angle at once.  Only the sampled
    rows are built, about 8 of the constellation's s.
    """
    picks = list(range(0, s, max(1, s // 8)))
    base = canonical_constellation(s, picks)
    for a, k in enumerate(picks):
        if abs(float(base[a] @ base[a]) - 1.0) > _AUDIT_TOL:
            return False
        for b, l in enumerate(picks):
            if abs(float(base[a] @ base[b]) - (1.0 - 4.0 * circular_distance(k, l, s) / s)) > _AUDIT_TOL:
                return False
    return True


def conjecture_experiment(
    theta_grid, s: int, trials: int, seed: int, alpha: float = 1.0
) -> Report:
    """Distance between rounded positions of an analytically correlated pair.

    Variable i's walk W1 is built from increments r1, and for each angle
    variable j's walk is cos(theta)*W1 + sin(theta)*W2, with W2 built from
    increments r2: the walk map is linear in the ambient Gaussian, so this
    is the walk of cos(theta)*r1 + sin(theta)*r2 and of the rotated
    constellation.  Trials where both walks show exactly one extreme sign
    change contribute the normalized circular distance d/s between the two
    positions, d an integer in [0, s/2]; each cell reports the conditioned
    mean next to the fraction-of-circle bound theta/(2*pi).

    Every cell shares r1 and r2 (common random numbers), and W1 and W2 are
    built once per block, so marginal_one_rate is one number for the whole
    grid, differences between cells have lower variance, and a cell's row
    depends on its angle only, not on the grid around it.  Block g holds
    _BLOCK_VALUES // s trials, reads their r1 from spawn(0).spawn(g) and
    their r2 from spawn(1).spawn(g) of the seed's sampler, and runs whole
    on a worker thread (see _block_map).  A block tallies each cell's
    distances as a histogram over d, which its worker adds to a running
    total, so memory depends on neither s nor the trials beyond the block
    buffers and the s/2 + 1 bins a cell; the mean and stderr are summed
    exactly from the bins.  The construction is audited once per call; if
    the audit fails, every row reads audit_ok False with NaN means and
    nothing is drawn.  An empty grid is refused before the audit and any
    draw.
    """
    s, trials = _check_int("s", s), _check_int("trials", trials, 1)
    if s < 100 or s % 2:
        raise ValueError(f"s must be even and >= 100, got {s}")
    _check_alpha(alpha)
    thetas = list(theta_grid)
    if not thetas:
        raise ValueError("theta_grid must hold at least one angle")
    for theta in thetas:
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"angles must lie in [0, pi], got {theta}")
    sampler = GaussianSampler(seed)
    half = s // 2
    audit_ok = _audit_correlated_pair(s)
    trig = [(math.cos(theta), math.sin(theta)) for theta in thetas]
    r1, r2 = sampler.spawn(0), sampler.spawn(1)

    def block(g, rows, a, b, c, d):
        # a and b take r1 and r2, then their running sums, then each cell's
        # walk and its scratch; c and d take W1 and W2
        w1 = canonical_values_batch(r1.spawn(g).fill(a[:rows]), out=c[:rows])
        ci, fi = trace_stats_batch(w1, alpha)
        w2 = canonical_values_batch(r2.spawn(g).fill(b[:rows]), out=d[:rows])
        wj, scratch = a[:rows], b[:rows]
        hists = np.empty((len(trig), half + 1), dtype=np.int64)
        for cell, (cos, sin) in zip(hists, trig):
            np.multiply(w1, cos, out=wj)
            wj += np.multiply(w2, sin, out=scratch)
            cj, fj = trace_stats_batch(wj, alpha)
            mask = (ci == 1) & (cj == 1)
            delta = (fj[mask] - fi[mask]) % s
            cell[:] = np.bincount(np.minimum(delta, s - delta), minlength=half + 1)
        return int(np.sum(ci == 1)), hists

    if audit_ok:
        one_i, hists = _block_map(block, trials, _block_rows(s), 4, half)
    else:
        one_i, hists = 0, np.zeros((len(thetas), half + 1), dtype=np.int64)
    # bin d holds the trials whose positions lie d/s of the circle apart
    distances = np.arange(half + 1) / s
    records = []
    for theta, hist, n in zip(thetas, hists, hists.sum(axis=1).tolist()):
        mean, stderr = _mean_stderr(distances, hist)
        records.append({
            "theta": theta,
            "cos_theta": math.cos(theta),
            "s": s,
            "trials": trials,
            "conditioned": n,
            "conditioning_rate": n / trials,
            "marginal_one_rate": one_i / trials,
            "mean_distance": mean,
            "stderr": stderr,
            "bound": theta / (2.0 * math.pi),
            "audit_ok": audit_ok,
        })
    parameters = {"s": s, "trials": trials, "alpha": alpha, "seed": seed, "theta_grid": thetas}
    return _report("conjecture_experiment", parameters, records, seed)


# ---------------------------------------------------------------------------
# end-to-end pipeline


def end_to_end_ratio(inst: Instance, cfg: ExperimentConfig) -> Report:
    """Solve, convert, lift, round, and compare against the brute-force optimum.

    All trials go through one batched rounding call on
    GaussianSampler(seed), which reads their normals from its spawn(0)
    and their fallbacks from its spawn(1), and are scored with exact
    integers.

    The rounded mean can never beat the optimum (every rounded point is a
    feasible assignment of the scaled instance, whose optimum equals the
    original one), and the optimum can never beat the relaxation value, so
    the report carries a sandwich flag: mean <= opt + 3*stderr and
    opt <= relaxation + 1e-3.  Ratios are informational only.
    """
    # first, so that a bad seed or an oversized ell fails before the brute force and the solve
    sampler = GaussianSampler(cfg.seed)
    scaled = scale_instance(inst, cfg.ell)
    _, opt = brute_force_optimum(inst)
    opt_f = float(opt)
    sol, solver_report = solve_p_plus(inst)
    sdp_value = solver_report.objective
    sol_p = convert_to_p(sol)
    outcome = round_lifted_solution(sol_p, cfg.ell, sampler, cfg.trials, alpha=cfg.alpha)
    # each score / p is correctly rounded, and so are _mean_stderr's sums
    scores, counts = np.unique(score_positions(scaled, outcome.positions), return_counts=True)
    mean, stderr = _mean_stderr(scores / scaled.p, counts)
    slack = 3.0 * stderr if math.isfinite(stderr) else 0.0
    sandwich_ok = bool(mean <= opt_f + slack and opt_f <= sdp_value + _SANDWICH_TOL)
    setup = {"p": inst.p, "n": inst.n, "m": inst.m, "ell": cfg.ell, "trials": cfg.trials, "alpha": cfg.alpha}
    record = {
        **setup,
        "sdp_value": sdp_value,
        "brute_optimum": opt_f,
        "mean_rounded": mean,
        "stderr": stderr,
        "ratio_rounded_to_opt": mean / opt_f if opt_f != 0.0 else float("nan"),
        "ratio_rounded_to_sdp": mean / sdp_value if sdp_value != 0.0 else float("nan"),
        "solver_converged": bool(solver_report.converged),
        "solver_max_residual": solver_report.max_residual,
        "sandwich_ok": sandwich_ok,
    }
    return _report("end_to_end_ratio", {**setup, "seed": cfg.seed, "tol": _SANDWICH_TOL}, [record], cfg.seed)


# ---------------------------------------------------------------------------
# constants report


def reproduce_constants() -> Report:
    """Computed barrier-crossing constants next to their reference values."""
    records = [
        {"name": e.name, "kind": e.kind, "reference": e.reference, "computed": e.computed, "abs_delta": e.delta, "ok": e.ok}
        for e in constants_table()
    ]
    return _report("reproduce_constants", {"tolerance": QUOTED_TOLERANCE}, records, None)


def report_gate_ok(report: Report) -> bool:
    """True when every row of a report passed its own check."""
    cols = {name: idx for idx, name in enumerate(report.columns)}
    if "ok" in cols:
        return all(row[cols["ok"]] for row in report.rows)
    if "sandwich_ok" in cols:
        return all(row[cols["sandwich_ok"]] for row in report.rows)
    raise ValueError(f"report {report.name} has no gate column")
