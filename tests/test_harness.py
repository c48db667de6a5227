"""Experiment drivers: statistics, reports, determinism, round-trips."""

import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta

import relq.harness
from oracles import mean_stderr_expanded
from relq import __version__
from relq._kernels import canonical_values_batch, trace_stats_batch
from relq.brownian import prob_at_least_one, prob_three_or_more
from relq.harness import (
    _mean_stderr,
    ExperimentConfig,
    Report,
    conjecture_experiment,
    correlation_gap_closed_form,
    end_to_end_ratio,
    format_report_csv,
    format_report_json,
    mc_correlation_gap,
    mc_sign_change,
    report_gate_ok,
    reproduce_constants,
    write_report,
)
from relq.instance import Instance, generate_instance
from relq.rounding import GaussianSampler
from relq.sdp import solve_p_plus

TRIANGLE = Instance(p=4, n=3, equations=[(0, 1, 2), (1, 2, 2), (2, 0, 2)])


def _cells(report: Report) -> list[dict]:
    return [dict(zip(report.columns, row)) for row in report.rows]


def test_experiment_config_validation():
    ExperimentConfig()
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(ell=0)


def test_report_csv_round_trip():
    report = Report(
        name="demo",
        parameters={"k": 1},
        columns=["label", "value", "count", "flag"],
        rows=[
            ["a", 0.1 + 0.2, 7, True],
            ["b", -1.5e-300, 0, False],
            ["c", np.float64(0.1), np.int64(-3), np.bool_(True)],
        ],
    )
    # shortest-repr floats, plain ints and True/False, numpy scalars as Python's, byte for byte
    assert format_report_csv(report) == (
        "label,value,count,flag\n"
        "a,0.30000000000000004,7,True\n"
        "b,-1.5e-300,0,False\n"
        "c,0.1,-3,True\n"
    )


GAP_PI3_SEED5_SCHEMA = (
    ["theta", "trials", "mean_abs_gap", "stderr", "closed_form"],
    {"theta": 1.0471975511965976, "trials": 1000, "seed": 5},
    """\
{
  "columns": [
    "theta",
    "trials",
    "mean_abs_gap",
    "stderr",
    "closed_form"
  ],
  "name": "mc_correlation_gap",
  "parameters": {
    "seed": 5,
    "theta": 1.0471975511965976,
    "trials": 1000
  },
  "provenance": {
    "package": "relq",
    "seed": 5,
    "stream_version": 6,
    "version": "%(version)s"
  },
  "row_count": 1
}
""",
)


def test_write_report_emits_csv_and_json(tmp_path):
    report = mc_correlation_gap(theta=math.pi / 3, trials=1000, seed=5)
    csv_path, json_path = write_report(report, tmp_path / "gap.csv")
    assert csv_path.exists() and json_path.exists()
    summary = json.loads(json_path.read_text())
    assert set(summary) == {"name", "parameters", "provenance", "columns", "row_count"}
    assert summary["provenance"] == {"package": "relq", "version": __version__, "seed": 5, "stream_version": 6}
    assert summary["row_count"] == 1
    assert csv_path.read_bytes() == format_report_csv(report).encode()
    _assert_schema(report, GAP_PI3_SEED5_SCHEMA)


def test_reports_are_byte_identical_on_rerun(tmp_path):
    a = mc_correlation_gap(theta=math.pi / 3, trials=2000, seed=5)
    b = mc_correlation_gap(theta=math.pi / 3, trials=2000, seed=5)
    assert format_report_csv(a) == format_report_csv(b)
    assert format_report_json(a) == format_report_json(b)
    pa = write_report(a, tmp_path / "a.csv")
    pb = write_report(b, tmp_path / "b.csv")
    assert pa[0].read_bytes() == pb[0].read_bytes()
    assert pa[1].read_bytes() == pb[1].read_bytes()


def test_mc_sign_change_statistics():
    report = mc_sign_change(s=200, trials=4000, seed=17)
    cells = {row[0]: row for row in report.rows}
    freqs = {name: row[1] for name, row in cells.items()}
    assert freqs["count_zero"] + freqs["count_one"] + freqs["count_two_plus"] == pytest.approx(1.0, abs=1e-12)
    assert list(freqs) == ["count_zero", "count_one", "count_two_plus"]
    p1, p3 = prob_at_least_one(), prob_three_or_more()
    assert cells["count_zero"][3] == pytest.approx(1.0 - p1, abs=1e-12)
    assert cells["count_one"][3] == pytest.approx(p1 - p3, abs=1e-12)
    assert cells["count_two_plus"][3] == pytest.approx(p3, abs=1e-12)
    for name, row in cells.items():
        f = row[1]
        assert row[2] == pytest.approx(math.sqrt(f * (1 - f) / 4000), abs=1e-12)


def test_mc_sign_change_matches_closed_form_at_scale():
    report = mc_sign_change(s=2000, trials=20_000, seed=5)
    freqs = {row[0]: row[1] for row in report.rows}
    assert freqs["count_one"] >= 0.96
    assert freqs["count_one"] == pytest.approx(prob_at_least_one() - prob_three_or_more(), abs=0.005)


def _closed_form_rows(alpha):
    p1, p3 = prob_at_least_one(alpha), prob_three_or_more(alpha)
    return {"count_zero": 1.0 - p1, "count_one": p1 - p3, "count_two_plus": p3}


def test_mc_sign_change_reference_follows_alpha():
    # the walk's two barriers sit alpha apart, the gap of the closed forms
    report = mc_sign_change(s=2000, trials=20_000, seed=2, alpha=1.5)
    cells = {row[0]: row for row in report.rows}
    want = _closed_form_rows(1.5)
    assert {name: row[3] for name, row in cells.items()} == want
    # the finite-step bias, of order 1/sqrt(s), is about 0.014 here (0.004
    # at s = 32000); the alpha = 1 closed form, 0.0144, is 0.22 off
    assert cells["count_zero"][1] == pytest.approx(want["count_zero"], abs=0.03)
    # below alpha = 1 the closed forms hold too.  Watched at s steps, the walk
    # crosses about as often as a continuous path crosses barriers moved out
    # by beta/sqrt(s) each (Broadie, Glasserman & Kou 1997), so the continuity-
    # corrected form is the closed form at gap alpha + 2*beta/sqrt(s)
    s, trials, alpha = 400, 100_000, 0.5
    beta = -zeta(0.5) / math.sqrt(2.0 * math.pi)
    corrected = _closed_form_rows(alpha + 2.0 * beta / math.sqrt(s))
    report = mc_sign_change(s=s, trials=trials, seed=2, alpha=alpha)
    assert {row[0]: row[3] for row in report.rows} == _closed_form_rows(alpha)
    for name, freq, stderr, _ in report.rows:
        # no trial shows zero crossings, so that row's stderr is 0; the
        # corrected form predicts 3e-7
        assert abs(freq - corrected[name]) <= (4.0 * stderr if stderr else 1e-6), (name, freq, corrected[name], stderr)


def test_mc_sign_change_validation_and_determinism():
    with pytest.raises(ValueError):
        mc_sign_change(s=99, trials=10, seed=0)
    with pytest.raises(ValueError):
        mc_sign_change(s=200, trials=0, seed=0)
    a = mc_sign_change(s=200, trials=3000, seed=8)
    b = mc_sign_change(s=200, trials=3000, seed=8)
    assert format_report_csv(a) == format_report_csv(b)


# Report rows of small seeded runs, pinned so that a kernel rewrite that
# changes any crossing statistic, or the stream use, shows up here.
# Captured on stream version 6: block g of 2^18 normals reads its own
# substream.  5000 trials at s = 200 span four blocks of 1310 rows and one
# of 1070.
SIGN_CHANGE_S200_SEED3 = [
    ["count_zero", 146 / 5000, 0.002381065307798171, 0.014383761361076774],
    ["count_one", 4804 / 5000, 0.0027445713690847982, 0.9678828980765735],
    ["count_two_plus", 50 / 5000, 0.0014071247279470289, 0.017733340562349764],
]

# the report's columns, parameters and JSON summary, pinned like its rows
SIGN_CHANGE_S200_SEED3_SCHEMA = (
    ["statistic", "frequency", "stderr", "reference"],
    {"s": 200, "trials": 5000, "alpha": 1.0, "seed": 3},
    """\
{
  "columns": [
    "statistic",
    "frequency",
    "stderr",
    "reference"
  ],
  "name": "mc_sign_change",
  "parameters": {
    "alpha": 1.0,
    "s": 200,
    "seed": 3,
    "trials": 5000
  },
  "provenance": {
    "package": "relq",
    "seed": 3,
    "stream_version": 6,
    "version": "%(version)s"
  },
  "row_count": 3
}
""",
)

CONJECTURE_S200_SEED3 = [
    [0.2617993877991494, 0.9659258262890683, 200, 2000, 1847, 0.9235, 0.9495,
     0.04093665403356795, 0.0017118067706392622, 0.041666666666666664, True],
    [0.7853981633974483, 0.7071067811865476, 200, 2000, 1831, 0.9155, 0.9495,
     0.1257181867831786, 0.0028683670786391877, 0.125, True],
]

CONJECTURE_S200_SEED3_SCHEMA = (
    ["theta", "cos_theta", "s", "trials", "conditioned", "conditioning_rate", "marginal_one_rate",
     "mean_distance", "stderr", "bound", "audit_ok"],
    {"s": 200, "trials": 2000, "alpha": 1.0, "seed": 3, "theta_grid": [0.2617993877991494, 0.7853981633974483]},
    """\
{
  "columns": [
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
    "audit_ok"
  ],
  "name": "conjecture_experiment",
  "parameters": {
    "alpha": 1.0,
    "s": 200,
    "seed": 3,
    "theta_grid": [
      0.2617993877991494,
      0.7853981633974483
    ],
    "trials": 2000
  },
  "provenance": {
    "package": "relq",
    "seed": 3,
    "stream_version": 6,
    "version": "%(version)s"
  },
  "row_count": 2
}
""",
)

# 5000 trials at s = 100 span two blocks (2^18 // 100 = 2621 rows, then 2379)
CONJECTURE_S100_SEED5 = [
    [0.5235987755982988, 0.8660254037844387, 100, 5000, 4522, 0.9044, 0.9434,
     0.08480760725342769, 0.0015402315681152833, 0.08333333333333333, True],
]

# 1100 trials at s = 2000 span nine blocks, eight of 131 rows and one of
# 52, each with its own r1 and r2 substreams
CONJECTURE_S2000_SEED5 = [
    [0.5235987755982988, 0.8660254037844387, 2000, 1100, 1037, 0.9427272727272727, 0.9663636363636363,
     0.09044648023143684, 0.0033104728877106507, 0.08333333333333333, True],
]

# blocks of conjecture_experiment(..., s=2000, trials=1100, ...)
S2000_T1100_BLOCKS = [131] * 8 + [52]


def _cap_workers(monkeypatch, cap):
    # as if the process could run on 8 CPUs, so that the cap sets the count
    monkeypatch.setattr(relq.harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(relq.harness, "_MAX_WORKERS", cap)
    assert relq.harness._workers() == cap


def _assert_rows_exact(got, want):
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for g, w in zip(got_row, want_row):
            assert type(g) is type(w), (g, w)
            assert repr(g) == repr(w), (got_row, want_row)


def _assert_schema(report, pinned, **values):
    # pinned: the columns, the parameters, and the JSON summary with its
    # package version (and any other values) left as %-fields
    columns, parameters, summary = pinned
    got = (report.columns, report.parameters, format_report_json(report))
    assert got == (columns, parameters, summary % {"version": __version__, **values})


def test_mc_sign_change_rows_pinned():
    report = mc_sign_change(s=200, trials=5000, seed=3)
    _assert_rows_exact(report.rows, SIGN_CHANGE_S200_SEED3)
    _assert_schema(report, SIGN_CHANGE_S200_SEED3_SCHEMA)


def test_conjecture_experiment_rows_pinned():
    report = conjecture_experiment((math.pi / 12, math.pi / 4), s=200, trials=2000, seed=3)
    _assert_rows_exact(report.rows, CONJECTURE_S200_SEED3)
    _assert_schema(report, CONJECTURE_S200_SEED3_SCHEMA)


def test_conjecture_experiment_multi_chunk_rows_pinned():
    report = conjecture_experiment((math.pi / 6,), s=100, trials=5000, seed=5)
    _assert_rows_exact(report.rows, CONJECTURE_S100_SEED5)


def test_conjecture_experiment_multi_block_rows_pinned():
    report = conjecture_experiment((math.pi / 6,), s=2000, trials=1100, seed=5)
    _assert_rows_exact(report.rows, CONJECTURE_S2000_SEED5)


def test_conjecture_cells_share_one_r1():
    # nine blocks at s = 2000; every cell reads block g's r1 from
    # spawn(0).spawn(g) and its r2 from spawn(1).spawn(g)
    grid = (math.pi / 2, 0.0, math.pi / 4)
    cells = _cells(conjecture_experiment(grid, s=2000, trials=1100, seed=6))
    root = GaussianSampler(6)
    w1, w2 = (
        np.concatenate([
            canonical_values_batch(root.spawn(tag).spawn(g).sample(rows * 1000).reshape(rows, 1000))
            for g, rows in enumerate(S2000_T1100_BLOCKS)
        ])
        for tag in (0, 1)
    )
    ci, fi = trace_stats_batch(w1, 1.0)
    assert {cell["marginal_one_rate"] for cell in cells} == {int(np.sum(ci == 1)) / 1100}
    for cell in cells:
        cj, fj = trace_stats_batch(math.cos(cell["theta"]) * w1 + math.sin(cell["theta"]) * w2, 1.0)
        mask = (ci == 1) & (cj == 1)
        assert cell["conditioned"] == int(np.sum(mask))
    # at angle 0 walk j is walk i, so exactly r1's one-crossing trials count
    assert cells[1]["conditioning_rate"] == cells[1]["marginal_one_rate"]
    # at pi/2 walk j follows r2 alone; were r2 drawn from r1's stream the
    # two walks would coincide, here they are independent (mean 1/4)
    assert abs(cells[0]["mean_distance"] - 0.25) <= 0.03


def test_conjecture_rows_do_not_depend_on_later_cells_or_worker_count(monkeypatch):
    # every cell reads the same two substreams per block, and each block
    # reads only its own, so neither the rest of the grid, its order nor
    # the worker count moves a row: each equals its single-angle run's row
    grid = (math.pi / 12, math.pi / 6, math.pi / 4)
    three = conjecture_experiment(grid, s=2000, trials=1100, seed=5)
    two = conjecture_experiment(grid[:2], s=2000, trials=1100, seed=5)
    _assert_rows_exact(three.rows[:2], two.rows)
    for theta, row in zip(grid, three.rows):
        _assert_rows_exact([row], conjecture_experiment((theta,), s=2000, trials=1100, seed=5).rows)
    _assert_rows_exact(conjecture_experiment(grid[::-1], s=2000, trials=1100, seed=5).rows, three.rows[::-1])
    for cap in (1, 3):
        _cap_workers(monkeypatch, cap)
        _assert_rows_exact(conjecture_experiment(grid, s=2000, trials=1100, seed=5).rows, three.rows)


@pytest.mark.parametrize("grid", [(math.pi / 6,), (math.pi / 12, math.pi / 6, math.pi / 4)])
def test_conjecture_fills_two_arrays_per_block_whatever_the_grid(grid, monkeypatch):
    # 1100 trials at s = 2000 span nine blocks: one r1 and one r2 each, in
    # whatever order the workers reach them
    fills = []
    fill = GaussianSampler.fill

    def counted_fill(self, out):
        fills.append((self.path, out.shape))
        return fill(self, out)

    monkeypatch.setattr(GaussianSampler, "fill", counted_fill)
    conjecture_experiment(grid, s=2000, trials=1100, seed=5)
    want = [((tag, g), (rows, 1000)) for g, rows in enumerate(S2000_T1100_BLOCKS) for tag in (0, 1)]
    assert sorted(fills) == sorted(want)


@pytest.mark.parametrize("cap", [1, 3])
def test_sign_change_and_correlation_rows_do_not_depend_on_the_worker_count(monkeypatch, cap):
    # 2000 trials at s = 2000 span 16 blocks, and 600_001 pairs three
    sign = mc_sign_change(s=2000, trials=2000, seed=4).rows
    gap = mc_correlation_gap(theta=1.0, trials=600_001, seed=4).rows
    _cap_workers(monkeypatch, cap)
    _assert_rows_exact(mc_sign_change(s=2000, trials=2000, seed=4).rows, sign)
    _assert_rows_exact(mc_correlation_gap(theta=1.0, trials=600_001, seed=4).rows, gap)


def test_conjecture_empty_grid_draws_nothing(monkeypatch):
    draws = []
    sample, fill = GaussianSampler.sample, GaussianSampler.fill

    def counted_sample(self, dim):
        draws.append(dim)
        return sample(self, dim)

    def counted_fill(self, out):
        draws.append(out.size)
        return fill(self, out)

    monkeypatch.setattr(GaussianSampler, "sample", counted_sample)
    monkeypatch.setattr(GaussianSampler, "fill", counted_fill)
    with pytest.raises(ValueError, match="^theta_grid must hold at least one angle$"):
        conjecture_experiment((), s=200, trials=1000, seed=3)
    assert draws == []


def test_conjecture_empty_grid_skips_the_audit(monkeypatch):
    # an empty grid has no row to report the audit's verdict in, and is refused first
    built = []
    real = relq.harness.canonical_constellation

    def counted(p, labels=None):
        built.append(p)
        return real(p, labels)

    monkeypatch.setattr(relq.harness, "canonical_constellation", counted)
    with pytest.raises(ValueError, match="^theta_grid must hold at least one angle$"):
        conjecture_experiment((), s=8000, trials=10, seed=1)
    assert built == []
    conjecture_experiment((math.pi / 6,), s=200, trials=10, seed=1)
    assert built == [200]


def test_conjecture_audit_failure_fails_every_angle_and_draws_nothing(monkeypatch):
    # one sampled row negated keeps every norm but breaks the Gram law; pi/2
    # is in the grid because a check scaled by cos(theta) ~ 6e-17 misses it
    s = 200
    real = relq.harness.canonical_constellation

    def broken(p, labels=None):
        vectors = real(p, labels)
        rows = np.arange(p) if labels is None else np.asarray(labels)
        vectors[rows == s // 8] *= -1.0
        return vectors

    draws = []
    fill = GaussianSampler.fill

    def counted_fill(self, out):
        draws.append(out.size)
        return fill(self, out)

    monkeypatch.setattr(relq.harness, "canonical_constellation", broken)
    monkeypatch.setattr(GaussianSampler, "fill", counted_fill)
    grid = (0.0, math.pi / 6, math.pi / 2)
    cells = _cells(conjecture_experiment(grid, s=s, trials=1000, seed=3))
    assert [cell["theta"] for cell in cells] == list(grid)
    for cell in cells:
        assert cell["audit_ok"] is False
        assert cell["conditioned"] == 0
        assert math.isnan(cell["mean_distance"]) and math.isnan(cell["stderr"])
    assert draws == []


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_bad_alpha_is_rejected_before_any_draw(alpha, monkeypatch):
    fills = []
    fill = GaussianSampler.fill

    def counted_fill(self, out):
        fills.append(out.size)
        return fill(self, out)

    monkeypatch.setattr(GaussianSampler, "fill", counted_fill)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        conjecture_experiment([], s=100, trials=10, seed=0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        conjecture_experiment([math.pi / 6], s=2000, trials=1000, seed=0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        mc_sign_change(s=2000, trials=1000, seed=0, alpha=alpha)
    assert fills == []


def test_non_integer_sizes_are_rejected_before_any_draw(monkeypatch):
    draws = []
    fill = GaussianSampler.fill

    def counted_fill(self, out):
        draws.append(out.size)
        return fill(self, out)

    monkeypatch.setattr(GaussianSampler, "fill", counted_fill)
    calls = [
        ("s must be an integer, got 200.0", lambda: mc_sign_change(s=200.0, trials=10, seed=0)),
        (f"trials must be an integer, got {np.float64(10)!r}", lambda: mc_sign_change(s=200, trials=np.float64(10), seed=0)),
        ("trials must be an integer, got 10.5", lambda: mc_correlation_gap(theta=1.0, trials=10.5, seed=0)),
        ("s must be an integer, got 200.0", lambda: conjecture_experiment([0.5], s=200.0, trials=10, seed=0)),
        ("trials must be an integer, got 10.0", lambda: conjecture_experiment([0.5], s=200, trials=10.0, seed=0)),
        ("trials must be an integer, got 10.5", lambda: ExperimentConfig(trials=10.5)),
        ("ell must be an integer, got 2.0", lambda: ExperimentConfig(ell=2.0)),
        # one below-bound case per site
        ("s must be >= 100, got 99", lambda: mc_sign_change(s=99, trials=10, seed=0)),
        ("trials must be >= 1, got 0", lambda: mc_sign_change(s=200, trials=np.int64(0), seed=0)),
        ("trials must be >= 1, got -3", lambda: mc_correlation_gap(theta=1.0, trials=-3, seed=0)),
        ("trials must be >= 1, got 0", lambda: conjecture_experiment([0.5], s=200, trials=0, seed=0)),
        ("trials must be >= 1, got 0", lambda: ExperimentConfig(trials=0)),
        ("ell must be >= 1, got 0", lambda: ExperimentConfig(ell=0)),
    ]
    for message, call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    assert draws == []


def test_numpy_integer_sizes_give_the_same_reports():
    runs = [
        lambda i: mc_sign_change(s=i(200), trials=i(300), seed=1),
        lambda i: mc_correlation_gap(theta=1.0, trials=i(300), seed=1),
        lambda i: conjecture_experiment([0.5], s=i(200), trials=i(300), seed=1),
        lambda i: end_to_end_ratio(TRIANGLE, ExperimentConfig(trials=i(40), seed=1, ell=i(2))),
    ]
    for run in runs:
        want = run(int)
        for kind in (np.int64, np.int32):
            got = run(kind)
            assert format_report_csv(got) == format_report_csv(want)
            assert format_report_json(got) == format_report_json(want)


MC_DRIVER_CALLS = {
    "sign_change": lambda: mc_sign_change(s=2000, trials=1000, seed=2),
    "correlation_gap": lambda: mc_correlation_gap(theta=1.0, trials=600_000, seed=2),
    "conjecture": lambda: conjecture_experiment((math.pi / 6, math.pi / 4), s=2000, trials=1000, seed=2),
}


@pytest.mark.parametrize("driver", list(MC_DRIVER_CALLS))
def test_mc_drivers_join_their_draw_thread(driver):
    before = threading.active_count()
    MC_DRIVER_CALLS[driver]()
    assert threading.active_count() == before


@pytest.mark.parametrize("driver", list(MC_DRIVER_CALLS))
def test_mc_drivers_raise_a_failed_draw_and_join(driver, monkeypatch):
    # every driver above draws at least three times, from three blocks or
    # more; a draw's block is the last tag of its sampler's path.  A
    # KeyboardInterrupt on a worker is not an Exception, and it too must
    # reach the caller after the workers are joined
    fill = GaussianSampler.fill
    calls = []
    lock = threading.Lock()

    def failing_fill(self, out):
        with lock:
            calls.append(self.path[-1])
            failed = len(calls) == 3
        if failed:
            raise error("draw failed")
        return fill(self, out)

    monkeypatch.setattr(GaussianSampler, "fill", failing_fill)
    before = threading.active_count()
    workers, top = relq.harness._workers(), relq.harness._MAX_WORKERS
    for error, cap in [(RuntimeError, 1), (RuntimeError, top), (KeyboardInterrupt, top)]:
        monkeypatch.setattr(relq.harness, "_MAX_WORKERS", cap)
        calls.clear()
        with pytest.raises(error, match="draw failed"):
            MC_DRIVER_CALLS[driver]()
        assert threading.active_count() == before
        if cap == 1:
            # one block at a time: nothing is drawn after the failure
            assert len(calls) == 3
        else:
            # only blocks already in flight, at most one per other worker,
            # may still start drawing after the failure
            late = set(calls[3:]) - set(calls[:3])
            assert len(late) <= workers - 1, calls


def test_concurrent_mc_drivers_keep_their_bits(monkeypatch):
    # four driver calls at once, each with three workers of its own, run
    # blocks of 20 rows under a short switch interval
    monkeypatch.setattr(relq.harness, "_BLOCK_VALUES", 1 << 12)
    _cap_workers(monkeypatch, 3)
    calls = [lambda seed=seed: mc_sign_change(s=200, trials=1500, seed=seed).rows for seed in range(2)]
    calls += [lambda seed=seed: conjecture_experiment((math.pi / 6, math.pi / 3), s=200, trials=600, seed=seed).rows
              for seed in range(2)]
    want = [call() for call in calls]
    got = [None] * len(calls)

    def run(k):
        got[k] = calls[k]()

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(calls))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threading.active_count() == before
    for g, w in zip(got, want):
        _assert_rows_exact(g, w)


def test_mc_drivers_join_their_draw_thread_when_a_kernel_raises(monkeypatch):
    # the kernel fails while the worker fills the next block
    calls = []

    def failing_stats(values, alpha):
        calls.append(values.shape)
        if len(calls) == 2:
            raise RuntimeError("kernel failed")
        return trace_stats_batch(values, alpha)

    monkeypatch.setattr(relq.harness, "trace_stats_batch", failing_stats)
    before = threading.active_count()
    for driver in ("sign_change", "conjecture"):
        calls.clear()
        with pytest.raises(RuntimeError, match="kernel failed"):
            MC_DRIVER_CALLS[driver]()
        assert threading.active_count() == before


# end_to_end_ratio rows of the planted (4, 8, 6, seed 21) instance and the
# triangle, 2000 trials each, captured on stream version 4 (normals from the
# seed's spawn(0), fallbacks from its spawn(1)) from the solver that factors
# the Hermitian frequency blocks
E2E_ROWS = {
    ("planted", 1, 0): [8, 4, 6, 1, 2000, 1.0, 5.999999999930378, 6.0, 5.1125, 0.032483834052300056,
                        0.8520833333333333, 0.8520833333432205, True, 1.0799097727165474e-11, True],
    ("planted", 1, 1): [8, 4, 6, 1, 2000, 1.0, 5.999999999930378, 6.0, 5.1675, 0.032122621412381674,
                        0.8612500000000001, 0.8612500000099936, True, 1.0799097727165474e-11, True],
    ("planted", 4, 0): [8, 4, 6, 4, 2000, 1.0, 5.999999999930378, 6.0, 5.691375, 0.02115912413013538,
                        0.9485625, 0.9485625000110067, True, 1.0799097727165474e-11, True],
    ("planted", 4, 1): [8, 4, 6, 4, 2000, 1.0, 5.999999999930378, 6.0, 5.7058125, 0.021063878611570008,
                        0.95096875, 0.9509687500110348, True, 1.0799097727165474e-11, True],
    ("triangle", 5, 1): [4, 3, 3, 5, 2000, 1.0, 2.24999999991252, 2.0, 1.8934000000000002, 0.0054619718571486744,
                         0.9467000000000001, 0.841511111143829, True, 1.4580142648767946e-11, True],
}

# the columns, parameters and JSON summary of those reports, pinned like the
# rows so that a schema change shows up too
E2E_COLUMNS = [
    "p", "n", "m", "ell", "trials", "alpha", "sdp_value", "brute_optimum", "mean_rounded", "stderr",
    "ratio_rounded_to_opt", "ratio_rounded_to_sdp", "solver_converged", "solver_max_residual", "sandwich_ok",
]

# with p, n, m, ell and seed left as %-fields
E2E_SUMMARY = """\
{
  "columns": [
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
    "sandwich_ok"
  ],
  "name": "end_to_end_ratio",
  "parameters": {
    "alpha": 1.0,
    "ell": %(ell)d,
    "m": %(m)d,
    "n": %(n)d,
    "p": %(p)d,
    "seed": %(seed)d,
    "tol": 0.001,
    "trials": 2000
  },
  "provenance": {
    "package": "relq",
    "seed": %(seed)d,
    "stream_version": 6,
    "version": "%(version)s"
  },
  "row_count": 1
}
"""


@pytest.mark.parametrize("name,ell,seed", list(E2E_ROWS))
def test_end_to_end_rows_pinned(name, ell, seed):
    inst = generate_instance(n=4, p=8, m=6, seed=21, planted=True)[0] if name == "planted" else TRIANGLE
    report = end_to_end_ratio(inst, ExperimentConfig(trials=2000, seed=seed, ell=ell))
    _assert_rows_exact(report.rows, [E2E_ROWS[name, ell, seed]])
    p, n, m = E2E_ROWS[name, ell, seed][:3]
    parameters = {"p": p, "n": n, "m": m, "ell": ell, "trials": 2000, "alpha": 1.0, "seed": seed, "tol": 0.001}
    _assert_schema(report, (E2E_COLUMNS, parameters, E2E_SUMMARY), **parameters)


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_mc_drivers_stream_in_bounded_memory():
    # a whole 4096 x 2000 chunk of float64 increments alone is 65 MB
    sign = _traced_peak_mb(lambda: mc_sign_change(s=2000, trials=4096, seed=1))
    assert sign <= 32.0
    for trials in (1024, 4096):
        # r1 and r2 are drawn a block at a time: 4096 trials' r1 alone is 32 MB
        conj = _traced_peak_mb(lambda: conjecture_experiment((math.pi / 6,), s=2000, trials=trials, seed=1))
        assert conj <= 32.0, trials


def test_conjecture_memory_is_flat_in_s_and_trials(monkeypatch):
    # three angles on two workers, whose block buffers take 8.4 MB: the
    # audit builds only its sampled rows, not the 16 MB constellation at
    # s = 2000, and each worker folds its blocks' histograms as they end,
    # so the peak does not grow with the trials
    _cap_workers(monkeypatch, 2)
    grid = (math.pi / 12, math.pi / 6, math.pi / 4)
    for s, trials in ((2000, 4096), (200, 200_000)):
        peak = _traced_peak_mb(lambda: conjecture_experiment(grid, s=s, trials=trials, seed=1))
        assert peak <= 12.0, (s, trials, peak)


def test_block_map_memory_is_flat_in_the_trials():
    # 10^7 trials in blocks of 131 rows, as at s = 2000, are 76,336 blocks: a
    # list with one entry per block alone would take megabytes.  The fields
    # count each trial and each block once, whichever worker claimed it
    totals = []

    def job(g, rows):
        return rows, 1

    peak = _traced_peak_mb(lambda: totals.append(relq.harness._block_map(job, 10**7, 131, 0, 2000)))
    assert totals == [[10**7, -(-10**7 // 131)]]
    assert peak <= 0.1, peak


def test_mc_drivers_stay_in_bounded_memory_at_the_worker_cap(monkeypatch):
    # as many CPUs as the cap allows: each worker holds its own buffers
    _cap_workers(monkeypatch, relq.harness._MAX_WORKERS)
    assert _traced_peak_mb(lambda: mc_sign_change(s=2000, trials=4096, seed=1)) <= 32.0
    assert _traced_peak_mb(lambda: mc_correlation_gap(theta=1.0, trials=1_000_000, seed=1)) <= 32.0
    conj = _traced_peak_mb(lambda: conjecture_experiment((math.pi / 6,), s=2000, trials=4096, seed=1))
    assert conj <= 32.0


def test_end_to_end_rounds_in_bounded_memory():
    # trials run in blocks; at ell = 1000 one trial alone fills a block
    inst, _ = generate_instance(n=4, p=8, m=6, seed=21, planted=True)
    assert _traced_peak_mb(lambda: end_to_end_ratio(inst, ExperimentConfig(trials=2000, seed=1, ell=4))) <= 4.0
    assert _traced_peak_mb(lambda: end_to_end_ratio(inst, ExperimentConfig(trials=2000, seed=1, ell=1000))) <= 4.0


def test_end_to_end_rejects_out_of_range_seeds():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            end_to_end_ratio(TRIANGLE, ExperimentConfig(trials=4, seed=seed))


def test_end_to_end_refuses_an_oversized_ell_before_the_solve(monkeypatch):
    calls = []
    for name in ("brute_force_optimum", "solve_p_plus"):
        real = getattr(relq.harness, name)
        monkeypatch.setattr(relq.harness, name, lambda inst, name=name, real=real: calls.append(name) or real(inst))
    with pytest.raises(ValueError, match="^scaled domain 4000000000 exceeds limit 1000000000$"):
        end_to_end_ratio(TRIANGLE, ExperimentConfig(trials=10, seed=0, ell=10**9))
    assert calls == []


def test_mc_correlation_gap_closed_forms():
    assert correlation_gap_closed_form(math.pi) == pytest.approx(1.595769, abs=1e-6)
    assert correlation_gap_closed_form(math.pi / 2) == pytest.approx(1.128379, abs=1e-6)
    zero = mc_correlation_gap(theta=0.0, trials=1000, seed=3)
    cell = _cells(zero)[0]
    assert cell["mean_abs_gap"] == 0.0
    assert cell["stderr"] == 0.0
    for theta in (math.pi / 2, math.pi):
        report = mc_correlation_gap(theta=theta, trials=200_000, seed=3)
        cell = _cells(report)[0]
        rel = abs(cell["mean_abs_gap"] - cell["closed_form"]) / cell["closed_form"]
        assert rel <= 0.01
    # one trial has a mean but no spread to estimate its error from
    cell = _cells(mc_correlation_gap(theta=1.0, trials=1, seed=3))[0]
    assert cell["trials"] == 1 and math.isfinite(cell["mean_abs_gap"]) and cell["mean_abs_gap"] >= 0.0
    assert math.isnan(cell["stderr"])
    with pytest.raises(ValueError):
        mc_correlation_gap(theta=-0.1, trials=10, seed=0)
    with pytest.raises(ValueError):
        mc_correlation_gap(theta=1.0, trials=0, seed=0)


def test_histogram_mean_stderr_matches_the_expanded_fsum():
    # conjecture's distances: fl(d/s) for integers d in [0, s/2], counted
    rng = np.random.default_rng(16)
    for case in range(3000):
        s = 2 * int(rng.integers(50, 8001))
        n = case if case < 2 else int(rng.integers(0, 3001))
        d = rng.integers(0, int(rng.integers(0, s // 2)) + 1, size=n)
        got = _mean_stderr(np.arange(s // 2 + 1) / s, np.bincount(d, minlength=s // 2 + 1))
        assert repr(got) == repr(mean_stderr_expanded(d / s)), (s, n)
    # end_to_end_ratio's values: integer scores over p, negative ones too
    for p in (4, 8, 21, 24, 84, 1000):
        for n in (0, 1, 2, 2000):
            scores = rng.integers(-6 * p, 6 * p + 1, size=n)
            values, counts = np.unique(scores, return_counts=True)
            got = _mean_stderr(values / p, counts)
            assert repr(got) == repr(mean_stderr_expanded(scores / p)), (p, n)


def test_conjecture_experiment_zero_angle_and_shape():
    report = conjecture_experiment([0.0, math.pi / 2], s=200, trials=4000, seed=13)
    cells = _cells(report)
    assert cells[0]["theta"] == 0.0
    assert cells[0]["audit_ok"] is True
    assert cells[0]["conditioned"] > 0
    # identical increments give identical traces, so every distance is zero
    assert cells[0]["mean_distance"] == 0.0
    assert cells[0]["bound"] == 0.0
    right = cells[1]
    assert right["bound"] == pytest.approx(0.25, abs=1e-12)
    assert 0.0 <= right["mean_distance"] <= 0.5
    assert right["cos_theta"] == pytest.approx(0.0, abs=1e-12)
    assert right["conditioning_rate"] <= right["marginal_one_rate"]


def test_conjecture_experiment_validation_and_determinism():
    with pytest.raises(ValueError):
        conjecture_experiment([0.5], s=99, trials=10, seed=0)
    with pytest.raises(ValueError):
        conjecture_experiment([0.5], s=200, trials=0, seed=0)
    with pytest.raises(ValueError):
        conjecture_experiment([3.5], s=200, trials=10, seed=0)
    a = conjecture_experiment([math.pi / 6], s=200, trials=2000, seed=4)
    b = conjecture_experiment([math.pi / 6], s=200, trials=2000, seed=4)
    assert format_report_csv(a) == format_report_csv(b)


def test_conjecture_marginal_rate_matches_sign_change_mc():
    # same marginal walk process, two independent drivers
    sign = mc_sign_change(s=500, trials=20_000, seed=9)
    one = {row[0]: (row[1], row[2]) for row in sign.rows}["count_one"]
    conj = conjecture_experiment([math.pi / 6], s=1000, trials=20_000, seed=10)
    cell = _cells(conj)[0]
    rate = cell["marginal_one_rate"]
    se = math.sqrt(rate * (1 - rate) / 20_000)
    assert abs(rate - one[0]) <= 3.0 * math.sqrt(se * se + one[1] * one[1])


def test_end_to_end_planted_instance():
    inst, hidden = generate_instance(n=4, p=8, m=6, seed=21, planted=True)
    assert hidden is not None
    report = end_to_end_ratio(inst, ExperimentConfig(trials=50, seed=2, ell=1))
    cell = _cells(report)[0]
    assert cell["brute_optimum"] == pytest.approx(6.0, abs=1e-12)
    assert cell["sdp_value"] >= 6.0 - 1e-3
    assert cell["solver_converged"] is True
    assert cell["sandwich_ok"] is True
    assert cell["mean_rounded"] <= cell["brute_optimum"] + 3 * cell["stderr"]


def test_end_to_end_lifted_triangle(tmp_path):
    report = end_to_end_ratio(TRIANGLE, ExperimentConfig(trials=300, seed=1, ell=5))
    cell = _cells(report)[0]
    assert cell["ell"] == 5
    assert cell["sdp_value"] == pytest.approx(2.25, abs=1e-6)
    assert cell["brute_optimum"] == pytest.approx(2.0, abs=1e-12)
    assert cell["sandwich_ok"] is True
    assert 0.0 < cell["ratio_rounded_to_sdp"] < 1.0
    again = end_to_end_ratio(TRIANGLE, ExperimentConfig(trials=300, seed=1, ell=5))
    assert format_report_csv(report) == format_report_csv(again)


def test_end_to_end_flags_unconverged_solver(monkeypatch):
    monkeypatch.setattr(relq.harness, "solve_p_plus", lambda inst: solve_p_plus(inst, max_iterations=5))
    report = end_to_end_ratio(TRIANGLE, ExperimentConfig(trials=20, seed=3, ell=1))
    cell = _cells(report)[0]
    assert cell["solver_converged"] is False


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_end_to_end_rejects_non_finite_solver_output(bad, monkeypatch):
    sol, rep = solve_p_plus(TRIANGLE)
    sol.u[1, 0, 0] = bad
    monkeypatch.setattr(relq.harness, "solve_p_plus", lambda inst: (sol, rep))
    with pytest.raises(ValueError, match="solution infeasible: max residual (nan|inf)"):
        end_to_end_ratio(TRIANGLE, ExperimentConfig(trials=4, seed=0))


CONSTANTS_SCHEMA = (
    ["name", "kind", "reference", "computed", "abs_delta", "ok"],
    {"tolerance": 0.0001},
    """\
{
  "columns": [
    "name",
    "kind",
    "reference",
    "computed",
    "abs_delta",
    "ok"
  ],
  "name": "reproduce_constants",
  "parameters": {
    "tolerance": 0.0001
  },
  "provenance": {
    "package": "relq",
    "seed": null,
    "stream_version": 6,
    "version": "%(version)s"
  },
  "row_count": 14
}
""",
)


def test_reproduce_constants_report():
    report = reproduce_constants()
    assert report_gate_ok(report)
    cells = _cells(report)
    by_name = {c["name"]: c for c in cells}
    assert by_name["at_least_one_total"]["abs_delta"] <= 1e-4
    assert by_name["three_or_more_total"]["abs_delta"] <= 1e-4
    bound = by_name["exact_one_lower_bound"]
    assert bound["kind"] == "bound" and bound["computed"] >= 0.96
    kinds = {c["kind"] for c in cells}
    assert kinds == {"quoted", "bound", "info"}
    _assert_schema(report, CONSTANTS_SCHEMA)


def test_report_gate_logic():
    # every row gates: an info row's ok is always True (ConstantRow.ok)
    base = Report(name="x", parameters={}, columns=["kind", "ok"], rows=[["quoted", True], ["info", True]])
    assert report_gate_ok(base)
    base.rows[1][1] = False
    assert not report_gate_ok(base)
    sandwich = Report(name="y", parameters={}, columns=["sandwich_ok"], rows=[[True]])
    assert report_gate_ok(sandwich)
    with pytest.raises(ValueError):
        report_gate_ok(Report(name="z", parameters={}, columns=["a"], rows=[[1]]))
