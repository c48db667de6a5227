"""Acceptance gate: eleven release criteria, one printed verdict line each.

Each test prints `[criterion NN] PASS|FAIL — detail` with capture suspended
so the verdicts always reach the terminal, then asserts.  Criterion 10 follows a
seed-variation protocol: an exceedance only fails the gate when it is
reproduced across independent seeds.
"""

import math
import numpy as np
import pytest
from scipy.integrate import quad

from oracles import discretization_margin_check, hitting_time_density, integral_embedding, lift_solution, objective_p
from relq.brownian import constants_table
from relq.cli import main as cli_main
from relq.constellation import canonical_constellation, solution_residuals, target_gram
from relq.harness import conjecture_experiment, mc_correlation_gap, mc_sign_change
from relq.instance import (
    Instance,
    brute_force_optimum,
    evaluate,
    generate_instance,
    scale_instance,
)
from relq.rounding import GaussianSampler, round_lifted_solution
from relq.sdp import convert_to_p, objective_p_plus, solve_p_plus

TRIANGLE = Instance(p=4, n=3, equations=[(0, 1, 2), (1, 2, 2), (2, 0, 2)])


def _line(capfd, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"[criterion {num:02d}] {verdict} — {detail}", flush=True)
    if not ok:
        pytest.fail(f"criterion {num}: {detail}")


def test_criterion_01_constellation_exactness(capfd):
    worst = 0.0
    for p in (4, 8, 16, 64):
        cons = canonical_constellation(p)
        norms = np.linalg.norm(cons, axis=1)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        gram = cons @ cons.T
        worst = max(worst, float(np.max(np.abs(gram - target_gram(p)))))
    _line(capfd, 1, worst <= 1e-12, f"unit norms and pairwise cosines exact to {worst:.3e} (tol 1e-12)")


def test_criterion_02_probability_constants(capfd):
    rows = constants_table()
    quoted = [r for r in rows if r.kind == "quoted"]
    bound = [r for r in rows if r.kind == "bound"]
    assert len(quoted) == 11 and len(bound) == 1
    worst = max(r.delta for r in quoted)
    ok = worst <= 1e-4 and bound[0].computed >= bound[0].reference
    _line(
        capfd,
        2,
        ok,
        f"11 quoted constants reproduced, worst |delta| {worst:.2e} (tol 1e-4); "
        f"single-crossing lower bound {bound[0].computed:.6f} >= {bound[0].reference}",
    )


def test_criterion_03_sign_change_frequencies(capfd):
    report = mc_sign_change(s=2000, trials=200_000, seed=20240915)
    freqs = {row[0]: row[1] for row in report.rows}
    refs = {row[0]: row[3] for row in report.rows}
    d1 = abs(freqs["count_one"] - refs["count_one"])
    d0 = abs(freqs["count_zero"] - refs["count_zero"])
    ok = freqs["count_one"] >= 0.96 and d1 <= 0.005 and d0 <= 0.005
    _line(
        capfd,
        3,
        ok,
        f"single-crossing freq {freqs['count_one']:.5f} (>=0.96, |delta| {d1:.4f}), "
        f"no-crossing freq {freqs['count_zero']:.5f} (|delta| {d0:.4f}), tol 0.005",
    )


def test_criterion_04_correlation_gap(capfd):
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        report = mc_correlation_gap(theta=theta, trials=1_000_000, seed=7)
        row = dict(zip(report.columns, report.rows[0]))
        worst = max(worst, abs(row["mean_abs_gap"] - row["closed_form"]) / row["closed_form"])
    _line(capfd, 4, worst <= 0.01, f"mean |gap| within {worst:.4%} of 2*sqrt(2/pi)*sin(theta/2) at 5 angles (tol 1%)")


def test_criterion_05_integral_embedding_consistency(capfd):
    rng = np.random.default_rng(12345)
    worst_embed = 0.0
    worst_convert = 0.0
    for k in range(100):
        n = int(rng.integers(2, 6))
        p = int(rng.choice([4, 8]))
        m = int(rng.integers(1, 9))
        inst, _ = generate_instance(n=n, p=p, m=m, seed=1000 + k)
        asg = [int(x) for x in rng.integers(0, p, size=n)]
        exact = float(evaluate(inst, asg))
        sol = integral_embedding(inst, asg)
        worst_embed = max(worst_embed, abs(objective_p_plus(sol, inst) - exact))
        worst_convert = max(worst_convert, abs(objective_p(convert_to_p(sol), inst) - exact))
    ok = worst_embed <= 1e-9 and worst_convert <= 1e-8
    _line(
        capfd,
        5,
        ok,
        f"100 integral embeddings match exact scores to {worst_embed:.2e} (tol 1e-9), "
        f"conversion preserves them to {worst_convert:.2e} (tol 1e-8)",
    )


def test_criterion_06_solver_beats_brute_force(capfd):
    cases = [TRIANGLE]
    for n, p, m, seed, planted in (
        (3, 4, 4, 101, False),
        (4, 4, 6, 102, False),
        (4, 8, 5, 103, True),
        (5, 8, 7, 104, False),
    ):
        inst, _ = generate_instance(n=n, p=p, m=m, seed=seed, planted=planted)
        cases.append(inst)
    worst_gap = -math.inf
    worst_residual = 0.0
    for inst in cases:
        _, best = brute_force_optimum(inst)
        _, rep = solve_p_plus(inst)
        worst_gap = max(worst_gap, float(best) - rep.objective)
        worst_residual = max(worst_residual, rep.max_residual)
    ok = worst_gap <= 1e-3 and worst_residual <= 1e-6
    _line(
        capfd,
        6,
        ok,
        f"5 instances: relaxation value >= optimum - {max(worst_gap, 0.0):.2e} (tol 1e-3), "
        f"max residual {worst_residual:.2e} (tol 1e-6)",
    )


def test_criterion_07_lifting_fidelity(capfd):
    inst, _ = generate_instance(n=3, p=8, m=5, seed=77)
    asg = [1, 4, 6]
    base = convert_to_p(integral_embedding(inst, asg))
    base_obj = objective_p(base, inst)
    worst = 0.0
    positions_ok = True
    for ell in (2, 5, 50):
        lifted = lift_solution(base, ell)
        worst = max(worst, float(np.max(list(solution_residuals(lifted).values()))))
        scaled = scale_instance(inst, ell)
        worst = max(worst, abs(objective_p(lifted, scaled) - base_obj))
        outcome = round_lifted_solution(base, ell, GaussianSampler(5), 1)
        positions_ok = positions_ok and all(0 <= int(x) < ell * inst.p for x in outcome.positions[0])
    ok = worst <= 1e-9 and positions_ok
    _line(
        capfd,
        7,
        ok,
        f"lifts at ell in (2, 5, 50) stay feasible and preserve the objective to {worst:.2e} "
        f"(tol 1e-9); rounded positions stay inside the refined domain: {positions_ok}",
    )


def test_criterion_08_hitting_time_mass(capfd):
    worst = 0.0
    for b in (0.5, 1.0, 2.0):
        for T in (0.5, 1.0):
            mass, _ = quad(lambda t: hitting_time_density(b, t), 1e-12, T)
            tail = 0.5 * math.erfc(b / math.sqrt(2.0 * T))
            worst = max(worst, abs(mass - 2.0 * tail))
    _line(capfd, 8, worst <= 1e-6, f"first-passage density mass matches 2(1-Phi(b/sqrt(T))) to {worst:.2e} (tol 1e-6)")


def test_criterion_09_margin_check_regimes(capfd):
    good = discretization_margin_check(s=2_000_000_000, eta=0.01, c=1e-4, trials=100_000, seed=11)
    bad = discretization_margin_check(s=4000, eta=0.01, c=1e-4, trials=100_000, seed=11)
    ok = (
        good.regime_ok
        and good.frequency >= 0.997 - 3.0 * max(good.stderr, 1e-12)
        and not bad.regime_ok
        and bad.frequency < good.frequency
    )
    _line(
        capfd,
        9,
        ok,
        f"compliant grid keeps the margin with freq {good.frequency:.5f} (gate 0.997-3se); "
        f"coarse grid flagged out of regime with freq {bad.frequency:.5f}",
    )


def test_criterion_10_conjecture_bound(capfd):
    thetas = (math.pi / 12, math.pi / 6, math.pi / 4)
    names = ("pi/12", "pi/6", "pi/4")

    def exceeders(seed):
        report = conjecture_experiment(list(thetas), s=2000, trials=100_000, seed=seed)
        out = {}
        for row in report.rows:
            cell = dict(zip(report.columns, row))
            if cell["mean_distance"] > cell["bound"] + 3.0 * cell["stderr"]:
                out[cell["theta"]] = cell
        return out

    first = exceeders(20240915)
    if not first:
        _line(capfd, 10, True, "conditioned mean distance <= theta/(2*pi) + 3*stderr at all 3 angles")
        return

    confirmed = dict(first)
    for extra_seed in (31, 47):
        repeat = exceeders(extra_seed)
        confirmed = {t: c for t, c in confirmed.items() if t in repeat}
    if not confirmed:
        _line(capfd, 10, True, "initial exceedance not reproduced across seeds; treated as noise")
        return

    profile = ", ".join(
        f"{name}: mean {cell['mean_distance']:.5f} vs bound {cell['bound']:.5f} "
        f"+ 3*{cell['stderr']:.5f}"
        for name, theta in zip(names, thetas)
        if (cell := confirmed.get(theta)) is not None
    )
    _line(
        capfd,
        10,
        False,
        f"conditioned mean distance exceeds theta/(2*pi) systematically "
        f"(reproduced at seeds 20240915, 31, 47): {profile}",
    )


def test_criterion_11_cli_reports_are_reproducible(capfd, tmp_path):
    pairs = []
    for name, args in (
        ("sign", ["mc-signchange", "--s", "400", "--trials", "5000", "--seed", "6"]),
        ("conj", ["conjecture", "--theta", "pi/6", "--s", "400", "--trials", "5000", "--seed", "2"]),
        ("gap", ["mc-correlation", "--theta", "3pi/4", "--trials", "5000", "--seed", "9"]),
    ):
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        same = a.read_bytes() == b.read_bytes() and (
            a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()
        )
        pairs.append(same)
    _line(capfd, 11, all(pairs), "3 CLI experiment commands rerun to byte-identical CSV and JSON reports")
