"""CLI surface: argument handling, exit codes, reproducible outputs."""

import hashlib
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from relq.cli import main, parse_angle
from relq.harness import Report
from relq.instance import load_instance
from relq.rounding import detect_extreme_sign_changes
from relq.sdp import load_solution, solve_p_plus

TRIANGLE_TEXT = "relq 1\n4 3 3\n0 1 2\n1 2 2\n2 0 2\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE_TEXT)
    return path


def test_parse_angle_forms():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/6") == pytest.approx(math.pi / 6)
    assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("1.5pi") == pytest.approx(1.5 * math.pi)
    assert parse_angle("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_angle("quarter turn")
    with pytest.raises(ValueError):
        parse_angle("pi/0")


def test_gen_round_trips_and_is_deterministic(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--n", "3", "--p", "8", "--m", "5", "--seed", "9", "--out", str(out)]) == 0
    first = out.read_bytes()
    inst = load_instance(out)
    assert (inst.p, inst.n, inst.m) == (8, 3, 5)
    assert main(["gen", "--n", "3", "--p", "8", "--m", "5", "--seed", "9", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert main(["gen", "--n", "2", "--p", "4", "--m", "3", "--seed", "1", "--planted"]) == 0
    stdout = capsys.readouterr().out
    assert "# planted " in stdout


def test_gen_rejects_bad_parameters(capsys):
    assert main(["gen", "--n", "2", "--p", "3", "--m", "2", "--seed", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["gen", "--n", "3", "--p", "4", "--m", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


def test_brute_reports_optimum(triangle_file, capsys):
    assert main(["brute", str(triangle_file)]) == 0
    out = capsys.readouterr().out
    assert "optimum 2.0" in out
    assert "exact 2" in out


def test_solve_round_pipeline(triangle_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.txt"
    assert main(["solve", str(triangle_file), "--out", str(sol_path)]) == 0
    out = capsys.readouterr().out
    objective = float(out.split("objective ", 1)[1].splitlines()[0])
    assert objective == pytest.approx(2.25, abs=1e-6)
    assert "converged True" in out
    sol = load_solution(sol_path)
    assert (sol.p, sol.n) == (4, 3)

    walk_path = tmp_path / "walk.csv"
    assert main([
        "round", str(triangle_file), str(sol_path),
        "--seed", "3", "--ell", "5", "--emit-walk", str(walk_path),
    ]) == 0
    out = capsys.readouterr().out
    value = float(out.split("value ", 1)[1].splitlines()[0])
    assert 0.0 <= value <= 3.0
    positions = [int(tok) for tok in out.split("positions ", 1)[1].splitlines()[0].split()]
    assert len(positions) == 3 and all(0 <= x < 20 for x in positions)
    lines = walk_path.read_text().splitlines()
    assert lines[0] == "variable,k,value,label"
    assert len(lines) == 1 + 3 * 20
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} <= {"-1", "0", "1"}

    # same seed, fresh run: identical rounding
    assert main(["round", str(triangle_file), str(sol_path), "--seed", "3", "--ell", "5"]) == 0
    assert out.splitlines()[:3] == capsys.readouterr().out.splitlines()[:3]


def test_round_refuses_a_constellation_form_file(triangle_file, tmp_path, capsys):
    # relq solve --out writes assignment vectors ('pplus'); a 'p' file is not a solution file
    sol_path = tmp_path / "vsol.txt"
    sol_path.write_text("relqsol 1\n4 3 2 p\n" + "1 0\n" * 12)
    assert main(["round", str(triangle_file), str(sol_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown solution kind 'p', expected 'pplus'\n"


# `relq round` stdout for the solved triangle, captured on stream version 4
# from the solver that factors the Hermitian frequency blocks; the dense
# factor before it spanned the same Gram matrix in another basis
ROUND_STDOUT = {
    1: ["value 2.0", "positions 1 0 3", "statuses OneCrossing NoCrossing OneCrossing"],
    5: ["value 2.0", "positions 3 0 11", "statuses OneCrossing OneCrossing OneCrossing"],
}


@pytest.mark.parametrize("ell", sorted(ROUND_STDOUT))
def test_round_stdout_pinned(ell, triangle_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.txt"
    assert main(["solve", str(triangle_file), "--out", str(sol_path)]) == 0
    capsys.readouterr()
    assert main(["round", str(triangle_file), str(sol_path), "--seed", "3", "--ell", str(ell)]) == 0
    assert capsys.readouterr().out.splitlines() == ROUND_STDOUT[ell]


# sha256 and line count of the `relq round --seed 3 --emit-walk` CSV for the
# solved triangle, captured on stream version 4 (the walk of spawn(0)'s
# first normals) from the solver that factors the Hermitian frequency
# blocks, with the walk written as its forward half and the exact mirror
# (value s/2 is -value 0)
EMIT_WALK_CSV = {
    1: ("2587026501c676a3c3b3e540f94105f320b444c83ab4823019ac5b7abda198c1", 13),
    5: ("26b47d88671507a767fb6cc43cf05adf35bb76f1df38550e5b89d2862b1e0e9f", 61),
}


@pytest.mark.parametrize("ell", sorted(EMIT_WALK_CSV))
def test_emit_walk_csv_pinned(ell, triangle_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.txt"
    walk_path = tmp_path / "walk.csv"
    assert main(["solve", str(triangle_file), "--out", str(sol_path)]) == 0
    argv = ["round", str(triangle_file), str(sol_path), "--seed", "3", "--ell", str(ell), "--emit-walk", str(walk_path)]
    assert main(argv) == 0
    data = walk_path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) == EMIT_WALK_CSV[ell]


@pytest.mark.parametrize("ell", [1, 5])
def test_emit_walk_rows_give_the_printed_rounding(ell, tmp_path, capsys):
    # the CSV is the walk the rounding classified: the per-walk reference
    # detector reads each variable's rows back to the printed status and,
    # for one crossing, the printed position
    inst_path = tmp_path / "inst.txt"
    sol_path = tmp_path / "sol.txt"
    walk_path = tmp_path / "walk.csv"
    assert main(["gen", "--n", "4", "--p", "8", "--m", "6", "--seed", "5", "--out", str(inst_path)]) == 0
    assert main(["solve", str(inst_path), "--out", str(sol_path)]) == 0
    seen = set()
    for seed in range(6):
        capsys.readouterr()
        argv = ["round", str(inst_path), str(sol_path), "--seed", str(seed), "--ell", str(ell), "--emit-walk", str(walk_path)]
        assert main(argv) == 0
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines()[:3])
        positions = [int(tok) for tok in out["positions"].split()]
        statuses = out["statuses"].split()
        lines = walk_path.read_text().splitlines()
        rows = [line.split(",") for line in lines[lines.index("variable,k,value,label") + 1 :]]
        for i, (status, position) in enumerate(zip(statuses, positions)):
            walk = [(int(k), float(v)) for var, k, v, _ in rows if int(var) == i]
            assert [k for k, _ in walk] == list(range(8 * ell))
            events = detect_extreme_sign_changes(np.array([v for _, v in walk]), 1.0)
            assert status == ("NoCrossing", "OneCrossing", "ManyCrossings")[min(len(events), 2)]
            if len(events) == 1:
                assert position == events[0][1]
            seen.add(status)
    assert "OneCrossing" in seen


def test_round_rejects_a_malformed_solution_file(triangle_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.txt"
    sol_path.write_text("relqsol 1\n4 3 pplus\n")
    assert main(["round", str(triangle_file), str(sol_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad size line '4 3 pplus'\n"


def test_out_of_range_seeds_are_errors(triangle_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.txt"
    assert main(["solve", str(triangle_file), "--out", str(sol_path)]) == 0
    capsys.readouterr()
    commands = (
        ["gen", "--n", "3", "--p", "4", "--m", "2"],
        ["round", str(triangle_file), str(sol_path)],
        ["e2e", str(triangle_file), "--trials", "4"],
        ["mc-signchange", "--s", "100", "--trials", "10"],
        ["mc-correlation", "--theta", "pi/4", "--trials", "10"],
        ["conjecture", "--s", "100", "--trials", "10"],
    )
    for command in commands:
        for seed in ("-1", str(2**64)):
            assert main(command + ["--seed", seed]) == 1, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: seed must lie in"), command
    # a NaN threshold labels nothing and an infinite one is never crossed
    for command in commands:
        if command[0] not in ("round", "e2e", "mc-signchange", "conjecture"):
            continue
        for alpha in ("nan", "inf"):
            assert main(command + ["--alpha", alpha]) == 1, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: alpha must be"), command


def test_solve_max_iterations_zero_is_honoured(triangle_file, capsys):
    assert main(["solve", str(triangle_file), "--max-iterations", "0"]) == 0
    out = capsys.readouterr().out
    iterations = int(out.split("iterations ", 1)[1].splitlines()[0])
    _, rep = solve_p_plus(load_instance(triangle_file), max_iterations=0)
    assert iterations == rep.iterations
    assert rep.iterations != solve_p_plus(load_instance(triangle_file))[1].iterations


def test_solve_rejects_negative_max_iterations(triangle_file):
    proc = subprocess.run(
        [sys.executable, "-m", "relq.cli", "solve", str(triangle_file), "--max-iterations", "-1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    with pytest.raises(ValueError):
        solve_p_plus(load_instance(triangle_file), max_iterations=-3)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_round_rejects_non_finite_solution(bad, triangle_file, tmp_path, capsys):
    sol_path = tmp_path / "sol.txt"
    assert main(["solve", str(triangle_file), "--out", str(sol_path)]) == 0
    capsys.readouterr()
    lines = sol_path.read_text().splitlines()
    lines[3] = " ".join([bad] + lines[3].split()[1:])  # the second vector line
    sol_path.write_text("\n".join(lines) + "\n")
    assert main(["round", str(triangle_file), str(sol_path), "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite coordinate on line 4\n"


def test_round_rejects_mismatched_solution(triangle_file, tmp_path, capsys):
    other = tmp_path / "other.txt"
    assert main(["gen", "--n", "2", "--p", "4", "--m", "2", "--seed", "3", "--out", str(other)]) == 0
    sol_path = tmp_path / "sol.txt"
    assert main(["solve", str(other), "--out", str(sol_path)]) == 0
    capsys.readouterr()
    assert main(["round", str(triangle_file), str(sol_path), "--seed", "0"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_round_rejects_a_huge_ell_before_lifting(triangle_file, tmp_path, capsys, monkeypatch):
    # lifting first asked numpy for 59.6 GiB and printed its traceback
    sol_path = tmp_path / "sol.txt"
    assert main(["solve", str(triangle_file), "--out", str(sol_path)]) == 0
    capsys.readouterr()

    def no_lift(*args, **kwargs):
        raise AssertionError("rounding ran before the domain check")

    monkeypatch.setattr("relq.cli.round_lifted_solution", no_lift)
    tracemalloc.start()
    try:
        assert main(["round", str(triangle_file), str(sol_path), "--ell", "1000000000"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scaled domain 4000000000 exceeds limit 1000000000\n"


@pytest.mark.parametrize(
    "exc,line",
    [(MemoryError("Unable to allocate 59.6 GiB"), "error: Unable to allocate 59.6 GiB\n"), (MemoryError(), "error: out of memory\n")],
    ids=["message", "bare"],
)
def test_memory_error_is_one_error_line(exc, line, triangle_file, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr("relq.cli.brute_force_optimum", exhausted)
    assert main(["brute", str(triangle_file)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)


def test_constants_check_and_gate_wiring(capsys, monkeypatch):
    assert main(["constants", "--check", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["row_count"] == 14
    broken = Report(name="x", parameters={}, columns=["kind", "ok"], rows=[["quoted", False]])
    monkeypatch.setattr("relq.cli.reproduce_constants", lambda: broken)
    assert main(["constants", "--check"]) == 2
    assert "FAILED" in capsys.readouterr().err


def test_e2e_gate_failure_exits_2(triangle_file, capsys, monkeypatch):
    # no ratio passes a negative tolerance, so the gate must fail and say so
    monkeypatch.setattr("relq.harness._SANDWICH_TOL", -1.0)
    assert main(["e2e", str(triangle_file), "--trials", "50", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "sandwich gate FAILED\n"
    header, row = captured.out.splitlines()[-2:]
    assert dict(zip(header.split(","), row.split(",")))["sandwich_ok"] == "False"


def test_mc_signchange_below_alpha_one_prints_three_numeric_rows(capsys):
    assert main(["mc-signchange", "--s", "200", "--trials", "100", "--seed", "2", "--alpha", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "statistic,frequency,stderr,reference"
    assert [line.split(",")[0] for line in lines[1:]] == ["count_zero", "count_one", "count_two_plus"]
    assert "nan" not in "\n".join(lines).lower()


def test_report_subcommands_write_identical_files_on_rerun(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["mc-signchange", "--s", "200", "--trials", "2000", "--seed", "6"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    args = ["conjecture", "--theta", "pi/6", "--s", "200", "--trials", "2000", "--seed", "2"]
    assert main(args + ["--out", str(c)]) == 0
    assert main(args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_conjecture_default_grid(capsys):
    assert main(["conjecture", "--s", "200", "--trials", "500", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # header plus one row per default angle


def test_e2e_subcommand(triangle_file, capsys):
    assert main(["e2e", str(triangle_file), "--trials", "50", "--seed", "1", "--ell", "2"]) == 0
    out = capsys.readouterr().out
    header, row = out.splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["sandwich_ok"] == "True"
    assert float(cells["sdp_value"]) == pytest.approx(2.25, abs=1e-6)


def test_missing_file_and_bad_angle(capsys):
    assert main(["brute", "/nonexistent/inst.txt"]) == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["mc-correlation", "--theta", "sideways", "--trials", "10"])
    assert exc.value.code == 1


def test_zero_denominator_angle_is_a_usage_error():
    runs = {
        theta: subprocess.run(
            [sys.executable, "-m", "relq.cli", "mc-correlation", "--theta", theta, "--trials", "10"],
            capture_output=True,
            text=True,
        )
        for theta in ("pi/0", "quarter")
    }
    assert "Traceback" not in runs["pi/0"].stderr
    assert "pi/0" in runs["pi/0"].stderr
    assert runs["pi/0"].returncode == runs["quarter"].returncode == 1
    # the reason survives argparse, for both commands that take an angle
    for command in ("mc-correlation", "conjecture"):
        proc = subprocess.run(
            [sys.executable, "-m", "relq.cli", command, "--theta", "pi/0"], capture_output=True, text=True
        )
        assert proc.stderr == "error: argument --theta: cannot parse angle 'pi/0': zero denominator\n"
        assert proc.returncode == 1


@pytest.mark.parametrize(
    "argv,token",
    [
        (["mc-signchange", "--trials", "1e5"], "'1e5'"),
        (["e2e", "--alpha", "wide"], "'wide'"),
        (["conjecture", "--theta", "pi/0"], "'pi/0'"),
        (["frobnicate"], "'frobnicate'"),
        (["e2e"], "instance"),
    ],
    ids=["int", "float", "angle", "unknown-command", "missing-positional"],
)
def test_usage_errors_are_one_line_and_exit_1(argv, token):
    # exit 2 is kept for a failed gate, so a script can tell a typo from a failed check
    proc = subprocess.run([sys.executable, "-m", "relq.cli", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert token in proc.stderr and "Traceback" not in proc.stderr


def test_installed_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "relq.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("relq ")
