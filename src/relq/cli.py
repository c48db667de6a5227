"""Command line front end.

Every subcommand prints a deterministic report: CSV to stdout by default,
a JSON summary with --json, or a CSV/JSON file pair with --out.  Exit
codes: 0 success, 1 bad input or I/O failure, 2 a requested gate did not
hold (constants --check, e2e sandwich).
"""

import argparse
import math
import re
import sys
from pathlib import Path

from relq import __version__
from relq._kernels import _labels
from relq.harness import (
    ExperimentConfig,
    Report,
    conjecture_experiment,
    end_to_end_ratio,
    format_report_csv,
    format_report_json,
    mc_correlation_gap,
    mc_sign_change,
    report_gate_ok,
    reproduce_constants,
    write_report,
)
from relq.instance import (
    Assignment,
    brute_force_optimum,
    evaluate,
    format_instance,
    generate_instance,
    load_instance,
    scale_instance,
)
from relq.rounding import GaussianSampler, lifted_walk_values, round_lifted_solution
from relq.sdp import (
    _check_instance,
    MAX_ENGINE_CYCLES,
    convert_to_p,
    load_solution,
    save_solution,
    solve_p_plus,
)

_ANGLE = re.compile(r"^\s*(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_angle(text: str) -> float:
    """Accept a float literal or a pi expression like 'pi/6' or '3pi/4'."""
    m = _ANGLE.match(text)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ValueError(f"cannot parse angle {text!r}: zero denominator")
        return num * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


def _angle_arg(text: str) -> float:
    """parse_angle for argparse, which prints the reason of an ArgumentTypeError only."""
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(report: Report, args) -> None:
    if args.out is not None:
        csv_path, json_path = write_report(report, args.out)
        print(f"wrote {csv_path}")
        print(f"wrote {json_path}")
    elif getattr(args, "json", False):
        sys.stdout.write(format_report_json(report))
    else:
        sys.stdout.write(format_report_csv(report))


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", type=Path, default=None, help="write CSV here plus a sibling .json summary")
    sub.add_argument("--json", action="store_true", help="print the JSON summary instead of CSV")


def _cmd_gen(args) -> int:
    inst, hidden = generate_instance(n=args.n, p=args.p, m=args.m, seed=args.seed, planted=args.planted)
    text = format_instance(inst)
    if hidden is not None:
        text += "# planted " + " ".join(str(x) for x in hidden.positions) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_brute(args) -> int:
    inst = load_instance(args.instance)
    asg, value = brute_force_optimum(inst)
    print(f"optimum {float(value)!r}")
    print(f"exact {value}")
    print("positions " + " ".join(str(x) for x in asg.positions))
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    sol, rep = solve_p_plus(inst, args.max_iterations)
    print(f"objective {rep.objective!r}")
    print(f"max_residual {rep.max_residual!r}")
    print(f"iterations {rep.iterations}")
    print(f"converged {rep.converged}")
    if args.out is not None:
        save_solution(sol, args.out)
        print(f"wrote {args.out}")
    return 0


def _walk_rows(sol, ell: int, seed: int, alpha: float) -> list[list]:
    # the normals round_lifted_solution reads for its one trial
    values = lifted_walk_values(sol, ell, GaussianSampler(seed).spawn(0).sample(sol.dim * ell))
    rows = []
    for i, (walk, labels) in enumerate(zip(values.tolist(), _labels(values, alpha).tolist())):
        rows += [[i, k, v, label] for k, (v, label) in enumerate(zip(walk, labels))]
    return rows


def _cmd_round(args) -> int:
    inst = load_instance(args.instance)
    sol = convert_to_p(load_solution(args.solution))
    _check_instance(sol, inst)
    scaled = scale_instance(inst, args.ell)  # checks ell against DOMAIN_LIMIT before any lifting
    outcome = round_lifted_solution(sol, args.ell, GaussianSampler(args.seed), 1, alpha=args.alpha)
    positions = outcome.positions[0].tolist()
    value = evaluate(scaled, Assignment(positions=positions))
    print(f"value {float(value)!r}")
    print("positions " + " ".join(map(str, positions)))
    print("statuses " + " ".join(outcome.statuses))
    if args.emit_walk is not None:
        walk = Report(
            name="walk_trace",
            parameters={"ell": args.ell, "alpha": args.alpha, "p": inst.p},
            columns=["variable", "k", "value", "label"],
            rows=_walk_rows(sol, args.ell, args.seed, args.alpha),
        )
        Path(args.emit_walk).write_text(format_report_csv(walk))
        print(f"wrote {args.emit_walk}")
    return 0


def _cmd_constants(args) -> int:
    report = reproduce_constants()
    _emit(report, args)
    if args.check and not report_gate_ok(report):
        print("constants gate FAILED", file=sys.stderr)
        return 2
    return 0


def _cmd_mc_signchange(args) -> int:
    _emit(mc_sign_change(s=args.s, trials=args.trials, seed=args.seed, alpha=args.alpha), args)
    return 0


def _cmd_mc_correlation(args) -> int:
    _emit(mc_correlation_gap(theta=args.theta, trials=args.trials, seed=args.seed), args)
    return 0


def _cmd_conjecture(args) -> int:
    grid = args.theta if args.theta else [math.pi / 12, math.pi / 6, math.pi / 4]
    report = conjecture_experiment(grid, s=args.s, trials=args.trials, seed=args.seed, alpha=args.alpha)
    _emit(report, args)
    return 0


def _cmd_e2e(args) -> int:
    inst = load_instance(args.instance)
    cfg = ExperimentConfig(trials=args.trials, seed=args.seed, alpha=args.alpha, ell=args.ell)
    report = end_to_end_ratio(inst, cfg)
    _emit(report, args)
    if not report_gate_ok(report):
        print("sandwich gate FAILED", file=sys.stderr)
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input too: one error line and exit 1 (subparsers inherit this)."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"relq {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--planted", action="store_true", help="plant a perfect assignment")
    gen.add_argument("--out", type=Path, default=None)
    gen.set_defaults(func=_cmd_gen)

    brute = subs.add_parser("brute", help="exhaustive optimum of an instance file")
    brute.add_argument("instance", type=Path)
    brute.set_defaults(func=_cmd_brute)

    solve = subs.add_parser("solve", help="solve the covariance relaxation")
    solve.add_argument("instance", type=Path)
    solve.add_argument(
        "--max-iterations",
        type=int,
        default=MAX_ENGINE_CYCLES,
        help=f"cap on the splitting engine's cycles (default {MAX_ENGINE_CYCLES})",
    )
    solve.add_argument("--out", type=Path, default=None, help="save the solution vectors here")
    solve.set_defaults(func=_cmd_solve)

    rnd = subs.add_parser("round", help="threshold-round a saved solution once")
    rnd.add_argument("instance", type=Path)
    rnd.add_argument("solution", type=Path)
    rnd.add_argument("--seed", type=int, default=0)
    rnd.add_argument("--ell", type=int, default=1, help="domain refinement factor")
    rnd.add_argument("--alpha", type=float, default=1.0)
    rnd.add_argument("--emit-walk", type=Path, default=None, help="write the walk traces as CSV")
    rnd.set_defaults(func=_cmd_round)

    const = subs.add_parser("constants", help="reproduce the crossing-probability table")
    const.add_argument("--check", action="store_true", help="exit 2 unless every row passes")
    _add_output_flags(const)
    const.set_defaults(func=_cmd_constants)

    sign = subs.add_parser("mc-signchange", help="sample crossing-count frequencies")
    sign.add_argument("--s", type=int, default=2000, help="forward walk steps per trial")
    sign.add_argument("--trials", type=int, default=100_000)
    sign.add_argument("--seed", type=int, default=0)
    sign.add_argument("--alpha", type=float, default=1.0)
    _add_output_flags(sign)
    sign.set_defaults(func=_cmd_mc_signchange)

    corr = subs.add_parser("mc-correlation", help="sample the correlated-endpoint gap")
    corr.add_argument("--theta", type=_angle_arg, required=True, help="angle, e.g. 0.7854 or pi/4")
    corr.add_argument("--trials", type=int, default=100_000)
    corr.add_argument("--seed", type=int, default=0)
    _add_output_flags(corr)
    corr.set_defaults(func=_cmd_mc_correlation)

    conj = subs.add_parser("conjecture", help="conditioned distance of correlated walk pairs")
    conj.add_argument("--theta", type=_angle_arg, action="append", default=None, help="repeatable; defaults to pi/12 pi/6 pi/4")
    conj.add_argument("--s", type=int, default=2000, help="circular domain size")
    conj.add_argument("--trials", type=int, default=100_000)
    conj.add_argument("--seed", type=int, default=0)
    conj.add_argument("--alpha", type=float, default=1.0)
    _add_output_flags(conj)
    conj.set_defaults(func=_cmd_conjecture)

    e2e = subs.add_parser("e2e", help="solve, round repeatedly, compare to brute force")
    e2e.add_argument("instance", type=Path)
    e2e.add_argument("--trials", type=int, default=1000)
    e2e.add_argument("--seed", type=int, default=0)
    e2e.add_argument("--ell", type=int, default=1)
    e2e.add_argument("--alpha", type=float, default=1.0)
    _add_output_flags(e2e)
    e2e.set_defaults(func=_cmd_e2e)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
