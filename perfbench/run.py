"""relq benchmark: one workload per run, checked, with end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload walk_mc --seed 1 --seconds 25 --trace 0

Workloads: walk_mc, solve_tight, solve_gap, round_e2e (see workloads.py).

A run
1. records machine facts (nproc, Python, numpy, BLAS and its threads,
   numba, relq source revision, load average at start);
2. sets up several times in fresh processes -- import ``relq.cli``, build
   the inputs, one warm-up call per layer -- then once more in this
   process, untimed;
3. repeats the workload's fixed unit of work while another unit still
   fits in ``--seconds`` (at least once), timing calibration snippets
   around and during each unit (calibrate.py).  With ``--trace 1`` plain
   and traced units alternate.  It then sets up in fresh processes again,
   and reports the median of all set-up samples as ``setup_s``;
4. checks the outputs outside the timed region, and checks that every
   unit reproduced the first unit's deterministic counters;
5. prints one line per check and metric, writes everything (and, when
   traced, the spans) under ``.perfbench/``, and prints as its last line a
   JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
   metrics are the end-to-end ones with ``--trace 0`` and the per-layer
   ones with ``--trace 1``.

relq is imported from ``src/`` next to this directory; without it the run
exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path
from statistics import fmean, median

# Single-threaded BLAS: on two shared CPUs, OpenBLAS's spinning worker thread
# slows the main thread and makes small-matrix solver times swing.  Set
# before numpy is imported; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("walk_mc", "solve_tight", "solve_gap", "round_e2e")
SETUP_SAMPLES = 5  # before the units, and as many again after them
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# machine facts


def _blas() -> tuple[str, int | None]:
    """BLAS name from numpy's build config, and its thread count when the
    library exposes one (OpenBLAS builds do)."""
    import ctypes
    import glob

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _revision() -> str:
    """Git commit when the tree is a repository, else a digest of relq's sources."""
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=False
        )
        if res.returncode == 0:
            return res.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "relq").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def machine_facts(load_at_start) -> dict:
    import numpy as np

    blas_name, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "numba": find_spec("numba") is not None,
        "relq_revision": _revision(),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
    }


# ---------------------------------------------------------------------------
# set-up


def setup_probe(args) -> int:
    """Child side of a set-up sample: import, build inputs, warm up, report."""
    t0 = time.monotonic()
    import relq.cli  # noqa: F401

    import_s = time.monotonic() - t0
    import workloads

    workloads.WORKLOADS[args.workload].setup(args.seed)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


def setup_samples(args) -> tuple[list, list]:
    """Wall time from spawning a fresh process until its set-up is done.

    The machine's speed drifts over tens of seconds, so the run samples
    set-up both before and after its units and reports the median of all.
    time.monotonic reads the same system-wide clock in both processes, so
    the child's ready stamp is comparable with the parent's spawn stamp.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
    cmd += ["--seed", str(args.seed)]
    setups, imports = [], []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({res.returncode}): {res.stderr.strip()[-2000:]}")
        stamp = json.loads(res.stdout.strip().splitlines()[-1])
        setups.append(stamp["ready"] - spawned)
        imports.append(stamp["import_s"])
    return setups, imports


# ---------------------------------------------------------------------------
# measurement


def measure(wl, state, seconds: float, trace: bool):
    """Alternate plain (and, when tracing, traced) units while one more fits.

    A traced run makes at least two traced units, so that it can check that
    their counters repeat, even when that takes longer than ``seconds``.

    Calibration snippets run right before, every calibrate.INTERVAL seconds
    during, and right after each plain unit.  A plain unit's time excludes
    the snippets run during it; its relative time is that time over the
    mean snippet time.  The snippets are evenly spaced in time, so their
    mean follows the machine's average speed over the unit.  Traced units
    are not interrupted.
    """
    import calibrate
    import tracer
    import workloads

    sampler = calibrate.Sampler(wl.calibration)
    for _ in range(3):  # the first snippets page in their arrays
        sampler.sample()
    plain, traced = [], []
    started = time.monotonic()
    while True:
        first = len(sampler.times)
        sampler.sample()
        spent = sampler.spent
        with sampler.during():
            t0 = time.perf_counter()
            out = wl.unit(state, workloads.no_span)
            dt = time.perf_counter() - t0
        work = dt - (sampler.spent - spent)
        sampler.sample()
        plain.append((out, work, work / fmean(sampler.times[first:])))
        if trace:
            tr = tracer.Tracer()
            out, dt = tr.run_unit(lambda span: wl.unit(state, span))
            traced.append((out, dt, tr))
        elapsed = time.monotonic() - started
        if len(traced) != 1 and elapsed + elapsed / len(plain) > seconds:
            return plain, traced, sampler.times


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def check_outputs(wl, state, outputs, tracers):
    """The workload's checks on the first unit, plus exact repeats of its counters."""
    import metrics
    from workloads import Check

    checks = wl.checks(state, outputs[0])
    counters = wl.counters(outputs[0])
    if len(outputs) > 1:
        same = all(wl.counters(out) == counters for out in outputs[1:])
        checks.append(Check("counters.repeat", same, f"{len(outputs)} units, same seed"))
    traced_counters = metrics.traced_counters(tracers[0]) if tracers else {}
    if len(tracers) > 1:
        same = all(metrics.traced_counters(tr) == traced_counters for tr in tracers[1:])
        checks.append(Check("traced_counters.repeat", same, f"{len(tracers)} traced units"))
    return checks, counters, traced_counters


def per_layer(state, outputs, counters, plain, traced, imports, checks):
    """Per-layer metrics of a traced run; appends the self-time check.

    The tracing overhead compares each traced unit with the plain unit run
    just before it, so both saw nearly the same machine speed.
    """
    import metrics
    from workloads import Check

    layer, seconds = metrics.layer_metrics([tr for _, _, tr in traced])
    gap = abs(seconds["self_sum_s"] - seconds["traced_unit_s"])
    checks.append(Check("trace.self_times_sum", gap <= 1e-9 * max(1.0, seconds["traced_unit_s"]), f"gap {gap:.3e} s"))
    traced_s = median(dt for _, dt, _ in traced)
    layer["traced_run_s"] = traced_s
    layer["tracing_overhead_pct"] = 100.0 * (median(t[1] / p[1] for p, t in zip(plain, traced)) - 1.0)
    layer["cli.import_s"] = median(imports)
    layer.update(metrics.rung_outputs(state, outputs[0], counters))
    if "brute_force_s" in state:
        seconds["instance.brute_force_s.checks"] = state["brute_force_s"]
    return layer, seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relq" / "__init__.py").is_file():
        print(f"error: relq sources not found at {SRC / 'relq'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    load_at_start = os.getloadavg()
    setups, imports = setup_samples(args)

    import metrics
    import relq
    import tracer
    import workloads

    if not Path(relq.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: relq imported from {relq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    facts = machine_facts(load_at_start)
    print("machine " + json.dumps(facts, sort_keys=True))

    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    plain, traced, calib = measure(wl, state, args.seconds, bool(args.trace))
    more_setups, more_imports = setup_samples(args)
    setups += more_setups
    imports += more_imports
    times = [dt for _, dt, _ in plain]
    outputs = [out for out, _, _ in plain] + [out for out, _, _ in traced]
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
        f"{len(plain)} plain units" + (f", {len(traced)} traced units" if traced else "")
    )

    checks, counters, traced_counters = check_outputs(wl, state, outputs, [tr for _, _, tr in traced])
    layer, layer_seconds = {}, {}
    if traced:
        layer, layer_seconds = per_layer(state, outputs, counters, plain, traced, imports, checks)
    failed = sum(not c.ok for c in checks)
    for c in checks:
        print(f"check {c.name} {'ok' if c.ok else 'FAILED'}: {c.detail}")

    end_to_end = {
        "setup_s": median(setups),
        "run_rel": median(rel for _, _, rel in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {name: unit for name, unit, _ in metrics.END_TO_END + metrics.PER_LAYER}
    printed = dict(end_to_end, run_s=median(times))
    units["run_s"] = "s"
    for name, value, unit in wl.rates(state, [out for out, _, _ in plain], times):
        printed[name] = value
        units[name] = unit
    printed["failed_frac"] = workloads.failed_frac(checks)
    units["failed_frac"] = "ratio"
    for name, value in printed.items():
        print(f"metric {name} = {_fmt(value)} {units[name]}")
    for name, value in layer.items():
        print(f"layer {name} = {_fmt(value)} {units[name]}")
    for name, value in layer_seconds.items():
        print(f"seconds {name} = {_fmt(value)}")

    chosen, values = (metrics.PER_LAYER, layer) if traced else (metrics.END_TO_END, end_to_end)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in chosen},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "machine": facts,
        "setup_s_samples": setups,
        "import_s_samples": imports,
        "plain_unit_s": times,
        "calibration_s": calib,
        "traced_unit_s": [dt for _, dt, _ in traced],
        "checks": [vars(c) for c in checks],
        "counters": counters,
        "traced_counters": traced_counters,
        "printed": printed,
        "layer_seconds": layer_seconds,
        "result": result,
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    if traced:
        with gzip.open(f"{stem}.spans.json.gz", "wt") as fh:
            json.dump([tracer.encode(tr.spans) for _, _, tr in traced], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
