"""Metric names, units and the per-layer numbers derived from traced units.

End-to-end metrics come from plain (untraced) units and are the same on
every workload.  Per-layer metrics come from traced units.  A layer that a
workload never calls reads 0 there; that is the prediction "no change"
for that pairing.  Layer times are given as shares of the traced unit's
wall time, so a layer that is absent reads 0 % rather than a time of 0 s;
the absolute seconds are printed and written to the results file under the
``<layer>.<call>_s`` names.
"""

from __future__ import annotations

from collections import Counter

import tracer
from relq.rounding import ONE_CROSSING
from workloads import GAP_RUNGS, TIGHT_RUNGS, rung_name

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_rel", "x", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

INCLUSIVE = (
    "kernels.trace_stats",
    "kernels.canonical_values",
    "rounding.sample",
    "rounding.spawn",
    "rounding.round",
    "rounding.lifted_walk",
    "rounding.detect",
    "instance.evaluate",
    "instance.brute_force",
    "sdp.solve",
    "sdp.eigh",
    "sdp.convert",
    "sdp.feasibility",
    "brownian.reference",
    "constellation.canonical",
)
RUNGS = tuple(rung_name(r) for r in TIGHT_RUNGS + GAP_RUNGS)
_RUNG_FIELDS = (
    ("solve_pct", "%"),
    ("iterations", "count"),
    ("trace_len", "count"),
    ("eigh_calls", "count"),
    ("objective_gap", "obj"),
    ("max_residual", "abs"),
)

PER_LAYER = (
    ("traced_run_s", "s", "lower"),
    ("tracing_overhead_pct", "%", "lower"),
    ("cli.import_s", "s", "lower"),
    *((f"self_pct.{layer}", "%", "lower") for layer in tracer.LAYERS),
    *((f"{name}_pct", "%", "lower") for name in INCLUSIVE),
    *((f"harness.self_pct.{driver}", "%", "lower") for driver in tracer.DRIVERS),
    ("kernels.trace_stats_calls", "count", "lower"),
    ("kernels.bytes_computed", "B", "lower"),
    ("kernels.values_per_s", "1/s", "higher"),
    ("rounding.sample_calls", "count", "lower"),
    ("rounding.normals_per_s", "1/s", "higher"),
    ("rounding.spawn_calls", "count", "lower"),
    ("rounding.fallback_calls", "count", "lower"),
    ("rounding.one_crossing_frac", "ratio", "higher"),
    ("instance.evaluate_calls", "count", "lower"),
    *((f"sdp.{field}.{rung}", unit, "lower") for rung in RUNGS for field, unit in _RUNG_FIELDS),
)


def traced_counters(tr: tracer.Tracer) -> dict:
    """Counts of one traced unit that repeat exactly at a fixed seed."""
    calls = Counter(rec[0] for rec in tr.spans)
    eigh = Counter()
    for idx, rec in enumerate(tr.spans):
        if rec[0] == "sdp.eigh":
            eigh[tracer.ancestor_named(tr.spans, idx, "rung.") or "other"] += 1
    return {
        "calls": dict(sorted(calls.items())),
        "eigh_calls": dict(sorted(eigh.items())),
        "statuses": dict(sorted(tr.statuses.items())),
        "kernel_bytes": tr.kernel_bytes,
        "normals": tr.normals,
    }


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracers: list) -> tuple[dict, dict]:
    """Per-layer metrics from traced units, and the absolute seconds behind them.

    Shares and rates pool every traced unit; counts are those of the first
    unit (the benchmark checks that every unit repeats them).
    """
    totals = {"total_s": 0.0, "inclusive_s": Counter(), "self_s": Counter(), "layer_self_s": Counter()}
    for tr in tracers:
        summary = tracer.summarize(tr.spans)
        totals["total_s"] += summary["total_s"]
        for key in ("inclusive_s", "self_s", "layer_self_s"):
            totals[key].update(summary[key])
    total = totals["total_s"]
    incl, own, layer = totals["inclusive_s"], totals["self_s"], totals["layer_self_s"]
    first = traced_counters(tracers[0])
    calls = first["calls"]

    def pct(seconds):
        return 100.0 * seconds / total

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    statuses = first["statuses"]
    rounds = sum(statuses.values())
    metrics = {f"self_pct.{name}": pct(layer[name]) for name in tracer.LAYERS}
    metrics.update({f"{name}_pct": pct(incl[name]) for name in INCLUSIVE})
    metrics.update({f"harness.self_pct.{d}": pct(own[f"harness.{d}"]) for d in tracer.DRIVERS})
    metrics.update(
        {
            "kernels.trace_stats_calls": calls.get("kernels.trace_stats", 0),
            "kernels.bytes_computed": first["kernel_bytes"],
            "kernels.values_per_s": rate(sum(t.kernel_values for t in tracers), incl["kernels.trace_stats"]),
            "rounding.sample_calls": calls.get("rounding.sample", 0),
            "rounding.normals_per_s": rate(sum(t.normals for t in tracers), incl["rounding.sample"]),
            "rounding.spawn_calls": calls.get("rounding.spawn", 0),
            "rounding.fallback_calls": calls.get("rounding.uniform", 0),
            "rounding.one_crossing_frac": statuses.get(ONE_CROSSING, 0) / rounds if rounds else 0.0,
            "instance.evaluate_calls": calls.get("instance.evaluate", 0),
        }
    )
    for rung in RUNGS:
        metrics[f"sdp.solve_pct.{rung}"] = pct(incl[f"rung.{rung}"])
        metrics[f"sdp.eigh_calls.{rung}"] = first["eigh_calls"].get(f"rung.{rung}", 0)

    units = len(tracers)
    seconds = {f"{name}_s": incl[name] / units for name in INCLUSIVE}
    seconds.update({f"harness.self_s.{d}": own[f"harness.{d}"] / units for d in tracer.DRIVERS})
    seconds.update({f"layer.self_s.{name}": layer[name] / units for name in tracer.LAYERS})
    for rung in RUNGS:
        if incl[f"rung.{rung}"]:
            seconds[f"sdp.solve_s.{rung}"] = incl[f"rung.{rung}"] / units
            seconds[f"sdp.eigh_s.{rung}"] = sum(
                end - start
                for tr in tracers
                for idx, (name, start, end, parent) in enumerate(tr.spans)
                if name == "sdp.eigh" and tracer.ancestor_named(tr.spans, idx, "rung.") == f"rung.{rung}"
            ) / units
    round_us = sorted(1e6 * d for tr in tracers for d in tracer.durations(tr.spans, "rounding.round"))
    if round_us:
        seconds["rounding.round_us_p50"] = _percentile(round_us, 50)
        seconds["rounding.round_us_p999"] = _percentile(round_us, 99.9)
        seconds["rounding.round_samples"] = len(round_us)
    seconds["self_sum_s"] = sum(layer.values()) / units
    seconds["traced_unit_s"] = total / units
    return metrics, seconds


def rung_outputs(state: dict, out: dict, counters: dict) -> dict:
    """Per-rung iterations, trace length, objective gap and residual; 0 for
    rungs this workload does not solve."""
    values = {}
    for rung in RUNGS:
        solved = rung in state.get("optimum", {})
        values[f"sdp.iterations.{rung}"] = counters[rung]["iterations"] if solved else 0
        values[f"sdp.trace_len.{rung}"] = counters[rung]["trace_len"] if solved else 0
        gap = out["rungs"][rung]["report"].objective - state["optimum"][rung] if solved else 0.0
        values[f"sdp.objective_gap.{rung}"] = gap
        values[f"sdp.max_residual.{rung}"] = state["residual"][rung] if solved else 0.0
    return values
