"""Spans around relq's layer boundaries, recorded from outside the package.

relq's modules bind their collaborators at import time (``from
relq._kernels import trace_stats_batch`` in ``relq.harness``), so a traced
run replaces the name each caller looks up -- ``relq.harness.
trace_stats_batch``, the methods of ``relq.rounding.GaussianSampler`` and
so on -- with a wrapper that records a span, and puts the original back
when the traced unit ends.  ``numpy.linalg.eigh`` is wrapped only while
``solve_p_plus`` runs, so the eigh spans are the solver's own.

A span is (name, start, end, parent index).  Spans stay in memory; the
benchmark writes them out when the run ends.  A span's self time is its
duration minus the durations of its children; calls are sequential, so
children never overlap and the self times of one root add up to the
root's duration.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

import relq.harness
import relq.rounding
import relq.sdp

ROOT = "unit"

# (object whose attribute is looked up by the caller, attribute, span name)
_FUNCTIONS = (
    (relq.harness, "mc_sign_change", "harness.mc_sign_change"),
    (relq.harness, "conjecture_experiment", "harness.conjecture_experiment"),
    (relq.harness, "end_to_end_ratio", "harness.end_to_end_ratio"),
    (relq.harness, "canonical_values_batch", "kernels.canonical_values"),
    (relq.harness, "trace_stats_batch", "kernels.trace_stats"),
    (relq.harness, "prob_at_least_one", "brownian.reference"),
    (relq.harness, "prob_three_or_more", "brownian.reference"),
    (relq.harness, "canonical_constellation", "constellation.canonical"),
    (relq.harness, "brute_force_optimum", "instance.brute_force"),
    (relq.harness, "evaluate", "instance.evaluate"),
    (relq.harness, "scale_instance", "instance.scale"),
    (relq.harness, "solve_p_plus", "sdp.solve"),
    (relq.harness, "convert_to_p", "sdp.convert"),
    (relq.harness, "feasibility_report", "sdp.feasibility"),
    (relq.harness, "round_lifted_solution", "rounding.round"),
    (relq.sdp, "solve_p_plus", "sdp.solve"),
    (relq.rounding, "lifted_walk_values", "rounding.lifted_walk"),
    (relq.rounding, "detect_extreme_sign_changes", "rounding.detect"),
    (relq.rounding.GaussianSampler, "sample", "rounding.sample"),
    (relq.rounding.GaussianSampler, "spawn", "rounding.spawn"),
    (relq.rounding.GaussianSampler, "uniform_below", "rounding.uniform"),
)
_EIGH = "sdp.eigh"

# layer of each span name; the root and the benchmark's own spans are "bench"
LAYERS = ("bench", "harness", "kernels", "rounding", "instance", "sdp", "eigh", "brownian", "constellation")
DRIVERS = ("mc_sign_change", "conjecture_experiment", "end_to_end_ratio")


def layer_of(name: str) -> str:
    if name == _EIGH:
        return "eigh"
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


class Tracer:
    """Records spans and the per-call observations the counters need."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack = [-1]
        self.kernel_bytes = 0
        self.kernel_values = 0
        self.normals = 0
        self.statuses: Counter = Counter()

    def wrap(self, name, fn, observe=None):
        # span() inlined: a generator-based context manager per call would
        # add to the overhead on round_e2e, which makes ~15 wrapped calls a trial
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span for the benchmark's own code, e.g. one solver rung."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    # observations -------------------------------------------------------

    def _kernel_bytes(self, args, kwargs, out):
        outs = out if isinstance(out, tuple) else (out,)
        self.kernel_bytes += int(np.asarray(args[0]).nbytes) + sum(int(o.nbytes) for o in outs)

    def _trace_values(self, args, kwargs, out):
        self._kernel_bytes(args, kwargs, out)
        self.kernel_values += int(np.asarray(args[0]).size)

    def _sample(self, args, kwargs, out):
        self.normals += int(out.size)

    def _round(self, args, kwargs, out):
        self.statuses.update(out.statuses)

    def _observer(self, name):
        return {
            "kernels.canonical_values": self._kernel_bytes,
            "kernels.trace_stats": self._trace_values,
            "rounding.sample": self._sample,
            "rounding.round": self._round,
        }.get(name)

    # patching -----------------------------------------------------------

    def _solve_wrapper(self, fn):
        traced_eigh = self.wrap(_EIGH, np.linalg.eigh)

        def with_eigh(*args, **kwargs):
            original = np.linalg.eigh
            np.linalg.eigh = traced_eigh
            try:
                return fn(*args, **kwargs)
            finally:
                np.linalg.eigh = original

        return self.wrap("sdp.solve", with_eigh)

    @contextlib.contextmanager
    def installed(self):
        """Replace the callers' names with traced wrappers for one block."""
        saved = []
        try:
            for owner, attr, name in _FUNCTIONS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if name == "sdp.solve":
                    wrapper = self._solve_wrapper(original)
                else:
                    wrapper = self.wrap(name, original, self._observer(name))
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_unit(self, fn):
        """Run one unit of work under a root span; returns (output, seconds)."""
        idx = len(self.spans)
        with self.installed(), self.span(ROOT):
            out = fn(self.span)
        _, start, end, _ = self.spans[idx]
        return out, end - start


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent) in enumerate(spans)]


def ancestor_named(spans, idx: int, prefix: str) -> str | None:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def summarize(spans) -> dict:
    """Inclusive and self seconds by span name, and self seconds by layer."""
    selfs = self_times(spans)
    inclusive = defaultdict(float)
    self_by_name = defaultdict(float)
    for (name, start, end, parent), own in zip(spans, selfs):
        inclusive[name] += end - start
        self_by_name[name] += own
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, own in self_by_name.items():
        by_layer[layer_of(name)] += own
    total = sum(end - start for name, start, end, parent in spans if parent == -1)
    return {
        "total_s": total,
        "inclusive_s": dict(inclusive),
        "self_s": dict(self_by_name),
        "layer_self_s": by_layer,
    }


def durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, parent in spans if n == name]


def encode(spans) -> dict:
    """Compact form for the spans file: a name table and integer nanosecond offsets."""
    names: dict[str, int] = {}
    t0 = min((s[1] for s in spans), default=0.0)
    rows = []
    for name, start, end, parent in spans:
        idx = names.setdefault(name, len(names))
        rows.append([idx, round((start - t0) * 1e9), round((end - t0) * 1e9), parent])
    return {"names": list(names), "columns": ["name", "start_ns", "end_ns", "parent"], "spans": rows}
