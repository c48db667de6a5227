"""Batch kernels for circular walk simulation, carried as forward half-walks.

A canonical walk of length s = 2*half is antipodal: values[half + k] =
-values[k] exactly, and labels flip with it.  Everything the Monte-Carlo
drivers and the rounding need therefore follows from the forward half, and
relq.rounding.lifted_walk_values writes the mirror only to show a walk.

Kernels:
  _half_walks: anchors and step prefix sums -> forward halves,
    values[..., 0] = anchor and values[..., k] = anchor + step*prefix[..., k-1].
    Every walk of the package, canonical or lifted, is formed here.
  _labels: +1 at or above alpha, -1 at or below -alpha, 0 between.
  canonical_values_batch: per-trial normal increments -> forward half of
    the walk, with anchor sqrt(2/s) * (sum of the row) and step
    -2*sqrt(2/s).
  trace_stats_batch: forward half + threshold -> per trial the circular
    up-crossing count of the full antipodal trace and its first up-crossing
    start index in [0, s).

Why the half suffices: collapse the forward half's nonzero labels into R
alternating runs l_1, ..., l_R.  The full circle reads l_1..l_R, -l_1..-l_R,
and the two seams merge exactly when l_R = -l_1, i.e. when R is even.  So
the circle has 2R runs (R odd) or 2R - 2 runs (R even), and half of them
are up-crossings.  The up-crossings in the forward half are the '-'->'+'
run starts, where the first run's circular predecessor is the label just
before the seam, -l_R; those in the mirrored half sit at half + the
'+'->'-' run starts.  A run starts only at an entry, a nonzero label at its
row's start or after a different label: at a row's first entry, and at each
entry whose label differs from the previous entry's.

The argument checks the modules share live here too: _check_alpha for a
crossing threshold, _check_int for an integer argument and its lower
bound, _check_domain for a domain size, a positive even integer, and
_check_word for a seed or stream tag, one Philox word.
"""

import operator

import numpy as np


def _check_alpha(alpha: float) -> None:
    """Reject a crossing threshold that is not positive and finite."""
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def _check_int(name: str, value: int, least: int | None = None) -> int:
    """value as a Python int, refused below least if that is given; a float, even 4.0, is refused, not truncated."""
    try:
        value = operator.index(value)  # 1.5 would otherwise alias 1
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _check_domain(p: int) -> int:
    """p as a Python int, refused unless it is a positive even integer."""
    p = _check_int("domain size", p)
    if p <= 0 or p % 2 != 0:
        raise ValueError(f"domain size must be a positive even integer, got {p}")
    return p


def _check_word(name: str, value: int) -> int:
    """value as a Python int in [0, 2**64), the range of one Philox key or counter word."""
    value = _check_int(name, value)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def _half_walks(anchor: np.ndarray, prefix: np.ndarray, step: float, out: np.ndarray | None = None) -> np.ndarray:
    """Forward halves shaped like prefix: anchor, then anchor + step*prefix[..., k-1].

    They are written to out when it is given, an array shaped like prefix
    that does not overlap it.
    """
    values = np.empty_like(prefix) if out is None else out
    values[..., 0] = anchor
    tail = values[..., 1:]
    np.multiply(prefix[..., :-1], step, out=tail)
    tail += anchor[..., None]
    return values


def _labels(values: np.ndarray, alpha: float) -> np.ndarray:
    """int8 labels: +1 where values >= alpha, -1 where values <= -alpha, 0 elsewhere."""
    return (values >= alpha).view(np.int8) - (values <= -alpha).view(np.int8)


def canonical_values_batch(increments: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward-half walk values (trials, half) from normal increments (trials, half).

    With out, a float64 array shaped like increments, the values are written
    to out and a float64 increments array is summed in place, so that it
    then holds its running sums; the values are bit for bit the same either
    way.
    """
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2 or increments.shape[1] < 1:
        raise ValueError("increments must be a (trials, half) array")
    c = np.sqrt(2.0 / (2 * increments.shape[1]))  # sqrt(2/s)
    prefix = np.cumsum(increments, axis=1, out=None if out is None else increments)
    return _half_walks(c * prefix[:, -1], prefix, -2.0 * c, out)


def trace_stats_batch(half_values: np.ndarray, alpha: float):
    """Per-trial (up-crossing count, first up-crossing index) of the full circular trace.

    half_values is the (trials, half) forward half of antipodal walks of
    length 2*half; the first up-crossing index is -1 when there is none.
    """
    half_values = np.asarray(half_values, dtype=np.float64)
    if half_values.ndim != 2 or half_values.shape[1] < 1:
        raise ValueError("half_values must be a (trials, half) array")
    _check_alpha(alpha)
    trials, half = half_values.shape
    labels = _labels(half_values, alpha)

    # the entries in row-major order; a run starts at a row's first entry
    # and wherever an entry's label differs from the previous entry's
    entry = labels != 0
    entry[:, 1:] &= labels[:, 1:] != labels[:, :-1]
    pos = np.flatnonzero(entry)
    seq = labels.ravel()[pos]
    row, col = np.divmod(pos, half)
    is_start = np.ones(pos.size, dtype=bool)
    is_start[1:] = (seq[1:] != seq[:-1]) | (row[1:] != row[:-1])
    starts = np.flatnonzero(is_start)

    run_label, run_row, run_col = seq[starts], row[starts], col[starts]
    half_runs = np.bincount(run_row, minlength=trials)
    counts = np.where(half_runs % 2 == 1, half_runs, np.maximum(half_runs - 1, 0))

    # predecessor of each run: the run before it, or -l_R for a row's first
    pred = np.empty_like(run_label)
    pred[1:] = run_label[:-1]
    first_run = np.cumsum(half_runs) - half_runs
    last_run = first_run + half_runs - 1
    has_runs = half_runs > 0
    pred[first_run[has_runs]] = -run_label[last_run[has_runs]]

    first_plus = np.full(trials, -1, dtype=np.int64)
    # mirrored-half up-crossings first, so forward-half ones overwrite them
    for want, offset in ((-1, half), (1, 0)):
        hit = np.flatnonzero((run_label == want) & (pred == -want))
        rows = run_row[hit]
        keep = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=keep[1:])
        first_plus[rows[keep]] = run_col[hit[keep]] + offset
    return counts, first_plus
