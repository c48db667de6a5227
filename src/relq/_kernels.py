"""Batch kernels for circular walk simulation, carried as forward half-walks.

A canonical walk of length s = 2*half is antipodal: values[half + k] =
-values[k] exactly (the mirror is a sign flip, and values[half] = a - 2a
is exact), and labels flip with it.  Everything the Monte-Carlo drivers
need therefore follows from the forward half, and no kernel builds the
mirror.

Kernels:
  canonical_values_batch: per-trial normal increments -> forward half of
    the walk.  values[t, 0] = a with a = sqrt(2/s) * (sum of the row), and
    values[t, k] = a - 2*sqrt(2/s)*prefix[k-1] for 1 <= k < half.
  trace_stats_batch: forward half + threshold -> per trial the circular
    up-crossing count of the full antipodal trace, its first up-crossing
    start index in [0, s), and the number of collapsed nonzero label runs
    in the forward half.

Why the half suffices: collapse the forward half's nonzero labels into R
alternating runs l_1, ..., l_R.  The full circle reads l_1..l_R, -l_1..-l_R,
and the two seams merge exactly when l_R = -l_1, i.e. when R is even.  So
the circle has 2R runs (R odd) or 2R - 2 runs (R even), and half of them
are up-crossings.  The up-crossings in the forward half are the '-'->'+'
run starts, where the first run's circular predecessor is the label just
before the seam, -l_R; those in the mirrored half sit at half + the
'+'->'-' run starts.
"""

import numpy as np


def canonical_values_batch(increments: np.ndarray) -> np.ndarray:
    """Forward-half walk values (trials, half) from normal increments (trials, half)."""
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim != 2 or increments.shape[1] < 1:
        raise ValueError("increments must be a (trials, half) array")
    s = 2 * increments.shape[1]
    c = np.sqrt(2.0 / s)
    prefix = np.cumsum(increments, axis=1)
    values = np.empty_like(prefix)
    a = c * prefix[:, -1]
    values[:, 0] = a
    tail = values[:, 1:]
    np.multiply(prefix[:, :-1], 2.0 * c, out=tail)
    np.subtract(a[:, None], tail, out=tail)
    return values


def trace_stats_batch(half_values: np.ndarray, alpha: float):
    """Per-trial (up-crossing count, first up-crossing index, half-trace runs).

    half_values is the (trials, half) forward half of antipodal walks of
    length 2*half.  The count and the first up-crossing index (-1 when
    there is none) describe the full circular trace; the runs count the
    linear forward half.
    """
    half_values = np.asarray(half_values, dtype=np.float64)
    if half_values.ndim != 2 or half_values.shape[1] < 1:
        raise ValueError("half_values must be a (trials, half) array")
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    trials, half = half_values.shape
    labels = (half_values >= alpha).view(np.int8) - (half_values <= -alpha).view(np.int8)

    # the nonzero labels in row-major order; a run starts where the label
    # changes or a new row begins
    flat = labels.ravel()
    nz = np.flatnonzero(flat)
    seq = flat[nz]
    per_row = np.count_nonzero(labels, axis=1)
    row_first = (np.cumsum(per_row) - per_row)[per_row > 0]
    is_start = np.empty(seq.size, dtype=bool)
    np.not_equal(seq[1:], seq[:-1], out=is_start[1:])
    is_start[row_first] = True
    starts = np.flatnonzero(is_start)

    run_label = seq[starts]
    run_row, run_col = np.divmod(nz[starts], half)
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
    return counts, first_plus, half_runs
