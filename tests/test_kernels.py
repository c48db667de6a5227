"""Half-walk kernel correctness against explicit walks and the full-circle detector."""

import tracemalloc

import numpy as np
import pytest

from relq._kernels import _check_int, canonical_values_batch, trace_stats_batch
from relq.constellation import SdpSolutionP, canonical_constellation
from relq.rounding import detect_extreme_sign_changes, lifted_walk_values


def test_check_int_bound_is_optional_and_gives_a_python_int():
    assert _check_int("k", -5) == -5
    at_bound = _check_int("k", np.int32(3), 3)
    assert at_bound == 3 and type(at_bound) is int
    with pytest.raises(ValueError, match=r"^k must be >= 3, got 2$"):
        _check_int("k", np.int64(2), 3)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 3\.0$"):
        _check_int("k", 3.0, 3)


def test_values_match_explicit_dot_products():
    rng = np.random.default_rng(7)
    for s in (2, 4, 8, 30, 128):
        half = s // 2
        cons = canonical_constellation(s)
        inc = rng.standard_normal((5, half))
        got = canonical_values_batch(inc)
        assert got.shape == (5, half)
        want = inc @ cons.T  # values[k] = v^k . r with r = the increments row
        np.testing.assert_allclose(got, want[:, :half], atol=1e-12)
        # the second half of the explicit walk is the mirror the kernel omits
        np.testing.assert_allclose(-got, want[:, half:], atol=1e-12)


def test_values_antipodal_mirror_is_exact():
    rng = np.random.default_rng(8)
    half = 16
    inc = rng.standard_normal((50, half))
    vals = canonical_values_batch(inc)
    # continuing the forward recursion one step past the half lands exactly
    # on -values[0], so the mirror is an exact sign flip
    c = np.sqrt(2.0 / (2 * half))
    seam = vals[:, 0] - 2.0 * c * np.cumsum(inc, axis=1)[:, -1]
    np.testing.assert_array_equal(seam, -vals[:, 0])
    # the rounding path's walk of the canonical constellation is the same
    # walk, mirrored exactly past its seam index
    cons = canonical_constellation(2 * half)
    sol = SdpSolutionP(p=2 * half, n=1, dim=half, v=cons[None])
    for row in range(5):
        values = lifted_walk_values(sol, 1, inc[row])[0]
        np.testing.assert_allclose(values[:half], vals[row], atol=1e-12)
        np.testing.assert_allclose(values[half], -vals[row, 0], atol=1e-12)
        np.testing.assert_array_equal(values[half + 1 :], -values[1:half])


def test_values_rejects_bad_shape():
    with pytest.raises(ValueError):
        canonical_values_batch(np.zeros(5))
    with pytest.raises(ValueError):
        canonical_values_batch(np.zeros((3, 0)))


# hand-labeled forward halves: (half values, alpha, count, first_plus, half_runs)
# of the antipodal trace concat(half, -half); the count follows from the runs
STAT_CASES = [
    ([2.0, 0.0], 1.0, 1, 0, 1),  # wraps: - at 2, + at 0
    ([0.0, 2.0], 1.0, 1, 1, 1),  # wraps with first nonzero past 0
    ([-2.0, 0.0], 1.0, 1, 2, 1),  # the only up-crossing is in the mirror
    ([2.0, -2.0, 2.0, -2.0], 1.0, 3, 2, 4),  # alternates every step; seams merge
    ([0.0, 0.5], 1.0, 0, -1, 0),  # never leaves the tube
    ([2.0, 2.0], 1.0, 1, 0, 1),  # one run in the half, no alternation
    ([1.0, -1.0, 1.0], 1.0, 3, 0, 3),  # boundary values count; seams stay apart
    ([0.0, 0.0, 0.0, 3.0, 0.0, 1.5], 1.0, 1, 3, 1),  # a run collapses across a gap
    ([0.0, -3.0, 0.0, 3.0, 0.0, 1.5], 1.0, 1, 3, 2),  # - then +: first up in the half
    ([2.0, -2.0], 1.0, 1, 3, 2),  # + then -: first up in the mirror
    ([0.99, -0.99, 0.0], 1.0, 0, -1, 0),  # just inside the tube
    ([-1.0, 0.0, 1.0, 0.0, -1.0], 1.0, 3, 2, 3),
]


@pytest.mark.parametrize("values,alpha,count,first,runs", STAT_CASES)
def test_stats_frozen_cases(values, alpha, count, first, runs):
    c, f = trace_stats_batch(np.array([values]), alpha)
    assert c[0] == count == _count_from_runs(runs)
    assert f[0] == first
    assert _half_runs_reference(values, alpha) == runs


def test_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        trace_stats_batch(np.zeros(4), 1.0)  # not a batch
    with pytest.raises(ValueError):
        trace_stats_batch(np.zeros((2, 0)), 1.0)  # empty half
    with pytest.raises(ValueError):
        trace_stats_batch(np.zeros((2, 4)), 0.0)
    with pytest.raises(ValueError):
        trace_stats_batch(np.zeros((2, 4)), float("nan"))


def _count_from_runs(runs):
    # antipodal traces force: count = runs for odd runs, runs - 1 for even
    runs = np.asarray(runs)
    return np.where(runs % 2 == 1, runs, np.maximum(runs - 1, 0))


def _half_runs_reference(row, alpha):
    runs, prev = 0, 0
    for v in row:
        lab = 1 if v >= alpha else -1 if v <= -alpha else 0
        if lab != 0 and lab != prev:
            runs += 1
        if lab != 0:
            prev = lab
    return runs


def test_crossing_count_vs_half_runs_on_canonical_traces():
    rng = np.random.default_rng(9)
    for s in (8, 40, 200):
        inc = rng.standard_normal((400, s // 2))
        vals = canonical_values_batch(inc)
        counts, _ = trace_stats_batch(vals, 1.0)
        np.testing.assert_array_equal(counts, _count_from_runs([_half_runs_reference(row, 1.0) for row in vals]))


def _edge_rows(half, alpha):
    rows = np.zeros((10, half))  # row 0: all zero
    rows[1] = 2.0 * alpha  # all '+'
    rows[2] = -2.0 * alpha  # all '-'
    rows[3, -1] = alpha  # a single nonzero at the last half index
    rows[4, -1] = -alpha
    rows[5, ::2] = alpha  # values exactly +-alpha
    rows[5, 1::2] = -alpha
    rows[6, half // 2] = -alpha  # first nonzero past index 0
    rows[6, -1] = alpha
    rows[7, 1] = alpha
    rows[8, 0] = np.nextafter(alpha, 0.0)  # just inside the tube, then on the edge
    rows[8, 1] = -alpha
    rows[9, 2:] = np.where(np.arange(half - 2) % 3 == 0, -alpha, 0.0)
    return rows


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
def test_stats_match_full_circle_reference(alpha):
    rng = np.random.default_rng(11)
    half = 25
    walks = canonical_values_batch(rng.standard_normal((2000, half)))
    rows = np.vstack([walks, _edge_rows(half, alpha)])
    counts, first = trace_stats_batch(rows, alpha)
    for t, row in enumerate(rows):
        events = detect_extreme_sign_changes(np.concatenate((row, -row)), alpha)
        assert counts[t] == len(events), t
        assert first[t] == (min(t_plus for _, t_plus in events) if events else -1), t
    # the random walks reach several counts, and first up-crossings in both halves
    assert len(set(counts[:2000].tolist())) >= 2
    assert (first[:2000] >= half).any() and ((first[:2000] >= 0) & (first[:2000] < half)).any()


def _assert_match_references(rows, alpha):
    counts, first = trace_stats_batch(rows, alpha)
    for t, row in enumerate(rows):
        events = detect_extreme_sign_changes(np.concatenate((row, -row)), alpha)
        assert counts[t] == len(events), t
        assert first[t] == (min(t_plus for _, t_plus in events) if events else -1), t


# frozen batches whose rows must stay apart: (rows, alpha, counts, first_plus, half_runs)
BATCH_CASES = [
    (
        [
            [0.0, -2.0, 0.0, 2.0],  # ends '+'
            [2.0, 2.0, 0.0, -2.0],  # starts '+': a run of its own, then ends '-'
            [0.0, 0.0, 0.0, 0.0],  # no nonzero label between two rows with runs
            [-2.0, 0.0, 0.0, -2.0],  # starts '-' like the last row with runs ended
        ],
        1.0,
        [1, 1, 0, 1],
        [3, 7, -1, 4],
        [2, 2, 0, 1],
    ),
    ([[2.0], [2.0], [0.0], [-2.0], [-2.0]], 1.0, [1, 1, 0, 1, 1], [0, 0, -1, 1, 1], [1, 1, 0, 1, 1]),  # one column
]


@pytest.mark.parametrize("rows,alpha,counts,first,runs", BATCH_CASES)
def test_stats_frozen_batches_keep_rows_apart(rows, alpha, counts, first, runs):
    got = trace_stats_batch(np.array(rows), alpha)
    assert len(got) == 2
    for out, want in zip(got, (counts, first)):
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(_count_from_runs(runs), counts)
    assert [_half_runs_reference(row, alpha) for row in rows] == runs
    _assert_match_references(np.array(rows), alpha)


def test_stats_match_references_on_dense_labels():
    # values in {-2, ..., 2} at alpha = 1: four labels in five are nonzero,
    # and most of those differ from their left neighbour, so most are entries
    rng = np.random.default_rng(12)
    for _ in range(200):
        rows = rng.integers(-2, 3, size=(rng.integers(1, 9), rng.integers(1, 13))).astype(np.float64)
        _assert_match_references(rows, 1.0)


def test_stats_temporaries_stay_within_four_bytes_per_value():
    # labels, the entry mask and one comparison take a byte per value each;
    # an int64 index per nonzero label (three in four at alpha = 0.3) does not fit
    values = canonical_values_batch(np.random.default_rng(13).standard_normal((131, 2000)))
    tracemalloc.start()
    try:
        trace_stats_batch(values, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * values.size, peak / values.size


@pytest.mark.parametrize("half", [5, 6])
def test_stats_read_a_transposed_view_like_a_contiguous_batch(half):
    # the rounding stores its walks sub-step-major, (half, walks), and passes
    # the transposed view; its rows must read as the same rows stored in order
    quiet, once, alternating = np.zeros(half), np.r_[2.0, np.zeros(half - 1)], 2.0 * (-1.0) ** np.arange(half)
    noise = np.random.default_rng(14).integers(-2, 3, size=(20, half)).astype(np.float64)
    rows = np.vstack([quiet, once, alternating, noise])
    stored = np.ascontiguousarray(rows.T)
    view = stored.T
    assert rows.flags.c_contiguous and not view.flags.c_contiguous and np.array_equal(view, rows)
    want = trace_stats_batch(rows, 1.0)
    assert {0, 1} <= set(want[0].tolist()) and want[0].max() >= 2
    for got, expected in zip(trace_stats_batch(view, 1.0), want):
        np.testing.assert_array_equal(got, expected)
