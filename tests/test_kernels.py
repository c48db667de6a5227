"""Half-walk kernel correctness against explicit walks and the full-circle detector."""

import numpy as np
import pytest

from relq._kernels import canonical_values_batch, trace_stats_batch
from relq.constellation import SdpSolutionP, canonical_constellation
from relq.rounding import WalkTrace, detect_extreme_sign_changes, lifted_walk_values


def test_values_match_explicit_dot_products():
    rng = np.random.default_rng(7)
    for s in (2, 4, 8, 30, 128):
        half = s // 2
        cons = canonical_constellation(s)
        inc = rng.standard_normal((5, half))
        got = canonical_values_batch(inc)
        assert got.shape == (5, half)
        want = inc @ cons.vectors.T  # values[k] = v^k . r with r = the increments row
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
    sol = SdpSolutionP(p=2 * half, n=1, dim=half, v=cons.vectors[None])
    for row in range(5):
        values = lifted_walk_values(sol, 1, inc[row], 0)
        np.testing.assert_allclose(values[:half], vals[row], atol=1e-12)
        np.testing.assert_allclose(values[half], -vals[row, 0], atol=1e-12)
        np.testing.assert_array_equal(values[half + 1 :], -values[1:half])


def test_values_rejects_bad_shape():
    with pytest.raises(ValueError):
        canonical_values_batch(np.zeros(5))
    with pytest.raises(ValueError):
        canonical_values_batch(np.zeros((3, 0)))


# hand-labeled forward halves: (half values, alpha, count, first_plus, half_runs)
# of the antipodal trace concat(half, -half)
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
    c, f, m = trace_stats_batch(np.array([values]), alpha)
    assert c[0] == count
    assert f[0] == first
    assert m[0] == runs


def test_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        trace_stats_batch(np.zeros(4), 1.0)  # not a batch
    with pytest.raises(ValueError):
        trace_stats_batch(np.zeros((2, 0)), 1.0)  # empty half
    with pytest.raises(ValueError):
        trace_stats_batch(np.zeros((2, 4)), 0.0)
    with pytest.raises(ValueError):
        trace_stats_batch(np.zeros((2, 4)), float("nan"))


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
    # antipodal traces force: count = runs for odd runs, runs - 1 for even
    rng = np.random.default_rng(9)
    for s in (8, 40, 200):
        inc = rng.standard_normal((400, s // 2))
        vals = canonical_values_batch(inc)
        counts, _, runs = trace_stats_batch(vals, 1.0)
        np.testing.assert_array_equal(runs, [_half_runs_reference(row, 1.0) for row in vals])
        want = np.where(runs % 2 == 1, runs, np.maximum(runs - 1, 0))
        np.testing.assert_array_equal(counts, want)


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
    counts, first, runs = trace_stats_batch(rows, alpha)
    for t, row in enumerate(rows):
        trace = WalkTrace(s=2 * half, values=np.concatenate((row, -row)))
        events = detect_extreme_sign_changes(trace, alpha)
        assert counts[t] == len(events), t
        assert first[t] == (min(e.t_plus for e in events) if events else -1), t
        assert runs[t] == _half_runs_reference(row, alpha), t
    # the random walks reach several counts, and first up-crossings in both halves
    assert len(set(counts[:2000].tolist())) >= 2
    assert (first[:2000] >= half).any() and ((first[:2000] >= 0) & (first[:2000] < half)).any()
