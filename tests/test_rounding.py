"""Sampler determinism, walk construction, crossing detection, rounding."""

import numpy as np
import pytest
from scipy import stats

from relq._kernels import canonical_values_batch, trace_stats_batch
from relq.constellation import SdpSolutionP, canonical_constellation, lift_solution
from relq.instance import Assignment, Instance, circular_distance
from relq.rounding import (
    _BLOCK_PAIRS,
    MANY_CROSSINGS,
    NO_CROSSING,
    ONE_CROSSING,
    CrossingEvent,
    GaussianSampler,
    RoundingOutcome,
    WalkTrace,
    assign_position,
    compute_walk,
    detect_extreme_sign_changes,
    lifted_walk_values,
    round_lifted_solution,
    round_solution,
    sample_gaussian,
)
from relq.sdp import convert_to_p, integral_embedding


# --- sampler ---------------------------------------------------------------


def test_sampler_is_deterministic():
    a = GaussianSampler(seed=5, stream=3).sample(64)
    b = GaussianSampler(seed=5, stream=3).sample(64)
    np.testing.assert_array_equal(a, b)


def test_sampler_sequence_independent_of_chunking():
    whole = GaussianSampler(seed=1).sample(11)
    s = GaussianSampler(seed=1)
    parts = np.concatenate([s.sample(3), s.sample(1), s.sample(7)])
    np.testing.assert_array_equal(whole, parts)


class _UnblockedSampler:
    """The sampler's original one-shot Box-Muller, kept as a bit-level oracle."""

    def __init__(self, seed: int, stream: int = 0):
        key = np.array([seed, stream], dtype=np.uint64)
        self._rng = np.random.Generator(np.random.Philox(key=key))
        self._spare = None

    def sample(self, dim: int) -> np.ndarray:
        out = np.empty(dim)
        start = 0
        if self._spare is not None:
            out[0] = self._spare
            self._spare = None
            start = 1
        need = dim - start
        if need > 0:
            pairs = (need + 1) // 2
            u = self._rng.random(size=(pairs, 2))
            radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
            angle = 2.0 * np.pi * u[:, 1]
            z = np.empty(2 * pairs)
            z[0::2] = radius * np.cos(angle)
            z[1::2] = radius * np.sin(angle)
            out[start:] = z[:need]
            if 2 * pairs > need:
                self._spare = float(z[need])
        return out


def test_blocked_sampler_matches_unblocked_oracle():
    # odd requests carry a spare across calls; the long ones cross block edges
    b = _BLOCK_PAIRS
    fast = GaussianSampler(seed=11, stream=4)
    oracle = _UnblockedSampler(seed=11, stream=4)
    for dim in (1, 7, 2 * b - 1, 2 * b, 2 * b + 1, 3, 6 * b + 5, 2):
        got = fast.sample(dim)
        assert got.shape == (dim,)
        np.testing.assert_array_equal(got, oracle.sample(dim))


def test_sampler_streams_differ():
    a = GaussianSampler(seed=5, stream=0).sample(16)
    b = GaussianSampler(seed=5, stream=1).sample(16)
    assert not np.array_equal(a, b)
    c = GaussianSampler(seed=6, stream=0).sample(16)
    assert not np.array_equal(a, c)


def test_sampler_moments():
    draws = sample_gaussian(GaussianSampler(seed=101), 10**6)
    assert abs(draws.mean()) <= 0.005
    assert abs(draws.var() - 1.0) <= 0.01


def test_sampler_spawn_and_uniform():
    s = GaussianSampler(seed=7, stream=2)
    child = s.spawn(4)
    assert child.stream == 2 * (1 << 20) + 5
    assert not np.array_equal(child.sample(8), GaussianSampler(7, 2).sample(8))
    vals = [s.uniform_below(10) for _ in range(200)]
    assert min(vals) >= 0 and max(vals) < 10
    with pytest.raises(ValueError):
        s.uniform_below(0)
    with pytest.raises(ValueError):
        s.sample(0)
    with pytest.raises(ValueError):
        s.spawn(-1)


# --- walks -----------------------------------------------------------------


def test_compute_walk_hand_case():
    cons = canonical_constellation(8)
    r = np.zeros(4)
    r[1] = 1.0
    trace = compute_walk(cons.vectors, r)
    assert trace.s == 8
    assert abs(trace.values[0] - 0.5) <= 1e-15
    assert abs(trace.values[4] + 0.5) <= 1e-15
    assert trace.anchor == trace.values[0]


def test_fast_and_slow_paths_agree():
    cons = canonical_constellation(128)
    r = GaussianSampler(seed=3).sample(64)
    slow = compute_walk(cons.vectors, r)
    fast = compute_walk(cons.vectors, r, assume_canonical=True)
    np.testing.assert_allclose(fast.values, slow.values, atol=1e-12)


def test_walk_antipodal_antisymmetry():
    cons = canonical_constellation(30)
    r = GaussianSampler(seed=4).sample(15)
    trace = compute_walk(cons.vectors, r)
    np.testing.assert_allclose(trace.values[15:], -trace.values[:15], atol=1e-12)


def test_walk_correlations_match_gram():
    s = 8
    inc = GaussianSampler(seed=9).sample(10**5 * (s // 2)).reshape(10**5, s // 2)
    half_vals = canonical_values_batch(inc)
    vals = np.concatenate((half_vals, -half_vals), axis=1)  # the antipodal mirror
    cons = canonical_constellation(s)
    for a, b in [(0, 1), (0, 4), (2, 5), (3, 3), (1, 6), (7, 7)]:
        want = float(cons.vectors[a] @ cons.vectors[b])
        got = float(np.mean(vals[:, a] * vals[:, b]))
        assert abs(got - want) <= 0.01


def test_compute_walk_validates():
    cons = canonical_constellation(8)
    with pytest.raises(ValueError):
        compute_walk(cons.vectors, np.zeros(3))
    with pytest.raises(ValueError):
        compute_walk(np.zeros((8, 5)), np.zeros(5), assume_canonical=True)
    with pytest.raises(ValueError):
        WalkTrace(s=4, values=np.zeros(5))


# --- detection -------------------------------------------------------------


def test_detect_single_up_crossing():
    trace = WalkTrace(s=4, values=np.array([-2.0, 0.0, 2.0, 0.0]))
    events = detect_extreme_sign_changes(trace, 1.0)
    assert len(events) == 1
    assert events[0].t_plus == 2
    assert events[0].t_minus == 0
    assert events[0].direction == "up"


def test_detect_quiet_trace():
    trace = WalkTrace(s=4, values=np.array([0.5, -0.5, 0.5, -0.5]))
    assert detect_extreme_sign_changes(trace, 1.0) == []


def test_detect_wrapping_run():
    trace = WalkTrace(s=6, values=np.array([2.0, 0.0, 0.0, -2.0, 0.0, 2.0]))
    events = detect_extreme_sign_changes(trace, 1.0)
    # the + run wraps from index 5 through 0
    assert len(events) == 1
    assert events[0].t_minus == 3
    assert events[0].t_plus == 5


def test_detect_rejects_bad_alpha():
    trace = WalkTrace(s=2, values=np.zeros(2))
    with pytest.raises(ValueError):
        detect_extreme_sign_changes(trace, 0.0)


def test_up_and_down_crossings_balance_on_canonical_traces():
    cons = canonical_constellation(40)
    for seed in range(30):
        r = GaussianSampler(seed=seed).sample(20)
        trace = compute_walk(cons.vectors, r)
        ups = detect_extreme_sign_changes(trace, 1.0)
        mirrored = WalkTrace(s=trace.s, values=-trace.values)
        downs = detect_extreme_sign_changes(mirrored, 1.0)
        assert len(ups) == len(downs)


def test_detect_agrees_with_batch_kernel():
    cons = canonical_constellation(60)
    for seed in range(40):
        r = GaussianSampler(seed=seed, stream=9).sample(30)
        for canonical in (False, True):
            trace = compute_walk(cons.vectors, r, assume_canonical=canonical)
            events = detect_extreme_sign_changes(trace, 1.0)
            counts, first, _ = trace_stats_batch(trace.values[None, :30], 1.0)
            assert counts[0] == len(events)
            assert first[0] == (min(e.t_plus for e in events) if events else -1)
            if len(events) == 1:
                assert first[0] == events[0].t_plus


# --- position assignment ---------------------------------------------------


def test_assign_position_single_crossing():
    trace = WalkTrace(s=4, values=np.array([-2.0, 0.0, 2.0, 0.0]))
    pos, status, count = assign_position(trace, 1.0, GaussianSampler(seed=0))
    assert (pos, status, count) == (2, ONE_CROSSING, 1)


def test_assign_position_quiet_trace_falls_back():
    trace = WalkTrace(s=8, values=np.zeros(8))
    s1 = GaussianSampler(seed=12)
    s2 = GaussianSampler(seed=12)
    pos1, status, count = assign_position(trace, 1.0, s1)
    pos2, _, _ = assign_position(trace, 1.0, s2)
    assert status == NO_CROSSING
    assert count == 0
    assert pos1 == pos2
    assert 0 <= pos1 < 8


def test_assign_position_many_crossings():
    trace = WalkTrace(s=6, values=np.array([2.0, -2.0, 2.0, -2.0, 2.0, -2.0]))
    pos, status, count = assign_position(trace, 1.0, GaussianSampler(seed=1))
    assert status == MANY_CROSSINGS
    assert count == 3
    assert 0 <= pos < 6


# --- rounding --------------------------------------------------------------


def _integral_p_solution(p, positions):
    inst = Instance(p=p, n=len(positions), equations=[(0, 1, 0)])
    return convert_to_p(integral_embedding(inst, Assignment(positions=positions)))


def test_round_solution_deterministic():
    sol = _integral_p_solution(8, [0, 3, 5])
    out1 = round_solution(sol, GaussianSampler(seed=21))
    out2 = round_solution(sol, GaussianSampler(seed=21))
    np.testing.assert_array_equal(out1.positions, out2.positions)
    assert out1.statuses == out2.statuses
    assert out1.crossing_counts == out2.crossing_counts


def test_round_solution_positions_track_integral_differences():
    positions = [0, 2, 5]
    sol = _integral_p_solution(8, positions)
    seen = 0
    for seed in range(40):
        out = round_solution(sol, GaussianSampler(seed=seed), audit=(seed == 0))
        for i in range(3):
            for j in range(i + 1, 3):
                if out.statuses[i] == ONE_CROSSING and out.statuses[j] == ONE_CROSSING:
                    want = (positions[j] - positions[i]) % 8
                    got = (out.positions[j] - out.positions[i]) % 8
                    assert got == want
                    seen += 1
    assert seen > 20  # the comparison actually happened


def test_round_solution_rejects_infeasible():
    sol = _integral_p_solution(4, [0, 1])
    sol.v[0] *= 1.5
    with pytest.raises(ValueError):
        round_solution(sol, GaussianSampler(seed=0))


def test_round_solution_one_crossing_frequency():
    s = 2000
    cons = canonical_constellation(s)
    sol = SdpSolutionP(p=s, n=1, dim=s // 2, v=cons.vectors[None, :, :])
    hits = 0
    trials = 2500
    for seed in range(trials):
        out = round_solution(sol, GaussianSampler(seed=seed, stream=77), audit=False)
        hits += out.statuses[0] == ONE_CROSSING
    assert hits / trials >= 0.96


def test_one_crossing_positions_are_uniform():
    s = 16
    trials = 10**5
    inc = GaussianSampler(seed=55).sample(trials * (s // 2)).reshape(trials, s // 2)
    vals = canonical_values_batch(inc)
    counts, first, _ = trace_stats_batch(vals, 1.0)
    pos = first[counts == 1]
    observed = np.bincount(pos, minlength=s)
    expected = pos.size / s
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, df=s - 1) > 0.001


# --- lifted rounding -------------------------------------------------------


def _rotated_pair(p, theta):
    cons = canonical_constellation(p)
    z = np.zeros_like(cons.vectors)
    v0 = np.hstack([cons.vectors, z])
    v1 = np.hstack([np.cos(theta) * cons.vectors, np.sin(theta) * cons.vectors])
    return SdpSolutionP(p=p, n=2, dim=2 * cons.dim, v=np.stack([v0, v1]))


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_lifted_walks_match_materialized_lift(ell):
    sol = _rotated_pair(8, theta=0.6)
    lifted = lift_solution(sol, ell)
    r = GaussianSampler(seed=31).sample(sol.dim * ell)
    for i in range(2):
        direct = lifted.v[i] @ r
        trick = lifted_walk_values(sol, ell, r, i)
        np.testing.assert_allclose(trick, direct, atol=1e-9)


@pytest.mark.parametrize("ell", [2, 3])
def test_round_lifted_matches_rounding_the_lift(ell):
    sol = _rotated_pair(4, theta=0.8)
    lifted = lift_solution(sol, ell)
    out_trick = round_lifted_solution(sol, ell, GaussianSampler(seed=17))
    out_direct = round_solution(lifted, GaussianSampler(seed=17))
    assert out_trick.s == out_direct.s == 4 * ell
    np.testing.assert_array_equal(out_trick.positions, out_direct.positions)
    assert out_trick.statuses == out_direct.statuses


def test_round_lifted_positions_in_range():
    sol = _rotated_pair(4, theta=0.3)
    out = round_lifted_solution(sol, 50, GaussianSampler(seed=2))
    assert out.s == 200
    assert np.all(out.positions >= 0)
    assert np.all(out.positions < 200)


def test_round_lifted_validates():
    sol = _rotated_pair(4, theta=0.3)
    with pytest.raises(ValueError):
        round_lifted_solution(sol, 0, GaussianSampler(seed=0))
    r = GaussianSampler(seed=0).sample(sol.dim * 2)
    with pytest.raises(ValueError):
        lifted_walk_values(sol, 3, r, 0)  # r sized for ell=2, not 3
