"""Sampler determinism, walk construction, crossing detection, rounding."""

import numpy as np
import pytest
from scipy import stats

import relq.rounding
from relq._kernels import canonical_values_batch, trace_stats_batch
from relq.constellation import SdpSolutionP, _variable_difference_steps, canonical_constellation, lift_solution
from relq.brownian import discretization_margin_check
from relq.instance import Assignment, Instance, generate_instance
from relq.rounding import (
    _SAMPLER_DOMAIN,
    MANY_CROSSINGS,
    NO_CROSSING,
    ONE_CROSSING,
    GaussianSampler,
    WalkTrace,
    detect_extreme_sign_changes,
    lifted_walk_values,
    round_lifted_solution,
)
from relq.sdp import convert_to_p, feasibility_report, integral_embedding, solve_p_plus


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


def _one_shot_normals(seed, stream, tags, total):
    """total normals of the sampler named (seed, stream, *tags), drawn in one call
    from the documented Philox key and counter."""
    tags = tuple(tags)
    counter = [0, *tags, *(0,) * (2 - len(tags)), _SAMPLER_DOMAIN + len(tags)]
    bitgen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64), counter=np.array(counter, dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal(total)


def test_sampler_matches_one_shot_oracle():
    # split requests of odd and even sizes, some far past any internal block
    sizes = (1, 7, 3, 6, 2**17 + 1, 2**18, 2, 5)
    for seed, stream, tags in ((11, 4, ()), (11, 4, (9,)), (0, 2**64 - 1, (2**64 - 1, 3))):
        smp = GaussianSampler(seed, stream)
        for tag in tags:
            smp = smp.spawn(tag)
        got = np.concatenate([smp.sample(dim) for dim in sizes])
        np.testing.assert_array_equal(got, _one_shot_normals(seed, stream, tags, sum(sizes)))


def test_sampler_streams_differ():
    a = GaussianSampler(seed=5, stream=0).sample(16)
    b = GaussianSampler(seed=5, stream=1).sample(16)
    assert not np.array_equal(a, b)
    c = GaussianSampler(seed=6, stream=0).sample(16)
    assert not np.array_equal(a, c)


def test_sampler_moments():
    draws = GaussianSampler(seed=101).sample(10**6)
    assert abs(draws.mean()) <= 0.005
    assert abs(draws.var() - 1.0) <= 0.01


def test_sampler_spawn_and_uniform():
    s = GaussianSampler(seed=7, stream=2)
    child = s.spawn(4)
    np.testing.assert_array_equal(child.key, np.array([7, 2], dtype=np.uint64))
    np.testing.assert_array_equal(child.counter, np.array([0, 4, 0, _SAMPLER_DOMAIN + 1], dtype=np.uint64))
    grandchild = child.spawn(6)
    assert grandchild.path == (4, 6)
    np.testing.assert_array_equal(grandchild.counter, np.array([0, 4, 6, _SAMPLER_DOMAIN + 2], dtype=np.uint64))
    with pytest.raises(ValueError, match="2 deep"):
        grandchild.spawn(0)
    assert not np.array_equal(child.sample(8), GaussianSampler(7, 2).sample(8))
    vals = [s.uniform_below(10) for _ in range(200)]
    assert min(vals) >= 0 and max(vals) < 10
    with pytest.raises(ValueError):
        s.uniform_below(0)
    with pytest.raises(ValueError):
        s.sample(0)
    with pytest.raises(ValueError):
        s.spawn(-1)


def test_sampler_is_fresh_until_its_first_draw():
    s = GaussianSampler(seed=7, stream=2)
    np.testing.assert_array_equal(s.key, np.array([7, 2], dtype=np.uint64))
    np.testing.assert_array_equal(s.counter, np.array([0, 0, 0, _SAMPLER_DOMAIN], dtype=np.uint64))
    child = s.spawn(3)
    assert s.fresh and child.fresh
    s.sample(1)
    assert not s.fresh
    child.uniform_below(4)
    assert not child.fresh


@pytest.mark.parametrize("seed", [-1, -(2**64) + 1, 2**64, 2**70])
def test_sampler_rejects_out_of_range_seeds(seed):
    # masking used to alias these onto valid seeds: -1 drew what 2**64 - 1 draws
    with pytest.raises(ValueError, match="seed"):
        GaussianSampler(seed)


def test_sampler_accepts_the_seed_range_ends():
    top = GaussianSampler(2**64 - 1).sample(8)
    np.testing.assert_array_equal(top, _one_shot_normals(2**64 - 1, 0, (), 8))
    assert not np.array_equal(top, GaussianSampler(0).sample(8))


@pytest.mark.parametrize("stream", [-1, 2**64, 2**70])
def test_sampler_rejects_out_of_range_streams_and_tags(stream):
    # masking used to alias these: GaussianSampler(5, 2**70) drew what (5, 0) draws
    with pytest.raises(ValueError, match="stream"):
        GaussianSampler(5, stream)
    with pytest.raises(ValueError, match="tag"):
        GaussianSampler(5).spawn(stream)
    with pytest.raises(ValueError, match="tag"):
        GaussianSampler(5).spawn(3).spawn(stream)


def test_spawn_paths_do_not_collide():
    # spawn(t) used to key stream * 2**20 + t + 1, so these two drew the same numbers
    nested = GaussianSampler(0).spawn(0).spawn(5).sample(64)
    assert not np.array_equal(nested, GaussianSampler(0).spawn(2**20 + 5).sample(64))
    names = [GaussianSampler(0), GaussianSampler(0).spawn(0), GaussianSampler(0).spawn(0).spawn(0), GaussianSampler(0, 1)]
    draws = {smp.sample(4).tobytes() for smp in names}
    assert len(draws) == len(names)


def _philox_states(fn, monkeypatch):
    """The Philox (key, counter) starts of every bit generator fn builds."""
    starts = []
    real = np.random.Philox

    def recording(*args, **kwargs):
        bitgen = real(*args, **kwargs)
        starts.append(bitgen.state["state"])
        return bitgen

    with monkeypatch.context() as m:
        m.setattr(np.random, "Philox", recording)
        fn()
    return starts


# the package's other Philox consumers, and the spawn tag that used to share
# each one's key: spawn(t) was keyed [seed, t + 1]
CONSUMERS = {
    "generate_instance": (lambda seed: generate_instance(3, 4, 2, seed=seed), 0xB5 - 1),
    "margin_check": (lambda seed: discretization_margin_check(s=200, eta=0.5, c=1.0, trials=50, seed=seed), 0xD15C - 1),
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
@pytest.mark.parametrize("seed", [0, 4])
def test_sampler_streams_stay_off_other_consumers(name, seed, monkeypatch):
    run, old_tag = CONSUMERS[name]
    (start,) = _philox_states(lambda: run(seed), monkeypatch)
    # the consumer counts up from a zero counter; every sampler's word 3 is nonzero
    assert start["counter"].tolist() == [0, 0, 0, 0]
    consumer = np.random.Philox(key=start["key"]).random_raw(256)
    for smp in (GaussianSampler(seed).spawn(old_tag), GaussianSampler(seed, int(start["key"][1]))):
        assert smp.counter[3] != 0
        assert not np.isin(smp._rng.bit_generator.random_raw(256), consumer).any()


# --- walks -----------------------------------------------------------------


def _canonical_solution(p):
    cons = canonical_constellation(p)
    return SdpSolutionP(p=p, n=1, dim=cons.dim, v=cons.vectors[None, :, :])


def test_compute_walk_hand_case():
    sol = _canonical_solution(8)
    r = np.zeros(4)
    r[1] = 1.0
    want = [0.5, 0.5, -0.5, -0.5, -0.5, -0.5, 0.5, 0.5]  # v^k . r: the sign of entry 1 of v^k
    np.testing.assert_allclose(sol.v[0] @ r, want, atol=1e-15)
    values = lifted_walk_values(sol, 1, r, 0)
    np.testing.assert_allclose(values, want, atol=1e-15)
    half = canonical_values_batch(r[None])[0]
    np.testing.assert_allclose(np.concatenate((half, -half)), want, atol=1e-15)
    trace = WalkTrace(s=8, values=values)
    assert trace.anchor == values[0] == 0.5


def test_fast_and_slow_paths_agree():
    sol = _canonical_solution(128)
    r = GaussianSampler(seed=3).sample(64)
    explicit = sol.v[0] @ r
    np.testing.assert_allclose(lifted_walk_values(sol, 1, r, 0), explicit, atol=1e-12)
    half = canonical_values_batch(r[None])[0]
    np.testing.assert_allclose(np.concatenate((half, -half)), explicit, atol=1e-12)


def test_walk_antipodal_antisymmetry():
    sol = _canonical_solution(30)
    r = GaussianSampler(seed=4).sample(15)
    for values in (sol.v[0] @ r, lifted_walk_values(sol, 1, r, 0)):
        np.testing.assert_allclose(values[15:], -values[:15], atol=1e-12)
    values = lifted_walk_values(sol, 1, r, 0)
    # the lifted walk mirrors its forward half exactly past the seam index
    np.testing.assert_array_equal(values[16:], -values[1:15])


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
    sol = _canonical_solution(8)
    with pytest.raises(ValueError):
        lifted_walk_values(sol, 1, np.zeros(3), 0)
    with pytest.raises(ValueError):
        lifted_walk_values(sol, 0, np.zeros(4), 0)
    with pytest.raises(ValueError):
        canonical_values_batch(np.zeros(5))
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
        trace = WalkTrace(s=40, values=cons.vectors @ r)
        ups = detect_extreme_sign_changes(trace, 1.0)
        mirrored = WalkTrace(s=trace.s, values=-trace.values)
        downs = detect_extreme_sign_changes(mirrored, 1.0)
        assert len(ups) == len(downs)


def test_detect_agrees_with_batch_kernel():
    cons = canonical_constellation(60)
    for seed in range(40):
        r = GaussianSampler(seed=seed, stream=9).sample(30)
        half = canonical_values_batch(r[None])[0]
        for values in (cons.vectors @ r, np.concatenate((half, -half))):
            events = detect_extreme_sign_changes(WalkTrace(s=60, values=values), 1.0)
            counts, first, _ = trace_stats_batch(values[None, :30], 1.0)
            assert counts[0] == len(events)
            assert first[0] == (min(e.t_plus for e in events) if events else -1)
            if len(events) == 1:
                assert first[0] == events[0].t_plus


# --- the per-trial rounding loop, kept as the oracle of the batched path ----


def _lifted_walk_values_oracle(sol, ell, r, i):
    """lifted_walk_values as it was before the batched path, verbatim."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    p, dim = sol.p, sol.dim
    s = ell * p
    half = s // 2
    expected = dim * ell
    if r.shape != (expected,):
        raise ValueError(f"r has shape {r.shape}, expected ({expected},)")
    R = r.reshape(dim, ell)
    scale = 1.0 / np.sqrt(ell)
    steps = _variable_difference_steps(sol)[i]  # (p/2, dim)
    sub = (steps @ R) * scale  # (p/2, ell), row-major = sub-step order
    anchor = float(sol.v[i, 0] @ R.sum(axis=1)) * scale
    prefix = np.cumsum(sub.ravel())
    values = np.empty(s)
    values[0] = anchor
    values[1 : half + 1] = anchor + 2.0 * prefix
    values[half + 1 :] = -values[1:half]
    return values


def _round_lifted_oracle(sol, ell, sampler, alpha=1.0, audit=True):
    """The per-trial round_lifted_solution loop before batching, verbatim up
    to its return value: (positions, statuses, crossing counts)."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if audit:
        rep = feasibility_report(sol)
        if rep.max_residual > 1e-5:
            raise ValueError(f"solution infeasible: max residual {rep.max_residual:.3e}")
    s = ell * sol.p
    r = sampler.sample(sol.dim * ell)
    positions = np.empty(sol.n, dtype=np.int64)
    statuses = []
    counts = []
    for i in range(sol.n):
        trace = WalkTrace(s=s, values=_lifted_walk_values_oracle(sol, ell, r, i))
        events = detect_extreme_sign_changes(trace, alpha)
        if len(events) == 1:
            positions[i] = events[0].t_plus
            statuses.append(ONE_CROSSING)
            counts.append(1)
        else:
            positions[i] = sampler.spawn(i).uniform_below(s)
            statuses.append(NO_CROSSING if not events else MANY_CROSSINGS)
            counts.append(len(events))
    return positions, statuses, counts


def _integral_p_solution(p, positions):
    inst = Instance(p=p, n=len(positions), equations=[(0, 1, 0)])
    return convert_to_p(integral_embedding(inst, Assignment(positions=positions)))


def _rotated_pair(p, theta):
    cons = canonical_constellation(p)
    z = np.zeros_like(cons.vectors)
    v0 = np.hstack([cons.vectors, z])
    v1 = np.hstack([np.cos(theta) * cons.vectors, np.sin(theta) * cons.vectors])
    return SdpSolutionP(p=p, n=2, dim=2 * cons.dim, v=np.stack([v0, v1]))


def _padded(sol):
    """The same solution with one more, unused, ambient coordinate: odd dim."""
    v = np.concatenate([sol.v, np.zeros((sol.n, sol.p, 1))], axis=2)
    return SdpSolutionP(p=sol.p, n=sol.n, dim=sol.dim + 1, v=v)


def _triangle_solution():
    inst = Instance(p=4, n=3, equations=[(0, 1, 2), (1, 2, 2), (2, 0, 2)])
    return convert_to_p(solve_p_plus(inst)[0])


@pytest.mark.parametrize("ell", [1, 2, 5, 50])
def test_lifted_walk_values_match_the_oracle_bit_for_bit(ell):
    sol = _triangle_solution()
    r = GaussianSampler(seed=8).sample(sol.dim * ell)
    for i in range(sol.n):
        np.testing.assert_array_equal(lifted_walk_values(sol, ell, r, i), _lifted_walk_values_oracle(sol, ell, r, i))


# --- position assignment ---------------------------------------------------


def test_assign_position_single_crossing():
    sol = _canonical_solution(8)
    seen = 0
    for seed in range(20):
        out = round_lifted_solution(sol, 1, GaussianSampler(seed=seed))
        r = GaussianSampler(seed=seed).sample(sol.dim)
        events = detect_extreme_sign_changes(WalkTrace(s=8, values=lifted_walk_values(sol, 1, r, 0)), 1.0)
        assert out.crossing_counts == [len(events)]
        if len(events) == 1:
            assert out.statuses == [ONE_CROSSING]
            assert out.positions[0] == events[0].t_plus
            seen += 1
    assert seen >= 10


def test_assign_position_quiet_trace_falls_back():
    sol = _rotated_pair(8, theta=0.4)
    for seed in (12, 13):
        out1 = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), alpha=50.0)
        out2 = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), alpha=50.0)
        assert out1.statuses == [NO_CROSSING, NO_CROSSING]
        assert out1.crossing_counts == [0, 0]
        np.testing.assert_array_equal(out1.positions, out2.positions)
        want = [GaussianSampler(seed=seed).spawn(i).uniform_below(8) for i in range(2)]
        assert out1.positions.tolist() == want
        assert all(0 <= x < 8 for x in want)


def test_assign_position_many_crossings():
    sol = _canonical_solution(40)
    many = 0
    for seed in range(30):
        out = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), alpha=0.05)
        r = GaussianSampler(seed=seed).sample(sol.dim)
        events = detect_extreme_sign_changes(WalkTrace(s=40, values=lifted_walk_values(sol, 1, r, 0)), 0.05)
        assert out.crossing_counts == [len(events)]
        if len(events) >= 2:
            assert out.statuses == [MANY_CROSSINGS]
            assert out.positions[0] == GaussianSampler(seed=seed).spawn(0).uniform_below(40)
            many += 1
    assert many >= 5


# --- rounding --------------------------------------------------------------


def test_round_solution_deterministic():
    sol = _integral_p_solution(8, [0, 3, 5])
    out1 = round_lifted_solution(sol, 1, GaussianSampler(seed=21))
    out2 = round_lifted_solution(sol, 1, GaussianSampler(seed=21))
    np.testing.assert_array_equal(out1.positions, out2.positions)
    assert out1.statuses == out2.statuses
    assert out1.crossing_counts == out2.crossing_counts


def test_round_solution_positions_track_integral_differences():
    positions = [0, 2, 5]
    sol = _integral_p_solution(8, positions)
    seen = 0
    for seed in range(40):
        out = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), audit=(seed == 0))
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
    with pytest.raises(ValueError, match="infeasible"):
        round_lifted_solution(sol, 1, GaussianSampler(seed=0))
    with pytest.raises(ValueError, match="infeasible"):
        round_lifted_solution(sol, 2, [GaussianSampler(seed=0)])


def test_round_solution_one_crossing_frequency():
    s = 2000
    sol = _canonical_solution(s)
    trials = 2500
    out = round_lifted_solution(sol, 1, [GaussianSampler(seed=seed, stream=77) for seed in range(trials)], audit=False)
    hits = sum(status == ONE_CROSSING for status in out.statuses)
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
    out_direct = round_lifted_solution(lifted, 1, GaussianSampler(seed=17))  # ell = 1 is plain rounding
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


# --- batched trials --------------------------------------------------------

# (solution, ell, alpha): dim*ell odd for the padded pair at odd ell and
# even elsewhere; small and large alpha force NoCrossing and ManyCrossings
# fallbacks
BATCH_CASES = [
    ("triangle", 1, 1.0),
    ("triangle", 5, 1.0),
    ("triangle", 2, 0.3),
    ("padded_pair", 1, 1.0),
    ("padded_pair", 3, 0.2),
    ("padded_pair", 3, 1.6),
    ("canonical_40", 1, 0.1),
]


def _batch_solution(name):
    if name == "triangle":
        return _triangle_solution()
    if name == "padded_pair":
        return _padded(_rotated_pair(6, theta=0.9))
    return _canonical_solution(40)


@pytest.mark.parametrize("block_values", [relq.rounding._BLOCK_VALUES, 50])
@pytest.mark.parametrize("name,ell,alpha", BATCH_CASES)
def test_batched_trials_match_the_per_trial_oracle(name, ell, alpha, block_values, monkeypatch):
    monkeypatch.setattr(relq.rounding, "_BLOCK_VALUES", block_values)
    sol = _batch_solution(name)
    trials = 300
    base = GaussianSampler(seed=6, stream=2)
    out = round_lifted_solution(sol, ell, [base.spawn(t) for t in range(trials)], alpha=alpha)
    assert out.s == ell * sol.p
    assert out.positions.shape == out.crossing_counts.shape == (trials, sol.n)
    assert len(out.statuses) == trials * sol.n
    want_statuses = []
    for t in range(trials):
        positions, statuses, counts = _round_lifted_oracle(sol, ell, base.spawn(t), alpha=alpha)
        np.testing.assert_array_equal(out.positions[t], positions)
        assert out.crossing_counts[t].tolist() == counts
        want_statuses += statuses
        # one trial rounded alone agrees too
        alone = round_lifted_solution(sol, ell, base.spawn(t), alpha=alpha, audit=False)
        np.testing.assert_array_equal(alone.positions, positions)
        assert (alone.statuses, alone.crossing_counts) == (statuses, counts)
    assert out.statuses == want_statuses


def test_batched_cases_reach_every_status_and_dim_parity():
    seen = set()
    for name, ell, alpha in BATCH_CASES:
        sol = _batch_solution(name)
        base = GaussianSampler(seed=6, stream=2)
        seen |= set(round_lifted_solution(sol, ell, [base.spawn(t) for t in range(300)], alpha=alpha).statuses)
        seen.add("odd" if sol.dim * ell % 2 else "even")
    assert seen == {ONE_CROSSING, NO_CROSSING, MANY_CROSSINGS, "odd", "even"}


def test_batch_takes_any_fresh_sampler_keys():
    sol = _rotated_pair(4, theta=0.5)
    samplers = [GaussianSampler(seed, stream) for seed, stream in ((0, 0), (9, 3), (2**64 - 1, 7), (5, 2**64 - 1))]
    samplers += [GaussianSampler(5, 1).spawn(2**64 - 1), GaussianSampler(5, 1).spawn(8).spawn(2)]
    out = round_lifted_solution(sol, 3, samplers)
    fresh = [GaussianSampler(smp.seed, smp.stream) for smp in samplers]
    for t, smp in enumerate(samplers):
        for tag in smp.path:
            fresh[t] = fresh[t].spawn(tag)
    for t, smp in enumerate(fresh):
        positions, statuses, counts = _round_lifted_oracle(sol, 3, smp)
        np.testing.assert_array_equal(out.positions[t], positions)


def test_batch_rejects_used_samplers():
    sol = _rotated_pair(4, theta=0.5)
    used = GaussianSampler(seed=1)
    used.sample(3)
    with pytest.raises(ValueError, match="fresh"):
        round_lifted_solution(sol, 1, [GaussianSampler(seed=0), used])
