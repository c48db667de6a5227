"""Sampler determinism, walk construction, crossing detection, rounding."""

import re
import sys
import threading

import numpy as np
import pytest
from scipy import stats

import relq.rounding
import relq.sdp
from oracles import discretization_margin_check, integral_embedding, lift_solution
from relq._kernels import canonical_values_batch, trace_stats_batch
from relq.constellation import SdpSolutionP, _variable_difference_steps, canonical_constellation
from relq.instance import Instance, generate_instance, scale_instance
from relq.rounding import (
    _SAMPLER_DOMAIN,
    MANY_CROSSINGS,
    NO_CROSSING,
    ONE_CROSSING,
    GaussianSampler,
    RoundingOutcome,
    detect_extreme_sign_changes,
    lifted_walk_values,
    round_lifted_solution,
)
from relq.sdp import convert_to_p, solve_p_plus


# --- sampler ---------------------------------------------------------------


def test_sampler_is_deterministic():
    a = GaussianSampler(seed=5).spawn(3).sample(64)
    b = GaussianSampler(seed=5).spawn(3).sample(64)
    np.testing.assert_array_equal(a, b)


def test_sampler_sequence_independent_of_chunking():
    whole = GaussianSampler(seed=1).sample(11)
    s = GaussianSampler(seed=1)
    parts = np.concatenate([s.sample(3), s.sample(1), s.sample(7)])
    np.testing.assert_array_equal(whole, parts)


def test_sampler_fill_matches_sample():
    # one stream split across fills and samples of different sizes and shapes
    whole = GaussianSampler(seed=3).spawn(2).sample(2**16 + 40)
    s = GaussianSampler(seed=3).spawn(2)
    parts = [s.fill(np.empty((2, 5))), s.sample(7), s.fill(np.empty(2**16)), s.fill(np.empty((3, 1))), s.sample(20)]
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in parts]), whole)
    out = np.empty((4, 3))
    assert GaussianSampler(seed=3).fill(out) is out


def _documented_philox(seed, tags):
    """A Philox built from the documented key and counter of the sampler
    named (seed, *tags)."""
    tags = tuple(tags)
    counter = [0, *tags, *(0,) * (2 - len(tags)), _SAMPLER_DOMAIN + len(tags)]
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64), counter=np.array(counter, dtype=np.uint64))


def _one_shot_normals(seed, tags, total):
    """total normals of the sampler named (seed, *tags), drawn in one call."""
    return np.random.Generator(_documented_philox(seed, tags)).standard_normal(total)


def test_sampler_matches_one_shot_oracle():
    # split requests of odd and even sizes, some far past any internal block
    sizes = (1, 7, 3, 6, 2**17 + 1, 2**18, 2, 5)
    for seed, tags in ((11, ()), (11, (9,)), (2**64 - 1, (2**64 - 1, 3))):
        smp = GaussianSampler(seed)
        for tag in tags:
            smp = smp.spawn(tag)
        got = np.concatenate([smp.sample(dim) for dim in sizes])
        np.testing.assert_array_equal(got, _one_shot_normals(seed, tags, sum(sizes)))


def test_sampler_streams_differ():
    a = GaussianSampler(seed=5).sample(16)
    b = GaussianSampler(seed=5).spawn(1).sample(16)
    assert not np.array_equal(a, b)
    c = GaussianSampler(seed=6).sample(16)
    assert not np.array_equal(a, c)


def test_sampler_moments():
    draws = GaussianSampler(seed=101).sample(10**6)
    assert abs(draws.mean()) <= 0.005
    assert abs(draws.var() - 1.0) <= 0.01


def test_sampler_spawn_and_uniform():
    s = GaussianSampler(seed=7)
    child = s.spawn(4)
    grandchild = child.spawn(6)
    assert grandchild.path == (4, 6)
    with pytest.raises(ValueError, match="2 deep"):
        grandchild.spawn(0)
    assert not np.array_equal(child.sample(8), GaussianSampler(7).sample(8))
    vals = [s.uniform_below(10) for _ in range(200)]
    assert min(vals) >= 0 and max(vals) < 10
    with pytest.raises(ValueError):
        s.uniform_below(0)
    with pytest.raises(ValueError):
        s.sample(0)
    with pytest.raises(ValueError):
        s.spawn(-1)


def test_sampler_key_and_counter_start():
    # the documented layout, pinned by draws at depths 0, 1 and 2: key
    # [seed, 0], counter [0, tag 1 or 0, tag 2 or 0, _SAMPLER_DOMAIN + depth]
    layout = {(): [0, 0, 0, _SAMPLER_DOMAIN], (4,): [0, 4, 0, _SAMPLER_DOMAIN + 1], (4, 6): [0, 4, 6, _SAMPLER_DOMAIN + 2]}
    for tags, counter in layout.items():
        smp = GaussianSampler(seed=7)
        for tag in tags:
            smp = smp.spawn(tag)
        philox = np.random.Philox(key=np.array([7, 0], dtype=np.uint64), counter=np.array(counter, dtype=np.uint64))
        np.testing.assert_array_equal(smp.sample(8), np.random.Generator(philox).standard_normal(8))


@pytest.mark.parametrize("seed", [-1, -(2**64) + 1, 2**64, 2**70, 1.5, np.float64(2.0)])
def test_sampler_rejects_out_of_range_seeds(seed):
    # masking used to alias these onto valid seeds: -1 drew what 2**64 - 1
    # draws, and truncation made 1.5 draw what 1 draws
    with pytest.raises(ValueError, match="seed"):
        GaussianSampler(seed)


def test_sampler_accepts_the_seed_range_ends():
    top = GaussianSampler(2**64 - 1).sample(8)
    np.testing.assert_array_equal(top, _one_shot_normals(2**64 - 1, (), 8))
    assert not np.array_equal(top, GaussianSampler(0).sample(8))


@pytest.mark.parametrize("tag", [-1, 2**64, 2**70, 1.5, np.float64(2.0)])
def test_sampler_rejects_out_of_range_streams_and_tags(tag):
    # a substream is named by its spawn tags; masking and truncation used to
    # alias these onto valid tags
    with pytest.raises(ValueError, match="tag"):
        GaussianSampler(5).spawn(tag)
    with pytest.raises(ValueError, match="tag"):
        GaussianSampler(5).spawn(3).spawn(tag)


def test_spawn_paths_do_not_collide():
    # spawn(t) used to key stream * 2**20 + t + 1, so these two drew the same numbers
    nested = GaussianSampler(0).spawn(0).spawn(5).sample(64)
    assert not np.array_equal(nested, GaussianSampler(0).spawn(2**20 + 5).sample(64))
    names = [GaussianSampler(0), GaussianSampler(0).spawn(0), GaussianSampler(0).spawn(0).spawn(0), GaussianSampler(1)]
    draws = {smp.sample(4).tobytes() for smp in names}
    assert len(draws) == len(names)


def test_interleaved_streams_continue_across_samplers_and_threads():
    # each sampler's own generator moves with it, across samplers drawn in
    # turn and to another thread; B's integers leave a spare uint32
    # buffered, which must not reach A
    a, b = GaussianSampler(13).spawn(5), GaussianSampler(13).spawn(5).spawn(1)
    normals = [a.sample(7)]
    ints = [b.uniform_below(1000) for _ in range(3)]
    normals.append(a.sample(5))
    ints.append(b.uniform_below(2**40))
    worker = threading.Thread(target=lambda: normals.append(a.fill(np.empty((3, 4)))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    normals.append(a.sample(9))
    ints += [b.uniform_below(1000) for _ in range(2)]
    whole = np.concatenate([x.ravel() for x in normals])
    np.testing.assert_array_equal(whole, _one_shot_normals(13, (5,), whole.size))
    oracle = np.random.Generator(_documented_philox(13, (5, 1)))
    assert ints == [int(oracle.integers(0, n)) for n in (1000, 1000, 1000, 2**40, 1000, 1000)]


def test_threads_drawing_at_once_keep_their_streams():
    # more threads than cores, switching often: a generator shared between
    # samplers would hand one thread's stream to another
    def draw(seed, got):
        a, b = GaussianSampler(seed), GaussianSampler(seed).spawn(1)
        for _ in range(100):
            got.append((a.sample(3), b.uniform_below(1000)))

    results = {seed: [] for seed in range(6)}
    workers = [threading.Thread(target=draw, args=item) for item in results.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for seed, got in results.items():
        normals, ints = zip(*got)
        np.testing.assert_array_equal(np.concatenate(normals), _one_shot_normals(seed, (), 300))
        oracle = np.random.Generator(_documented_philox(seed, (1,)))
        assert list(ints) == [int(oracle.integers(0, 1000)) for _ in range(100)]


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


# the other Philox consumers, and the spawn tag that used to share each
# one's key: spawn(t) was keyed [seed, t + 1].  generate_instance is the
# package's one; the margin check is the test oracle of criterion 9
CONSUMERS = {
    "generate_instance": (lambda seed: generate_instance(3, 4, 2, seed=seed), 0xB5 - 1),
    "margin_check": (lambda seed: discretization_margin_check(s=200, eta=0.5, c=1.0, trials=50, seed=seed), 0xD15C - 1),
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
@pytest.mark.parametrize("seed", [0, 4])
def test_sampler_streams_stay_off_other_consumers(name, seed, monkeypatch):
    run, old_tag = CONSUMERS[name]
    (start,) = _philox_states(lambda: run(seed), monkeypatch)
    # every sampler key is [seed, 0]; the consumer keys word 1 otherwise and
    # counts up from a zero counter, where every sampler's word 3 is nonzero
    assert start["key"][0] == seed and start["key"][1] != 0
    assert start["counter"].tolist() == [0, 0, 0, 0]
    consumer = np.random.Philox(key=start["key"]).random_raw(256)
    for smp in (GaussianSampler(seed), GaussianSampler(seed).spawn(old_tag)):
        np.testing.assert_array_equal(smp.sample(8), _one_shot_normals(seed, smp.path, 8))
        documented = _documented_philox(seed, smp.path)
        assert documented.state["state"]["counter"][3] != 0
        words = documented.random_raw(256)
        assert not np.isin(words, consumer).any()
    # a sampler's counter start on the consumer's own key misses its words too
    counter = _documented_philox(seed, ()).state["state"]["counter"]
    words = np.random.Philox(key=start["key"], counter=counter).random_raw(256)
    assert not np.isin(words, consumer).any()


# --- walks -----------------------------------------------------------------


def _canonical_solution(p):
    cons = canonical_constellation(p)
    return SdpSolutionP(p=p, n=1, dim=cons.shape[1], v=cons[None, :, :])


def test_compute_walk_hand_case():
    sol = _canonical_solution(8)
    r = np.zeros(4)
    r[1] = 1.0
    want = [0.5, 0.5, -0.5, -0.5, -0.5, -0.5, 0.5, 0.5]  # v^k . r: the sign of entry 1 of v^k
    np.testing.assert_allclose(sol.v[0] @ r, want, atol=1e-15)
    values = lifted_walk_values(sol, 1, r)
    assert values.shape == (1, 8)
    np.testing.assert_allclose(values[0], want, atol=1e-15)
    half = canonical_values_batch(r[None])[0]
    np.testing.assert_allclose(np.concatenate((half, -half)), want, atol=1e-15)
    assert values[0, 0] == 0.5  # the anchor


def test_fast_and_slow_paths_agree():
    sol = _canonical_solution(128)
    r = GaussianSampler(seed=3).sample(64)
    explicit = sol.v[0] @ r
    np.testing.assert_allclose(lifted_walk_values(sol, 1, r)[0], explicit, atol=1e-12)
    half = canonical_values_batch(r[None])[0]
    np.testing.assert_allclose(np.concatenate((half, -half)), explicit, atol=1e-12)


def test_walk_antipodal_antisymmetry():
    sol = _canonical_solution(30)
    r = GaussianSampler(seed=4).sample(15)
    explicit = sol.v[0] @ r
    np.testing.assert_allclose(explicit[15:], -explicit[:15], atol=1e-12)
    values = lifted_walk_values(sol, 1, r)[0]
    # the lifted walk is its forward half and that half's exact mirror
    np.testing.assert_array_equal(values[15:], -values[:15])


def test_walk_correlations_match_gram():
    s = 8
    inc = GaussianSampler(seed=9).sample(10**5 * (s // 2)).reshape(10**5, s // 2)
    half_vals = canonical_values_batch(inc)
    vals = np.concatenate((half_vals, -half_vals), axis=1)  # the antipodal mirror
    cons = canonical_constellation(s)
    for a, b in [(0, 1), (0, 4), (2, 5), (3, 3), (1, 6), (7, 7)]:
        want = float(cons[a] @ cons[b])
        got = float(np.mean(vals[:, a] * vals[:, b]))
        assert abs(got - want) <= 0.01


def test_compute_walk_validates():
    sol = _canonical_solution(8)
    with pytest.raises(ValueError):
        lifted_walk_values(sol, 1, np.zeros(3))
    with pytest.raises(ValueError):
        lifted_walk_values(sol, 0, np.zeros(4))
    with pytest.raises(ValueError):
        canonical_values_batch(np.zeros(5))


# --- detection -------------------------------------------------------------


def test_detect_single_up_crossing():
    events = detect_extreme_sign_changes(np.array([-2.0, 0.0, 2.0, 0.0]), 1.0)
    assert events == [(0, 2)]  # (t_minus, t_plus)


def test_detect_quiet_trace():
    assert detect_extreme_sign_changes(np.array([0.5, -0.5, 0.5, -0.5]), 1.0) == []


def test_detect_wrapping_run():
    events = detect_extreme_sign_changes(np.array([2.0, 0.0, 0.0, -2.0, 0.0, 2.0]), 1.0)
    # the + run wraps from index 5 through 0
    assert events == [(3, 5)]


def test_detect_rejects_bad_alpha():
    for alpha in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            detect_extreme_sign_changes(np.zeros(2), alpha)


def test_up_and_down_crossings_balance_on_canonical_traces():
    cons = canonical_constellation(40)
    for seed in range(30):
        r = GaussianSampler(seed=seed).sample(20)
        values = cons @ r
        ups = detect_extreme_sign_changes(values, 1.0)
        downs = detect_extreme_sign_changes(-values, 1.0)
        assert len(ups) == len(downs)


def test_detect_agrees_with_batch_kernel():
    cons = canonical_constellation(60)
    for seed in range(40):
        r = GaussianSampler(seed=seed).spawn(9).sample(30)
        half = canonical_values_batch(r[None])[0]
        for values in (cons @ r, np.concatenate((half, -half))):
            events = detect_extreme_sign_changes(values, 1.0)
            counts, first = trace_stats_batch(values[None, :30], 1.0)
            assert counts[0] == len(events)
            assert first[0] == (events[0][1] if len(events) == 1 else -1)


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


def _round_lifted_oracle(sol, ell, name, trials, alpha=1.0):
    """round_lifted_solution(sol, ell, sampler, trials) of the sampler
    named (seed, *tags), one trial and one variable at a time, from the
    documented Philox streams: trial t's r is slice t of the name's
    spawn(0) and the fallbacks come in order from its spawn(1).  Returns
    each trial's (positions, statuses, crossing counts)."""
    s = ell * sol.p
    dim = sol.dim * ell
    seed, tags = name[0], tuple(name[1:])
    normals = _one_shot_normals(seed, tags + (0,), trials * dim).reshape(trials, dim)
    fallbacks = np.random.Generator(_documented_philox(seed, tags + (1,)))
    out = []
    for r in normals:
        positions = np.empty(sol.n, dtype=np.int64)
        statuses = []
        counts = []
        for i in range(sol.n):
            events = detect_extreme_sign_changes(_lifted_walk_values_oracle(sol, ell, r, i), alpha)
            if len(events) == 1:
                positions[i] = events[0][1]
                statuses.append(ONE_CROSSING)
            else:
                positions[i] = fallbacks.integers(0, s)
                statuses.append(NO_CROSSING if not events else MANY_CROSSINGS)
            counts.append(len(events))
        out.append((positions, statuses, counts))
    return out


def _integral_p_solution(p, positions):
    inst = Instance(p=p, n=len(positions), equations=[(0, 1, 0)])
    return convert_to_p(integral_embedding(inst, positions))


def _rotated_pair(p, theta):
    cons = canonical_constellation(p)
    z = np.zeros_like(cons)
    v0 = np.hstack([cons, z])
    v1 = np.hstack([np.cos(theta) * cons, np.sin(theta) * cons])
    return SdpSolutionP(p=p, n=2, dim=2 * cons.shape[1], v=np.stack([v0, v1]))


def _padded(sol):
    """The same solution with one more, unused, ambient coordinate: odd dim."""
    v = np.concatenate([sol.v, np.zeros((sol.n, sol.p, 1))], axis=2)
    return SdpSolutionP(p=sol.p, n=sol.n, dim=sol.dim + 1, v=v)


def _triangle_solution():
    inst = Instance(p=4, n=3, equations=[(0, 1, 2), (1, 2, 2), (2, 0, 2)])
    return convert_to_p(solve_p_plus(inst)[0])


# _COLUMN_SCAN_WALKS values: the package's own, and ones that force every
# block onto the column adds (1) or onto the cumsum (huge)
SCAN_WALKS = {"default": relq.rounding._COLUMN_SCAN_WALKS, "columns": 1, "cumsum": 1 << 62}


def _scan_params(cases):
    """pytest.params of (value, scan), with the id of a default scan being the value's alone."""
    return [pytest.param(v, scan, id=f"{v}" if scan == "default" else f"{v}-{scan}") for v, scan in cases]


LIFTED_SCANS = _scan_params([(ell, scan) for scan in ("default", "columns") for ell in (1, 2, 5, 50, 1000)])


@pytest.mark.parametrize("ell,scan", LIFTED_SCANS)
def test_lifted_walk_values_match_the_oracle_bit_for_bit(ell, scan, monkeypatch):
    # off the seam bit for bit; at s/2 the walk is the exact mirror -anchor,
    # where the oracle carried anchor + 2*prefix.  One trial's three walks
    # take the cumsum unless the column adds are forced.
    monkeypatch.setattr(relq.rounding, "_COLUMN_SCAN_WALKS", SCAN_WALKS[scan])
    sol = _triangle_solution()
    r = GaussianSampler(seed=8).sample(sol.dim * ell)
    values = lifted_walk_values(sol, ell, r)
    s = ell * sol.p
    assert values.shape == (sol.n, s)
    off_seam = np.arange(s) != s // 2
    for i in range(sol.n):
        oracle = _lifted_walk_values_oracle(sol, ell, r, i)
        np.testing.assert_array_equal(values[i, off_seam], oracle[off_seam])
        assert values[i, s // 2] == -values[i, 0]
        assert abs(values[i, s // 2] - oracle[s // 2]) <= 1e-12


# --- position assignment ---------------------------------------------------


def test_assign_position_single_crossing():
    sol = _canonical_solution(8)
    seen = 0
    for seed in range(20):
        out = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), 1)
        r = GaussianSampler(seed=seed).spawn(0).sample(sol.dim)
        events = detect_extreme_sign_changes(lifted_walk_values(sol, 1, r)[0], 1.0)
        assert out.crossing_counts[0].tolist() == [len(events)]
        if len(events) == 1:
            assert out.statuses == [ONE_CROSSING]
            assert out.positions[0, 0] == events[0][1]
            seen += 1
    assert seen >= 10


def test_assign_position_quiet_trace_falls_back():
    sol = _rotated_pair(8, theta=0.4)
    for seed in (12, 13):
        out1 = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), 1, alpha=50.0)
        out2 = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), 1, alpha=50.0)
        assert out1.statuses == [NO_CROSSING, NO_CROSSING]
        assert out1.crossing_counts[0].tolist() == [0, 0]
        np.testing.assert_array_equal(out1.positions, out2.positions)
        fallbacks = GaussianSampler(seed=seed).spawn(1)
        want = [fallbacks.uniform_below(8) for _ in range(2)]
        assert out1.positions[0].tolist() == want
        assert all(0 <= x < 8 for x in want)


def test_assign_position_many_crossings():
    sol = _canonical_solution(40)
    many = 0
    for seed in range(30):
        out = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), 1, alpha=0.05)
        r = GaussianSampler(seed=seed).spawn(0).sample(sol.dim)
        events = detect_extreme_sign_changes(lifted_walk_values(sol, 1, r)[0], 0.05)
        assert out.crossing_counts[0].tolist() == [len(events)]
        if len(events) >= 2:
            assert out.statuses == [MANY_CROSSINGS]
            assert out.positions[0, 0] == GaussianSampler(seed=seed).spawn(1).uniform_below(40)
            many += 1
    assert many >= 5


# --- rounding --------------------------------------------------------------


def test_round_solution_deterministic():
    sol = _integral_p_solution(8, [0, 3, 5])
    out1 = round_lifted_solution(sol, 1, GaussianSampler(seed=21), 1)
    out2 = round_lifted_solution(sol, 1, GaussianSampler(seed=21), 1)
    np.testing.assert_array_equal(out1.positions, out2.positions)
    assert out1.statuses == out2.statuses
    np.testing.assert_array_equal(out1.crossing_counts, out2.crossing_counts)


def test_batch_of_one_shapes_and_dtypes():
    sol = _integral_p_solution(8, [0, 3, 5])
    out = round_lifted_solution(sol, 2, GaussianSampler(seed=21), 1)
    assert isinstance(out, RoundingOutcome)
    for arr in (out.positions, out.crossing_counts):
        assert arr.shape == (1, 3) and arr.dtype == np.int64
    assert len(out.statuses) == 3 and all(isinstance(x, str) for x in out.statuses)
    assert np.all((0 <= out.positions) & (out.positions < 16))


def test_round_solution_positions_track_integral_differences():
    positions = [0, 2, 5]
    sol = _integral_p_solution(8, positions)
    seen = 0
    for seed in range(40):
        out = round_lifted_solution(sol, 1, GaussianSampler(seed=seed), 1)
        for i in range(3):
            for j in range(i + 1, 3):
                if out.statuses[i] == ONE_CROSSING and out.statuses[j] == ONE_CROSSING:
                    want = (positions[j] - positions[i]) % 8
                    got = (out.positions[0, j] - out.positions[0, i]) % 8
                    assert got == want
                    seen += 1
    assert seen > 20  # the comparison actually happened


def test_round_solution_rejects_infeasible():
    sol = _integral_p_solution(4, [0, 1])
    sol.v[0] *= 1.5
    with pytest.raises(ValueError, match="infeasible"):
        round_lifted_solution(sol, 1, GaussianSampler(seed=0), 1)
    with pytest.raises(ValueError, match="infeasible"):
        round_lifted_solution(sol, 2, GaussianSampler(seed=0), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_round_solution_rejects_non_finite_coordinates(bad):
    # Python's max(0.0, nan) is 0.0: a NaN coordinate once read as feasible
    sol = _integral_p_solution(4, [0, 1, 3])
    sol.v[1, 2, 0] = bad
    with pytest.raises(ValueError, match="solution infeasible: max residual (nan|inf)"):
        round_lifted_solution(sol, 1, GaussianSampler(seed=0), 1)
    with pytest.raises(ValueError, match="solution infeasible"):
        round_lifted_solution(sol, 3, GaussianSampler(seed=0), 2)


@pytest.mark.parametrize(
    "message,call",
    [
        ("ell must be an integer, got 2.0", lambda sol: round_lifted_solution(sol, 2.0, GaussianSampler(1), 3)),
        ("trials must be an integer, got 2.5", lambda sol: round_lifted_solution(sol, 1, GaussianSampler(1), 2.5)),
        ("ell must be an integer, got 2.0", lambda sol: lifted_walk_values(sol, 2.0, np.zeros(2 * sol.dim))),
        ("max_iterations must be an integer, got 2.5", lambda sol: solve_p_plus(Instance(p=8, n=3, equations=[(0, 1, 3)]), 2.5)),
        ("dim must be an integer, got 2.5", lambda sol: GaussianSampler(1).sample(2.5)),
        ("n must be an integer, got 2.5", lambda sol: GaussianSampler(1).uniform_below(2.5)),
        ("ell must be >= 1, got 0", lambda sol: round_lifted_solution(sol, 0, GaussianSampler(1), 3)),
        ("trials must be >= 1, got 0", lambda sol: round_lifted_solution(sol, 1, GaussianSampler(1), np.int64(0))),
        ("ell must be >= 1, got -1", lambda sol: lifted_walk_values(sol, -1, np.zeros(sol.dim))),
        ("max_iterations must be >= 0, got -1", lambda sol: solve_p_plus(Instance(p=8, n=3, equations=[(0, 1, 3)]), -1)),
        ("dim must be >= 1, got 0", lambda sol: GaussianSampler(1).sample(0)),
        ("n must be >= 1, got 0", lambda sol: GaussianSampler(1).uniform_below(0)),
        ("scale factor must be >= 1, got 0", lambda sol: scale_instance(Instance(p=8, n=3, equations=[(0, 1, 3)]), 0)),
    ],
    ids=[
        "round-ell",
        "round-trials",
        "lifted-walk-ell",
        "solve-max-iterations",
        "sample-dim",
        "uniform-below-n",
        "round-ell-below",
        "round-trials-below",
        "lifted-walk-ell-below",
        "solve-max-iterations-below",
        "sample-dim-below",
        "uniform-below-n-below",
        "scale-factor-below",
    ],
)
def test_float_counts_are_refused_by_name(message, call, monkeypatch):
    # a float count, or one below its bound, is refused by name before anything is drawn or solved
    work = []
    monkeypatch.setattr(GaussianSampler, "_generator", lambda self: work.append("draw"))
    monkeypatch.setattr(relq.sdp, "_splitting_engine", lambda *args: work.append("solve"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(_integral_p_solution(8, [0, 3, 5]))
    assert work == []


def test_round_solution_one_crossing_frequency():
    s = 2000
    sol = _canonical_solution(s)
    trials = 2500
    out = round_lifted_solution(sol, 1, GaussianSampler(seed=77), trials)
    hits = sum(status == ONE_CROSSING for status in out.statuses)
    assert hits / trials >= 0.96


def test_one_crossing_positions_are_uniform():
    s = 16
    trials = 10**5
    inc = GaussianSampler(seed=55).sample(trials * (s // 2)).reshape(trials, s // 2)
    vals = canonical_values_batch(inc)
    counts, first = trace_stats_batch(vals, 1.0)
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
        trick = lifted_walk_values(sol, ell, r)[i]
        np.testing.assert_allclose(trick, direct, atol=1e-9)


@pytest.mark.parametrize("ell", [2, 3])
def test_round_lifted_matches_rounding_the_lift(ell):
    sol = _rotated_pair(4, theta=0.8)
    lifted = lift_solution(sol, ell)
    out_trick = round_lifted_solution(sol, ell, GaussianSampler(seed=17), 1)
    out_direct = round_lifted_solution(lifted, 1, GaussianSampler(seed=17), 1)  # ell = 1 is plain rounding
    np.testing.assert_array_equal(out_trick.positions, out_direct.positions)
    assert out_trick.statuses == out_direct.statuses


def test_round_lifted_positions_in_range():
    sol = _rotated_pair(4, theta=0.3)
    out = round_lifted_solution(sol, 50, GaussianSampler(seed=2), 1)
    assert np.all(out.positions >= 0)
    assert np.all(out.positions < 200)


def test_round_lifted_validates():
    sol = _rotated_pair(4, theta=0.3)
    with pytest.raises(ValueError):
        round_lifted_solution(sol, 0, GaussianSampler(seed=0), 1)
    with pytest.raises(ValueError, match="trials"):
        round_lifted_solution(sol, 1, GaussianSampler(seed=0), 0)
    r = GaussianSampler(seed=0).sample(sol.dim * 2)
    with pytest.raises(ValueError):
        lifted_walk_values(sol, 3, r)  # r sized for ell=2, not 3


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


# sampler names (seed, *tags), the range ends among them
ORACLE_NAMES = [(6,), (2**64 - 1,), (5, 2**64 - 1), (0, 8)]


def _sampler(name):
    smp = GaussianSampler(name[0])
    for tag in name[1:]:
        smp = smp.spawn(tag)
    return smp


# here blocks of 2**14 and 2**16 values take the column adds and blocks of
# 50 values the cumsum, unless the other branch is forced
BLOCK_SCANS = _scan_params(
    [
        (1 << 14, "default"),
        (50, "default"),
        (relq.rounding._BLOCK_VALUES, "default"),
        (relq.rounding._BLOCK_VALUES, "cumsum"),
        (50, "columns"),
    ]
)


@pytest.mark.parametrize("block_values,scan", BLOCK_SCANS)
@pytest.mark.parametrize("name,ell,alpha", BATCH_CASES)
def test_batched_trials_match_the_per_trial_oracle(name, ell, alpha, block_values, scan, monkeypatch):
    # the positions of one sampler do not depend on the memory block size
    # or on how the block's prefix sums are scanned
    monkeypatch.setattr(relq.rounding, "_BLOCK_VALUES", block_values)
    monkeypatch.setattr(relq.rounding, "_COLUMN_SCAN_WALKS", SCAN_WALKS[scan])
    sol = _batch_solution(name)
    trials = 300
    for sampler_name in ORACLE_NAMES:
        out = round_lifted_solution(sol, ell, _sampler(sampler_name), trials, alpha=alpha)
        assert out.positions.shape == out.crossing_counts.shape == (trials, sol.n)
        assert len(out.statuses) == trials * sol.n
        want_statuses = []
        for t, (positions, statuses, counts) in enumerate(_round_lifted_oracle(sol, ell, sampler_name, trials, alpha)):
            np.testing.assert_array_equal(out.positions[t], positions)
            assert out.crossing_counts[t].tolist() == counts
            want_statuses += statuses
        assert out.statuses == want_statuses


def _column_scan_calls(monkeypatch, call):
    """The _column_scan calls that call() makes."""
    calls = []
    scan = relq.rounding._column_scan

    def spy(sub_steps, prefix):
        calls.append(sub_steps.shape)
        scan(sub_steps, prefix)

    monkeypatch.setattr(relq.rounding, "_column_scan", spy)
    call()
    monkeypatch.setattr(relq.rounding, "_column_scan", scan)
    return calls


def test_each_scan_branch_is_reached_by_block_shape(monkeypatch):
    # the branch follows the walks in a block: the default parametrizations
    # above reach both, and the forced ones each reach one
    assert relq.rounding._COLUMN_SCAN_WALKS > 1
    sol = _triangle_solution()
    # 300 trials of three walks fill one default block: column adds
    calls = _column_scan_calls(monkeypatch, lambda: round_lifted_solution(sol, 2, GaussianSampler(6), 300))
    assert calls == [(sol.p, 300, sol.n)]
    # blocks of 50 values hold a few trials: cumsum only
    monkeypatch.setattr(relq.rounding, "_BLOCK_VALUES", 50)
    assert _column_scan_calls(monkeypatch, lambda: round_lifted_solution(sol, 2, GaussianSampler(6), 300)) == []
    monkeypatch.undo()
    # at ell = 1000 a block holds a few trials, and one trial is three walks: cumsum
    assert _column_scan_calls(monkeypatch, lambda: round_lifted_solution(sol, 1000, GaussianSampler(6), 6)) == []
    r = GaussianSampler(seed=8).sample(sol.dim * 1000)
    assert _column_scan_calls(monkeypatch, lambda: lifted_walk_values(sol, 1000, r)) == []
    # forced, the column adds take every block, and the cumsum none
    monkeypatch.setattr(relq.rounding, "_COLUMN_SCAN_WALKS", SCAN_WALKS["columns"])
    assert len(_column_scan_calls(monkeypatch, lambda: lifted_walk_values(sol, 1000, r))) == 1
    monkeypatch.setattr(relq.rounding, "_COLUMN_SCAN_WALKS", SCAN_WALKS["cumsum"])
    assert _column_scan_calls(monkeypatch, lambda: round_lifted_solution(sol, 2, GaussianSampler(6), 300)) == []


def test_one_call_takes_both_scan_branches_from_one_workspace(monkeypatch):
    # full blocks of 100 trials (300 walks) take the column adds and the last
    # block of one trial the cumsum; both cut their regions from the call's
    # one workspace, so a stale region or a wrong slice would move a position
    sol, ell, trials = _triangle_solution(), 2, 101
    half = sol.p * ell // 2
    monkeypatch.setattr(relq.rounding, "_BLOCK_VALUES", 100 * (sol.n * half + sol.dim * ell))
    assert 100 * sol.n >= relq.rounding._COLUMN_SCAN_WALKS > sol.n
    calls = _column_scan_calls(monkeypatch, lambda: round_lifted_solution(sol, ell, GaussianSampler(6), trials))
    assert calls == [(half, 100, sol.n)]
    for name in ORACLE_NAMES:
        out = round_lifted_solution(sol, ell, _sampler(name), trials)
        for t, (positions, _, counts) in enumerate(_round_lifted_oracle(sol, ell, name, trials)):
            np.testing.assert_array_equal(out.positions[t], positions)
            assert out.crossing_counts[t].tolist() == counts


def test_batched_cases_reach_every_status_and_dim_parity():
    seen = set()
    for name, ell, alpha in BATCH_CASES:
        sol = _batch_solution(name)
        seen |= set(round_lifted_solution(sol, ell, GaussianSampler(seed=6), 300, alpha=alpha).statuses)
        seen.add("odd" if sol.dim * ell % 2 else "even")
    assert seen == {ONE_CROSSING, NO_CROSSING, MANY_CROSSINGS, "odd", "even"}


def test_batch_depends_only_on_the_sampler_name_and_trials():
    sol = _triangle_solution()
    sampler = GaussianSampler(seed=4).spawn(3)
    first = round_lifted_solution(sol, 2, sampler, 300, alpha=0.3)
    again = round_lifted_solution(sol, 2, sampler, 300, alpha=0.3)
    np.testing.assert_array_equal(first.positions, again.positions)
    np.testing.assert_array_equal(first.crossing_counts, again.crossing_counts)
    # the caller's own stream is not advanced
    np.testing.assert_array_equal(sampler.sample(3), GaussianSampler(seed=4).spawn(3).sample(3))
    # a shorter batch is a prefix of a longer one
    shorter = round_lifted_solution(sol, 2, sampler, 200, alpha=0.3)
    np.testing.assert_array_equal(shorter.positions, first.positions[:200])
    np.testing.assert_array_equal(shorter.crossing_counts, first.crossing_counts[:200])


def test_a_batch_builds_one_generator_per_stream(monkeypatch):
    # the normals stream and the fallback stream each build their Philox
    # once, however many fallbacks the batch draws
    sol = _triangle_solution()
    for trials, least in ((200, 50), (600, 150)):
        outs = []
        starts = _philox_states(
            lambda: outs.append(round_lifted_solution(sol, 2, GaussianSampler(seed=3), trials)), monkeypatch
        )
        (out,) = outs
        assert sum(status != ONE_CROSSING for status in out.statuses) >= least
        documented = [_documented_philox(3, (tag,)).state["state"] for tag in (0, 1)]
        assert [(s["key"].tolist(), s["counter"].tolist()) for s in starts] == [
            (d["key"].tolist(), d["counter"].tolist()) for d in documented
        ]


def test_spawning_builds_no_generator(monkeypatch):
    def spawn_many():
        root = GaussianSampler(seed=9)
        for tag in range(500):
            child = root.spawn(tag)
            child.spawn(tag)

    assert _philox_states(spawn_many, monkeypatch) == []


def test_batch_rejects_samplers_with_no_room_for_fallbacks(monkeypatch):
    # the batch reads its sampler's spawn(0) and spawn(1), so a sampler two
    # spawns deep fails in spawn, before any draw
    sol = _rotated_pair(4, theta=0.5)

    def no_draw(self, out):
        raise AssertionError("drew before failing")

    monkeypatch.setattr(GaussianSampler, "fill", no_draw)
    for alpha in (1.0, 50.0):
        with pytest.raises(ValueError, match="2 deep"):
            round_lifted_solution(sol, 1, GaussianSampler(5).spawn(8).spawn(2), 1, alpha=alpha)
