"""Barrier-crossing probabilities: closed forms, quadrature, margin MC."""

import math

import numpy as np
import pytest

from relq.brownian import (
    BarrierSequenceSpec,
    BridgeIncrementLaw,
    adaptive_simpson,
    bridge_increment_law,
    conditional_barrier_probability,
    constants_table,
    discretization_margin_check,
    exact_one_lower_bound,
    hitting_time_density,
    prob_at_least_one,
    prob_three_or_more,
    std_normal,
)
from relq._kernels import canonical_values_batch, trace_stats_batch

# quoted reference values the quadrature must reproduce within 1e-4
QUOTED = {
    "endpoint_tail_one_side": 0.158655,
    "single_barrier_middle": 0.483941,
    "double_barrier_middle_one_side": 0.157305,
    "triple_barrier_middle_one_side": 0.0088637,
    "endpoint_tail_three_one_side": 0.0013499,
    "quadruple_barrier_middle_total": 0.00269922,
    "quintuple_barrier_middle_total": 5.94688e-6,
    "middle_total_at_least_one": 0.668302,
    "middle_total_three_or_more": 0.015035,
    "at_least_one_total": 0.985612,
    "three_or_more_total": 0.017735,
}


def test_std_normal_values():
    pdf0, cdf0 = std_normal(0.0)
    assert pdf0 == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)
    assert cdf0 == pytest.approx(0.5, abs=1e-15)
    _, cdf1 = std_normal(1.0)
    assert 1.0 - cdf1 == pytest.approx(0.1586553, abs=1e-6)


def test_std_normal_symmetry_and_validation():
    for x in (-3.7, -1.2, 0.4, 2.9):
        _, hi = std_normal(x)
        _, lo = std_normal(-x)
        assert hi + lo == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        std_normal(float("nan"))
    with pytest.raises(ValueError):
        std_normal(float("inf"))


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-10) == pytest.approx(2.0, abs=1e-9)
    phi = lambda a: std_normal(a)[0]
    _, c3 = std_normal(3.0)
    assert adaptive_simpson(phi, -3.0, 3.0, tol=1e-10) == pytest.approx(2.0 * c3 - 1.0, abs=1e-9)
    with pytest.raises(ValueError):
        adaptive_simpson(math.sin, 1.0, 1.0)


def test_hitting_density_point_values():
    want = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert hitting_time_density(1.0, 1.0) == pytest.approx(want, abs=1e-9)
    assert hitting_time_density(1.0, 1e8) < 1e-9
    with pytest.raises(ValueError):
        hitting_time_density(0.0, 1.0)
    with pytest.raises(ValueError):
        hitting_time_density(1.0, -0.5)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("T", [0.25, 1.0])
def test_hitting_time_mass_matches_tail_formula(b, T):
    mass = adaptive_simpson(lambda t: hitting_time_density(b, t), 1e-12, T, tol=1e-10)
    _, cdf = std_normal(b / math.sqrt(T))
    assert mass == pytest.approx(2.0 * (1.0 - cdf), abs=1e-6)


def test_barrier_spec_validation():
    with pytest.raises(ValueError):
        BarrierSequenceSpec(m=0, first="+")
    with pytest.raises(ValueError):
        BarrierSequenceSpec(m=2, first="x")
    with pytest.raises(ValueError):
        BarrierSequenceSpec(m=1, first="-", eta=-0.1)


def test_conditional_probability_point_values():
    spec = lambda m, first, eta=0.0: BarrierSequenceSpec(m=m, first=first, eta=eta)
    assert conditional_barrier_probability(spec(1, "+"), 0.0) == pytest.approx(0.6065307, abs=1e-6)
    assert conditional_barrier_probability(spec(2, "+"), 0.0) == pytest.approx(0.1353353, abs=1e-6)
    assert conditional_barrier_probability(spec(3, "+"), 0.0) == pytest.approx(0.0111090, abs=1e-6)
    # even pattern shifts the reflected endpoint by the endpoint itself
    assert conditional_barrier_probability(spec(2, "+"), 0.5) == pytest.approx(math.exp(-3.0), abs=1e-9)
    phi = lambda x: std_normal(x)[0]
    assert conditional_barrier_probability(spec(1, "+"), 0.3) == pytest.approx(phi(1.0) / phi(0.3), abs=1e-12)


def test_conditional_probability_mirror_symmetry():
    for m in range(1, 6):
        for a in (-0.8, -0.3, 0.0, 0.45, 0.9):
            plus = conditional_barrier_probability(BarrierSequenceSpec(m=m, first="+"), a)
            minus = conditional_barrier_probability(BarrierSequenceSpec(m=m, first="-"), -a)
            assert plus == pytest.approx(minus, abs=1e-14)


def test_conditional_probability_range_and_monotone_in_m():
    for a in (-0.95, -0.4, 0.0, 0.6, 0.95):
        values = [
            conditional_barrier_probability(BarrierSequenceSpec(m=m, first="+"), a) for m in range(1, 7)
        ]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(hi >= lo for hi, lo in zip(values, values[1:]))


def test_conditional_probability_domain_routing():
    one = BarrierSequenceSpec(m=1, first="+")
    assert conditional_barrier_probability(one, 1.3) == 1.0
    assert conditional_barrier_probability(BarrierSequenceSpec(m=1, first="-"), -2.0) == 1.0
    with pytest.raises(ValueError):
        conditional_barrier_probability(one, -1.3)
    with pytest.raises(ValueError):
        conditional_barrier_probability(BarrierSequenceSpec(m=2, first="+"), 1.3)
    # widening moves the valid endpoint window outward
    wide = BarrierSequenceSpec(m=2, first="+", eta=0.25)
    phi = lambda x: std_normal(x)[0]
    assert conditional_barrier_probability(wide, 1.2) == pytest.approx(
        phi(2.0 * 1.5 + 1.2) / phi(1.2), abs=1e-12
    )


def test_crossing_totals():
    p1 = prob_at_least_one()
    p3 = prob_three_or_more()
    assert p1 == pytest.approx(0.985612, abs=1e-4)
    assert p3 == pytest.approx(0.017735, abs=1e-4)
    # frozen values of this implementation, pinned tighter than the quoted ones
    assert p1 == pytest.approx(0.9856168, abs=2e-6)
    assert p3 == pytest.approx(0.0177339, abs=2e-6)
    assert p1 - p3 == pytest.approx(0.967877, abs=2e-4)
    assert exact_one_lower_bound() >= 0.96


def test_widened_barriers_small_eta_keeps_bounds():
    # the widened-barrier bound holds for small widenings and decays smoothly
    assert prob_at_least_one(1e-4) >= 0.9855
    assert exact_one_lower_bound(1e-4) >= 0.9855 - 0.0178
    p1 = [prob_at_least_one(eta) for eta in (0.0, 1e-4, 5e-3, 1e-2)]
    assert all(hi > lo for hi, lo in zip(p1, p1[1:]))
    # at 0.01 the exact value has dropped below .9677 but stays well above .96
    assert 0.96 <= exact_one_lower_bound(0.01) < 0.9677
    with pytest.raises(ValueError):
        prob_at_least_one(-0.1)
    with pytest.raises(ValueError):
        prob_three_or_more(-0.1)


def test_bridge_increment_law():
    law = bridge_increment_law(T=0.5, t=0.25, level=1.0, a=0.0)
    assert isinstance(law, BridgeIncrementLaw)
    assert law.mean == pytest.approx(0.5, abs=1e-12)
    assert law.variance == pytest.approx(0.125, abs=1e-12)
    end = bridge_increment_law(T=0.25, t=0.75, level=-0.3, a=1.7)
    assert end.mean == pytest.approx(1.7, abs=1e-12)
    assert end.variance == pytest.approx(0.0, abs=1e-15)
    tiny = bridge_increment_law(T=0.25, t=1e-12, level=-0.3, a=1.7)
    assert tiny.mean == pytest.approx(-0.3, abs=1e-11)
    assert tiny.variance < 2e-12
    with pytest.raises(ValueError):
        bridge_increment_law(T=1.0, t=0.1, level=0.0, a=0.0)
    with pytest.raises(ValueError):
        bridge_increment_law(T=0.5, t=0.6, level=0.0, a=0.0)


def test_constants_table_matches_quoted_values():
    rows = {r.name: r for r in constants_table()}
    for name, ref in QUOTED.items():
        row = rows[name]
        assert row.kind == "quoted"
        assert row.reference == ref
        assert row.delta <= 1e-4, f"{name}: {row.computed} vs {ref}"
    bound = rows["exact_one_lower_bound"]
    assert bound.kind == "bound"
    assert bound.computed >= bound.reference
    infos = [r for r in rows.values() if r.kind == "info"]
    assert len(infos) == 2


def test_margin_check_compliant_regime():
    res = discretization_margin_check(s=2_000_000_000, eta=0.01, c=1e-4, trials=20_000, seed=11)
    assert res.regime_ok
    assert res.s >= res.step_bound
    assert res.frequency >= 0.997 - 3.0 * res.stderr
    assert res.trials == 20_000


def test_margin_check_small_step_count_flagged():
    good = discretization_margin_check(s=2_000_000_000, eta=0.01, c=1e-4, trials=20_000, seed=11)
    bad = discretization_margin_check(s=4_000, eta=0.01, c=1e-4, trials=20_000, seed=11)
    assert not bad.regime_ok
    assert bad.frequency < good.frequency
    assert bad.frequency < 0.997


def test_margin_check_deterministic():
    a = discretization_margin_check(s=4_000, eta=0.01, c=1e-4, trials=5_000, seed=3)
    b = discretization_margin_check(s=4_000, eta=0.01, c=1e-4, trials=5_000, seed=3)
    assert a.frequency == b.frequency
    other = discretization_margin_check(s=4_000, eta=0.01, c=1e-4, trials=5_000, seed=4)
    assert other.frequency != a.frequency


def test_margin_check_validation():
    with pytest.raises(ValueError):
        discretization_margin_check(s=0, eta=0.01, c=1e-4, trials=10, seed=0)
    with pytest.raises(ValueError):
        discretization_margin_check(s=100, eta=0.0, c=1e-4, trials=10, seed=0)
    with pytest.raises(ValueError):
        discretization_margin_check(s=100, eta=0.01, c=-1.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        discretization_margin_check(s=100, eta=0.01, c=1e-4, trials=0, seed=0)
    with pytest.raises(ValueError, match="seed"):
        discretization_margin_check(s=100, eta=0.01, c=1e-4, trials=10, seed=-1)


def test_discrete_walks_match_quadrature_totals():
    """Independent cross-check: simulated circular walks against the quadrature."""
    s, trials, chunk = 4000, 200_000, 4096
    rng = np.random.Generator(np.random.Philox(20240911))
    counts = np.zeros(0, dtype=np.int64)
    half_runs = np.zeros(0, dtype=np.int64)
    done = 0
    while done < trials:
        rows = min(chunk, trials - done)
        increments = rng.standard_normal((rows, s // 2))
        values = canonical_values_batch(increments)
        c, _, h = trace_stats_batch(values, 1.0)
        counts = np.concatenate([counts, c])
        half_runs = np.concatenate([half_runs, h])
        done += rows
    at_least_one = float(np.mean(counts >= 1))
    three_plus = float(np.mean(half_runs >= 3))
    assert at_least_one == pytest.approx(prob_at_least_one(), abs=0.005)
    assert three_plus == pytest.approx(prob_three_or_more(), abs=0.005)
