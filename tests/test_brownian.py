"""Barrier-crossing probabilities: closed forms against a reflection-chain oracle, margin MC.

The oracle is the conditional crossing probability given the endpoint,
written out by reflection; `scipy.integrate.quad` integrates it against the
endpoint density, independently of the closed forms in relq.brownian.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import discretization_margin_check, hitting_time_density
from relq.brownian import QUOTED_TOLERANCE, ConstantRow, constants_table, prob_at_least_one, prob_three_or_more
from relq.harness import reproduce_constants
from relq._kernels import canonical_values_batch, trace_stats_batch

# quoted reference values the closed forms must reproduce within 1e-4
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


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _tail(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass
class BarrierSequenceSpec:
    """m alternating barrier crossings, starting on the given side.

    The barriers sit at a/2 + gap/2 and a/2 - gap/2 for endpoint a;
    first='+' means the upper barrier is crossed first.
    """

    m: int
    first: str
    gap: float = 1.0


def conditional_barrier_probability(spec: BarrierSequenceSpec, a: float) -> float:
    """P(m alternating crossings finish by time 1 | endpoint a), by reflection.

    Iterated reflection through the alternating barriers maps the event to a
    displaced endpoint e: phi(e)/phi(a), with e = m*g for odd m and
    e = m*g +/- a for even m ('+' / '-' start), where g is the barrier gap.
    Valid for |a| < g; beyond that only m = 1 on the matching side is
    defined (the endpoint already crossed: probability 1).
    """
    g = spec.gap
    if abs(a) >= g:
        if spec.m == 1 and ((spec.first == "+" and a >= g) or (spec.first == "-" and a <= -g)):
            return 1.0
        raise ValueError(f"endpoint a={a} outside (-{g}, {g})")
    if spec.m % 2 == 1:
        e = spec.m * g
    elif spec.first == "+":
        e = spec.m * g + a
    else:
        e = spec.m * g - a
    return min(1.0, _phi(e) / _phi(a))


def _both_sides(m, gap, a):
    return sum(conditional_barrier_probability(BarrierSequenceSpec(m, first, gap), a) for first in "+-")


def _chain(first_depth, gap, a):
    """Alternating sum of both-side probabilities from first_depth on, until they vanish: the inclusion-exclusion chain."""
    terms = []
    for m in itertools.count(first_depth):
        term = _both_sides(m, gap, a)
        if term == 0.0:
            return math.fsum(terms)
        terms.append((-1) ** (m - first_depth) * term)


def _middle_quad(f, gap):
    value, _ = quad(lambda a: _phi(a) * f(a), -gap, gap, epsabs=1e-14, epsrel=1e-14)
    return value


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
    mass, _ = quad(lambda t: hitting_time_density(b, t), 1e-12, T)
    assert mass == pytest.approx(2.0 * _tail(b / math.sqrt(T)), abs=1e-6)


def test_conditional_probability_point_values():
    spec = lambda m, first: BarrierSequenceSpec(m=m, first=first)
    assert conditional_barrier_probability(spec(1, "+"), 0.0) == pytest.approx(0.6065307, abs=1e-6)
    assert conditional_barrier_probability(spec(2, "+"), 0.0) == pytest.approx(0.1353353, abs=1e-6)
    assert conditional_barrier_probability(spec(3, "+"), 0.0) == pytest.approx(0.0111090, abs=1e-6)
    # even pattern shifts the reflected endpoint by the endpoint itself
    assert conditional_barrier_probability(spec(2, "+"), 0.5) == pytest.approx(math.exp(-3.0), abs=1e-9)
    assert conditional_barrier_probability(spec(1, "+"), 0.3) == pytest.approx(_phi(1.0) / _phi(0.3), abs=1e-12)


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
    wide = BarrierSequenceSpec(m=2, first="+", gap=1.5)
    assert conditional_barrier_probability(wide, 1.2) == pytest.approx(
        _phi(2.0 * 1.5 + 1.2) / _phi(1.2), abs=1e-12
    )


def test_crossing_totals():
    p1 = prob_at_least_one()
    p3 = prob_three_or_more()
    assert p1 == pytest.approx(0.985612, abs=1e-4)
    assert p3 == pytest.approx(0.017735, abs=1e-4)
    # frozen values of the exact sums, pinned tighter than the quoted ones
    assert p1 == pytest.approx(0.98561623864, abs=1e-11)
    assert p3 == pytest.approx(0.01773334056, abs=1e-11)
    assert p1 - p3 == pytest.approx(0.967877, abs=2e-4)
    assert p1 - p3 >= 0.96


def test_widened_barriers_small_eta_keeps_bounds():
    # barriers widened by eta on each side sit alpha = 1 + 2*eta apart; the
    # bound holds for small widenings and decays smoothly
    assert prob_at_least_one(1.0002) >= 0.9855
    assert prob_at_least_one(1.0002) - prob_three_or_more(1.0002) >= 0.9855 - 0.0178
    p1 = [prob_at_least_one(1.0 + 2.0 * eta) for eta in (0.0, 1e-4, 5e-3, 1e-2)]
    assert all(hi > lo for hi, lo in zip(p1, p1[1:]))
    # at eta = 0.01 the exact value has dropped below .9677 but stays well above .96
    assert 0.96 <= prob_at_least_one(1.02) - prob_three_or_more(1.02) < 0.9677
    for alpha in (0.0, -0.1):
        with pytest.raises(ValueError, match="alpha"):
            prob_at_least_one(alpha)
        with pytest.raises(ValueError, match="alpha"):
            prob_three_or_more(alpha)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_probabilities_reject_non_finite_eta(eta):
    alpha = 1.0 + 2.0 * eta
    with pytest.raises(ValueError, match="alpha"):
        prob_at_least_one(alpha)
    with pytest.raises(ValueError, match="alpha"):
        prob_three_or_more(alpha)


def test_probabilities_stay_in_range_at_every_gap():
    # from the smallest subnormal gap to the largest float, on both sides of
    # the switch between the odd sum and its dual at 1.25: numbers in [0, 1],
    # P(>= 3) <= P(>= 1), both falling as the barriers move apart
    gaps = [5e-324, 1e-12, 1e-3, 0.3, 1.0, 1.2499, 1.25, 2.0, 7.0, 1e12, 1.7e308]
    p1 = [prob_at_least_one(alpha) for alpha in gaps]
    p3 = [prob_three_or_more(alpha) for alpha in gaps]
    assert all(0.0 <= three <= one <= 1.0 for one, three in zip(p1, p3))
    for p in (p1, p3):
        assert all(hi >= lo for hi, lo in zip(p, p[1:]))
    assert p1[0] == p3[0] == 1.0 and p1[-1] == p3[-1] == 0.0


# the barriers sit alpha = 1 + 2*eta apart; eta < 0 narrows them below 1
@pytest.mark.parametrize("eta", [-0.35, -0.25, -0.1, 0.0, 1e-4, 0.01, 0.1, 0.5])
def test_closed_forms_match_quadrature_of_the_reflection_chain(eta):
    alpha = 1.0 + 2.0 * eta
    p1 = 2.0 * _tail(alpha) + _middle_quad(lambda a: _chain(1, alpha, a), alpha)
    p3 = 2.0 * _tail(3.0 * alpha) + _middle_quad(lambda a: _chain(3, alpha, a), alpha)
    assert abs(prob_at_least_one(alpha) - p1) <= 1e-12
    assert abs(prob_three_or_more(alpha) - p3) <= 1e-12
    if eta:
        return
    one_side = lambda m: _middle_quad(lambda a: conditional_barrier_probability(BarrierSequenceSpec(m, "+"), a), 1.0)
    want = {
        "single_barrier_middle": one_side(1),
        "double_barrier_middle_one_side": one_side(2),
        "triple_barrier_middle_one_side": one_side(3),
        "quadruple_barrier_middle_total": _middle_quad(lambda a: _both_sides(4, 1.0, a), 1.0),
        "quintuple_barrier_middle_total": _middle_quad(lambda a: _both_sides(5, 1.0, a), 1.0),
        "middle_total_at_least_one": p1 - 2.0 * _tail(1.0),
        "middle_total_three_or_more": p3 - 2.0 * _tail(3.0),
    }
    rows = {r.name: r.computed for r in constants_table()}
    for name, value in want.items():
        assert abs(rows[name] - value) <= 1e-12, name


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


def test_constant_row_ok_applies_the_rule_of_its_kind():
    assert ConstantRow("q", 1.0, 1.0 + QUOTED_TOLERANCE / 2).ok
    assert not ConstantRow("q", 1.0, 1.0 - 2 * QUOTED_TOLERANCE).ok
    assert ConstantRow("b", 0.96, 0.99, kind="bound").ok
    assert not ConstantRow("b", 0.96, 0.95, kind="bound").ok
    assert ConstantRow("i", 1.0, 5.0, kind="info").ok
    # the report's ok column and tolerance are the rows' own
    report = reproduce_constants()
    assert report.parameters["tolerance"] == QUOTED_TOLERANCE
    assert [row[-1] for row in report.rows] == [r.ok for r in constants_table()] == [True] * 14


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


def test_margin_check_output_is_pinned():
    # criterion 9 reads this oracle, so an edit that moves its numbers shows here first
    res = discretization_margin_check(s=4_000, eta=0.01, c=1e-4, trials=5_000, seed=3)
    assert repr(res) == (
        "MarginCheckResult(frequency=0.837, stderr=0.005223619434836348, trials=5000, s=4000, "
        "eta=0.01, c=0.0001, step_bound=1999999999.9999995, regime_ok=False)"
    )


def test_margin_check_validation():
    with pytest.raises(ValueError):
        discretization_margin_check(s=0, eta=0.01, c=1e-4, trials=10, seed=0)
    with pytest.raises(ValueError):
        discretization_margin_check(s=100, eta=0.0, c=1e-4, trials=10, seed=0)
    with pytest.raises(ValueError):
        discretization_margin_check(s=100, eta=0.01, c=-1.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        discretization_margin_check(s=100, eta=0.01, c=1e-4, trials=0, seed=0)
    # a float seed is refused, not truncated to the integer seed it would alias
    for seed in (-1, 2**64, 1.5, np.float64(2.0)):
        with pytest.raises(ValueError, match="seed"):
            discretization_margin_check(s=100, eta=0.01, c=1e-4, trials=10, seed=seed)


@pytest.mark.parametrize("eta,c", [(math.nan, 1e-4), (math.inf, 1e-4), (0.01, math.nan), (0.01, math.inf)])
def test_margin_check_rejects_non_finite_eta_and_c(eta, c):
    # a NaN barrier used to stall the tail sampler, which never accepts a draw
    with pytest.raises(ValueError, match="finite"):
        discretization_margin_check(s=100, eta=eta, c=c, trials=10, seed=0)


def test_discrete_walks_match_closed_form_totals():
    """Independent cross-check: simulated circular walks against the closed forms."""
    s, trials, chunk = 4000, 200_000, 4096
    rng = np.random.Generator(np.random.Philox(20240911))
    counts = np.zeros(0, dtype=np.int64)
    done = 0
    while done < trials:
        rows = min(chunk, trials - done)
        increments = rng.standard_normal((rows, s // 2))
        values = canonical_values_batch(increments)
        c, _ = trace_stats_batch(values, 1.0)
        counts = np.concatenate([counts, c])
        done += rows
    at_least_one = float(np.mean(counts >= 1))
    three_plus = float(np.mean(counts >= 2))
    assert at_least_one == pytest.approx(prob_at_least_one(), abs=0.005)
    assert three_plus == pytest.approx(prob_three_or_more(), abs=0.005)
