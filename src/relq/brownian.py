"""Barrier-crossing probabilities for the continuous walk limit.

The circular walk of a canonical constellation converges, after centering
at the anchor, to a Brownian motion pinned at time 1 to the endpoint a.
Threshold events become barrier crossings: the walk shows at least one
extreme sign change exactly when the pinned motion crosses the barrier
a/2 + 1/2 (or its mirror a/2 - 1/2) before time 1, and three or more sign
changes correspond to three alternating barrier crossings.

Everything here is closed form or one-dimensional quadrature: reflected
endpoint densities for the conditional crossing probabilities, adaptive
Simpson integration over the endpoint in (-1, 1), and normal tails for the
rest.  A Monte Carlo margin check quantifies how much a finite step count
can lose against the continuous bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def std_normal(x: float) -> tuple[float, float]:
    """Standard normal density and distribution function at x."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
    cdf = 0.5 * math.erfc(-x / _SQRT_2)
    return pdf, cdf


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT_2)


def adaptive_simpson(f, lo: float, hi: float, tol: float = 1e-8, max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature with Richardson correction."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    def recurse(a, fa, b, fb, mid, fmid, whole, eps, depth):
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        flm = f(lm)
        frm = f(rm)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fmid)
        right = (b - mid) / 6.0 * (fmid + 4.0 * frm + fb)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, mid, fmid, lm, flm, left, 0.5 * eps, depth + 1) + recurse(
            mid, fmid, b, fb, rm, frm, right, 0.5 * eps, depth + 1
        )

    mid = 0.5 * (lo + hi)
    fa, fb, fmid = f(lo), f(hi), f(mid)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fmid + fb)
    return recurse(lo, fa, hi, fb, mid, fmid, whole, tol, 0)


def hitting_time_density(b: float, t: float) -> float:
    """Density of the first time a standard Brownian motion reaches level b."""
    if b <= 0:
        raise ValueError(f"level must be positive, got {b}")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    return b / (_SQRT_2PI * t**1.5) * math.exp(-b * b / (2.0 * t))


@dataclass
class BarrierSequenceSpec:
    """m alternating barrier crossings, starting on the given side.

    The barriers sit at a/2 + (1/2 + eta) and a/2 - (1/2 + eta) for endpoint
    a; first='+' means the upper barrier is crossed first.
    """

    m: int
    first: str
    eta: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.first not in ("+", "-"):
            raise ValueError(f"first must be '+' or '-', got {self.first!r}")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")


def conditional_barrier_probability(spec: BarrierSequenceSpec, a: float) -> float:
    """P(m alternating crossings finish by time 1 | endpoint a), by reflection.

    Iterated reflection through the alternating barriers maps the event to a
    displaced endpoint e: phi(e)/phi(a), with e = m*g for odd m and
    e = m*g +/- a for even m ('+' / '-' start), where g = 1 + 2*eta is the
    barrier gap.  Valid for |a| < 1 + 2*eta; beyond that only m = 1 on the
    matching side is defined (the endpoint already crossed: probability 1).
    """
    g = 1.0 + 2.0 * spec.eta
    if abs(a) >= g:
        if spec.m == 1 and ((spec.first == "+" and a >= g) or (spec.first == "-" and a <= -g)):
            return 1.0
        raise ValueError(
            f"endpoint a={a} outside (-{g}, {g}) is handled by the dedicated tail integrals"
        )
    if spec.m % 2 == 1:
        e = spec.m * g
    elif spec.first == "+":
        e = spec.m * g + a
    else:
        e = spec.m * g - a
    return min(1.0, _phi(e) / _phi(a))


# the conditional probability is continuous up to the barrier, so shaving the
# integration endpoints costs ~1e-9 while keeping the domain check strict
_EDGE = 1e-9


def _middle_integral(f, g: float) -> float:
    return adaptive_simpson(f, -g + _EDGE, g - _EDGE, tol=1e-8)


def _both_sides(m: int, eta: float, a: float) -> float:
    plus = conditional_barrier_probability(BarrierSequenceSpec(m=m, first="+", eta=eta), a)
    minus = conditional_barrier_probability(BarrierSequenceSpec(m=m, first="-", eta=eta), a)
    return plus + minus


def _chain_at_least_one(eta: float, a: float) -> float:
    """P(some barrier crossed | endpoint a) by inclusion-exclusion.

    Crossing both single barriers is the same event as finishing some
    alternating double, and so on down; the recursion is truncated with the
    union bound at depth five, whose defect is below 1e-5.
    """
    and5 = _both_sides(5, eta, a)
    and4 = _both_sides(4, eta, a) - and5
    and3 = _both_sides(3, eta, a) - and4
    and2 = _both_sides(2, eta, a) - and3
    return _both_sides(1, eta, a) - and2


def _chain_three_or_more(eta: float, a: float) -> float:
    and5 = _both_sides(5, eta, a)
    and4 = _both_sides(4, eta, a) - and5
    return _both_sides(3, eta, a) - and4


def prob_at_least_one(eta: float = 0.0) -> float:
    """P(the pinned walk crosses a barrier before time 1), endpoint averaged.

    Endpoints beyond a barrier have already crossed (normal tails, closed
    form); the middle range integrates the inclusion-exclusion chain against
    the endpoint density by adaptive Simpson.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    g = 1.0 + 2.0 * eta
    tails = 2.0 * (1.0 - _cdf(g))
    middle = _middle_integral(lambda a: _phi(a) * _chain_at_least_one(eta, a), g)
    return tails + middle


def prob_three_or_more(eta: float = 0.0) -> float:
    """P(three or more alternating crossings before time 1), endpoint averaged."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    g = 1.0 + 2.0 * eta
    # endpoint beyond a barrier: one crossing is free, two more must follow
    tails = 2.0 * (1.0 - _cdf(3.0 * g))
    middle = _middle_integral(lambda a: _phi(a) * _chain_three_or_more(eta, a), g)
    return tails + middle


def exact_one_lower_bound(eta: float = 0.0) -> float:
    """Lower bound on P(exactly one extreme sign change)."""
    return prob_at_least_one(eta) - prob_three_or_more(eta)


@dataclass
class BridgeIncrementLaw:
    """Gaussian law of the pinned walk at time T + t given value `level` at T."""

    T: float
    t: float
    level: float
    a: float
    mean: float
    variance: float


def bridge_increment_law(T: float, t: float, level: float, a: float) -> BridgeIncrementLaw:
    """Law of W(T+t) given W(T) = level and W(1) = a."""
    if not 0.0 <= T < 1.0:
        raise ValueError(f"T must be in [0, 1), got {T}")
    if not 0.0 <= t <= 1.0 - T:
        raise ValueError(f"t must be in [0, 1-T], got {t}")
    rem = 1.0 - T
    mean = level + t * (a - level) / rem
    variance = t * (rem - t) / rem
    return BridgeIncrementLaw(T=T, t=t, level=level, a=a, mean=mean, variance=max(variance, 0.0))


# ---------------------------------------------------------------------------
# constants table


@dataclass
class ConstantRow:
    name: str
    reference: float
    computed: float
    kind: str = "quoted"  # quoted | bound | info

    @property
    def delta(self) -> float:
        return abs(self.computed - self.reference)


def constants_table() -> list[ConstantRow]:
    """Every quoted barrier-probability constant next to its computed value.

    'quoted' rows must agree within 1e-4; the 'bound' row must have
    computed >= reference; 'info' rows document two conflicting printed
    readings of the same intermediate quantity and do not gate anything.
    """
    g = 1.0

    def middle(f) -> float:
        return _middle_integral(f, g)

    def cond(m, first, a):
        return conditional_barrier_probability(BarrierSequenceSpec(m=m, first=first), a)

    single_plus = middle(lambda a: _phi(a) * cond(1, "+", a))
    double_plus = middle(lambda a: _phi(a) * cond(2, "+", a))
    triple_plus = middle(lambda a: _phi(a) * cond(3, "+", a))
    quad_total = middle(lambda a: _phi(a) * _both_sides(4, 0.0, a))
    quint_total = middle(lambda a: _phi(a) * _both_sides(5, 0.0, a))
    middle_one = middle(lambda a: _phi(a) * _chain_at_least_one(0.0, a))
    middle_three = middle(lambda a: _phi(a) * _chain_three_or_more(0.0, a))
    total_one = prob_at_least_one()
    total_three = prob_three_or_more()
    rows = [
        ConstantRow("endpoint_tail_one_side", 0.158655, 1.0 - _cdf(1.0)),
        ConstantRow("single_barrier_middle", 0.483941, single_plus),
        ConstantRow("double_barrier_middle_one_side", 0.157305, double_plus),
        ConstantRow("triple_barrier_middle_one_side", 0.0088637, triple_plus),
        ConstantRow("endpoint_tail_three_one_side", 0.0013499, 1.0 - _cdf(3.0)),
        ConstantRow("quadruple_barrier_middle_total", 0.00269922, quad_total),
        ConstantRow("quintuple_barrier_middle_total", 5.94688e-6, quint_total),
        ConstantRow("middle_total_at_least_one", 0.668302, middle_one),
        ConstantRow("middle_total_three_or_more", 0.015035, middle_three),
        ConstantRow("at_least_one_total", 0.985612, total_one),
        ConstantRow("three_or_more_total", 0.017735, total_three),
        ConstantRow("exact_one_lower_bound", 0.96, total_one - total_three, kind="bound"),
        # two printed readings of the three-or-more middle intermediate disagree
        # in the source material; both are shown, neither gates
        ConstantRow("info_double_triple_minuend_reading_a", 0.0176734, 2.0 * triple_plus, kind="info"),
        ConstantRow("info_double_triple_minuend_reading_b", 0.0177274, 2.0 * triple_plus, kind="info"),
    ]
    return rows


# ---------------------------------------------------------------------------
# discretization margin Monte Carlo


@dataclass
class MarginCheckResult:
    frequency: float
    stderr: float
    trials: int
    s: int
    eta: float
    c: float
    step_bound: float
    regime_ok: bool


def _sample_tail_normal(rng: np.random.Generator, q: np.ndarray) -> np.ndarray:
    """|Z| with Z standard normal conditioned on |Z| >= q, elementwise."""
    out = np.empty_like(q)
    todo = np.arange(q.size)
    while todo.size:
        qq = q[todo]
        easy = qq <= 1.0
        z = np.empty(todo.size)
        if easy.any():
            z[easy] = np.abs(rng.standard_normal(int(easy.sum())))
        hard = ~easy
        if hard.any():
            u = rng.random(int(hard.sum()))
            z[hard] = np.sqrt(qq[hard] ** 2 - 2.0 * np.log1p(-u))
        accept = np.empty(todo.size, dtype=bool)
        accept[easy] = z[easy] >= qq[easy]
        if hard.any():
            v = rng.random(int(hard.sum()))
            accept[hard] = v <= qq[hard] / z[hard]
        out[todo[accept]] = z[accept]
        todo = todo[~accept]
    return out


def discretization_margin_check(
    s: int, eta: float, c: float, trials: int, seed: int
) -> MarginCheckResult:
    """How often the first grid value after a barrier hit stays past the barrier.

    Per trial: endpoint a ~ N(0,1) restricted to |a| <= 10; the widened
    barrier level is beta = a/2 + 1/2 + eta; the hit time tau is drawn from
    the conditional hitting law given the endpoint (scaled inverse-chi
    proposal, bridge-weight rejection); the walk value at the next grid
    multiple of 1/s follows the bridge increment law.  Counts how often that
    value still exceeds the unwidened barrier a/2 + 1/2.  The regime flag
    records whether s >= 20/(c * eta^2).
    """
    if s < 1 or trials < 1:
        raise ValueError("s and trials must be positive")
    if eta <= 0 or c <= 0:
        raise ValueError("eta and c must be positive")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xD15C], dtype=np.uint64)))
    hits = 0
    done = 0
    while done < trials:
        batch = min(max(4096, trials - done), 1 << 16)
        a = rng.standard_normal(batch)
        a = a[np.abs(a) <= 10.0]
        beta = 0.5 * a + 0.5 + eta
        keep = np.abs(beta) > 1e-12
        a, beta = a[keep], beta[keep]
        q = np.abs(beta)
        z = _sample_tail_normal(rng, q)
        tau = (q / z) ** 2
        # rejection against the bridge weight keeps tau consistent with the endpoint
        delta = np.abs(beta - a)
        bound = np.where(delta >= 1.0, np.exp(-0.5 * delta * delta), np.exp(-0.5) / np.maximum(delta, 1e-300))
        rem = 1.0 - tau
        weight = np.where(
            rem > 0,
            np.exp(-0.5 * delta * delta / np.maximum(rem, 1e-300)) / np.sqrt(np.maximum(rem, 1e-300)),
            0.0,
        )
        acc = rng.random(a.size) * bound <= weight
        a, beta, tau = a[acc], beta[acc], tau[acc]
        if a.size == 0:
            continue
        grid = np.ceil(s * tau) / s
        value = np.empty(a.size)
        clamped = grid >= 1.0
        value[clamped] = a[clamped]
        open_ = ~clamped
        if open_.any():
            u = grid[open_] - tau[open_]
            remo = 1.0 - tau[open_]
            mean = beta[open_] + u * (a[open_] - beta[open_]) / remo
            var = np.maximum(u * (remo - u) / remo, 0.0)
            value[open_] = mean + np.sqrt(var) * rng.standard_normal(int(open_.sum()))
        b = beta - eta
        take = min(trials - done, a.size)
        hits += int(np.sum(value[:take] >= b[:take]))
        done += take
    freq = hits / trials
    stderr = math.sqrt(max(freq * (1.0 - freq), 0.0) / trials)
    step_bound = 20.0 / (c * eta * eta)
    return MarginCheckResult(
        frequency=freq,
        stderr=stderr,
        trials=trials,
        s=s,
        eta=eta,
        c=c,
        step_bound=step_bound,
        regime_ok=s >= step_bound,
    )
