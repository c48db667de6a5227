"""Barrier-crossing probabilities for the continuous walk limit.

The circular walk of a canonical constellation converges, after centering
at the anchor, to a Brownian motion pinned at time 1 to the endpoint a.
Threshold events become barrier crossings: the walk shows at least one
extreme sign change exactly when the pinned motion crosses the barrier
a/2 + alpha/2 (or its mirror a/2 - alpha/2) before time 1, and three or
more sign changes correspond to three alternating barrier crossings.

Everything here is closed form in the barrier gap alpha.  Reflection
through the alternating barriers gives the crossing probabilities given the
endpoint; over the endpoint they integrate to normal densities and tail
differences (_middle), and inclusion-exclusion over the crossing depths
telescopes the tail differences away.  What is left sums normal densities
at the odd multiples of alpha, or, for small alpha, its Poisson dual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from relq._kernels import _check_alpha

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _tail(x: float) -> float:
    """1 - Phi(x), the standard normal upper tail."""
    return 0.5 * math.erfc(x / _SQRT_2)


def _middle(k: int) -> float:
    """Integral of phi(a) * P(k alternating crossings, '+' first | a) over a in (-1, 1), at gap 1.

    Reflection makes the conditional probability phi(e)/phi(a), with
    e = k for odd k and e = k + a for even k, so the integral is 2 * phi(k)
    for odd k and Phi(k + 1) - Phi(k - 1) for even k; the '-' first side
    is its mirror image and integrates to the same.
    """
    if k % 2:
        return 2.0 * _phi(k)
    return _tail(k - 1) - _tail(k + 1)


def _converged(terms) -> float:
    """The sum of terms up to the first one below 1e-300 in magnitude."""
    return math.fsum(itertools.takewhile(lambda t: abs(t) >= 1e-300, terms))


def _odd_densities(alpha: float, first: int) -> float:
    """P(2*first + 1 or more crossings) = 4*alpha * sum over j >= first of phi((2j + 1) * alpha)."""
    return 4.0 * (alpha * _converged(_phi((2 * j + 1) * alpha) for j in itertools.count(first)))


def _prob_none(alpha: float) -> float:
    """1 - P(>= 1) by Poisson summation of the odd sum: 2 * sum over m >= 1 of (-1)^(m+1) exp(-pi^2 m^2 / (2 alpha^2)).

    The odd sum takes about 18.6/alpha terms and this one 11.8*alpha, both
    15 near alpha = 1.25, where the probabilities switch from one to the other.
    """
    return 2.0 * _converged(
        (-1) ** (m + 1) * math.exp(-0.5 * (math.pi * m / alpha) ** 2) for m in itertools.count(1)
    )


def prob_at_least_one(alpha: float = 1.0) -> float:
    """P(the pinned walk crosses a barrier before time 1), endpoint averaged, barriers alpha apart."""
    _check_alpha(alpha)
    return 1.0 - _prob_none(alpha) if alpha < 1.25 else _odd_densities(alpha, 0)


def prob_three_or_more(alpha: float = 1.0) -> float:
    """P(three or more alternating crossings before time 1), endpoint averaged, barriers alpha apart."""
    _check_alpha(alpha)
    if alpha < 1.25:  # exactly one crossing is the odd sum's first term, 4*alpha*phi(alpha)
        return 1.0 - _prob_none(alpha) - 4.0 * alpha * _phi(alpha)
    return _odd_densities(alpha, 1)


# ---------------------------------------------------------------------------
# constants table

QUOTED_TOLERANCE = 1e-4  # largest |computed - reference| of a passing quoted row


@dataclass
class ConstantRow:
    name: str
    reference: float
    computed: float
    kind: str = "quoted"  # quoted | bound | info

    @property
    def delta(self) -> float:
        return abs(self.computed - self.reference)

    @property
    def ok(self) -> bool:
        """A quoted row agrees within QUOTED_TOLERANCE, a bound row has
        computed >= reference, and an info row gates nothing."""
        if self.kind == "quoted":
            return self.delta <= QUOTED_TOLERANCE
        if self.kind == "bound":
            return self.computed >= self.reference
        return True


def constants_table() -> list[ConstantRow]:
    """Every quoted barrier-probability constant next to its computed value.

    ConstantRow.ok is each row's gate; the 'info' rows document two
    conflicting printed readings of the same intermediate quantity.
    """
    single_plus, double_plus, triple_plus = (_middle(k) for k in (1, 2, 3))
    total_one = prob_at_least_one()
    total_three = prob_three_or_more()
    rows = [
        ConstantRow("endpoint_tail_one_side", 0.158655, _tail(1.0)),
        ConstantRow("single_barrier_middle", 0.483941, single_plus),
        ConstantRow("double_barrier_middle_one_side", 0.157305, double_plus),
        ConstantRow("triple_barrier_middle_one_side", 0.0088637, triple_plus),
        ConstantRow("endpoint_tail_three_one_side", 0.0013499, _tail(3.0)),
        ConstantRow("quadruple_barrier_middle_total", 0.00269922, 2.0 * _middle(4)),
        ConstantRow("quintuple_barrier_middle_total", 5.94688e-6, 2.0 * _middle(5)),
        ConstantRow("middle_total_at_least_one", 0.668302, total_one - 2.0 * _tail(1.0)),
        ConstantRow("middle_total_three_or_more", 0.015035, total_three - 2.0 * _tail(3.0)),
        ConstantRow("at_least_one_total", 0.985612, total_one),
        ConstantRow("three_or_more_total", 0.017735, total_three),
        ConstantRow("exact_one_lower_bound", 0.96, total_one - total_three, kind="bound"),
        # two printed readings of the three-or-more middle intermediate disagree
        # in the source material; both are shown, neither gates
        ConstantRow("info_double_triple_minuend_reading_a", 0.0176734, 2.0 * triple_plus, kind="info"),
        ConstantRow("info_double_triple_minuend_reading_b", 0.0177274, 2.0 * triple_plus, kind="info"),
    ]
    return rows
