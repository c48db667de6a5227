"""Barrier-crossing probabilities for the continuous walk limit.

The circular walk of a canonical constellation converges, after centering
at the anchor, to a Brownian motion pinned at time 1 to the endpoint a.
Threshold events become barrier crossings: the walk shows at least one
extreme sign change exactly when the pinned motion crosses the barrier
a/2 + 1/2 (or its mirror a/2 - 1/2) before time 1, and three or more sign
changes correspond to three alternating barrier crossings.

Everything here is closed form: iterated reflection through the
alternating barriers gives the conditional crossing probabilities given
the endpoint, their integrals over the endpoint in (-1, 1) are normal
densities and tail differences, and the endpoints beyond a barrier add
normal tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _tail(x: float) -> float:
    """1 - Phi(x), the standard normal upper tail."""
    return 0.5 * math.erfc(x / _SQRT_2)


def _middle(k: int, g: float) -> float:
    """Integral of phi(a) * P(k alternating crossings, '+' first | a) over a in (-g, g).

    g = 1 + 2*eta is the barrier gap.  Iterated reflection through the
    barriers makes the conditional probability phi(e)/phi(a), with displaced
    endpoint e = k*g for odd k and e = k*g + a for even k.  The integral is
    therefore 2g * phi(k*g) for odd k and Phi((k+1)g) - Phi((k-1)g) for even
    k; the '-' first side is its mirror image and integrates to the same.
    """
    if k % 2:
        return 2.0 * g * _phi(k * g)
    return _tail((k - 1) * g) - _tail((k + 1) * g)


def _middle_totals(g: float) -> tuple[float, float]:
    """The endpoint-in-(-g, g) parts of P(>= 1) and P(>= 3 crossings), both sides.

    Crossing both single barriers is the same event as finishing some
    alternating double, and so on down; the inclusion-exclusion stops at
    depth five, whose defect is below 1e-5.
    """
    i1, i2, i3, i4, i5 = (2.0 * _middle(k, g) for k in range(1, 6))
    three = i3 - i4 + i5
    return i1 - i2 + three, three


def prob_at_least_one(eta: float = 0.0) -> float:
    """P(the pinned walk crosses a barrier before time 1), endpoint averaged.

    Endpoints beyond a barrier have already crossed (the normal tails); the
    middle range is the closed-form inclusion-exclusion of _middle_totals.
    """
    if not 0 <= eta < math.inf:
        raise ValueError(f"eta must be >= 0 and finite, got {eta}")
    g = 1.0 + 2.0 * eta
    return 2.0 * _tail(g) + _middle_totals(g)[0]


def prob_three_or_more(eta: float = 0.0) -> float:
    """P(three or more alternating crossings before time 1), endpoint averaged."""
    if not 0 <= eta < math.inf:
        raise ValueError(f"eta must be >= 0 and finite, got {eta}")
    g = 1.0 + 2.0 * eta
    # endpoint beyond a barrier: one crossing is free, two more must follow
    return 2.0 * _tail(3.0 * g) + _middle_totals(g)[1]


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
    single_plus, double_plus, triple_plus = (_middle(k, 1.0) for k in (1, 2, 3))
    middle_one, middle_three = _middle_totals(1.0)
    total_one = prob_at_least_one()
    total_three = prob_three_or_more()
    rows = [
        ConstantRow("endpoint_tail_one_side", 0.158655, _tail(1.0)),
        ConstantRow("single_barrier_middle", 0.483941, single_plus),
        ConstantRow("double_barrier_middle_one_side", 0.157305, double_plus),
        ConstantRow("triple_barrier_middle_one_side", 0.0088637, triple_plus),
        ConstantRow("endpoint_tail_three_one_side", 0.0013499, _tail(3.0)),
        ConstantRow("quadruple_barrier_middle_total", 0.00269922, 2.0 * _middle(4, 1.0)),
        ConstantRow("quintuple_barrier_middle_total", 5.94688e-6, 2.0 * _middle(5, 1.0)),
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
