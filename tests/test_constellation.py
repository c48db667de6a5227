"""Canonical constellation geometry and the dimension-expansion map."""

import numpy as np
import pytest

from oracles import constellation_loop, lift_solution
from relq.constellation import (
    SdpSolutionP,
    _variable_difference_steps,
    canonical_constellation,
    solution_residuals,
    target_gram,
)

# hand-computed: p = 4 puts the four vectors at the corners of a square
P4_VECTORS = np.array(
    [
        [1.0, 1.0],
        [-1.0, 1.0],
        [-1.0, -1.0],
        [1.0, -1.0],
    ]
) / np.sqrt(2.0)

# hand-computed full table for p = 8: entries are +-1/2, v^k flips the
# first k signs for k <= 4, and the second half mirrors the first
P8_VECTORS = 0.5 * np.array(
    [
        [+1, +1, +1, +1],
        [-1, +1, +1, +1],
        [-1, -1, +1, +1],
        [-1, -1, -1, +1],
        [-1, -1, -1, -1],
        [+1, -1, -1, -1],
        [+1, +1, -1, -1],
        [+1, +1, +1, -1],
    ],
    dtype=np.float64,
)


def test_canonical_p4_matches_frozen_table():
    cons = canonical_constellation(4)
    assert cons.shape == (4, 2) and cons.dtype == np.float64
    np.testing.assert_allclose(cons, P4_VECTORS, atol=1e-15)


def test_canonical_p8_matches_frozen_table():
    cons = canonical_constellation(8)
    assert cons.shape == (8, 4) and cons.dtype == np.float64
    np.testing.assert_allclose(cons, P8_VECTORS, atol=1e-15)


def test_target_gram_spot_values():
    g = target_gram(8)
    assert g[0, 0] == 1.0
    assert g[0, 1] == 0.5  # distance 1 out of 8
    assert g[0, 4] == -1.0  # opposite labels
    assert g[3, 5] == 0.0  # distance 2
    np.testing.assert_allclose(g, g.T, atol=0)


@pytest.mark.parametrize("p", [2, 4, 6, 8, 10, 16, 30, 128])
def test_gram_law_holds_exactly(p):
    assert solution_residuals(_solution_from_canonical(p, n=1))["gram_law"] <= 1e-12


@pytest.mark.parametrize("p", [4, 8, 16])
def test_antipodal_pairs(p):
    cons = canonical_constellation(p)
    half = p // 2
    for k in range(half):
        np.testing.assert_allclose(cons[k], -cons[k + half], atol=0)


def test_canonical_rejects_bad_p():
    with pytest.raises(ValueError):
        canonical_constellation(7)
    with pytest.raises(ValueError):
        canonical_constellation(0)
    for labels in ([0, 8], [-1]):
        with pytest.raises(ValueError, match="labels"):
            canonical_constellation(8, labels)


@pytest.mark.parametrize("p", [2, 4, 8, 100, 102, 2000])
def test_row_rule_matches_the_row_loop(p):
    want = constellation_loop(p)
    full = canonical_constellation(p)
    assert full.shape == want.shape and full.tobytes() == want.tobytes()
    # the labels the conjecture audit checks
    picks = list(range(0, p, max(1, p // 8)))
    rows = canonical_constellation(p, picks)
    assert rows.shape == (len(picks), p // 2) and rows.tobytes() == want[picks].tobytes()


@pytest.mark.parametrize("p", [4, 8, 12, 20])
def test_difference_vectors_orthogonal_equal_norm(p):
    cons = canonical_constellation(p)
    steps = _variable_difference_steps(_solution_from_canonical(p, n=1))[0]
    half = p // 2
    assert steps.shape == (half, cons.shape[1])
    gram = steps @ steps.T
    np.testing.assert_allclose(gram, np.eye(half) * (2.0 / p), atol=1e-12)


@pytest.mark.parametrize("p", [4, 8, 12, 20])
def test_difference_vectors_reconstruct_walk(p):
    cons = canonical_constellation(p)
    steps = _variable_difference_steps(_solution_from_canonical(p, n=1))[0]
    for k in range(1, p // 2 + 1):
        np.testing.assert_allclose(
            cons[k], cons[k - 1] + 2.0 * steps[k - 1], atol=1e-12
        )
    # full telescoped walk lands on the antipode of the start
    np.testing.assert_allclose(2.0 * steps.sum(axis=0), -2.0 * cons[0], atol=1e-12)


def _solution_from_canonical(p: int, n: int) -> SdpSolutionP:
    cons = canonical_constellation(p)
    v = np.stack([cons] * n)
    return SdpSolutionP(p=p, n=n, dim=cons.shape[1], v=v)


def _rotated_pair(p: int, theta: float) -> SdpSolutionP:
    """Two variables whose constellations sit at angle theta in a doubled space."""
    cons = canonical_constellation(p)
    z = np.zeros_like(cons)
    v0 = np.hstack([cons, z])
    v1 = np.hstack([np.cos(theta) * cons, np.sin(theta) * cons])
    return SdpSolutionP(p=p, n=2, dim=2 * cons.shape[1], v=np.stack([v0, v1]))


def _cross_gram(sol: SdpSolutionP, i: int, j: int) -> np.ndarray:
    return sol.v[i] @ sol.v[j].T


def _covariance_spread(block: np.ndarray) -> float:
    p = block.shape[0]
    worst = 0.0
    for t in range(p):
        diag = np.array([block[h, (h + t) % p] for h in range(p)])
        worst = max(worst, float(diag.max() - diag.min()))
    return worst


@pytest.mark.parametrize("ell", [1, 2, 5, 50])
def test_lift_of_canonical_is_canonical(ell):
    p = 4
    sol = _solution_from_canonical(p, n=1)
    lifted = lift_solution(sol, ell)
    assert lifted.p == p * ell
    want = target_gram(p * ell)
    got = lifted.v[0] @ lifted.v[0].T
    assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("ell", [2, 5, 50])
def test_lift_preserves_cross_inner_products(ell):
    p = 8
    sol = _rotated_pair(p, theta=0.7)
    lifted = lift_solution(sol, ell)
    base = _cross_gram(sol, 0, 1)
    big = _cross_gram(lifted, 0, 1)
    for k in range(p):
        # original inner products reappear at the scaled label offsets
        assert abs(big[0, k * ell] - base[0, k]) <= 1e-9
    # lifted cross block stays shift covariant
    assert _covariance_spread(big) <= 1e-9


@pytest.mark.parametrize("ell", [2, 5, 50])
def test_lift_interpolates_between_labels(ell):
    p = 4
    sol = _rotated_pair(p, theta=0.7)
    lifted = lift_solution(sol, ell)
    base = _cross_gram(sol, 0, 1)
    big = _cross_gram(lifted, 0, 1)
    for m in range(p):
        lo = base[0, m]
        hi = base[0, (m + 1) % p]
        for r in range(ell):
            want = lo + (hi - lo) * r / ell
            assert abs(big[0, m * ell + r] - want) <= 1e-9


def test_lift_composes():
    p = 4
    sol = _rotated_pair(p, theta=1.1)
    once = lift_solution(sol, 6)
    twice = lift_solution(lift_solution(sol, 2), 3)
    for i in range(2):
        for j in range(2):
            a = twice.v[i] @ twice.v[j].T
            b = once.v[i] @ once.v[j].T
            assert np.max(np.abs(a - b)) <= 1e-9


def test_lift_keeps_gram_law():
    sol = _rotated_pair(8, theta=0.3)
    lifted = lift_solution(sol, 7)
    assert solution_residuals(lifted)["gram_law"] <= 1e-9

