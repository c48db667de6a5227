"""Cycle-indexed unit-vector families with prescribed pairwise angles.

The canonical family over an even domain p lives in dimension p/2 with
entries +-sqrt(2/p): vector k (for 0 <= k <= p/2) has its first k entries
negative and the rest positive, and vector k for k > p/2 is the negation
of vector k - p/2.  Inner products then satisfy v^a . v^b = 1 - 4*d(a,b)/p
with d the circular distance, consecutive differences (v^k - v^{k-1})/2
are mutually orthogonal of norm sqrt(2/p), and antipodal labels carry
opposite vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from relq.instance import circular_distance


@dataclass
class Constellation:
    """p unit vectors indexed by cycle labels, as rows of a (p, dim) array."""

    p: int
    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.shape != (self.p, self.dim):
            raise ValueError(f"expected vector array of shape ({self.p}, {self.dim})")


@dataclass
class SdpSolutionP:
    """Per-variable constellations sharing one ambient space: v[i, k] is variable i's vector for label k."""

    p: int
    n: int
    dim: int
    v: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.v.shape != (self.n, self.p, self.dim):
            raise ValueError(f"expected array of shape ({self.n}, {self.p}, {self.dim})")


def target_gram(p: int) -> np.ndarray:
    """The prescribed Gram matrix: entry (a, b) is 1 - 4*d(a,b)/p."""
    k = np.arange(p)
    d = np.minimum((k[None, :] - k[:, None]) % p, (k[:, None] - k[None, :]) % p)
    return 1.0 - 4.0 * d / p


def canonical_constellation(p: int) -> Constellation:
    """The sign-pattern family over domain p; see the module docstring."""
    if p <= 0 or p % 2 != 0:
        raise ValueError(f"domain size must be a positive even integer, got {p}")
    half = p // 2
    c = np.sqrt(2.0 / p)
    vectors = np.full((p, half), c)
    for k in range(half + 1):
        vectors[k, :k] = -c
    for k in range(half + 1, p):
        vectors[k] = -vectors[k - half]
    return Constellation(p=p, dim=half, vectors=vectors)


def _diagonal_class_index(p: int) -> np.ndarray:
    """idx[h, k] = (k - h) mod p, the shift class of entry (h, k) of a block."""
    k = np.arange(p)
    return (k[None, :] - k[:, None]) % p


def _covariance_residual(block: np.ndarray, cls: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """Max deviation from the per-shift-class mean, and the class means."""
    means = np.zeros(p)
    np.add.at(means, cls.ravel(), block.ravel())
    means /= p
    return float(np.max(np.abs(block - means[cls]))), means


def solution_residuals(sol: SdpSolutionP) -> dict[str, float]:
    """Max residual of each constraint family, measured from the vectors.

    gram_law: each variable's Gram matrix against the target; unit_norm:
    the vector norms; shift_covariance: every cross-variable block against
    its per-shift-class means.
    """
    p, n = sol.p, sol.n
    cls = _diagonal_class_index(p)
    target = target_gram(p)
    r_gram = 0.0
    r_unit = 0.0
    r_cov = 0.0
    for i in range(n):
        gram = sol.v[i] @ sol.v[i].T
        r_gram = max(r_gram, float(np.max(np.abs(gram - target))))
        r_unit = max(r_unit, float(np.max(np.abs(np.diag(gram) - 1.0))))
        for j in range(i + 1, n):
            block = sol.v[i] @ sol.v[j].T
            r_cov = max(r_cov, _covariance_residual(block, cls, p)[0])
    return {"gram_law": r_gram, "unit_norm": r_unit, "shift_covariance": r_cov}


def _variable_difference_steps(sol: SdpSolutionP) -> np.ndarray:
    """Per-variable half-steps, shape (n, p/2, dim)."""
    half = sol.p // 2
    return (sol.v[:, 1 : half + 1, :] - sol.v[:, :half, :]) / 2.0


def lift_solution(sol: SdpSolutionP, ell: int) -> SdpSolutionP:
    """Refine a solution from domain p to domain ell*p in dimension dim*ell.

    Each half-step of each variable is split into ell mutually orthogonal
    sub-steps of norm sqrt(2/(ell*p)): sub-step m of step k occupies the
    (k, m) slot of the expanded space, scaled by 1/sqrt(ell).  Anchors are
    the original label-0 vectors tensored with the normalized all-ones
    direction.  Cross-variable inner products become the linear
    interpolation of the originals along the refined cycle, so the
    prescribed constraints and the objective survive the lift exactly.
    """
    if ell < 1:
        raise ValueError(f"lift factor must be >= 1, got {ell}")
    p, n, dim = sol.p, sol.n, sol.dim
    s = ell * p
    half = p // 2
    new_half = s // 2
    new_dim = dim * ell
    scale = 1.0 / np.sqrt(ell)

    steps = _variable_difference_steps(sol)  # (n, half, dim)
    out = np.empty((n, s, new_dim))
    for i in range(n):
        # coordinate (e, m) of the expanded space is column e*ell + m;
        # sub-step (k, m) is row k*ell + m and holds steps[i, k]/sqrt(ell) in the m-columns
        sub = np.zeros((new_half, new_dim))
        for m in range(ell):
            rows = np.arange(half) * ell + m
            cols = np.arange(dim) * ell + m
            sub[np.ix_(rows, cols)] = steps[i] * scale
        anchor = np.repeat(sol.v[i, 0], ell) * scale  # v^0 (x) ones/sqrt(ell)
        walk = anchor + 2.0 * np.cumsum(sub, axis=0)
        out[i, 0] = anchor
        out[i, 1 : new_half + 1] = walk
        out[i, new_half + 1 :] = -out[i, 1:new_half]
    return SdpSolutionP(p=s, n=n, dim=new_dim, v=out)
