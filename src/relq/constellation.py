"""Cycle-indexed unit-vector families with prescribed pairwise angles.

The canonical family over an even domain p lives in dimension p/2 with
entries +-sqrt(2/p): vector k (for 0 <= k <= p/2) has its first k entries
negative and the rest positive, and vector k for k > p/2 is the negation
of vector k - p/2.  Inner products then satisfy v^a . v^b = 1 - 4*d(a,b)/p
with d the circular distance, consecutive differences (v^k - v^{k-1})/2
are mutually orthogonal of norm sqrt(2/p), and antipodal labels carry
opposite vectors.

This module also owns the shift-class layout that both relaxation forms
share: in a p x p Gram block between two variables, entry (h, (h + k) mod p)
is member h of shift class k, and the constraints ask every class to be
constant; the transposed block holds class k as class -k mod p.  The
residuals of both forms come from one pass over the Gram blocks, one row
of blocks at a time, with one gather per row putting each class in a
column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from relq._kernels import _check_domain, _check_int


@dataclass
class SdpSolutionP:
    """Per-variable constellations sharing one ambient space: v[i, k] is variable i's vector for label k."""

    p: int
    n: int
    dim: int
    v: np.ndarray

    def __post_init__(self):
        self.p, self.n, self.dim = _check_domain(self.p), _check_int("n", self.n, 1), _check_int("dim", self.dim, 1)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.v.shape != (self.n, self.p, self.dim):
            raise ValueError(f"expected array of shape ({self.n}, {self.p}, {self.dim})")


def target_gram(p: int) -> np.ndarray:
    """The prescribed Gram matrix: entry (a, b) is 1 - 4*d(a,b)/p."""
    k = np.arange(p)
    d = np.minimum((k[None, :] - k[:, None]) % p, (k[:, None] - k[None, :]) % p)
    return 1.0 - 4.0 * d / p


def canonical_constellation(p: int, labels=None) -> np.ndarray:
    """The sign-pattern family over domain p, vector labels[a] as row a of a
    (len(labels), p/2) float64 array, all p vectors in label order by
    default; see the module docstring.

    Row k has its first k mod p/2 entries negative and the rest positive,
    negated when k >= p/2, so a subset of labels costs only its own rows.
    Each label must be an integer in [0, p); a float, even 1.0, is refused.
    """
    p = _check_domain(p)
    half = p // 2
    k = np.arange(p)
    if labels is not None:
        k = np.array([_check_int(f"labels[{a}]", x) for a, x in enumerate(labels)], dtype=np.int64)
    if k.size and not (0 <= k.min() and k.max() < p):
        raise ValueError(f"labels must lie in [0, {p}), got {k.min()} to {k.max()}")
    c = np.sqrt(2.0 / p)
    vectors = np.where(np.arange(half) < (k % half)[:, None], -c, c)
    np.negative(vectors, out=vectors, where=(k >= half)[:, None])
    return vectors


def _shift_columns(p: int) -> np.ndarray:
    """cols[h, k] = (h + k) mod p, symmetric: entry (h, cols[h, k]) of a Gram block is member h of class k."""
    h, k = np.arange(p)[:, None], np.arange(p)
    return (h + k) % p


def _transpose_classes(p: int) -> np.ndarray:
    """neg[k] = (-k) mod p: class k of the block of (i, j) is class neg[k] of the block of (j, i)."""
    return -np.arange(p) % p


def _shift_deviation(blocks: np.ndarray) -> float:
    """Max deviation of Gram blocks (..., p, p) from their shift-class means.

    One gather puts class k's members in column k, in label order; the means
    sum them from 0.0 in that order.  0.0 for an empty stack of blocks.
    """
    p = blocks.shape[-1]
    classes = blocks[..., np.arange(p)[:, None], _shift_columns(p)]
    means = np.add.reduce(classes, axis=-2, initial=0.0) / p
    classes -= means[..., None, :]
    return np.max(np.abs(classes, out=classes), initial=0.0)


def _reduce_gram_rows(vecs: np.ndarray, row_residuals) -> list[float]:
    """Worst value of each residual over all variables, in one pass over the Gram blocks.

    Row i of blocks, vecs[i] against vecs[i:] with shape (n - i, p, p) and
    block 0 variable i's own Gram matrix, goes to row_residuals(i, blocks),
    which returns one value per residual.  One row at a time bounds memory;
    the batched product equals the per-pair ones bit for bit.  Maxima
    propagate NaN, so a non-finite coordinate never reads as feasible.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        rows = [row_residuals(i, vecs[i] @ np.swapaxes(vecs[i:], 1, 2)) for i in range(vecs.shape[0])]
        return [float(r) for r in np.max(rows, axis=0)]


def solution_residuals(sol: SdpSolutionP) -> dict[str, float]:
    """Max residual of each constraint family, measured from the vectors.

    gram_law: each variable's Gram matrix against the target; unit_norm:
    the vector norms; shift_covariance: every cross-variable block against
    its per-shift-class means.
    """
    target = target_gram(sol.p)

    def row_residuals(i, blocks):
        gram = blocks[0]
        return np.max(np.abs(gram - target)), np.max(np.abs(np.diag(gram) - 1.0)), _shift_deviation(blocks[1:])

    r_gram, r_unit, r_cov = _reduce_gram_rows(sol.v, row_residuals)
    return {"gram_law": r_gram, "unit_norm": r_unit, "shift_covariance": r_cov}


def _variable_difference_steps(sol: SdpSolutionP) -> np.ndarray:
    """Per-variable half-steps, shape (n, p/2, dim)."""
    half = sol.p // 2
    return (sol.v[:, 1 : half + 1, :] - sol.v[:, :half, :]) / 2.0

