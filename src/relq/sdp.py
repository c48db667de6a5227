"""Vector-program relaxations of cycle difference equations.

Two equivalent relaxations are handled.  The assignment form places, for
every variable i and label h, a vector u_ih of squared norm 1/p; vectors
of one variable are mutually orthogonal, all pairwise inner products are
nonnegative and depend only on the label shift, and every variable has
the same summed vector.  The constellation form carries one unit vector
per variable and label obeying the canonical Gram law within a variable
and shift covariance across variables.  A signed half-window sum maps the
first form onto the second, preserving the objective.

Every solver iterate is a block-circulant Gram matrix, so the solver keeps
only its class means c[i, j, k] (variables i and j, label shift k; the
layout of relq.constellation), whose max-abs residuals equal those of the
dense matrix.  An ADMM splitting engine (Wen, Goldfarb & Yin 2010)
alternates a gradient-shifted projection onto the structural constraints
(a simplex projection per variable pair) with a projection onto the PSD
cone, and one Dykstra polish moves its iterate onto their intersection.
The PSD projection and the final factor into vectors each run one batched
complex eigh of the Hermitian n x n blocks of the p/2 + 1 label
frequencies, one DFT matmul away (Gatermann & Parrilo 2004; de Klerk,
Pasechnik & Schrijver 2007).  The feasibility report of the assignment
form, like relq.constellation.solution_residuals for the constellation
form, reduces relq.constellation's one pass over the Gram blocks of the
vectors; a NaN or infinite coordinate makes its max_residual non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relq._kernels import _check_domain, _check_int
from relq.constellation import (
    SdpSolutionP,
    _reduce_gram_rows,
    _shift_columns,
    _shift_deviation,
    _transpose_classes,
)
from relq.instance import Instance, _text_rows

SOLUTION_MAGIC = "relqsol"
SOLUTION_VERSION = 1
SIZE_GUARD = 1000  # p * n beyond this: the (n, p, dim <= p * n) vectors and the solve leave desk scale (BENCH_solve_factor_blocks.json)
MAX_ENGINE_CYCLES = 30000  # default cap on the splitting engine's cycles
ENGINE_RHO = 1.0  # initial penalty; the engine rebalances it every 50 cycles
ENGINE_TOL = 1e-10  # engine stops once primal and dual residuals are below this
FINAL_TOL = 1e-11  # polish stops once the two per-set iterates agree to this
FINAL_CYCLES = 40000
# eigenvalues below this fraction of the largest are float noise of the PSD
# projection.  On the test and ladder instances the noise reaches 3.2e-9 and
# the smallest real eigenvalue 5.5e-6, both on generate_instance(5, 4, 10,
# seed=1); test_rank_cutoff_keeps_its_margin fails when either side comes
# within a decade of the cutoff
RANK_CUTOFF = 1e-7


@dataclass
class SdpSolutionPPlus:
    """Vectors of the assignment form: u[i, h] is variable i's vector for label h."""

    p: int
    n: int
    dim: int
    u: np.ndarray

    def __post_init__(self):
        self.p, self.n, self.dim = _check_domain(self.p), _check_int("n", self.n, 1), _check_int("dim", self.dim, 1)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.shape != (self.n, self.p, self.dim):
            raise ValueError(f"expected array of shape ({self.n}, {self.p}, {self.dim})")


@dataclass
class FeasibilityReport:
    residuals: dict[str, float]
    objective: float
    iterations: int = 0
    converged: bool = True
    objective_trace: list[float] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values()), initial=0.0))


def _shift_weights(p: int, d: np.ndarray) -> np.ndarray:
    """Integer weight p - 2*d(k, d) of shift class k (the last axis) in an equation with target d."""
    k = np.arange(p)
    return p - 2 * np.minimum((k - d) % p, (d - k) % p)


def objective_p_plus(sol: SdpSolutionPPlus, inst: Instance) -> float:
    """sum over equations of sum_k (p - 2*d(k, d_ij)) u_i0 . u_jk.

    The 1/p normalization of the vectors makes this directly comparable to
    the integer objective: on integral embeddings exactly one inner product
    per equation is 1/p and the term equals 1 - 2*y/p.
    """
    _check_instance(sol, inst)
    targets = np.array(inst.equations, dtype=np.int64).reshape(-1, 3)[:, 2:]
    total = 0.0
    for (i, j, _), coeff in zip(inst.equations, _shift_weights(sol.p, targets).astype(np.float64)):
        total += float(coeff @ (sol.u[j] @ sol.u[i, 0]))
    return total


def convert_to_p(sol: SdpSolutionPPlus) -> SdpSolutionP:
    """Signed half-window sums: v_i^k = sum_{h=k}^{k+p/2-1} u_ih - sum_{h=k+p/2}^{k+p-1} u_ih."""
    p, n, dim = sol.p, sol.n, sol.dim
    half = p // 2
    signs = np.ones(p)
    signs[half:] = -1.0
    v = np.empty((n, p, dim))
    for k, idx in enumerate(_shift_columns(p)):
        v[:, k, :] = np.tensordot(signs, sol.u[:, idx, :], axes=(0, 1))
    return SdpSolutionP(p=p, n=n, dim=dim, v=v)


def _check_instance(sol, inst):
    if sol.p != inst.p or sol.n != inst.n:
        raise ValueError(f"solution shape (p={sol.p}, n={sol.n}) does not match instance (p={inst.p}, n={inst.n})")


def feasibility_report(sol: SdpSolutionPPlus, inst: Instance) -> FeasibilityReport:
    """Max residual per constraint family of an assignment-form solution, measured
    from the vectors, and its objective on inst.  The constellation form's
    residuals are relq.constellation.solution_residuals."""
    if not isinstance(sol, SdpSolutionPPlus):
        raise TypeError(f"unsupported solution type {type(sol).__name__}")
    p = sol.p
    sums = sol.u.sum(axis=1)  # (n, dim)

    def row_residuals(i, blocks):
        gram = blocks[0]
        diag = np.diag(gram)
        # C order: vecdot of contiguous rows is each 1-D norm's dot, bit for bit
        gaps = np.subtract(sums[i], sums[i + 1 :], order="C")
        return (
            np.max(np.abs(diag - 1.0 / p)),
            np.max(np.abs(gram - np.diag(diag))),
            np.maximum(0.0 - np.min(blocks), 0.0),  # 0.0 - x: a zero minimum reads +0.0, not -0.0
            _shift_deviation(blocks),
            np.max(np.sqrt(np.vecdot(gaps, gaps)), initial=0.0),
        )

    names = ("norm", "within_orthogonality", "nonneg", "shift_covariance", "sum_vector")
    residuals = dict(zip(names, _reduce_gram_rows(sol.u, row_residuals)))
    return FeasibilityReport(residuals=residuals, objective=objective_p_plus(sol, inst))


# ---------------------------------------------------------------------------
# solver


def _class_weights(inst: Instance) -> np.ndarray:
    """Class means w (n, n, p) of the symmetric weight matrix W: p * <w, c> = <W, G>
    is the relaxation objective of the Gram matrix G with class means c.

    Equation (i, j, d) adds (p - 2*d(k, d)) / (2p) to class k of (i, j) and
    to its transpose, class -k of (j, i): the coefficient is spread over all
    label shifts, so the gradient keeps the covariance structure.
    """
    p, n = inst.p, inst.n
    eq = np.array(inst.equations, dtype=np.int64).reshape(-1, 3)
    i, j = eq[:, :1], eq[:, 1:2]
    weight = _shift_weights(p, eq[:, 2:]) / (2.0 * p)  # (equations, k)
    w = np.zeros((n, n, p))
    np.add.at(w, (i, j, np.arange(p)), weight)
    np.add.at(w, (j, i, _transpose_classes(p)), weight)
    return w


def _class_layout(p: int, n: int) -> tuple:
    """Built once per solve: the flat index fwd[pair, k] of class k of (i, j) and
    bwd[pair, k] of class -k of (j, i), for i < j; the ranks 1 .. p; the flat template
    [1/p, 0, ...] on each (i, i); dft[k, f] = exp(-2 pi i f k / p), f = 0 .. p/2; and
    inverse, rows cos and then sin(2 pi f k / p) times m_f / p (m_f = 2, or 1 at f = 0, p/2).
    """
    iu, ju = np.triu_indices(n, 1)
    fwd = (iu * n + ju)[:, None] * p + np.arange(p)
    bwd = (ju * n + iu)[:, None] * p + _transpose_classes(p)
    template = (np.eye(n)[:, :, None] * (np.eye(1, p) / p)).reshape(-1)
    f = np.arange(p // 2 + 1)[:, None]
    angle = 2.0 * np.pi * (f * np.arange(p) % p) / p
    mult = np.tile(np.where((f == 0) | (2 * f == p), 1.0, 2.0) / p, (2, 1))
    inverse = np.concatenate([np.cos(angle), np.sin(angle)]) * mult
    return fwd, bwd, np.arange(1, p + 1), template, np.exp(-1j * angle).T, inverse


def _project_structure(c: np.ndarray, layout: tuple) -> np.ndarray:
    """Exact projection of class means onto the structural constraint set.

    Within-variable classes are pinned to [1/p, 0, ...] (norm and orthogonality).
    Each pair i < j averages its class k with class -k of (j, i), the class mean of
    the symmetrized Gram matrix; the means are projected onto the simplex {>= 0,
    sum = 1/p} (shift covariance, nonnegativity, equal sum vectors) and mirrored
    into (j, i), gathered and scattered through the flat indices fwd and bwd.
    Adding one constant to a row does not move its projection, so each row first
    loses its max; its top sorted entry, 0, then always passes the rank test, and
    the threshold comes from the last rank that does (Condat 2016).
    """
    fwd, bwd, ranks, template = layout[:4]
    p = len(ranks)
    flat = c.reshape(-1)
    means = (flat[fwd] + flat[bwd]) / 2.0
    means -= means.max(axis=1, keepdims=True)
    desc = np.sort(means, axis=1)[:, ::-1]
    css = np.cumsum(desc, axis=1) - 1.0 / p
    last = p - 1 - np.argmax((desc - css / ranks > 0)[:, ::-1], axis=1)
    theta = css[np.arange(len(last)), last] / (last + 1.0)
    proj = np.maximum(means - theta[:, None], 0.0)
    out = template.copy()
    out[fwd] = out[bwd] = proj
    return out.reshape(c.shape)


def _frequency_blocks(c: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """The Hermitian n x n blocks H_f = sum_k c[:, :, k] exp(-2 pi i f k / p), f = 0 .. p/2, one matmul away."""
    n, _, p = c.shape
    H = (c.reshape(n * n, p) @ dft).T.reshape(-1, n, n)
    return (H + H.conj().transpose(0, 2, 1)) / 2.0


def _project_psd(c: np.ndarray, layout: tuple) -> np.ndarray:
    """Projection of class means onto the PSD cone: one batched complex eigh clips the
    frequency blocks H_f = A_f - i S_f to P_f = V W V^H, and one real matmul of
    [A_f; S_f] = [Re P_f; -Im P_f] against the inverse basis sums them back into classes.
    """
    dft, inverse = layout[4:]
    w, V = np.linalg.eigh(_frequency_blocks(c, dft))
    P = (V * np.maximum(w, 0.0)[:, None, :]) @ V.conj().transpose(0, 2, 1)
    coef = np.concatenate([P.real, -P.imag]).reshape(len(inverse), -1)
    return (coef.T @ inverse).reshape(c.shape)


def _polish(c: np.ndarray, layout: tuple, tol: float, max_cycles: int) -> tuple[np.ndarray, float]:
    """Dykstra's alternating projections onto structure set intersect PSD cone.

    Unlike plain alternating projections this converges to the nearest point
    of the intersection, so the engine's nearly feasible iterate moves only
    as far as it lies from the feasible set, and its objective by at most
    |W| times that distance.  Returns the final iterate (PSD) and the gap
    between the two per-set iterates.
    """
    x = c
    corr_s = np.zeros_like(c)
    corr_p = np.zeros_like(c)
    gap = np.inf
    for _ in range(max_cycles):
        y = _project_structure(x + corr_s, layout)
        corr_s = x + corr_s - y
        x = _project_psd(y + corr_p, layout)
        corr_p = y + corr_p - x
        gap = float(np.max(np.abs(y - x)))
        if gap <= tol:
            break
    return x, gap


def _splitting_engine(w: np.ndarray, c0: np.ndarray, layout: tuple, max_cycles: int) -> tuple[np.ndarray, int, bool]:
    """ADMM splitting between the two constraint sets, maximizing p * <w, c>.

    Per cycle: one gradient-shifted structure projection, one PSD projection,
    one scaled dual update.  The penalty rho is rebalanced from the primal
    and dual residuals.  Returns the last PSD iterate, which is only near
    the structure set, the cycle count, and whether both residuals met
    ENGINE_TOL within max_cycles.
    """
    rho = ENGINE_RHO
    Z = c0.copy()
    U = np.zeros_like(c0)
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        G = _project_structure(Z - U + w / rho, layout)
        Znew = _project_psd(G + U, layout)
        primal = float(np.max(np.abs(G - Znew)))
        dual = rho * float(np.max(np.abs(Znew - Z)))
        Z = Znew
        U += G - Z
        if max(primal, dual) <= ENGINE_TOL:
            return Z, cycles, True
        if cycles % 50 == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                U /= 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                U *= 2.0
    return Z, cycles, False


def _factor_gram(c: np.ndarray, layout: tuple) -> np.ndarray:
    """Vectors whose Gram matrix is the PSD part of class means c up to RANK_CUTOFF, shape (n, p, dim):
    eigenpair (w, v) of block f gives x[i, h] = v[i] dft[h, f] sqrt(m_f w / p), and block p - f its
    conjugate, so each 0 < f < p/2 gives the columns Re x and Im x (m_f = 2; Davis 1979).  The cutoff
    is relative to the largest eigenvalue of all blocks, as it is in the (pn) x (pn) Gram matrix."""
    dft = layout[4]
    p = len(dft)
    w, V = np.linalg.eigh(_frequency_blocks(c, dft))
    f, r = np.nonzero(w >= w.max() * RANK_CUTOFF)
    paired = (f > 0) & (2 * f < p)
    x = V[f, :, r].T[:, None, :] * dft[:, f] * np.sqrt(np.where(paired, 2.0, 1.0) * w[f, r] / p)
    return np.concatenate([x.real, x.imag[:, :, paired]], axis=2)


def solve_p_plus(inst: Instance, max_iterations: int = MAX_ENGINE_CYCLES) -> tuple[SdpSolutionPPlus, FeasibilityReport]:
    """Splitting engine, one Dykstra polish, factorization.

    The engine starts from the class means of the exactly feasible all-zeros
    embedding and runs at most max_iterations cycles (the report's
    iterations); converged means it met its tolerance within that cap and
    the polish closed to FINAL_TOL.  objective_trace holds the start and the
    polished objective.  Deterministic; p*n <= SIZE_GUARD bounds the solve
    time and the (n, p, dim) output, dim <= p*n.
    """
    max_iterations = _check_int("max_iterations", max_iterations, 0)
    p, n = inst.p, inst.n
    if p * n > SIZE_GUARD:
        raise ValueError(f"p*n = {p * n} exceeds solver guard {SIZE_GUARD}")
    layout = _class_layout(p, n)
    w = _class_weights(inst)
    c0 = np.broadcast_to(np.eye(1, p) / p, (n, n, p))
    Z, cycles, engine_met = _splitting_engine(w, c0, layout, max_iterations)
    c, gap = _polish(Z, layout, FINAL_TOL, FINAL_CYCLES)
    u = _factor_gram(c, layout)
    sol = SdpSolutionPPlus(p=p, n=n, dim=u.shape[2], u=u)
    report = feasibility_report(sol, inst)
    report.iterations = cycles
    report.converged = engine_met and gap <= FINAL_TOL
    report.objective_trace = [p * float(np.vdot(w, c0)), p * float(np.vdot(w, c))]
    return sol, report


# ---------------------------------------------------------------------------
# solution files


def format_solution(sol: SdpSolutionPPlus) -> str:
    """Text form: header, sizes, then one line of coordinates per (variable, label)."""
    if not isinstance(sol, SdpSolutionPPlus):
        raise TypeError(f"unsupported solution type {type(sol).__name__}")
    lines = [f"{SOLUTION_MAGIC} {SOLUTION_VERSION}", f"{sol.p} {sol.n} {sol.dim} pplus"]
    for i in range(sol.n):
        for h in range(sol.p):
            lines.append(" ".join(repr(float(x)) for x in sol.u[i, h]))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> SdpSolutionPPlus:
    """Parse the text form of assignment vectors; every coordinate must be finite."""
    nums, rows = _text_rows(text, "solution", SOLUTION_MAGIC, SOLUTION_VERSION)
    try:
        *sizes, kind = rows[1].split()
        p, n, dim = (int(tok) for tok in sizes)
    except ValueError as exc:
        raise ValueError(f"bad size line {rows[1]!r}") from exc
    if p < 2 or p % 2 or n < 1 or dim < 1:
        raise ValueError(f"bad size line {rows[1]!r}: need an even p >= 2, n >= 1 and dim >= 1")
    if kind != "pplus":
        raise ValueError(f"unknown solution kind {kind!r}, expected 'pplus'")
    body = rows[2:]
    if len(body) != n * p:
        raise ValueError(f"expected {n * p} vector lines, found {len(body)}")
    arr = np.empty((n, p, dim))
    for r, line in enumerate(body):
        vals = line.split()
        if len(vals) != dim:
            raise ValueError(f"expected {dim} coordinates on line {nums[r + 2]}, found {len(vals)}")
        try:
            row = [float(tok) for tok in vals]
        except ValueError:
            raise ValueError(f"bad coordinate on line {nums[r + 2]}") from None
        if not np.isfinite(row).all():
            raise ValueError(f"non-finite coordinate on line {nums[r + 2]}")
        arr[r // p, r % p] = row
    return SdpSolutionPPlus(p=p, n=n, dim=dim, u=arr)


def save_solution(sol: SdpSolutionPPlus, path: str | Path) -> None:
    Path(path).write_text(format_solution(sol))


def load_solution(path: str | Path) -> SdpSolutionPPlus:
    return parse_solution(Path(path).read_text())
