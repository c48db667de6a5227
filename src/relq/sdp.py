"""Vector-program relaxations of cycle difference equations.

Two equivalent relaxations are handled.  The assignment form places, for
every variable i and label h, a vector u_ih of squared norm 1/p; vectors
of one variable are mutually orthogonal, all pairwise inner products are
nonnegative and depend only on the label shift, and every variable has
the same summed vector.  The constellation form carries one unit vector
per variable and label obeying the canonical Gram law within a variable
and shift covariance across variables.  A signed half-window sum maps the
first form onto the second, preserving the objective.

The solver works on the (p*n) x (p*n) Gram matrix in three steps.  An
ADMM splitting engine (Wen, Goldfarb & Yin 2010) alternates a
gradient-shifted projection onto the structural constraints with a
projection onto the positive semidefinite cone (symmetric
eigendecomposition, negative eigenvalues clipped).  One Dykstra polish then
moves its iterate onto the intersection of the two sets, and the polished
Gram matrix is factored into vectors.

The structure projection handles all variable pairs in one pass, through
flat index arrays built once per solve: one gather of every pair's shift
classes (the layout of relq.constellation), a sort-based simplex
projection row-wise over (pairs, p), one scatter.  The feasibility report
of either form reduces relq.constellation's one pass over the Gram blocks;
a NaN or infinite coordinate makes its max_residual non-finite.  Both keep
the arithmetic and order of the pair-by-pair loops they replaced, so the
results are the same bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relq.constellation import (
    SdpSolutionP,
    _reduce_gram_rows,
    _shift_columns,
    _shift_deviation,
    solution_residuals,
)
from relq.instance import Instance, Assignment, _text_rows

SOLUTION_MAGIC = "relqsol"
SOLUTION_VERSION = 1
SIZE_GUARD = 1000  # p * n beyond this is out of desk scale for the dense solver
MAX_ENGINE_CYCLES = 30000  # default cap on the splitting engine's cycles
ENGINE_RHO = 1.0  # initial penalty; the engine rebalances it every 50 cycles
ENGINE_TOL = 1e-10  # engine stops once primal and dual residuals are below this
FINAL_TOL = 1e-11  # polish stops once the two per-set iterates agree to this
FINAL_CYCLES = 40000
# eigenvalues below this fraction of the largest are float noise of the PSD
# projection (<= 2.5e-10 measured), far under the smallest real ones (>= 7.7e-5)
RANK_CUTOFF = 1e-7


@dataclass
class SdpSolutionPPlus:
    """Assignment vectors: u[i, h] is variable i's vector for label h."""

    p: int
    n: int
    dim: int
    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.n < 1:
            raise ValueError(f"need at least one variable, got {self.n}")
        if self.u.shape != (self.n, self.p, self.dim):
            raise ValueError(f"expected array of shape ({self.n}, {self.p}, {self.dim})")


@dataclass
class FeasibilityReport:
    kind: str
    residuals: dict[str, float]
    objective: float | None = None
    iterations: int = 0
    converged: bool = True
    objective_trace: list[float] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values()), initial=0.0))


def integral_embedding(inst: Instance, asg: Assignment) -> SdpSolutionPPlus:
    """Embed an integer assignment: u_ih = e_{(x_i - h) mod p} / sqrt(p).

    The (x_i - h) direction makes u_i0 . u_jk select exactly k = x_j - x_i,
    so the relaxation objective equals the assignment's score.
    """
    if len(asg.positions) != inst.n:
        raise ValueError(f"expected {inst.n} positions, got {len(asg.positions)}")
    p, n = inst.p, inst.n
    u = np.zeros((n, p, p))
    c = 1.0 / np.sqrt(p)
    for i, x in enumerate(asg.positions):
        if not (0 <= x < p):
            raise ValueError(f"position {x} outside [0, {p})")
        for h in range(p):
            u[i, h, (x - h) % p] = c
    return SdpSolutionPPlus(p=p, n=n, dim=p, u=u)


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


def objective_p(sol: SdpSolutionP, inst: Instance) -> float:
    """sum over equations of (1 + v_i^0 . v_j^{d_ij}) / 2."""
    _check_instance(sol, inst)
    total = 0.0
    for i, j, d in inst.equations:
        total += 0.5 * (1.0 + float(sol.v[i, 0] @ sol.v[j, d]))
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


def feasibility_report(sol, inst: Instance | None = None) -> FeasibilityReport:
    """Max residual per constraint family, measured from the vectors."""
    if isinstance(sol, SdpSolutionPPlus):
        return _feasibility_pplus(sol, inst)
    if isinstance(sol, SdpSolutionP):
        return _feasibility_p(sol, inst)
    raise TypeError(f"unsupported solution type {type(sol).__name__}")


def _feasibility_pplus(sol: SdpSolutionPPlus, inst: Instance | None) -> FeasibilityReport:
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
    obj = objective_p_plus(sol, inst) if inst is not None else None
    return FeasibilityReport(kind="pplus", residuals=residuals, objective=obj)


def _feasibility_p(sol: SdpSolutionP, inst: Instance | None) -> FeasibilityReport:
    obj = objective_p(sol, inst) if inst is not None else None
    return FeasibilityReport(kind="p", residuals=solution_residuals(sol), objective=obj)


# ---------------------------------------------------------------------------
# solver


def _objective_matrix(inst: Instance) -> np.ndarray:
    """Symmetric weight matrix W with <W, G> equal to the relaxation objective
    for shift-covariant G (the coefficient of each equation is spread over all
    label shifts so the gradient respects the covariance structure).

    One unbuffered np.add.at in equation order, (a, b) before (b, a) per
    (k, h), so a cell shared by several equations sums their terms in
    equation order.
    """
    p, n = inst.p, inst.n
    N = p * n
    eq = np.array(inst.equations, dtype=np.int64).reshape(-1, 3)
    i, j = eq[:, 0, None, None], eq[:, 1, None, None]
    c = _shift_weights(p, eq[:, 2:])[..., None] / (2.0 * p)  # (equations, k, 1)
    a, b = np.broadcast_arrays(i * p + np.arange(p), j * p + _shift_columns(p))
    pos = np.stack([a * N + b, b * N + a], axis=-1)
    W = np.zeros((N, N))
    np.add.at(W.reshape(-1), pos.ravel(), np.broadcast_to(c[..., None], pos.shape).ravel())
    return W


def _uniform_start(p: int, n: int) -> np.ndarray:
    """Gram matrix of the all-zeros integral embedding: exactly feasible."""
    return np.kron(np.ones((n, n)), np.eye(p)) / p


def _structure_index(p: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions in the (p*n) x (p*n) Gram matrix for _project_structure.

    upper[q, h, k] is entry (i*p + h, j*p + (h + k) mod p) of the q-th pair
    i < j, the h-th member of its shift class k; lower[q, h, k] is the
    mirrored entry; diag[i] holds variable i's own p x p block.
    """
    N = p * n
    i, j = np.triu_indices(n, 1)
    h = np.arange(p)
    rows = i[:, None, None] * p + h[:, None]
    cols = j[:, None, None] * p + _shift_columns(p)
    base = np.arange(n)[:, None, None] * p
    diag = (base + h[:, None]) * N + base + h
    return rows * N + cols, cols * N + rows, diag


def _project_structure(G: np.ndarray, p: int, index: tuple) -> np.ndarray:
    """Exact projection onto the structural constraint set, in one pass.

    Within-variable blocks are pinned to I/p (norm and orthogonality);
    cross-variable blocks are averaged along shift classes and the class
    means projected onto the scaled simplex {c >= 0, sum = 1/p} (shift
    covariance, nonnegativity and the equal-sum-vector constraint).  All
    pairs go at once through the flat positions of _structure_index: one
    gather, summed from 0.0 over class members in label order, a sort-based
    simplex projection per row of the (pairs, p) means, one scatter to each
    block and its transpose.
    """
    upper, lower, diag = index
    out = (G + G.T) / 2.0
    flat = out.reshape(-1)
    flat[diag] = np.eye(p) / p
    means = np.add.reduce(flat[upper], axis=1, initial=0.0) / p
    # simplex: threshold at the last rank whose sorted value stays above the
    # running mean excess; the top rank always qualifies in exact arithmetic,
    # so fall back to it when cancellation on extreme inputs empties the test
    desc = np.sort(means, axis=1)[:, ::-1]
    css = np.cumsum(desc, axis=1) - 1.0 / p
    ranks = np.arange(p)
    rho = np.where(desc - css / (ranks + 1) > 0, ranks, 0).max(axis=1)
    theta = css[np.arange(len(rho)), rho] / (rho + 1.0)
    proj = np.maximum(means - theta[:, None], 0.0)[:, None, :]
    flat[upper] = proj
    flat[lower] = proj
    return out


def _project_psd(G: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((G + G.T) / 2.0)
    np.clip(w, 0.0, None, out=w)
    return (V * w) @ V.T


def _polish(G: np.ndarray, p: int, index: tuple, tol: float, max_cycles: int) -> tuple[np.ndarray, float]:
    """Dykstra's alternating projections onto structure set intersect PSD cone.

    Unlike plain alternating projections this converges to the nearest point
    of the intersection, so the engine's nearly feasible iterate moves only
    as far as it lies from the feasible set, and its objective by at most
    |W| times that distance.  Returns the final iterate (exactly PSD) and
    the gap between the two per-set iterates.
    """
    x = G
    corr_s = np.zeros_like(G)
    corr_p = np.zeros_like(G)
    gap = np.inf
    for _ in range(max_cycles):
        y = _project_structure(x + corr_s, p, index)
        corr_s = x + corr_s - y
        x = _project_psd(y + corr_p)
        corr_p = y + corr_p - x
        gap = float(np.max(np.abs(y - x)))
        if gap <= tol:
            break
    return x, gap


def _splitting_engine(W: np.ndarray, G0: np.ndarray, p: int, index: tuple, max_cycles: int) -> tuple[np.ndarray, int, bool]:
    """ADMM splitting between the two constraint sets, maximizing <W, G>.

    Per cycle: one gradient-shifted structure projection, one PSD projection,
    one scaled dual update.  The penalty rho is rebalanced from the primal
    and dual residuals.  Returns the last PSD iterate, which is only near
    the structure set, the cycle count, and whether both residuals met
    ENGINE_TOL within max_cycles.
    """
    rho = ENGINE_RHO
    Z = G0.copy()
    U = np.zeros_like(G0)
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        G = _project_structure(Z - U + W / rho, p, index)
        Znew = _project_psd(G + U)
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


def _factor_gram(G: np.ndarray, p: int, n: int) -> np.ndarray:
    """Vectors whose Gram matrix is the PSD part of G up to RANK_CUTOFF, shape (n, p, dim)."""
    w, V = np.linalg.eigh((G + G.T) / 2.0)
    np.clip(w, 0.0, None, out=w)
    top = float(w.max())
    keep = w > top * RANK_CUTOFF if top > 0 else w > -1.0
    cols = V[:, keep] * np.sqrt(w[keep])
    dim = max(cols.shape[1], 1)
    if cols.shape[1] == 0:
        cols = np.zeros((p * n, 1))
    return cols.reshape(n, p, dim)


def solve_p_plus(inst: Instance, max_iterations: int = MAX_ENGINE_CYCLES) -> tuple[SdpSolutionPPlus, FeasibilityReport]:
    """Splitting engine, one Dykstra polish, factorization.

    Starts the engine from the exactly feasible all-zeros embedding, runs
    it for at most max_iterations cycles, polishes its iterate onto the
    feasible set and factors the result.  The report's iterations are the
    engine cycles; converged means the engine met its tolerance within that
    cap and the polish closed to FINAL_TOL.  objective_trace holds the
    start and the polished objective.  Deterministic; desk scale is guarded
    by p*n <= 1000.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
    p, n = inst.p, inst.n
    if p * n > SIZE_GUARD:
        raise ValueError(f"p*n = {p * n} exceeds solver guard {SIZE_GUARD}")
    index = _structure_index(p, n)
    W = _objective_matrix(inst)
    G0 = _uniform_start(p, n)
    Z, cycles, engine_met = _splitting_engine(W, G0, p, index, max_iterations)
    G, gap = _polish(Z, p, index, FINAL_TOL, FINAL_CYCLES)
    u = _factor_gram(G, p, n)
    sol = SdpSolutionPPlus(p=p, n=n, dim=u.shape[2], u=u)
    report = feasibility_report(sol, inst)
    report.iterations = cycles
    report.converged = engine_met and gap <= FINAL_TOL
    report.objective_trace = [float(np.vdot(W, G0)), float(np.vdot(W, G))]
    return sol, report


# ---------------------------------------------------------------------------
# solution files


def format_solution(sol) -> str:
    """Text form: header, sizes, then one line of coordinates per (variable, label)."""
    if isinstance(sol, SdpSolutionPPlus):
        kind, arr = "pplus", sol.u
    elif isinstance(sol, SdpSolutionP):
        kind, arr = "p", sol.v
    else:
        raise TypeError(f"unsupported solution type {type(sol).__name__}")
    lines = [f"{SOLUTION_MAGIC} {SOLUTION_VERSION}", f"{sol.p} {sol.n} {sol.dim} {kind}"]
    for i in range(sol.n):
        for h in range(sol.p):
            lines.append(" ".join(repr(float(x)) for x in arr[i, h]))
    return "\n".join(lines) + "\n"


def parse_solution(text: str):
    """Parse the text form; every coordinate must be finite."""
    nums, rows = _text_rows(text, "solution", SOLUTION_MAGIC, SOLUTION_VERSION)
    toks = rows[1].split()
    if len(toks) != 4:
        raise ValueError(f"bad size line {rows[1]!r}")
    p, n, dim = int(toks[0]), int(toks[1]), int(toks[2])
    kind = toks[3]
    if kind not in ("pplus", "p"):
        raise ValueError(f"unknown solution kind {kind!r}")
    body = rows[2:]
    if len(body) != n * p:
        raise ValueError(f"expected {n * p} vector lines, found {len(body)}")
    arr = np.empty((n, p, dim))
    for r, line in enumerate(body):
        vals = line.split()
        if len(vals) != dim:
            raise ValueError(f"expected {dim} coordinates on line {nums[r + 2]}, found {len(vals)}")
        row = [float(tok) for tok in vals]
        if not np.isfinite(row).all():
            raise ValueError(f"non-finite coordinate on line {nums[r + 2]}")
        arr[r // p, r % p] = row
    if kind == "pplus":
        return SdpSolutionPPlus(p=p, n=n, dim=dim, u=arr)
    return SdpSolutionP(p=p, n=n, dim=dim, v=arr)


def save_solution(sol, path: str | Path) -> None:
    Path(path).write_text(format_solution(sol))


def load_solution(path: str | Path):
    return parse_solution(Path(path).read_text())
