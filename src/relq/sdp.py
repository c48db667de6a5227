"""Vector-program relaxations of cycle difference equations.

Two equivalent relaxations are handled.  The assignment form places, for
every variable i and label h, a vector u_ih of squared norm 1/p; vectors
of one variable are mutually orthogonal, all pairwise inner products are
nonnegative and depend only on the label shift, and every variable has
the same summed vector.  The constellation form carries one unit vector
per variable and label obeying the canonical Gram law within a variable
and shift covariance across variables.  A signed half-window sum maps the
first form onto the second, preserving the objective.

The solver performs projected ascent on the (p*n) x (p*n) Gram matrix:
gradient step on the linear objective, exact projection onto the
structural constraints (diagonal averaging plus a per-pair simplex
projection), and projection onto the positive semidefinite cone by
symmetric eigendecomposition with negative eigenvalues clipped.  Steps
that fail to improve the polished objective are rejected and halved, so
the recorded objective sequence is nondecreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from relq.constellation import (
    SdpSolutionP,
    _covariance_residual,
    _diagonal_class_index,
    solution_residuals,
)
from relq.instance import Instance, Assignment, circular_distance

SOLUTION_MAGIC = "relqsol"
SOLUTION_VERSION = 1
SIZE_GUARD = 1000  # p * n beyond this is out of desk scale for the dense solver


@dataclass
class SdpSolutionPPlus:
    """Assignment vectors: u[i, h] is variable i's vector for label h."""

    p: int
    n: int
    dim: int
    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.shape != (self.n, self.p, self.dim):
            raise ValueError(f"expected array of shape ({self.n}, {self.p}, {self.dim})")


@dataclass
class SolverConfig:
    max_iterations: int = 100
    initial_step: float = 1.0
    min_step: float = 1e-7
    max_step: float = 4.0
    step_growth: float = 1.25
    max_extrapolation: float = 256.0
    engine_rho: float = 1.0
    engine_tol: float = 1e-10
    engine_cycles: int = 30000
    linesearch_tol: float = 1e-10
    linesearch_cycles: int = 2000
    final_tol: float = 1e-11
    final_cycles: int = 40000
    rank_cutoff: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")


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
        return max(self.residuals.values()) if self.residuals else 0.0


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


def objective_p_plus(sol: SdpSolutionPPlus, inst: Instance) -> float:
    """sum over equations of sum_k (p - 2*d(k, d_ij)) u_i0 . u_jk.

    The 1/p normalization of the vectors makes this directly comparable to
    the integer objective: on integral embeddings exactly one inner product
    per equation is 1/p and the term equals 1 - 2*y/p.
    """
    _check_instance(sol, inst)
    p = sol.p
    coeff = np.empty(p)
    total = 0.0
    for i, j, d in inst.equations:
        for k in range(p):
            coeff[k] = p - 2 * circular_distance(k, d, p)
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
    for k in range(p):
        idx = (k + np.arange(p)) % p
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
    p, n = sol.p, sol.n
    cls = _diagonal_class_index(p)
    r_norm = 0.0
    r_orth = 0.0
    r_nonneg = 0.0
    r_cov = 0.0
    r_sum = 0.0
    sums = sol.u.sum(axis=1)  # (n, dim)
    for i in range(n):
        gram = sol.u[i] @ sol.u[i].T
        r_norm = max(r_norm, float(np.max(np.abs(np.diag(gram) - 1.0 / p))))
        off = gram - np.diag(np.diag(gram))
        r_orth = max(r_orth, float(np.max(np.abs(off))))
        r_nonneg = max(r_nonneg, float(max(0.0, -np.min(gram))))
        r_cov = max(r_cov, _covariance_residual(gram, cls, p)[0])
        for j in range(i + 1, n):
            block = sol.u[i] @ sol.u[j].T
            r_nonneg = max(r_nonneg, float(max(0.0, -np.min(block))))
            r_cov = max(r_cov, _covariance_residual(block, cls, p)[0])
            r_sum = max(r_sum, float(np.linalg.norm(sums[i] - sums[j])))
    residuals = {
        "norm": r_norm,
        "within_orthogonality": r_orth,
        "nonneg": r_nonneg,
        "shift_covariance": r_cov,
        "sum_vector": r_sum,
    }
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
    label shifts so the gradient respects the covariance structure)."""
    p, n = inst.p, inst.n
    W = np.zeros((p * n, p * n))
    for i, j, d in inst.equations:
        for k in range(p):
            c = (p - 2 * circular_distance(k, d, p)) / (2.0 * p)
            for h in range(p):
                a = i * p + h
                b = j * p + (h + k) % p
                W[a, b] += c
                W[b, a] += c
    return W


def _uniform_start(p: int, n: int) -> np.ndarray:
    """Gram matrix of the all-zeros integral embedding: exactly feasible."""
    return np.kron(np.ones((n, n)), np.eye(p)) / p


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {c >= 0, sum(c) = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ranks = np.arange(1, v.size + 1)
    hits = np.nonzero(u - css / ranks > 0)[0]
    # the top rank always qualifies in exact arithmetic; fall back to it when
    # cancellation on extreme inputs empties the test
    rho = hits[-1] if hits.size else 0
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _project_structure(G: np.ndarray, p: int, n: int, cls: np.ndarray) -> np.ndarray:
    """Exact projection onto the structural constraint set.

    Within-variable blocks are pinned to I/p (norm and orthogonality);
    cross-variable blocks are averaged along shift classes and the class
    means projected onto the scaled simplex {c >= 0, sum = 1/p} (shift
    covariance, nonnegativity and the equal-sum-vector constraint).
    """
    out = (G + G.T) / 2.0
    eye = np.eye(p) / p
    for i in range(n):
        si = slice(i * p, (i + 1) * p)
        out[si, si] = eye
        for j in range(i + 1, n):
            sj = slice(j * p, (j + 1) * p)
            block = out[si, sj]
            means = np.zeros(p)
            np.add.at(means, cls.ravel(), block.ravel())
            means /= p
            proj = _project_simplex(means, 1.0 / p)
            newblock = proj[cls]
            out[si, sj] = newblock
            out[sj, si] = newblock.T
    return out


def _project_psd(G: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh((G + G.T) / 2.0)
    np.clip(w, 0.0, None, out=w)
    return (V * w) @ V.T


def _polish(G: np.ndarray, p: int, n: int, cls: np.ndarray, tol: float, max_cycles: int) -> tuple[np.ndarray, float, int]:
    """Dykstra's alternating projections onto structure set intersect PSD cone.

    Unlike plain alternating projections this converges to the nearest point
    of the intersection, which keeps the ascent's line search honest: a small
    gradient step followed by this polish cannot silently lose objective.
    Returns the final iterate (exactly PSD), the gap between the two
    per-set iterates, and the cycle count.
    """
    x = G
    corr_s = np.zeros_like(G)
    corr_p = np.zeros_like(G)
    gap = np.inf
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        y = _project_structure(x + corr_s, p, n, cls)
        corr_s = x + corr_s - y
        x = _project_psd(y + corr_p)
        corr_p = y + corr_p - x
        gap = float(np.max(np.abs(y - x)))
        if gap <= tol:
            break
    return x, gap, cycles


def _splitting_engine(W: np.ndarray, G0: np.ndarray, p: int, n: int, cls: np.ndarray, cfg: SolverConfig) -> tuple[np.ndarray, int]:
    """Douglas-Rachford style splitting between the two constraint sets.

    Per cycle: one gradient-shifted structure projection, one PSD projection,
    one dual correction.  The step length 1/rho is rebalanced from the primal
    and dual residuals.  Used as a candidate generator; the returned iterate
    is PSD-exact but only near the structure set, so callers polish it before
    accepting.
    """
    rho = cfg.engine_rho
    Z = G0.copy()
    U = np.zeros_like(G0)
    cycles = 0
    for cycles in range(1, cfg.engine_cycles + 1):
        G = _project_structure(Z - U + W / rho, p, n, cls)
        Znew = _project_psd(G + U)
        primal = float(np.max(np.abs(G - Znew)))
        dual = rho * float(np.max(np.abs(Znew - Z)))
        Z = Znew
        U += G - Z
        if max(primal, dual) <= cfg.engine_tol:
            break
        if cycles % 50 == 0:
            if primal > 10.0 * dual:
                rho *= 2.0
                U /= 2.0
            elif dual > 10.0 * primal:
                rho /= 2.0
                U *= 2.0
    return Z, cycles


def _factor_gram(G: np.ndarray, p: int, n: int, cutoff: float) -> np.ndarray:
    """Vectors whose Gram matrix is the PSD part of G, shape (n, p, dim)."""
    w, V = np.linalg.eigh((G + G.T) / 2.0)
    np.clip(w, 0.0, None, out=w)
    top = float(w.max())
    keep = w > top * cutoff if top > 0 else w > -1.0
    cols = V[:, keep] * np.sqrt(w[keep])
    dim = max(cols.shape[1], 1)
    if cols.shape[1] == 0:
        cols = np.zeros((p * n, 1))
    return cols.reshape(n, p, dim)


def solve_p_plus(inst: Instance, cfg: SolverConfig | None = None) -> tuple[SdpSolutionPPlus, FeasibilityReport]:
    """Projected ascent for the assignment-vector relaxation.

    Starts from the exactly feasible all-zeros embedding and repeats:
    gradient step, polish back to the feasible region by alternating
    projections, accept only if the polished objective improved (otherwise
    halve the step).  Deterministic; desk scale is guarded by p*n <= 1000.
    """
    cfg = cfg or SolverConfig()
    p, n = inst.p, inst.n
    if p * n > SIZE_GUARD:
        raise ValueError(f"p*n = {p * n} exceeds solver guard {SIZE_GUARD}")
    cls = _diagonal_class_index(p)
    W = _objective_matrix(inst)
    G = _uniform_start(p, n)
    obj = float(np.vdot(W, G))
    trace = [obj]
    # global phase: the splitting engine proposes a candidate, which is
    # certified feasible by polishing and accepted only if it improves
    seed_G, engine_cycles = _splitting_engine(W, G, p, n, cls, cfg)
    cand, _, _ = _polish(seed_G, p, n, cls, cfg.final_tol, cfg.final_cycles)
    cobj = float(np.vdot(W, cand))
    if cobj > obj + 1e-12:
        G, obj = cand, cobj
        trace.append(obj)
    # refinement phase: monotone line search along the gradient
    step = cfg.initial_step
    iterations = 0
    while iterations < cfg.max_iterations and step >= cfg.min_step:
        iterations += 1
        cand, _, _ = _polish(G + step * W, p, n, cls, cfg.linesearch_tol, cfg.linesearch_cycles)
        cobj = float(np.vdot(W, cand))
        if cobj > obj + 1e-12:
            move = cand - G
            G, obj = cand, cobj
            trace.append(obj)
            step = min(step * cfg.step_growth, cfg.max_step)
            # extrapolate along the accepted displacement; plain gradient steps
            # zigzag across active faces and this shortcut collapses that walk
            factor = 2.0
            while factor <= cfg.max_extrapolation:
                trial, _, _ = _polish(G + (factor - 1.0) * move, p, n, cls, cfg.linesearch_tol, cfg.linesearch_cycles)
                tobj = float(np.vdot(W, trial))
                if tobj > obj + 1e-12:
                    G, obj = trial, tobj
                    trace.append(obj)
                    factor *= 2.0
                else:
                    break
        else:
            step *= 0.5
    converged = step < cfg.min_step
    G, gap, cycles = _polish(G, p, n, cls, cfg.final_tol, cfg.final_cycles)
    u = _factor_gram(G, p, n, cfg.rank_cutoff)
    sol = SdpSolutionPPlus(p=p, n=n, dim=u.shape[2], u=u)
    report = feasibility_report(sol, inst)
    report.iterations = engine_cycles + iterations
    report.converged = converged and gap <= cfg.final_tol
    report.objective_trace = trace
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
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty solution text")
    if rows[0].split() != [SOLUTION_MAGIC, str(SOLUTION_VERSION)]:
        raise ValueError(f"bad header {rows[0]!r}, expected '{SOLUTION_MAGIC} {SOLUTION_VERSION}'")
    if len(rows) < 2:
        raise ValueError("missing size line")
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
            raise ValueError(f"expected {dim} coordinates on line {r + 3}, found {len(vals)}")
        arr[r // p, r % p] = [float(tok) for tok in vals]
    if kind == "pplus":
        return SdpSolutionPPlus(p=p, n=n, dim=dim, u=arr)
    return SdpSolutionP(p=p, n=n, dim=dim, v=arr)


def save_solution(sol, path: str | Path) -> None:
    Path(path).write_text(format_solution(sol))


def load_solution(path: str | Path):
    return parse_solution(Path(path).read_text())
