"""Reference constructions that only the tests use.

The package rounds, solves and reports without these; each is the
independent side of a check:

- lift_solution: the ell-fold lift of a constellation solution, built as a
  per-variable, per-sub-step loop.  It is the reference for
  relq.rounding's implicit lift (criterion 7, lifted_walk_values and
  round_lifted_solution) and for the residual pass on lifted vectors.
- integral_embedding: an integer assignment as an assignment-form
  solution, the exactly feasible input of the objective, conversion and
  residual checks (criterion 5).
- objective_p: the constellation-form objective, which the conversion
  from the assignment form must preserve (criteria 5 and 7).
- hitting_time_density: the first-passage density of Brownian motion,
  whose mass criterion 8 integrates against the reflection formula.
"""

import math

import numpy as np

from relq.constellation import SdpSolutionP, _variable_difference_steps
from relq.instance import Assignment, Instance
from relq.sdp import SdpSolutionPPlus, _check_instance


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


def objective_p(sol: SdpSolutionP, inst: Instance) -> float:
    """sum over equations of (1 + v_i^0 . v_j^{d_ij}) / 2."""
    _check_instance(sol, inst)
    total = 0.0
    for i, j, d in inst.equations:
        total += 0.5 * (1.0 + float(sol.v[i, 0] @ sol.v[j, d]))
    return total


def hitting_time_density(b: float, t: float) -> float:
    """Density of the first time a standard Brownian motion reaches level b."""
    if b <= 0:
        raise ValueError(f"level must be positive, got {b}")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    return b / (math.sqrt(2.0 * math.pi) * t**1.5) * math.exp(-b * b / (2.0 * t))
