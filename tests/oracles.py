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
- constellation_loop: the canonical constellation built row by row, the
  reference for canonical_constellation's vectorized row rule.
- mean_stderr_expanded: the conditioned mean and its standard error from
  every value, summed by math.fsum, the reference for the harness's exact
  histogram sums.
- hitting_time_density: the first-passage density of Brownian motion,
  whose mass criterion 8 integrates against the reflection formula.
- discretization_margin_check (with _sample_tail_normal and
  MarginCheckResult): how often a walk of s steps keeps the margin of the
  eta-widened barrier, the Monte Carlo side of the s >= 20/(c*eta^2)
  claim that criterion 9 checks.  It keys its own Philox stream
  [seed, 0xD15C], off every sampler's key.
"""

import math
from dataclasses import dataclass

import numpy as np

from relq._kernels import _check_word
from relq.constellation import SdpSolutionP, _variable_difference_steps
from relq.instance import Instance
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


def integral_embedding(inst: Instance, positions: list[int]) -> SdpSolutionPPlus:
    """Embed an integer assignment: u_ih = e_{(x_i - h) mod p} / sqrt(p).

    The (x_i - h) direction makes u_i0 . u_jk select exactly k = x_j - x_i,
    so the relaxation objective equals the assignment's score.
    """
    if len(positions) != inst.n:
        raise ValueError(f"expected {inst.n} positions, got {len(positions)}")
    p, n = inst.p, inst.n
    u = np.zeros((n, p, p))
    c = 1.0 / np.sqrt(p)
    for i, x in enumerate(positions):
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


def constellation_loop(p: int) -> np.ndarray:
    """Row k for k <= p/2 has its first k entries negative; row k > p/2 negates row k - p/2."""
    half = p // 2
    c = np.sqrt(2.0 / p)
    vectors = np.full((p, half), c)
    for k in range(half + 1):
        vectors[k, :k] = -c
    for k in range(half + 1, p):
        vectors[k] = -vectors[k - half]
    return vectors


def mean_stderr_expanded(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of values, each sum correctly rounded by math.fsum."""
    n = values.size
    if n == 0:
        return float("nan"), float("nan")
    mean = float(math.fsum(values.tolist()) / n)
    if n == 1:
        return mean, float("nan")
    var = float(math.fsum(((values - mean) ** 2).tolist()) / (n - 1))
    return mean, math.sqrt(var / n)


def hitting_time_density(b: float, t: float) -> float:
    """Density of the first time a standard Brownian motion reaches level b."""
    if b <= 0:
        raise ValueError(f"level must be positive, got {b}")
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    return b / (math.sqrt(2.0 * math.pi) * t**1.5) * math.exp(-b * b / (2.0 * t))


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
    if not (0 < eta < math.inf and 0 < c < math.inf):
        raise ValueError(f"eta and c must be positive and finite, got eta={eta}, c={c}")
    seed = _check_word("seed", seed)
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
