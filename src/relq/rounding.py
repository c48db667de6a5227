"""Threshold rounding of constellation solutions via a shared Gaussian draw.

One standard normal vector r is drawn for the whole solution.  Each
variable's circular walk values[k] = v^k . r is scanned for extreme sign
changes at threshold alpha: indices with value >= alpha are labeled '+',
value <= -alpha labeled '-', runs of equal labels are collapsed circularly,
and every (-,+) adjacency of the collapsed sequence is an up-crossing.
A variable with exactly one up-crossing is assigned the index where the
'+' run starts; otherwise it falls back to a uniform position drawn from a
per-variable substream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from relq._kernels import canonical_values_batch
from relq.constellation import SdpSolutionP, _variable_difference_steps

ONE_CROSSING = "OneCrossing"
NO_CROSSING = "NoCrossing"
MANY_CROSSINGS = "ManyCrossings"

_MASK64 = (1 << 64) - 1
# uniform pairs per Box-Muller block: 512 KB of uniforms, cache-resident
_BLOCK_PAIRS = 1 << 15


class GaussianSampler:
    """Deterministic N(0,1) source: Box-Muller over counter-based uniforms.

    Identical (seed, stream) always yields the identical sequence.  Normals
    are generated in blocks of _BLOCK_PAIRS uniform pairs, written straight
    into the returned array, and an odd request keeps the second normal of
    its last pair for the next call; the sequence depends neither on how
    requests are chunked nor on the block size.  Substreams derived via
    spawn(tag) are independent for distinct tags.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._rng = np.random.Generator(np.random.Philox(key=key))
        self._spare: float | None = None

    def sample(self, dim: int) -> np.ndarray:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        start = 0 if self._spare is None else 1
        pairs = (dim - start + 1) // 2
        out = np.empty(start + 2 * pairs)
        if start:
            out[0] = self._spare
            self._spare = None
        z = out[start:].reshape(pairs, 2)
        for p0 in range(0, pairs, _BLOCK_PAIRS):
            # the Philox stream is sequential, so blocked draws see the same uniforms
            u = self._rng.random((min(_BLOCK_PAIRS, pairs - p0), 2))
            radius, angle = u[:, 0], u[:, 1]
            np.negative(radius, radius)
            np.log1p(radius, radius)
            np.multiply(radius, -2.0, radius)
            np.sqrt(radius, radius)
            np.multiply(angle, 2.0 * np.pi, angle)
            even, odd = z[p0 : p0 + _BLOCK_PAIRS, 0], z[p0 : p0 + _BLOCK_PAIRS, 1]
            np.cos(angle, even)
            np.multiply(even, radius, even)
            np.sin(angle, odd)
            np.multiply(odd, radius, odd)
        if out.size > dim:
            self._spare = float(out[dim])
        return out[:dim]

    def uniform_below(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return int(self._rng.integers(0, n))

    def spawn(self, tag: int) -> "GaussianSampler":
        if tag < 0:
            raise ValueError(f"tag must be >= 0, got {tag}")
        return GaussianSampler(self.seed, self.stream * (1 << 20) + tag + 1)


def sample_gaussian(sampler: GaussianSampler, dim: int) -> np.ndarray:
    """i.i.d. standard normals, deterministic per (seed, stream)."""
    return sampler.sample(dim)


@dataclass
class WalkTrace:
    s: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.s,):
            raise ValueError(f"expected {self.s} values, got shape {self.values.shape}")

    @property
    def anchor(self) -> float:
        return float(self.values[0])


@dataclass
class CrossingEvent:
    t_minus: int
    t_plus: int
    direction: str = "up"


@dataclass
class RoundingOutcome:
    s: int
    positions: np.ndarray
    statuses: list[str]
    crossing_counts: list[int]
    events: list[CrossingEvent | None] = field(default_factory=list)


def compute_walk(vectors: np.ndarray, r: np.ndarray, assume_canonical: bool = False) -> WalkTrace:
    """values[k] = v^k . r for one variable's constellation.

    The general path is a matrix-vector product.  With assume_canonical the
    constellation is taken to be the canonical one (dim = s/2) and the walk
    is built from prefix sums of r in O(s): the forward half from the batch
    kernel, the second half as its antipodal mirror.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a (s, dim) array")
    s, dim = vectors.shape
    if r.shape != (dim,):
        raise ValueError(f"r has shape {r.shape}, expected ({dim},)")
    if assume_canonical:
        if dim != s // 2:
            raise ValueError(f"canonical fast path needs dim = s/2, got dim={dim}, s={s}")
        half = canonical_values_batch(r[None, :])[0]
        values = np.concatenate((half, -half))
    else:
        values = vectors @ r
    return WalkTrace(s=s, values=values)


def _labels(values: np.ndarray, alpha: float) -> np.ndarray:
    labels = np.zeros(values.shape[0], dtype=np.int64)
    labels[values >= alpha] = 1
    labels[values <= -alpha] = -1
    return labels


def detect_extreme_sign_changes(trace: WalkTrace, alpha: float) -> list[CrossingEvent]:
    """All up-crossings of the collapsed circular label sequence.

    t_minus is the last index of the '-' run, t_plus the first index of the
    following '+' run.  A trace that never leaves (-alpha, alpha) has no
    events.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    labels = _labels(trace.values, alpha)
    ks = np.flatnonzero(labels)
    if ks.size == 0:
        return []
    # collapse the nonzero subsequence into runs, tracking each run's label
    # and its first/last circular index
    seq = labels[ks]
    brk = np.flatnonzero(seq[1:] != seq[:-1]) + 1
    starts = np.concatenate(([0], brk))
    ends = np.concatenate((brk - 1, [seq.size - 1]))
    run_labels = seq[starts]
    first_idx = ks[starts]
    last_idx = ks[ends]
    if run_labels.size > 1 and run_labels[0] == run_labels[-1]:
        # the run containing index 0 wraps: it starts near the end of the circle
        first_idx[0] = first_idx[-1]
        run_labels = run_labels[:-1]
        first_idx = first_idx[:-1]
        last_idx = last_idx[:-1]
    nruns = run_labels.size
    events = []
    if nruns >= 2:
        for idx in range(nruns):
            nxt = (idx + 1) % nruns
            if run_labels[idx] == -1 and run_labels[nxt] == 1:
                events.append(
                    CrossingEvent(t_minus=int(last_idx[idx]), t_plus=int(first_idx[nxt]), direction="up")
                )
    return events


def assign_position(trace: WalkTrace, alpha: float, sampler: GaussianSampler) -> tuple[int, str, int]:
    """Position plus status for one variable.

    Exactly one up-crossing assigns its t_plus; zero or several fall back to
    a uniform draw from the given sampler.  Returns (position, status,
    crossing count).
    """
    events = detect_extreme_sign_changes(trace, alpha)
    if len(events) == 1:
        return events[0].t_plus, ONE_CROSSING, 1
    position = sampler.uniform_below(trace.s)
    status = NO_CROSSING if not events else MANY_CROSSINGS
    return position, status, len(events)


def round_solution(
    sol: SdpSolutionP,
    sampler: GaussianSampler,
    alpha: float = 1.0,
    audit: bool = True,
) -> RoundingOutcome:
    """Round a constellation solution with one shared Gaussian draw.

    The shared r spans sol.dim coordinates.  Fallback positions come from
    substreams keyed by variable index, so they do not depend on the order
    variables are processed.  With audit=True the solution's feasibility is
    checked first (max residual 1e-5); skip it when rounding the same
    solution many times.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if audit:
        from relq.sdp import feasibility_report

        rep = feasibility_report(sol)
        if rep.max_residual > 1e-5:
            raise ValueError(f"solution infeasible: max residual {rep.max_residual:.3e}")
    r = sampler.sample(sol.dim)
    positions = np.empty(sol.n, dtype=np.int64)
    statuses = []
    counts = []
    events_out: list[CrossingEvent | None] = []
    for i in range(sol.n):
        trace = compute_walk(sol.v[i], r)
        events = detect_extreme_sign_changes(trace, alpha)
        if len(events) == 1:
            positions[i] = events[0].t_plus
            statuses.append(ONE_CROSSING)
            counts.append(1)
            events_out.append(events[0])
        else:
            positions[i] = sampler.spawn(i).uniform_below(sol.p)
            statuses.append(NO_CROSSING if not events else MANY_CROSSINGS)
            counts.append(len(events))
            events_out.append(None)
    return RoundingOutcome(
        s=sol.p, positions=positions, statuses=statuses, crossing_counts=counts, events=events_out
    )


def lifted_walk_values(sol: SdpSolutionP, ell: int, r: np.ndarray, i: int) -> np.ndarray:
    """Walk values of variable i's lifted constellation, without materializing it.

    The lifted walk applies the original difference steps split into ell
    equal sub-steps, so its values are the anchor plus prefix sums of the
    per-sub-step projections of r.  Equal (within float noise) to dotting r
    with lift_solution's vectors.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    p, dim = sol.p, sol.dim
    s = ell * p
    half = s // 2
    expected = dim * ell
    if r.shape != (expected,):
        raise ValueError(f"r has shape {r.shape}, expected ({expected},)")
    R = r.reshape(dim, ell)
    scale = 1.0 / np.sqrt(ell)
    steps = _variable_difference_steps(sol)[i]  # (p/2, dim)
    sub = (steps @ R) * scale  # (p/2, ell), row-major = sub-step order
    anchor = float(sol.v[i, 0] @ R.sum(axis=1)) * scale
    prefix = np.cumsum(sub.ravel())
    values = np.empty(s)
    values[0] = anchor
    values[1 : half + 1] = anchor + 2.0 * prefix
    values[half + 1 :] = -values[1:half]
    return values


def round_lifted_solution(
    sol: SdpSolutionP,
    ell: int,
    sampler: GaussianSampler,
    alpha: float = 1.0,
    audit: bool = True,
) -> RoundingOutcome:
    """Round the ell-fold lifted solution directly from the base solution.

    Positions land in [0, ell*p).  The base solution is audited; the lifted
    walks are exact functions of it, so no lifted vectors are built.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if audit:
        from relq.sdp import feasibility_report

        rep = feasibility_report(sol)
        if rep.max_residual > 1e-5:
            raise ValueError(f"solution infeasible: max residual {rep.max_residual:.3e}")
    s = ell * sol.p
    r = sampler.sample(sol.dim * ell)
    positions = np.empty(sol.n, dtype=np.int64)
    statuses = []
    counts = []
    events_out: list[CrossingEvent | None] = []
    for i in range(sol.n):
        trace = WalkTrace(s=s, values=lifted_walk_values(sol, ell, r, i))
        events = detect_extreme_sign_changes(trace, alpha)
        if len(events) == 1:
            positions[i] = events[0].t_plus
            statuses.append(ONE_CROSSING)
            counts.append(1)
            events_out.append(events[0])
        else:
            positions[i] = sampler.spawn(i).uniform_below(s)
            statuses.append(NO_CROSSING if not events else MANY_CROSSINGS)
            counts.append(len(events))
            events_out.append(None)
    return RoundingOutcome(
        s=s, positions=positions, statuses=statuses, crossing_counts=counts, events=events_out
    )
