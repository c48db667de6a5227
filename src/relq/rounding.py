"""Threshold rounding of constellation solutions via Gaussian walks.

A trial draws one standard normal vector r.  Each variable's circular walk
values[k] = v^k . r is scanned for extreme sign changes at threshold alpha:
indices with value >= alpha are labeled '+', value <= -alpha labeled '-',
runs of equal labels are collapsed circularly, and every (-,+) adjacency of
the collapsed sequence is an up-crossing.  A variable with exactly one
up-crossing is assigned the index where the '+' run starts; otherwise it
falls back to a uniform position drawn from a per-variable substream.

Rounding the ell-fold lift needs no lifted vectors: its walk is the anchor
plus prefix sums of the base difference steps projected on r, split into
ell sub-steps (ell = 1 is plain rounding).  The walk is antipodal, so only
its forward half is built and the crossing kernel of relq._kernels reads
it.

Batch path and stream keys.  GaussianSampler(seed, stream) draws from Philox
keyed [seed, stream]; spawn(tag) derives a substream, one or two levels
deep, whose tags sit in the high words of the Philox counter next to a
sampler domain tag (see GaussianSampler).  Trial t of a batch is the fresh
sampler given for it, and the fallback of its variable i comes from that
sampler's spawn(i).  Philox is counter-based and Generator.standard_normal
keeps no state of its own, so setting one scratch bit generator to a
sampler's key and counter yields exactly the normals that sampler would
draw.  round_lifted_solution therefore draws the normals of a block of
trials from re-keyed streams, runs the walk construction once over the
block and classifies every (trial, variable) walk in one kernel call;
positions are bit for bit those of rounding trial by trial.  The one
tolerance is the seam: the kernel takes walk index s/2 to be exactly
-anchor, where a walk computed in full carries anchor + 2*prefix, so a
label there can differ only if alpha lies within about one ulp of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from relq._kernels import trace_stats_batch
from relq.constellation import SdpSolutionP, _variable_difference_steps, solution_residuals

ONE_CROSSING = "OneCrossing"
NO_CROSSING = "NoCrossing"
MANY_CROSSINGS = "ManyCrossings"
_STATUS_BY_COUNT = (NO_CROSSING, ONE_CROSSING, MANY_CROSSINGS)  # indexed by min(count, 2)

_MASK64 = (1 << 64) - 1
# walk values plus normals per block of trials in round_lifted_solution
_BLOCK_VALUES = 1 << 14
# Philox counter word 3 of every sampler stream: this tag plus the spawn
# depth.  Other Philox consumers of the package (generate_instance,
# discretization_margin_check) start at counter 0, so no key collision
# with them can repeat a sampler's numbers.
_SAMPLER_DOMAIN = 0x72656C71 << 32  # "relq"
_MAX_SPAWN_DEPTH = 2
# 1: Box-Muller over Philox keyed [seed, stream * 2**20 + tag + 1];
# 2: Generator.standard_normal over the keys and counters of GaussianSampler
STREAM_VERSION = 2


def _check_word(name: str, value: int) -> int:
    value = int(value)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


class GaussianSampler:
    """Deterministic N(0,1) source: Generator.standard_normal on Philox.

    A sampler is named by its seed, its stream and its path, the tags of up
    to two spawn() calls, each in [0, 2**64).  One name always yields one
    sequence, however the requests are chunked, and the name maps
    injectively to a Philox key and counter start:

        key     = [seed, stream]
        counter = [0, tag 1 or 0, tag 2 or 0, _SAMPLER_DOMAIN + depth]

    Draws advance counter word 0 only, so two distinct samplers share no
    number short of 2**66 draws from one of them.  The Philox generator is
    built on the first draw, so spawning costs almost nothing.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _check_word("seed", seed)
        self.stream = _check_word("stream", stream)
        self.path: tuple[int, ...] = ()
        self._generator: np.random.Generator | None = None

    @property
    def key(self) -> tuple[int, int]:
        """The Philox key [seed, stream] of this sampler's stream."""
        return self.seed, self.stream

    @property
    def counter(self) -> tuple[int, int, int, int]:
        """The Philox counter this sampler's stream starts from."""
        tags = self.path + (0,) * (_MAX_SPAWN_DEPTH - len(self.path))
        return (0, *tags, _SAMPLER_DOMAIN + len(self.path))

    @property
    def fresh(self) -> bool:
        """True until the first draw."""
        return self._generator is None

    @property
    def _rng(self) -> np.random.Generator:
        if self._generator is None:
            # Philox(key=...) would read a tuple holding a word >= 2**63 as float64
            key = np.array(self.key, dtype=np.uint64)
            counter = np.array(self.counter, dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key, counter=counter))
        return self._generator

    def sample(self, dim: int) -> np.ndarray:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return self._rng.standard_normal(dim)

    def uniform_below(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return int(self._rng.integers(0, n))

    def spawn(self, tag: int) -> "GaussianSampler":
        if len(self.path) == _MAX_SPAWN_DEPTH:
            raise ValueError(f"substreams nest at most {_MAX_SPAWN_DEPTH} deep")
        # a batch spawns one sampler per trial: skip re-checking seed and stream
        child = object.__new__(GaussianSampler)
        child.seed, child.stream = self.seed, self.stream
        child.path = self.path + (_check_word("tag", tag),)
        child._generator = None
        return child


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
    """Positions in [0, s), one status string and crossing count per rounded variable.

    Rounding with one sampler gives positions of shape (n,) and a list of
    counts; with a sequence of samplers positions and crossing_counts are
    (trials, n) arrays and statuses lists them row by row.
    """

    s: int
    positions: np.ndarray
    statuses: list[str]
    crossing_counts: list[int] | np.ndarray


def _labels(values: np.ndarray, alpha: float) -> np.ndarray:
    labels = np.zeros(values.shape[0], dtype=np.int64)
    labels[values >= alpha] = 1
    labels[values <= -alpha] = -1
    return labels


def detect_extreme_sign_changes(trace: WalkTrace, alpha: float) -> list[CrossingEvent]:
    """All up-crossings of the collapsed circular label sequence.

    t_minus is the last index of the '-' run, t_plus the first index of the
    following '+' run.  A trace that never leaves (-alpha, alpha) has no
    events.  The rounding path uses the half-walk kernel; this is the
    per-trace reference for any walk, antipodal or not.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
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


def _lifted_prefix(
    sol: SdpSolutionP, steps: np.ndarray, ell: int, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Anchors (trials, n) and step prefix sums (trials, n, s/2) of the lifted walks.

    steps is _variable_difference_steps(sol), (n, p/2, dim); normals is
    (trials, dim*ell).  Walk value k of variable i is anchor +
    2*prefix[k-1] for 1 <= k <= s/2.  Every (p/2 x dim) @ (dim x ell)
    product is one BLAS call and every anchor one dot product, as for a
    single trial, so a block of trials gives bit for bit the values of its
    trials taken one at a time.
    """
    R = normals.reshape(normals.shape[0], sol.dim, ell)
    scale = 1.0 / np.sqrt(ell)
    sub = (steps[None] @ R[:, None]) * scale  # (trials, n, p/2, ell), row-major = sub-step order
    anchor_dot = R.sum(axis=2)[:, None, None, :] @ sol.v[None, :, 0, :, None]  # (trials, n, 1, 1)
    anchor = anchor_dot[:, :, 0, 0] * scale
    prefix = np.cumsum(sub.reshape(sub.shape[0], sol.n, -1), axis=2)
    return anchor, prefix


def lifted_walk_values(sol: SdpSolutionP, ell: int, r: np.ndarray, i: int) -> np.ndarray:
    """Walk values of variable i's lifted constellation, without materializing it.

    The lifted walk applies the original difference steps split into ell
    equal sub-steps, so its values are the anchor plus prefix sums of the
    per-sub-step projections of r.  Equal (within float noise) to dotting r
    with lift_solution's vectors.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    expected = sol.dim * ell
    if r.shape != (expected,):
        raise ValueError(f"r has shape {r.shape}, expected ({expected},)")
    anchor, prefix = _lifted_prefix(sol, _variable_difference_steps(sol), ell, r[None])
    anchor, prefix = anchor[0, i], prefix[0, i]
    half = prefix.size
    values = np.empty(2 * half)
    values[0] = anchor
    values[1 : half + 1] = anchor + 2.0 * prefix
    values[half + 1 :] = -values[1:half]
    return values


def _round_block(
    sol: SdpSolutionP,
    steps: np.ndarray,
    ell: int,
    normals: np.ndarray,
    samplers: Sequence[GaussianSampler],
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions and crossing counts (trials, n) for one block of trials."""
    anchor, prefix = _lifted_prefix(sol, steps, ell, normals)
    half_walks = np.empty_like(prefix)
    half_walks[..., 0] = anchor
    tail = half_walks[..., 1:]
    np.multiply(prefix[..., :-1], 2.0, out=tail)
    tail += anchor[..., None]
    trials, n, half = half_walks.shape
    counts, first_plus, _ = trace_stats_batch(half_walks.reshape(trials * n, half), alpha)
    positions = first_plus
    for cell in np.flatnonzero(counts != 1).tolist():
        t, i = divmod(cell, n)
        positions[cell] = samplers[t].spawn(i).uniform_below(2 * half)
    return positions.reshape(trials, n), counts.reshape(trials, n)


def _round_trials(
    sol: SdpSolutionP, steps: np.ndarray, ell: int, samplers: list[GaussianSampler], alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positions and crossing counts (trials, n), one trial per fresh sampler, in blocks."""
    dim = sol.dim * ell
    block = max(1, _BLOCK_VALUES // (sol.n * sol.p * ell // 2 + dim))
    positions = np.empty((len(samplers), sol.n), dtype=np.int64)
    counts = np.empty_like(positions)
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # empty buffer
    for t0 in range(0, len(samplers), block):
        chunk = samplers[t0 : t0 + block]
        z = np.empty((len(chunk), dim))
        for row, smp in zip(z, chunk):
            # the state setter takes tuples of ints, faster than arrays
            fresh["state"]["key"] = smp.key
            fresh["state"]["counter"] = smp.counter
            bitgen.state = fresh
            rng.standard_normal(out=row)
        rows = slice(t0, t0 + len(chunk))
        positions[rows], counts[rows] = _round_block(sol, steps, ell, z, chunk, alpha)
    return positions, counts


def round_lifted_solution(
    sol: SdpSolutionP,
    ell: int,
    sampler: GaussianSampler | Sequence[GaussianSampler],
    alpha: float = 1.0,
    audit: bool = True,
) -> RoundingOutcome:
    """Round the ell-fold lifted solution directly from the base solution.

    Positions land in [0, ell*p).  With one sampler, one trial draws its
    normals from it and falls back through its spawn(i).  With a sequence
    of fresh samplers, trial t rounds with samplers[t] exactly as if it
    were passed alone; the trials run in blocks of about _BLOCK_VALUES
    walk values plus normals.  With audit=True the base solution's
    feasibility is checked first (max residual 1e-5); the lifted walks are
    exact functions of it, so no lifted vectors are built.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if audit:
        worst = max(solution_residuals(sol).values())
        if worst > 1e-5:
            raise ValueError(f"solution infeasible: max residual {worst:.3e}")
    steps = _variable_difference_steps(sol)
    single = isinstance(sampler, GaussianSampler)
    if single:
        positions, counts = _round_block(sol, steps, ell, sampler.sample(sol.dim * ell)[None], [sampler], alpha)
    else:
        samplers = list(sampler)
        if not all(smp.fresh for smp in samplers):
            raise ValueError("a batch of trials needs fresh samplers, one per trial")
        positions, counts = _round_trials(sol, steps, ell, samplers, alpha)
    statuses = [_STATUS_BY_COUNT[c] for c in np.minimum(counts, 2).ravel().tolist()]
    s = ell * sol.p
    if single:
        return RoundingOutcome(s=s, positions=positions[0], statuses=statuses, crossing_counts=counts[0].tolist())
    return RoundingOutcome(s=s, positions=positions, statuses=statuses, crossing_counts=counts)
