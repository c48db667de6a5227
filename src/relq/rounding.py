"""Threshold rounding of constellation solutions via Gaussian walks.

A trial draws one standard normal vector r.  Each variable's circular walk
values[k] = v^k . r is scanned for extreme sign changes at threshold alpha:
indices with value >= alpha are labeled '+', value <= -alpha labeled '-',
runs of equal labels are collapsed circularly, and every (-,+) adjacency of
the collapsed sequence is an up-crossing.  A variable with exactly one
up-crossing is assigned the index where the '+' run starts; otherwise it
falls back to a uniform position drawn from a fallback stream.

Rounding the ell-fold lift needs no lifted vectors: its walk is the anchor
plus prefix sums of the base difference steps projected on r, split into
ell sub-steps (ell = 1 is plain rounding).  The walk is antipodal, so only
its forward half is built, by _lifted_walks, and the crossing kernel of
relq._kernels reads it.  lifted_walk_values returns that half with its
exact mirror, so a walk written out is the walk that was rounded.

Trials and streams.  round_lifted_solution(sol, ell, sampler, trials)
reads two streams of one sampler and never advances the sampler itself,
so its outcome, the positions in [0, ell*p) and crossing counts of every
(trial, variable), is a function of the sampler's name and trials (relq
round is trials = 1).  A sampler is its seed and spawn path: it draws from
Philox keyed [seed, 0], and spawn(tag) derives a substream, one or two
levels deep, whose tags sit in the high words of the Philox counter next
to a sampler domain tag (see GaussianSampler).  Trial t's normals are
the t-th slice of dim*ell normals of sampler.spawn(0), and the walks with
no single crossing take their fallback positions, in (trial, variable)
order, from sampler.spawn(1).  Philox is counter-based, so the two streams are
disjoint and the trials, reading disjoint slices of them, are independent.
Each sampler owns one Philox generator, built on its first draw, and the
generator moves with the sampler, so a stream continues across calls and
threads; one sampler must not be drawn from by two threads at once.
A stream continues exactly however its draws are chunked, so a block of
trials is one fill of the normals stream, the walk construction runs once
over the block and one kernel call classifies every (trial, variable)
walk; the memory block size enters no position.

Prefix scan.  A block's walk steps come out of one broadcast matrix
product walk by walk, as (trials, n, ell*p/2), and np.cumsum along a walk
is one chain of dependent adds.  A block of at least _COLUMN_SCAN_WALKS
walks is therefore copied sub-step-major, as (ell*p/2, trials, n), and
summed down its rows, one vector add per sub-step over every walk: the
same additions in the same order, so the same bits, and faster on
round_e2e's blocks (BENCH_round_e2e_column_scan.json).  Each add has a
fixed cost, so a block of fewer walks, such as ell = 1000 (two trials a
block) or one trial, keeps the cumsum along each walk.

One workspace per call: every block's normals, products, prefix sums and
walks are views of one np.empty.  glibc raises its mmap threshold to the
largest mapped chunk freed and trims the heap top only above twice that,
so one allocation sets both from its own size and stays resident, where
separate buffers freed together trimmed the heap and the next call faulted
them back in (BENCH_round_e2e_workspace.json).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from relq._kernels import _check_alpha, _check_int, _check_word, _half_walks, _labels, trace_stats_batch
from relq.constellation import SdpSolutionP, _variable_difference_steps, solution_residuals

ONE_CROSSING = "OneCrossing"
NO_CROSSING = "NoCrossing"
MANY_CROSSINGS = "ManyCrossings"
_STATUS_BY_COUNT = (NO_CROSSING, ONE_CROSSING, MANY_CROSSINGS)  # indexed by min(count, 2)

# walk values plus normals per block of trials in round_lifted_solution:
# 682 trials at n = 4, p = 8, ell = 4, a 0.87 MB workspace with its two
# walk-sized regions.  2**18 would put a 2000-trial ell = 4 e2e in one
# block, a 3.96 MB traced peak against
# test_end_to_end_rounds_in_bounded_memory's 4 MB
_BLOCK_VALUES = 1 << 16
# blocks of at least this many walks sum their prefixes by _column_scan;
# the scan overtook the cumsum between 64 and 260 walks, later as ell grows
_COLUMN_SCAN_WALKS = 256
# Philox counter word 3 of every sampler stream: this tag plus the spawn
# depth.  Every sampler key is [seed, 0]; the package's one other Philox
# consumer, generate_instance, keys word 1 with 0xB5 and starts at
# counter 0, so it shares neither a key nor a counter with any sampler.
_SAMPLER_DOMAIN = 0x72656C71 << 32  # "relq"
_MAX_SPAWN_DEPTH = 2
# 1: Box-Muller over Philox keyed [seed, stream * 2**20 + tag + 1];
# 2: Generator.standard_normal over the keys and counters of GaussianSampler;
# 3: as 2, with conjecture_experiment's r1 shared by all cells from spawn(0)
#    and cell c's r2 from spawn(c + 1)
# 4: as 3, with round_lifted_solution reading a batch's normals from
#    spawn(0) and its fallbacks from spawn(1) of one sampler
# 5: as 4, with conjecture_experiment's r2 shared by all cells from
#    spawn(1) and cell c's walk cos*W1 + sin*W2 of the walks of r1 and r2
# 6: as 5, with every block of the MC drivers reading its own substream:
#    block g of mc_sign_change and mc_correlation_gap from spawn(g), and
#    conjecture_experiment's r1 and r2 of block g from spawn(0).spawn(g)
#    and spawn(1).spawn(g); harness._BLOCK_VALUES normals per walk block,
#    r1 and r2 together, and harness._GAP_BLOCK_ROWS pairs per gap block
STREAM_VERSION = 6


class GaussianSampler:
    """Deterministic N(0,1) source: Generator.standard_normal on Philox.

    A sampler is named by its seed and its path, the tags of up to two
    spawn() calls, each in [0, 2**64).  One name always yields one
    sequence, however the requests are chunked, and the name maps
    injectively to a Philox key and counter start:

        key     = [seed, 0]
        counter = [0, tag 1 or 0, tag 2 or 0, _SAMPLER_DOMAIN + depth]

    Draws advance counter word 0 only, so two distinct samplers share no
    number short of 2**66 draws from one of them.  Each sampler owns one
    Philox generator, built from that key and counter on its first draw,
    so spawning costs almost nothing; the generator moves with the
    sampler, so a stream continues exactly across calls and threads.  One
    sampler must not be drawn from by two threads at once.
    """

    def __init__(self, seed: int):
        self.seed = _check_word("seed", seed)
        self.path: tuple[int, ...] = ()
        self._rng: np.random.Generator | None = None

    def _generator(self) -> np.random.Generator:
        """This sampler's Generator, built on the first draw."""
        if self._rng is None:
            tags = self.path + (0,) * (_MAX_SPAWN_DEPTH - len(self.path))
            key = np.array([self.seed, 0], dtype=np.uint64)
            counter = np.array([0, *tags, _SAMPLER_DOMAIN + len(self.path)], dtype=np.uint64)
            self._rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
        return self._rng

    def sample(self, dim: int) -> np.ndarray:
        return self.fill(np.empty(_check_int("dim", dim, 1)))

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Overwrite the float64 C-contiguous out with the next out.size
        normals, in C order: exactly what sample(out.size) would return."""
        return self._generator().standard_normal(out=out)

    def uniform_below(self, n: int) -> int:
        n = _check_int("n", n, 1)
        return int(self._generator().integers(0, n))

    def spawn(self, tag: int) -> "GaussianSampler":
        if len(self.path) == _MAX_SPAWN_DEPTH:
            raise ValueError(f"substreams nest at most {_MAX_SPAWN_DEPTH} deep")
        child = object.__new__(GaussianSampler)
        child.seed = self.seed
        child.path = self.path + (_check_word("tag", tag),)
        child._rng = None
        return child


@dataclass
class RoundingOutcome:
    """Positions in [0, ell*p) and crossing counts, (trials, n) int64."""

    positions: np.ndarray
    crossing_counts: np.ndarray

    @property
    def statuses(self) -> list[str]:
        """One status string per (trial, variable), row by row."""
        return [_STATUS_BY_COUNT[c] for c in np.minimum(self.crossing_counts, 2).ravel().tolist()]


def detect_extreme_sign_changes(values: np.ndarray, alpha: float) -> list[tuple[int, int]]:
    """All up-crossings (t_minus, t_plus) of the collapsed circular label sequence.

    values is one circular walk.  t_minus is the last index of a '-' run,
    t_plus the first index of the '+' run that follows it.  A walk that
    never leaves (-alpha, alpha) has none.  The rounding path uses the
    half-walk kernel; this is the per-walk reference for any walk,
    antipodal or not.
    """
    _check_alpha(alpha)
    labels = _labels(np.asarray(values, dtype=np.float64), alpha)
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
                events.append((int(last_idx[idx]), int(first_idx[nxt])))
    return events


def _column_scan(sub_steps: np.ndarray, prefix: np.ndarray) -> None:
    """prefix[k] = prefix[k-1] + sub_steps[k] down axis 0, one vector add per sub-step."""
    prefix[...] = sub_steps
    for k in range(1, len(prefix)):
        prefix[k] += prefix[k - 1]


def _lifted_walks(sol: SdpSolutionP, steps: np.ndarray, ell: int, normals: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Forward half-walks (trials, n, ell*p/2) of the lifted solution, built in region.

    steps is _variable_difference_steps(sol), (n, p/2, dim); normals is
    (trials, dim*ell); region is flat, 2*trials*n*ell*p/2 values.  Every
    (p/2 x dim) @ (dim x ell) product is one BLAS call and every anchor
    one dot product, as for a single trial, so a block of trials gives bit
    for bit the values of its trials taken one at a time.

    The products fill region's first half, (trials, n, p/2, ell), and
    their prefix sums its second.  A block of at least _COLUMN_SCAN_WALKS
    walks is summed by _column_scan, one vector add per sub-step over
    every walk, into (ell*p/2, trials, n), and the prefix is its
    transposed view; fewer walks take one np.cumsum along each walk, into
    (trials, n, ell*p/2).  Both make the same additions in the same order.
    The walks then overwrite the products, laid out like the prefix so
    that _half_walks runs in memory order.
    """
    trials = normals.shape[0]
    sub, prefix = region.reshape(2, -1)
    R = normals.reshape(trials, sol.dim, ell)
    scale = 1.0 / np.sqrt(ell)
    products = np.matmul(steps[None], R[:, None], out=sub.reshape(trials, sol.n, -1, ell))  # row-major = sub-step order
    products *= scale
    anchor = (R.sum(axis=2)[:, None, None, :] @ sol.v[None, :, 0, :, None])[:, :, 0, 0] * scale
    walk_steps = products.reshape(trials, sol.n, -1)
    if trials * sol.n < _COLUMN_SCAN_WALKS:
        prefix = np.cumsum(walk_steps, axis=2, out=prefix.reshape(walk_steps.shape))
    else:
        prefix = prefix.reshape(-1, trials, sol.n)
        _column_scan(walk_steps.transpose(2, 0, 1), prefix)
        prefix = prefix.transpose(1, 2, 0)
    return _half_walks(anchor, prefix, 2.0, as_strided(sub, prefix.shape, prefix.strides))


def lifted_walk_values(sol: SdpSolutionP, ell: int, r: np.ndarray) -> np.ndarray:
    """Walk values (n, ell*p) of every variable's lifted constellation, without materializing it.

    The lifted walk applies the original difference steps split into ell
    equal sub-steps, so its values are the anchor plus prefix sums of the
    per-sub-step projections of r.  The forward half is the one the
    rounding classifies and the second half its exact mirror.  Within
    float noise they are the inner products of r with the lifted vectors,
    which are never built.
    """
    ell = _check_int("ell", ell, 1)
    if r.shape != (sol.dim * ell,):
        raise ValueError(f"r has shape {r.shape}, expected ({sol.dim * ell},)")
    half = _lifted_walks(sol, _variable_difference_steps(sol), ell, r[None], np.empty(sol.n * sol.p * ell))[0]
    return np.concatenate((half, -half), axis=1)


def _round_trials(
    sol: SdpSolutionP, steps: np.ndarray, ell: int, sampler: GaussianSampler, trials: int, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positions and crossing counts (trials, n), in blocks of trials.

    A block's normals (block, dim*ell) and the region _lifted_walks
    builds its walks in are views of the call's one workspace, and
    trace_stats_batch reads the walks as (walks, ell*p/2).  A shorter
    last block cuts its regions from the leading part.
    """
    n, dim, half = sol.n, sol.dim * ell, sol.p * ell // 2
    block = min(trials, max(1, _BLOCK_VALUES // (n * half + dim)))
    normals, fallbacks = sampler.spawn(0), sampler.spawn(1)
    work = np.empty(block * (dim + 2 * n * half))
    positions = np.empty((trials, n), dtype=np.int64)
    counts = np.empty_like(positions)
    for t0 in range(0, trials, block):
        m = min(block, trials - t0)
        z = normals.fill(work[: m * dim].reshape(m, dim))
        walks = _lifted_walks(sol, steps, ell, z, work[m * dim : m * (dim + 2 * n * half)])
        block_counts, first_plus = trace_stats_batch(walks.reshape(-1, half), alpha)
        cells = np.flatnonzero(block_counts != 1)
        first_plus[cells] = [fallbacks.uniform_below(2 * half) for _ in range(cells.size)]
        positions[t0 : t0 + m] = first_plus.reshape(-1, n)
        counts[t0 : t0 + m] = block_counts.reshape(-1, n)
    return positions, counts


def round_lifted_solution(
    sol: SdpSolutionP, ell: int, sampler: GaussianSampler, trials: int, alpha: float = 1.0
) -> RoundingOutcome:
    """Round the ell-fold lifted solution trials times, directly from the base solution.

    Trial t's normals are slice t of sampler.spawn(0) and the fallbacks
    come in (trial, variable) order from sampler.spawn(1); positions land
    in [0, ell*p).  The sampler itself is not advanced, and one two
    spawns deep fails in spawn before any draw.  The base solution's
    feasibility is always checked first (max residual 1e-5, and a NaN
    residual fails); the lifted walks are exact functions of it, so no
    lifted vectors are built.
    """
    ell, trials = _check_int("ell", ell, 1), _check_int("trials", trials, 1)
    _check_alpha(alpha)
    worst = float(np.max(list(solution_residuals(sol).values())))
    if not worst <= 1e-5:
        raise ValueError(f"solution infeasible: max residual {worst:.3e}")
    positions, counts = _round_trials(sol, _variable_difference_steps(sol), ell, sampler, trials, alpha)
    return RoundingOutcome(positions=positions, crossing_counts=counts)
