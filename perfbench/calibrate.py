"""Fixed reference work that measures how fast the machine runs right now.

The CPUs of a shared virtual machine change speed by up to 2x, over both
tenths of seconds and tens of seconds, as other tenants come and go, with
no steal time to show for it, so even CPU time moves.  While a unit of
work runs, a timer interrupts it every ``INTERVAL`` seconds to time a
short snippet of fixed work; the unit's time is then also reported
relative to the mean snippet time around and during it.  Slowdowns hit
kinds of work differently, so each workload is calibrated with the kind
of operation it spends its time in:

* ``stream``: a pass over an array larger than the per-core caches (walk
  kernels);
* ``dense``: 48x48 ``eigh`` and a Python loop over small blocks (solver);
* ``scalar``: interpreted Python over tiny arrays (per-trial rounding).

Snippets use only numpy and the standard library, so no change to relq can
move them.  Each sample (two passes) takes a few milliseconds on the
machine the benchmark was tuned on, about 3 % of the unit's time.
"""

import contextlib
import signal
import time

import numpy as np

INTERVAL = 0.2

_rng = np.random.default_rng(20240915)
_WIDE = _rng.standard_normal((64, 4000))
_SYM = _rng.standard_normal((48, 48))
_SYM = _SYM + _SYM.T
_CLS = (np.arange(8)[None, :] - np.arange(8)[:, None]) % 8
_SMALL = _rng.standard_normal(32)


def _stream():
    labels = np.where(_WIDE >= 1.0, 1, 0)
    np.maximum.accumulate(labels, axis=1)
    np.cumsum(_WIDE, axis=1)


def _dense():
    for _ in range(8):
        w, v = np.linalg.eigh(_SYM)
        g = (v * np.clip(w, 0.0, None)) @ v.T
        for i in range(8, 48, 8):
            means = np.zeros(8)
            np.add.at(means, _CLS.ravel(), g[:8, i : i + 8].ravel())
            np.sort(means)


def _scalar():
    for _ in range(200):
        ks = np.flatnonzero(_SMALL > 0.3)
        seq = _SMALL[ks]
        brk = np.flatnonzero(seq[1:] != seq[:-1]) + 1
        np.concatenate(([0], brk))
        sum(int(k) % 7 for k in ks[:4])


KINDS = {"stream": _stream, "dense": _dense, "scalar": _scalar}


class Sampler:
    """Times snippets of one kind of reference work, on demand or on a timer."""

    def __init__(self, kind: str):
        self._work = KINDS[kind]
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in sample(), untimed pass included

    def sample(self, signum=None, frame=None) -> None:
        """Time a second pass of the snippet.  The untimed first pass
        brings its data back into cache after the unit evicted it, so the
        timed pass reads machine speed rather than the unit's cache state."""
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self._work()
        t2 = time.perf_counter()
        self.times.append(t2 - t1)
        self.spent += t2 - t0

    @contextlib.contextmanager
    def during(self):
        """Sample every INTERVAL seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
