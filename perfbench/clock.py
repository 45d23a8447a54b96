"""Machine-speed probe: the benchmark's times in seconds at a fixed reference speed.

On a shared host the CPU speed of a vCPU swings by up to 1.7x over seconds
to minutes with other tenants' load. A fixed kernel that does not use
vconlab, timed every ``INTERVAL_S`` while the program runs, measures that
speed: the speed at a sample is ``REF_PROBE_S / probe time``. A span of
wall time, with the probes taken out, times the mean speed over it gives
the span in reference seconds: what it would have taken at the reference
speed. The reference is the kernel's time on a 2-vCPU Xeon VM (2.1 GHz
nominal, Python 3.11, numpy 2.4, one BLAS thread) at its fast end.

Code kinds follow the load unequally: small numpy calls slow the most,
bytecode loops, matmuls and sorts less. The kernel mixes all four so that
it sits between the workloads: under one load swing the BLAS-bound
``wide_transition`` slows about 0.8 times as much as the kernel (in log
terms) and the SVD-bound ``lowrank_post_shot`` about 1.3 times, so
reference seconds take out most of the swing, not all of it.

``Sampler`` probes from a SIGALRM handler, so it needs no hook in the code
it watches and keeps probing whatever the program's structure; the
handler runs in the main thread between bytecodes. Probe time is added to
``paused``, which the caller subtracts from its own clock.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_PROBE_S = 0.0026
INTERVAL_S = 0.25

_rng = np.random.default_rng(12345)
_VEC = _rng.standard_normal(64)
_MAT = _rng.standard_normal((128, 128))
_SORT = _rng.standard_normal(65536)


def probe() -> float:
    """Seconds for one fixed mix of bytecode, small numpy calls, matmuls and sorts."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10000):
        s += i * i
    x = _VEC
    for _ in range(400):
        x = np.tanh(x * 0.5 + _VEC)
    m = _MAT
    for _ in range(8):
        m = np.tanh(m @ _MAT * 0.01)
    for _ in range(2):
        np.sort(_SORT)
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Mean speed over probe samples taken at even intervals (1.0 = reference)."""
    return statistics.fmean(REF_PROBE_S / p for p in samples)


class Sampler:
    """Probes every ``INTERVAL_S`` of wall time between ``start`` and ``stop``."""

    def __init__(self, on_pause=None):
        self.samples: list[float] = []
        self.paused = 0.0
        self._on_pause = on_pause
        self._busy = False

    def _take(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(probe())
        spent = time.perf_counter() - t0
        self.paused += spent
        if self._on_pause is not None:
            self._on_pause(spent)
        self._busy = False

    def start(self) -> None:
        self._take()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._take())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()
