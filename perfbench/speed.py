"""Machine-speed references, for timings that hold still on a shared host.

On a shared 2-vCPU Xeon VM, work from neighbouring guests slows every
process by up to ~2x for seconds to minutes at a time, so the median of
raw wall times moves with the share of slow phases in a run.  The
benchmark therefore times a fixed reference, which does not touch the
program, right before and right after each timing, and scales the timing
by the reference's nominal time over the mean of the two reference times:
the result is the wall time on a machine on which the reference takes its
nominal time (about what it takes on that VM when nothing contends).

Two references, each doing what the timing it scales does:

* ``probe()`` for the jobs: Python-level float recurrences with a function
  call per index, string formatting of rows and a numpy pass over an
  array, like the program's hot loops.  Nominal time ``REF_PROBE_S``.
* ``SPAWN_PROBE`` for start-up: a fresh interpreter that imports numpy,
  the bulk of what a fresh ``jacobi-spectra`` process does before its
  own code runs.  Nominal time ``REF_SPAWN_S``.
"""

import gc
import math
import time

import numpy as np

REF_PROBE_S = 0.015
SPAWN_PROBE = "import numpy"
REF_SPAWN_S = 0.135
_STEPS = 40_000
_ARRAY = np.linspace(0.0, 1.0, 50_000)


def _coef(n):
    return math.sqrt(n * (n + 1.0))


def probe():
    """Wall seconds of one run of the fixed probe work.

    The garbage collector is off while it runs, so that the objects the
    program left alive do not change the probe's time.
    """
    gc.disable()
    try:
        return _timed_work()
    finally:
        gc.enable()


def _timed_work():
    t0 = time.perf_counter()
    u0, u1, rows = 0.0, 1.0, []
    for n in range(1, _STEPS):
        a = _coef(n)
        u0, u1 = u1, ((0.5 - 2.0 * n) * u1 - a * u0) / (a + 1.0)
        m = abs(u1)
        if m > 1e100:
            u0, u1 = u0 / m, u1 / m
        if n % 8 == 0:
            rows.append("%d,%.6e" % (n, u1))
    int(np.count_nonzero(np.cumsum(_ARRAY) > 10.0))
    return time.perf_counter() - t0


def scaled(wall, before, after, nominal=REF_PROBE_S):
    """``wall`` seconds scaled to the reference speed, from the reference
    times taken right before and right after it."""
    return wall * 2.0 * nominal / (before + after)
