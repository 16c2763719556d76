"""Host-speed probes: put job times on one scale across busy and quiet moments.

The benchmark runs on shared cores whose speed changes from moment to moment:
a fixed piece of pure-Python work runs up to about 1.8 times slower while a
neighbour keeps the core busy, and such phases last from seconds to minutes.
Raw wall times of the same job list then spread by 20 to 40 % between runs.

A probe is a fixed piece of work of the same kind as the jobs, which touches
no ``cycibl`` code.  ``probe()`` times a loop of ``Fraction`` arithmetic,
tuple keys and dict updates, the work of the in-process jobs.  For jobs that
are whole CLI processes ``spawn_probe()`` times a bare interpreter start
instead: process start is slowed less by a busy neighbour than pure-Python
work is, and the loop over-corrected those jobs.  The worker runs its probe
right after set-up and after every job, outside the job's timing, and a
job's time on the reference scale is

    wall * ref / (median of the four probes nearest the job)

(two before it and two after it, fewer at the ends of the list, so that one
probe caught in a short burst does not skew the job).  ``ref`` is the
probe's time on a quiet core of the 2.1 GHz Xeon (2 vCPUs) the benchmark was
written on (``REF_PROBE_S``, ``REF_SPAWN_S``), so the figures read as that
host's quiet wall times.  A change to ``cycibl`` moves reference-scale times
as it moves raw times; only the host's speed is divided out.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

REF_PROBE_S = 0.00175
REF_SPAWN_S = 0.0195


def _work() -> Fraction:
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
    return acc


def probe() -> float:
    """Seconds the fixed probe loop takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def spawn_probe() -> float:
    """Seconds a bare interpreter start (no site, one stdlib import) takes now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "import fractions"], check=True)
    return time.perf_counter() - t0


def on_reference_scale(walls: list[float], probes: list[float],
                       ref: float) -> list[float]:
    """Job times on the reference scale of a probe whose quiet time is
    ``ref``; ``probes[j]`` ran just before job ``j`` and ``probes[j + 1]``
    just after it."""
    if len(probes) != len(walls) + 1:
        raise ValueError("need one probe before each job and one after the last")
    return [w * ref / statistics.median(probes[max(0, j - 1):j + 3])
            for j, w in enumerate(walls)]


_work()  # warm the loop once, so the first probe is not an outlier
