"""Machine-speed probe: job times in reference seconds.

On a shared host the speed of one CPU drifts: a fixed pure-Python loop runs
20-37 ms in spells of seconds to minutes, in process time as well as in wall
time, so neither a longer run nor the best of several passes removes the
drift from a job's time.  The benchmark therefore times this probe, a fixed
mix of interpreter loops, Fraction arithmetic, dict updates and sorting,
between consecutive jobs, and scales each job's time by the probe's speed
around it:

    reference seconds = seconds * (PROBE_REF_S / median of the probes near the job) ** sensitivity

"Near" is the probes just before and just after the job and every other
probe within WINDOW_S seconds of it: the drift is slow next to a short job,
and a median of several probes is not thrown by one probe that was
interrupted, while a long job is scaled by the probes taken around it
alone.  A reference second is a second on a machine on which the probe
takes PROBE_REF_S.  The probe is the benchmark's own code and calls nothing
in zetalab, so a change to zetalab moves the job times and leaves the probe
alone.

The sensitivity is 1 unless a workload sets another
(jobs.SPEED_SENSITIVITY).  Jobs that spend part of their time in numpy's C
loops slow down less than the probe in a slow spell, so a full correction
overshoots on them.  Because PROBE_REF_S is close to the probe's usual
time, the sensitivity changes how much of the drift is taken out, not the
level of the figures.

Of the probe mixes tried on a 2-CPU shared x86-64 container, this one cut
the run-to-run spread of a fixed job list's time the most: from 15-17% to
1-3% on q_lattice and from 12% to 2-3% on euler.  Adding a pointer chase
through a large list made it worse on q_lattice, and adding small numpy
array operations did not help on euler.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# the probe's median time on a 2-CPU shared x86-64 container, so that
# reference seconds there read close to wall seconds
PROBE_REF_S = 0.0015
WINDOW_S = 0.1

_SHUFFLED = list(range(1_000))
random.Random(1).shuffle(_SHUFFLED)


def _work() -> int:
    s = 0
    for i in range(7_000):
        s += i * i % 7
    x = Fraction(1)
    for i in range(1, 100):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    counts: dict[int, int] = {}
    for i in range(1_000):
        k = i * 7 % 1009
        counts[k] = counts.get(k, 0) + 1
    return s + len(sorted(_SHUFFLED)) + x.numerator % 7 + len(counts)


def probe() -> tuple[float, float]:
    """(midpoint on the time.perf_counter clock, wall seconds) of one run of
    the fixed probe work."""
    t0 = time.perf_counter()
    _work()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def reference_times(spans: list[tuple[float, float]],
                    probes: list[tuple[float, float]],
                    sensitivity: float = 1.0) -> list[float]:
    """Reference seconds of consecutive timed spans (start, end) on the
    time.perf_counter clock; probes[j] was taken just before span j and
    probes[j + 1] just after it.  `sensitivity` is how closely the timed
    work follows the probe's speed: the scale factor is raised to it."""
    assert len(probes) == len(spans) + 1
    out = []
    for j, (start, end) in enumerate(spans):
        near = [seconds for k, (at, seconds) in enumerate(probes)
                if k in (j, j + 1) or start - WINDOW_S <= at <= end + WINDOW_S]
        out.append((end - start) * (PROBE_REF_S / statistics.median(near)) ** sensitivity)
    return out
