"""The machine's speed, probed beside the workload, and times scaled by it.

On the shared 2-CPU machine this benchmark was built on, the same code ran
up to 1.7 times slower from one minute to the next, and by the same factor
for every kind of operation: a cyc (12,6) roundtrip and an ff roundtrip
slowed alike. Two sets of ten runs of identical code then differed by more
than any bound a regression check could use. So the worker runs a fixed
piece of pure-Python work like qscd's (tuple composition, dict updates,
complex arithmetic) between operations, and every time it reports is scaled
by NOMINAL_PROBE_S over the probe's mean time in the same stretch of the
run: times read as on the machine at the probe's nominal speed. The raw
figures stay in the run's record.

The probe is benchmark code and does not change when qscd does, so a
change in the work qscd does shows in full. What the probe cannot tell from
the machine is a change that slows all Python code in the process alike,
such as a much larger heap; the collector is off while it runs, so at least
collections that qscd's live objects make dearer are not charged to it.
"""

from __future__ import annotations

import gc
from time import perf_counter

# About the probe's median time in the runs the reference figures in README.md
# come from (2 CPUs, Python 3.11.7), so scaled times there read close to raw
# ones; README.md gives the measured median.
NOMINAL_PROBE_S = 0.0005
# One probe for every this much operation time, run between operations (a
# burst after a long one), so probes sample the run evenly in time: 2-3%
# of the run.
PROBE_EVERY_S = 0.02
# Probes before and after set-up, to scale setup_s.
SETUP_PROBES = 20


def probe() -> float:
    """Seconds taken by one fixed piece of work.

    The cyclic garbage collector is off while it runs: a collection started
    by the probe's own allocations would cost more when qscd holds more live
    objects, and would charge that to the machine.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        perm = tuple(range(2, 15)) + (1,)
        point = tuple(range(1, 15))
        table = {}
        for i in range(160):
            point = tuple(perm[x - 1] for x in point)
            key = (i & 3, point)
            table[key] = table.get(key, 0j) + complex(i, 1) * 0.5
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def setup_probe() -> float:
    return sum(probe() for _ in range(SETUP_PROBES)) / SETUP_PROBES


def scale(seconds: float, probes) -> float:
    """`seconds` as at the nominal speed, given probe times from the same stretch."""
    probes = list(probes)
    return seconds * NOMINAL_PROBE_S * len(probes) / sum(probes) if probes else seconds

