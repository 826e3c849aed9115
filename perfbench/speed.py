"""A speed probe, so that every time can be read at one reference CPU speed.

On the 2-core virtual machine the benchmark was sized on, the same code ran
20-50 % slower, in CPU time, for spells of a few to tens of seconds, as other
tenants of the host came and went; a spell could cover a whole run.  So
``probe`` times a fixed piece of pure-Python work, written here and
independent of the code under test (a breadth-first product of two small
automata, the same kind of dict-and-tuple work the toolkit does), next to
every measurement.  ``scale`` divides a CPU time by the probe times around
it and multiplies by ``REFERENCE_S``, the probe's usual CPU time on that
machine.  Over 50 s of repeated CLI calls this cut the interquartile range
of one op's CPU time from 0.23-0.29 of its median to 0.08-0.13.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.0016
# Probes on each side of a measurement whose median scales it.
WINDOW = 24


def _product() -> int:
    delta1 = {(q, a): (q * 3 + a) % 17 for q in range(17) for a in range(3)}
    delta2 = {(q, a): (q * 5 + a + 1) % 13 for q in range(13) for a in range(3)}
    seen = {(0, 0)}
    todo = [(0, 0)]
    edges = []
    while todo:
        p, q = todo.pop()
        for a in range(3):
            t = (delta1[(p, a)], delta2[(q, a)])
            edges.append(((p, q), a, t))
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(edges)


def probe() -> float:
    """CPU time of one probe; the garbage collector is off while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(3):
            _product()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference(t: float, probes: list) -> float:
    """CPU time ``t`` at reference speed, by the median of the probes around it."""
    return t * REFERENCE_S / statistics.median(probes)


def scale(times: list, probes: list) -> list:
    """``times[i]`` was taken between ``probes[i]`` and ``probes[i + 1]``;
    returns each at reference speed, by the ``WINDOW`` probes on each side."""
    return [at_reference(t, probes[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i, t in enumerate(times)]
