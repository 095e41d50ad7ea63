"""Host-speed probe: a fixed piece of interpreter work, timed.

On a shared host the speed a process gets flips between a fast and a
slow state every few hundred milliseconds, and the share of slow time
drifts over minutes, which moves whole runs by 15-40%.  A probe's
*host-speed factor* is its time over :data:`PROBE_REFERENCE_S`; dividing
a timing by the factor of probes taken at the same moment reports it at
reference host speed.  The probe shares no code with the package, so a
change to the package cannot move it.

This module imports only the standard library, so the fresh interpreters
that time ``import repro`` can load it before their timing starts.
"""

from __future__ import annotations

import time

#: Mean probe time that a host-speed factor of 1.0 stands for.
PROBE_REFERENCE_S = 0.00025
#: Probes in one burst, about 50 ms of work.
BURST = 200


def speed_probe() -> float:
    """Seconds for a fixed piece of interpreter work (about 0.25 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i % 7
    return time.perf_counter() - t0


def burst_factor(count: int = BURST) -> float:
    """Mean host-speed factor of ``count`` back-to-back probes."""
    return sum(speed_probe() for _ in range(count)) / count / PROBE_REFERENCE_S
