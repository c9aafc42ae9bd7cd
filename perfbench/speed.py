"""Machine-speed probe: a fixed piece of work that does not touch locclab.

The reference machine is a 2-vCPU virtual machine on a shared host. Its
speed drifts with the other tenants' load, by up to ~1.8x over minutes:
the same code in two runs a few minutes apart can differ by more than a
timing bound. The probe times a fixed mix of the two kinds of work the
workloads do, an interpreter loop (the game engine, the concentration
enumeration, small brackets) and a dense LAPACK call (the SDP Newton
steps), between the items of a pass. A run reports its timings both
as measured and scaled to the reference speed:

    scaled = measured * REFERENCE_PROBE_S / median(probe times of the pass)

The probe is benchmark code, identical on both sides of a comparison,
so a change to locclab moves the measured time and not the probe: a
regression of the program shows in the scaled time as it does in the
measured one, while a slowdown of the whole machine cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# A typical median of the probes between items on the reference machine
# (2-vCPU Xeon VM, one BLAS thread). Any constant works for comparing two
# commits; this one keeps scaled times close to wall times.
REFERENCE_PROBE_S = 0.0039


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(20251106)
        g = rng.standard_normal((128, 128))
        self._sym = g @ g.T

    def once(self) -> float:
        """Seconds of one probe. An untimed eigh first brings the probe's
        arrays back into cache, so the timed part does not depend on how
        much memory the item before it touched."""
        np.linalg.eigh(self._sym)
        t0 = perf_counter()
        acc = 0
        for i in range(25_000):
            acc += i * i
        np.linalg.eigh(self._sym)
        return perf_counter() - t0

    def factor(self, times: list) -> float:
        """Scale factor from measured to reference seconds."""
        return REFERENCE_PROBE_S / statistics.median(times)
