"""Host-speed probe: rescales measured seconds to a fixed host speed.

On a shared VM the same solve took anywhere from 0.65 s to 1.2 s, with CPU
time equal to wall time and no steal time, in phases lasting seconds to
minutes.  A fixed amount of Python-and-numpy work that shares no code with
resbvp is timed in a window before every timed interval and after the last
one.  Each interval is scaled by the reference unit time over the unit time
of the windows either side, so it reads as seconds on a host where one probe
unit takes PROBE_REFERENCE_S.  A change to resbvp cannot move the probe.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

PROBE_ITERS = 2000
PROBE_REFERENCE_S = 0.004   # seconds per probe unit that scaled times refer to
PROBE_SHARE = 0.1           # window length as a share of the interval before it
PROBE_MIN_S = 0.02

_MATRIX = np.array([[0.6, -0.8], [0.8, 0.6]])


def probe_unit() -> float:
    z = np.ones(2)
    acc = 0.0
    for _ in range(PROBE_ITERS):
        z = _MATRIX @ z
        acc += float(z[0])
    return acc


class HostProbe:
    def __init__(self):
        self.windows = []   # (units, seconds) of each probe window
        self.timed = []     # seconds of each timed interval, in order

    def window(self) -> None:
        """Probe for a share of the last interval, at least one unit."""
        last = self.timed[-1] if self.timed else 0.0
        seconds = max(PROBE_MIN_S, PROBE_SHARE * last)
        units, start = 0, perf_counter()
        while units == 0 or perf_counter() - start < seconds:
            probe_unit()
            units += 1
        self.windows.append((units, perf_counter() - start))

    def scaled(self) -> list:
        out = []
        for i, t in enumerate(self.timed):
            (u0, s0), (u1, s1) = self.windows[i], self.windows[i + 1]
            out.append(t * (u0 + u1) * PROBE_REFERENCE_S / (s0 + s1))
        return out

    def unit_ms(self) -> float:
        return 1e3 * sum(s for _, s in self.windows) / sum(u for u, _ in self.windows)
