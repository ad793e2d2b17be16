"""Host-speed probe: a fixed loop, timed between units of work.

The benchmark shares a few cores of a host whose speed drifts: the same
fixed work can take 30-70% longer for stretches of ten seconds to a
minute.  The probe does a fixed amount of work of the kinds the workloads
do (a dict over tuple keys and its sort, a gather/scatter over a complex
vector, a stable argsort) with code that lives here, not in the package, so
no change to the package moves it.  `scale` turns a time measured now into
the time the reference host would have taken: it multiplies by REF_S over
the probe's current time, the mean of the probes just before and just
after the measured interval.  `Stopwatch` probes between the parts of a
long unit too, so that a drift within the unit is caught.
"""

from __future__ import annotations

import time

import numpy as np

REPS = 20
# Probe time on the reference host (2-vCPU x86 VM, Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31, in a calm stretch).
REF_S = 0.125
LAP_S = 2.0  # probe between parts only after this much measured work

_rng = np.random.default_rng(20211217)
_KEYS = [tuple(int(v) for v in row) for row in _rng.integers(0, 4, (3000, 8))]
_VALUES = _rng.random(3000)
_AMPS = _rng.random(100_000) + 0j
_PERM = _rng.permutation(100_000)
_CODES = _rng.integers(0, 1000, 20_000)


def _once() -> None:
    table = {key: float(v) for key, v in zip(_KEYS, _VALUES)}
    sorted(table, reverse=True)
    _AMPS[_PERM] = _AMPS[_PERM]
    np.argsort(_CODES, kind="stable")


def probe() -> float:
    """Seconds the fixed probe loop takes now."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _once()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, at REF_S."""
    return seconds * REF_S / ((before + after) / 2)


class Stopwatch:
    """Raw and scaled time of one unit, probed between the unit's parts.

    The unit calls `lap` at each boundary between its parts; the host is
    probed there only once LAP_S of work has passed since the last probe,
    so probing adds about REF_S per LAP_S of measured work.  `stop` closes
    the unit and returns its scaled and raw seconds.
    """

    def __init__(self):
        self._before = probe()
        self._t0 = time.perf_counter()
        self.scaled = self.wall = 0.0

    def lap(self, force: bool = False) -> None:
        t1 = time.perf_counter()
        if not force and t1 - self._t0 < LAP_S:
            return
        after = probe()
        self.wall += t1 - self._t0
        self.scaled += scale(t1 - self._t0, self._before, after)
        self._before = after
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        self.lap(force=True)
        done = (self.scaled, self.wall)
        self.scaled = self.wall = 0.0
        return done
