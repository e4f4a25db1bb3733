"""Host speed, measured by a fixed loop, to scale times to a reference host.

A shared 2-CPU machine runs the same code up to 1.8 times slower in some
minutes than in others, so raw times from runs minutes apart disagree by
far more than any change worth measuring.  The loop below does the
library's kinds of work (QUADPACK with a Python integrand, small-array
numpy, scipy.special) without calling the library, so its time tracks
the host's speed and nothing else.  A run times the loop about once a
second, between ops and around each set-up, and reports its times as
``raw * REFERENCE_S / mean(loop times)``: seconds on a host where the
loop takes ``REFERENCE_S``.  Raw times are reported next to them.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate
from scipy.special import log_ndtr, logsumexp

REFERENCE_S = 0.07
INTERVAL_S = 1.0
_POINTS = np.random.default_rng(0).normal(size=(1024, 2))


def _smooth(u):
    return math.exp(-u * u) * (1.0 + 0.5 * math.cos(u))


def loop_s() -> float:
    """Wall time of one run of the fixed loop."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(20):
        acc += integrate.quad(_smooth, -6.0, 6.0, epsabs=0.0, epsrel=1e-12,
                              limit=200)[0]
        for _ in range(20):
            d = np.sum((_POINTS - _POINTS[::-1]) ** 2, axis=-1)
            acc += float(logsumexp(-d)) + float(log_ndtr(-(acc % 3.0)))
    return time.perf_counter() - start
