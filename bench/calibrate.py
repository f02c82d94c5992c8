"""Machine-speed calibration for a shared, noisy host.

On the shared 2-vCPU virtual machines this benchmark was built on, the
same op runs at speeds that differ by up to 2.5x for seconds to minutes at
a time, as neighbours come and go.  Raw wall times then measure the neighbours.  The
worker therefore runs kernel() (about 2 ms, sharing no code with tdho)
before every op, and each latency is rescaled to a machine on which
kernel() takes REF_S:

    scaled = raw * REF_S / (median of the kernel() times around that op)

kernel() mixes scalar Python with small- and large-array numpy, because
the fast spells speed up the two kinds of work by different amounts.  Over
80 s of alternating kernel() with three sample ops, the ops' speed changed
by 2.4-2.6x between 10-sample windows.  Their ratio to kernel() varied by
5-8% (coefficient of variation).  The ops were a solve plus endpoint
kernel, a 512-point CN march and a 256-point Filon quadrature.  Raw times
are printed alongside.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import fft
from scipy.linalg import solve_banded

REF_S = 2.0e-3   # kernel() time on the reference machine
WINDOW = 4       # ops on each side whose kernel() times set an op's scale


_BANDED = np.vstack([np.ones(2048), np.full(2048, 4.0), np.ones(2048)]).astype(complex)


def kernel() -> float:
    """Scalar Python, small-array numpy, and FFT plus banded solves on 2048
    points, in about equal shares: the propagator's and the grid routes' mix."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1500):
        s += math.sin(i * 0.001) * 1.0001
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        a = np.sin(a) + 0.5 * a
    b = np.linspace(0.0, 1.0, 2048) + 0j
    for _ in range(3):
        b = solve_banded((1, 1), _BANDED, fft.ifft(fft.fft(b)))
    return time.perf_counter() - t0


def speed_factors(cal: np.ndarray) -> np.ndarray:
    """REF_S over the running median of kernel() times, one factor per op."""
    cal = np.asarray(cal, dtype=float)
    med = np.array([np.median(cal[max(0, i - WINDOW):i + WINDOW + 1]) for i in range(cal.size)])
    return REF_S / med

