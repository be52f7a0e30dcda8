"""Fixed calibration kernel that tracks how fast the machine runs right now.

On a small host shared with other work, the speed of a core can drift by
2x over tens of seconds without any sign in load or steal time.  Every timed
program run is therefore bracketed by this kernel, and each reported time is
scaled by NOMINAL_S / (kernel time around it): a time reads as it would when
the kernel takes NOMINAL_S.  The kernel mixes the operations the program
spends its time on (complex phase draws, small Gram products and
log-determinants, a scalar Python loop with small numpy calls, a
sort/bincount, and full scans of an array larger than the caches) and never
changes with the program, so the scaling cancels machine drift but not a
change in the program.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# A round figure near the kernel's time on a 2-core x86-64 host with numpy 2.4
# and OpenBLAS, so normalized times read close to raw seconds there.
NOMINAL_S = 0.2


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time."""
    rng = np.random.default_rng(12345)
    start = perf_counter()
    for _ in range(4):
        theta = np.exp(2j * np.pi * rng.random((100, 64, 16)))
    for _ in range(8):
        s = theta[:, :16, :]
        gram = s @ s.conj().swapaxes(-1, -2)
        gram += np.eye(16)
        np.linalg.slogdet(gram)
    pos = rng.random((4000, 2))
    total = 0.0
    for i in range(4000):
        d = float(np.linalg.norm(pos[i] - pos[(i * 7 + 1) % 4000]))
        total += math.log2(1.0 + d**-4.0)
    for i in range(1, 60000):
        total += math.log2(1.0 + i**-1.5)
    ids = (rng.random(500_000) * 1000).astype(int)
    np.argsort(ids, kind="stable")
    np.bincount(ids)
    cells = rng.integers(0, 1000, size=2_000_000)
    for cell in range(20):
        np.flatnonzero(cells == cell)
    return perf_counter() - start
