"""A fixed reference kernel that measures how fast the machine runs right now.

The kernel uses only Python and numpy, never the program, so a change to
the program cannot change it.  Its mix follows the program's: interpreted
float arithmetic, ufuncs on small arrays, a small symmetric eigensolve and
JSON encoding.  See "Calibration" in README.md.
"""

import json
import statistics
from time import perf_counter

import numpy as np

# Nominal kernel time: about the median of kernel() in the fast phases of
# the machine described in README.md.  A time "at reference speed" is a wall
# time scaled by KERNEL_S / (the kernel's wall time measured next to it).
KERNEL_S = 1.15e-3

_X = np.linspace(0.1, 10.0, 64)
_M = np.array([[4.0, 1.0, 0.5, 0.0], [1.0, 3.0, 0.25, 0.5],
               [0.5, 0.25, 2.0, 0.1], [0.0, 0.5, 0.1, 1.5]])


def kernel() -> float:
    s = 0.0
    for k in range(160):
        y = np.log(_X + k) * 0.5
        s += float(np.exp(-y).sum())
        for j in range(16):
            s += (j * 0.5 + k) ** 0.5 / (1.0 + j)
    s += float(np.linalg.eigvalsh(_M + s * 1e-12).sum())
    s += len(json.dumps([{"a": k * 0.1, "b": k / 3.0, "pass": True} for k in range(24)]))
    return s


def kernel_s() -> float:
    """Wall time of one kernel() call, in seconds."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def kernel_s_median(repeats: int = 5) -> float:
    """Median kernel time over ``repeats`` calls, after one untimed call."""
    kernel()
    return statistics.median(kernel_s() for _ in range(repeats))
