"""A fixed pure-Python reference kernel that tracks the machine's speed.

The benchmark was built on a 2-core machine shared with other tenants,
where the speed of pure-Python code switches by up to 1.6x within seconds
(in CPU time as much as in wall time, so it is not descheduling).  Every timing the benchmark reports is
therefore scaled to a machine on which this kernel takes `REFERENCE_MS`:
`reported = measured * REFERENCE_MS / kernel_ms_now`.  The kernel does the
kind of work linrel's hot loops do (nested loops over tuples, dict lookups,
comparisons) and is measured at most a fraction of a second away from the
requests it scales.  Raw wall-clock figures are printed beside the scaled
ones.  This module imports only `time`, so a set-up probe can measure the
kernel before it imports anything linrel needs.
"""

import time

REFERENCE_MS = 1.0
_REPEATS = 3

_MATRIX = [[(i * 7 + j * 3) % 23 - 11 for j in range(24)] for i in range(24)]
_TABLE = {i: {j: (i * j) % 5 for j in range(8)} for i in range(8)}


def _kernel():
    a = _MATRIX
    out = []
    for row in a:
        r = []
        for z in range(24):
            best = None
            for y in range(24):
                v = row[y] + a[y][z]
                if best is None or v > best:
                    best = v
            r.append(best)
        out.append(tuple(r))
    acc = 0
    for _ in range(40):
        for i in _TABLE:
            for j, v in _TABLE[i].items():
                acc = _TABLE[v][j % 8] + acc
    return out, acc


def kernel_ms() -> float:
    """Mean time of a few kernel runs, in milliseconds."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        _kernel()
    return (time.perf_counter() - t0) * 1e3 / _REPEATS
