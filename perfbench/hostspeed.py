"""How fast the host runs right now, from a fixed calibration kernel.

The benchmark's host is shared: other tenants slow every op by up to 2x
in phases that last from a second to over half a minute, often longer
than a whole run. The timed loop runs a kernel between every two ops.
The kernel does a fixed amount of the kinds of work the workload's ops
spend their time on, so it slows down with the ops around it, and
nothing in the program under test changes its cost. Dividing an op's
time by the slowdown of the kernels either side of it gives the op's
time at the reference speed.

Two variants:

* ``rows``: builds and sorts row dicts, pure Python. The ``design_query``
  ops spend their time materialising cost objects and rows and
  comparing them for the frontier, and slow down like pure Python.
* ``mixed``: the same row work, then elementwise numpy passes over a
  column that does not fit in the L2 cache, like the columnar fold.
  ``pruned_export`` and ``fleet_uplink`` mix both kinds.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Each variant's time (ms) on the reference machine (2-core Intel Xeon,
#: Python 3.11, numpy 2.4) in its fast phases: the lower decile of
#: back-to-back runs over 90 seconds.
KERNEL_REF_MS = {"rows": 10.4, "mixed": 15.8}

#: The kernel variant each workload calibrates with.
WORKLOAD_KERNEL = {"design_query": "rows", "pruned_export": "mixed", "fleet_uplink": "mixed"}

_ROWS = 2_000
_ROW_ROUNDS = 5
_COLUMN = 100_000
_COLUMN_PASSES = 5


def _rows() -> float:
    total = 0.0
    for _ in range(_ROW_ROUNDS):
        rows = [
            {"fps": index * 1.5, "depth": index % 7, "name": str(index)} for index in range(_ROWS)
        ]
        rows.sort(key=lambda row: (row["depth"], -row["fps"]))
        total += rows[0]["fps"]
    return total


def _column() -> float:
    column = np.arange(_COLUMN, dtype=float)
    for _ in range(_COLUMN_PASSES):
        column = np.cumsum(np.sqrt(column + 1.0)) % 1000.0
    return float(column[-1])


def kernel(variant: str) -> float:
    """The fixed calibration work; returns a checksum so none of it is
    optimised away."""
    if variant == "rows":
        return _rows() + _rows()
    return _rows() + _column()


def timed_kernel(variant: str) -> int:
    """Nanoseconds of one kernel run, after a collection pass (as every
    timed op gets)."""
    gc.collect()
    started = time.perf_counter_ns()
    kernel(variant)
    return time.perf_counter_ns() - started


def slowdown(variant: str, before_ns: int, after_ns: int) -> float:
    """The host's slowdown over an op, from the kernels either side of
    it: 1.0 at the reference speed, 2.0 when work takes twice as long."""
    return (before_ns + after_ns) / 2 / (KERNEL_REF_MS[variant] * 1e6)
