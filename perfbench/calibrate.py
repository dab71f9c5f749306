"""A fixed reference task that reads the speed of the host at one moment.

The task mixes three kinds of work pairwell's workloads spend their time on:
interpreted float arithmetic (the Newton and Jacobi loops), rotations of
columns 465 long (the Jacobi eigensolve), and float formatting (the CLI's CSV
writer).  It never calls pairwell, so a change to the program cannot change
it.  The proportions were chosen so that the task slows by about as much as
each workload's requests when the host slows (see README.md).  A reading is
the fastest of three back-to-back runs of the task, so that one interruption
does not spoil it.
"""

from __future__ import annotations

import time

import numpy as np

# A reading of the host at its reference speed: about the task's time at the
# fast level of the machine in README.md.  The _ref metrics are stated at
# this speed.
REFERENCE_NS = 1_750_000
_RUNS_PER_READING = 3
_DIM = 465
_COLUMNS = np.add.outer(np.arange(_DIM), np.arange(60)) / _DIM


def _work() -> float:
    total = 0.0
    for i in range(10_000):
        total += (i % 7) * 0.5 - total * 1e-4
    # Orthogonal rotations in place: the columns stay bounded run after run.
    a = _COLUMNS
    for p in range(0, 60, 2):
        c, s = 0.8, 0.6
        col_p = a[:, p].copy()
        col_q = a[:, p + 1].copy()
        a[:, p] = c * col_p - s * col_q
        a[:, p + 1] = s * col_p + c * col_q
    total += float(a[0, 0])
    lines = [f"{i * 1.25e-3:.12g},{total * i:.12g}" for i in range(500)]
    return total + len(lines)


def reading_ns() -> int:
    """The host's current speed, as the reference task's time in nanoseconds."""
    times = []
    for _ in range(_RUNS_PER_READING):
        start = time.perf_counter_ns()
        _work()
        times.append(time.perf_counter_ns() - start)
    return min(times)
