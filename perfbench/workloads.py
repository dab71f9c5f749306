"""Seeded request batches for the four workloads, and how each request runs.

A batch is a fixed list of requests drawn from ``--seed``; the same seed gives
the same list.  A run executes its batch in rounds (see harness.py).  A
request calls pairwell's public API (``pairwell.solve``, ``pairwell.spectrum``)
or its CLI (``cli.main``).  The input ranges stop short of the failure regions
listed in ``known_failures.json``, so that no request fails today and every
failure a later change causes shows as a new one.  Inputs are drawn by
stratified sampling (one uniform draw in each cell of a fixed partition of the
range), so that every seed gives different inputs but about the same mix of
cheap and costly requests.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

import pairwell
from pairwell import cli

NAMES = ("equal", "unequal", "sweep", "density")

# equal: |U| in [0.01, 11], this many cells per sign and per n = 1..4
# (400 requests).  Newton has no convergent start at the double root
# k1 = k2 = n pi for |U| < 0.003, and continuation fails at isolated points in
# U < -11 for n = 2 and n = 4.
_EQUAL_U = (0.01, 11.0)
_EQUAL_CELLS = 50
# unequal: this many cells in each of these ranges of U (8 requests).  The
# reduced solve of (2,1) and (3,2) fails at U <= -4.4.
_UNEQUAL_STRATA = ((-4.0, -2.0), (2.0, 8.0))
_UNEQUAL_CELLS = 4
UNEQUAL_LABELS = ((2, 1), (3, 1), (3, 2))
# CI cutoff of every unequal request, the warm-up and the reference check: a
# 136 x 136 Hamiltonian, whose cold eigensolve takes about 0.3 s.  The
# default cutoff of 30 (465 x 465) takes 6 s to 9 s, longer than the host
# holds one speed (see harness.py).  The cutoff only seeds the reduced solve,
# whose root does not depend on it.
UNEQUAL_N_MAX = 16
SPECTRUM_LEVELS = 4
SWEEP_RANGE = (-12.0, 12.0)
# sweep: (n, n) for n = 1..4, each twice, with an even number of steps from
# 230 to 252 (about 241).  An even count puts no grid point near U = 0, where
# the (n, n) solve has no convergent start (189 steps gives a point at
# U = 1e-15 and a gap row).
_SWEEP_REPEATS = 2
_SWEEP_HALF_STEPS = (115, 127)
# density: 4 singlets (n, n), n in 1..3, and 4 triplets (n, m), n != m in
# 1..4, each with |U| in one of 4 cells of [0.01, 4], on a 201 x 201 grid
# (about 0.2 s a request; 801 x 801 takes 1.5 s to 3 s, longer than the
# host holds one speed).
_DENSITY_CELLS = 4
DENSITY_GRID = 201
CLI_KINDS = ("sweep", "density")
_DENSITY_U = (0.01, 4.0)


@dataclasses.dataclass(frozen=True)
class Request:
    """One closed-loop request: ``kind`` names the entry point, ``args`` its inputs.

    An ``unequal`` request is the spectrum at one U followed by the solves of
    the three unequal states at that U: one eigensystem cache miss and three
    hits.
    """

    kind: str
    args: tuple


def _stratified(rng: np.random.Generator, bounds: tuple[float, float], cells: int) -> np.ndarray:
    """One uniform draw in each of ``cells`` equal cells of ``bounds``."""
    edges = np.linspace(*bounds, cells + 1)
    return edges[:-1] + rng.uniform(0.0, 1.0, cells) * np.diff(edges)


def make_batch(name: str, seed: int) -> list[Request]:
    """The request batch of workload ``name`` for ``seed``, in execution order."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "equal":
        requests = [Request("solve", (float(sign * u), n, n))
                    for n in range(1, 5) for sign in (-1.0, 1.0)
                    for u in _stratified(rng, _EQUAL_U, _EQUAL_CELLS)]
    elif name == "unequal":
        requests = [Request("unequal", (float(u), UNEQUAL_N_MAX)) for bounds in _UNEQUAL_STRATA
                    for u in _stratified(rng, bounds, _UNEQUAL_CELLS)]
    elif name == "sweep":
        requests = [Request("sweep", (n, n, *SWEEP_RANGE, 2 * int(half)))
                    for n in list(range(1, 5)) * _SWEEP_REPEATS
                    for half in [rng.integers(*_SWEEP_HALF_STEPS, endpoint=True)]]
    else:
        requests = []
        for symmetry in ("singlet", "triplet"):
            us = rng.choice((-1.0, 1.0), _DENSITY_CELLS) * _stratified(rng, _DENSITY_U,
                                                                       _DENSITY_CELLS)
            for u in us:
                if symmetry == "singlet":
                    n = m = int(rng.integers(1, 4))
                else:
                    n = int(rng.integers(1, 5))
                    m = (n - 1 + int(rng.integers(1, 4))) % 4 + 1
                requests.append(Request("density", (float(u), n, m, symmetry, DENSITY_GRID)))
    return [requests[i] for i in rng.permutation(len(requests))]


def warmup_requests(name: str) -> list[Request]:
    """One untimed request of each kind, at inputs no batch draws."""
    if name == "equal":
        return [Request("solve", (-1.0, 1, 1)), Request("solve", (-5.0, 2, 2))]
    if name == "unequal":
        return [Request("unequal", (-1.0, UNEQUAL_N_MAX))]
    if name == "sweep":
        return [Request("sweep", (1, 1, -3.0, 3.0, 25))]
    return [Request("density", (-1.0, 1, 1, "singlet", DENSITY_GRID)),
            Request("density", (-1.0, 2, 1, "triplet", DENSITY_GRID))]


def _output_path(scratch_dir: str) -> str:
    return os.path.join(scratch_dir, "out.csv")


def remove_output(scratch_dir: str) -> None:
    """Delete the CSV a CLI request wrote, if any."""
    if os.path.exists(_output_path(scratch_dir)):
        os.remove(_output_path(scratch_dir))


def execute(request: Request, scratch_dir: str):
    """Run one request and return its raw output.

    ``solve`` returns the MomentumPair, ``unequal`` the eigenstate list and
    the three pairs, and the CLI kinds return ``(exit_code, csv_path)``.
    """
    if request.kind == "solve":
        return pairwell.solve(*request.args)
    if request.kind == "unequal":
        u, n_max = request.args
        states = pairwell.spectrum(u, n_max, SPECTRUM_LEVELS)
        return states, [pairwell.solve(u, n, m, n_max=n_max) for n, m in UNEQUAL_LABELS]
    path = _output_path(scratch_dir)
    if request.kind == "sweep":
        n, m, u_start, u_end, steps = request.args
        argv = ["sweep", "--n", str(n), "--m", str(m), "--U-start", repr(u_start),
                "--U-end", repr(u_end), "--steps", str(steps), "--out", path]
    else:
        u, n, m, symmetry, grid = request.args
        argv = ["density", "--U", repr(u), "--n", str(n), "--m", str(m),
                "--grid", str(grid), "--symmetry", symmetry, "--out", path]
    return cli.main(argv), path
