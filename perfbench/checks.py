"""Output checks, run on every request outside its timed interval.

The checks test physical properties, not byte digests, because a correct
optimisation may change the last bits of a result.  Each raises
``CheckFailed`` with the reason; the runner counts the request as failed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from pairwell.errors import PairwellError
from pairwell.transcend import StateLabel, verify_solution

RESIDUAL_CEILING = 1e-10
# Off-diagonal interior points where the singlet amplitude is sampled.  An
# amplitude that vanishes identically (k1 = k2 with ratio sign -1) is zero at
# every one of them; a physical one is not.
_PROBES = np.array([(0.13, 0.71), (0.27, 0.52), (0.38, 0.91), (0.44, 0.63),
                    (0.61, 0.17), (0.83, 0.36), (0.22, 0.08), (0.74, 0.95)])
_AMPLITUDE_FLOOR = 1e-8
_DENSITY_NORM_TOLERANCE = 1e-4
_DENSITY_METADATA_LINES = 7
_SWEEP_HEADER = "U,re_k1,im_k1,re_k2,im_k2,E,residual"

# README quickstart values at U = -1.
_REFERENCE_11 = 3.0600763835967486 + 0.521813447795935j
_REFERENCE_11_ENERGY = 18.18355639829175
_REFERENCE_21 = 6.052027338283273
_REFERENCE_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """A request returned an output that is not a physical answer."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def singlet_nonvanishing(k1: complex, k2: complex, s: int) -> None:
    """The singlet amplitude of (k1, k2) is not identically zero."""
    low = np.minimum(_PROBES[:, 0], _PROBES[:, 1])
    high = np.maximum(_PROBES[:, 0], _PROBES[:, 1])
    first = np.sin(k1 * low) * np.sin(k2 * (1.0 - high))
    second = s * np.sin(k2 * low) * np.sin(k1 * (1.0 - high))
    scale = max(float(np.max(np.abs(first))), float(np.max(np.abs(second))))
    _require(float(np.max(np.abs(first + second))) > _AMPLITUDE_FLOOR * scale,
             f"singlet amplitude vanishes for k1={k1}, k2={k2}, s={s}")


def pair(result) -> None:
    """A solved MomentumPair is a root and a physical state."""
    try:
        residual = verify_solution(result)
    except PairwellError as exc:
        raise CheckFailed(f"verify_solution rejected the pair: {exc}") from None
    _require(residual <= RESIDUAL_CEILING, f"residual {residual:.3e} above ceiling")
    singlet_nonvanishing(result.k1, result.k2, result.case.s)


def spectrum(states, levels: int) -> None:
    """A spectrum has the requested levels, finite and ascending."""
    energies = [state.energy for state in states]
    _require(len(energies) == levels, f"{len(energies)} levels, expected {levels}")
    _require(all(math.isfinite(e) for e in energies), "non-finite CI energy")
    _require(all(a <= b for a, b in zip(energies, energies[1:])),
             f"CI energies not ascending: {energies}")


def reference_11(result) -> None:
    pair(result)
    _require(abs(result.k1 - _REFERENCE_11) <= _REFERENCE_TOLERANCE
             and abs(result.k2 - _REFERENCE_11.conjugate()) <= _REFERENCE_TOLERANCE
             and abs(result.energy - _REFERENCE_11_ENERGY) <= _REFERENCE_TOLERANCE,
             f"solve(-1, 1, 1) = ({result.k1}, {result.k2}) differs from the README")


def reference_21(result) -> None:
    pair(result)
    _require(abs(result.k1 - _REFERENCE_21) <= _REFERENCE_TOLERANCE,
             f"solve(-1, 2, 1).k1 = {result.k1} differs from the README")


def sweep_csv(path: str, n: int, m: int, u_start: float, u_end: float, steps: int) -> int:
    """Check a sweep CSV; returns its number of gap rows.

    A gap row is the program's own report that it found no root at that U.
    It is not a wrong answer, so it is counted here and not raised; the
    runner counts a sweep with any gap row as a failed request.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    _require(lines[:1] == [_SWEEP_HEADER], "sweep CSV header missing")
    _require(len(lines) == steps + 1, f"{len(lines) - 1} sweep rows, expected {steps}")
    grid = np.linspace(u_start, u_end, steps)
    case_sign = StateLabel(n, m).case_sign
    gaps = 0
    for row, expected_u in zip(lines[1:], grid):
        fields = row.split(",")
        _require(len(fields) == 7, f"malformed sweep row {row!r}")
        _require(abs(float(fields[0]) - expected_u) <= 1e-9, f"sweep row at U={fields[0]} off grid")
        if fields[1] == "":
            _require(all(f == "" for f in fields[1:]), f"partial gap row {row!r}")
            gaps += 1
            continue
        re1, im1, re2, im2, _, residual = (float(f) for f in fields[1:])
        _require(residual <= RESIDUAL_CEILING, f"sweep residual {residual:.3e} at U={fields[0]}")
        singlet_nonvanishing(complex(re1, im1), complex(re2, im2), case_sign)
    return gaps


def density_csv(path: str, n: int, m: int, symmetry: str, grid: int) -> None:
    """Check a density CSV: metadata, row count, and unit Simpson integral.

    The table is read one grid row (``grid`` lines) at a time, so the check
    holds far less memory than the program that wrote the file.
    """
    weights = np.ones(grid)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = 1.0 / (grid - 1)
    integral = 0.0
    rows = 0
    with open(path, encoding="utf-8") as handle:
        head = [handle.readline().rstrip("\n") for _ in range(_DENSITY_METADATA_LINES + 1)]
        meta = {}
        for line in head[:_DENSITY_METADATA_LINES]:
            _require(line.startswith("# ") and " = " in line, f"bad metadata line {line!r}")
            key, value = line[2:].split(" = ", 1)
            meta[key] = value
        _require(head[-1] == "x1,x2,density", "density CSV header missing")
        _require(int(meta["n"]) == n and int(meta["m"]) == m, "density metadata labels differ")
        while lines := list(itertools.islice(handle, grid)):
            _require(rows < grid, f"more than {grid} density grid rows")
            block = np.loadtxt(lines, delimiter=",", ndmin=2)
            _require(block.shape == (grid, 3), f"density grid row {rows} has shape {block.shape}")
            values = block[:, 2]
            _require(bool(np.all(np.isfinite(values)) and np.all(values >= 0.0)),
                     "density has negative or non-finite values")
            integral += weights[rows] * float(values @ weights)
            rows += 1
    _require(rows == grid, f"{rows} density grid rows, expected {grid}")
    integral *= (h / 3.0) ** 2
    _require(abs(integral - 1.0) <= _DENSITY_NORM_TOLERANCE,
             f"density integrates to {integral:.6f}")
    if symmetry == "singlet":
        singlet_nonvanishing(complex(meta["k1"]), complex(meta["k2"]), int(meta["s"]))
