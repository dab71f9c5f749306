"""Command-line front end.

Subcommands: ``solve`` (one momentum pair), ``sweep`` (strength-grid curves
as CSV), ``density`` (probability-density grid as CSV), ``ci`` (variational
spectrum table).  Output is deterministic: identical invocations produce
byte-identical streams.  Exit codes: 0 success, 1 usage error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import IO, Sequence

import numpy as np

from . import cimethod, solver, wavefn
from .errors import (
    DegenerateState,
    LabelNotFound,
    NoConvergence,
    ReductionFailed,
    SingularJacobian,
    SolutionRejected,
)
from .numerics import NewtonConfig
from .transcend import MomentumPair, StateLabel

__all__ = ["main", "entry", "OutputRecord"]

_SCHEMA_VERSION = "1"
_USAGE_ERROR = 1
_NUMERICAL_ERROR = 2
_NUMERICAL_FAILURES = (
    NoConvergence,
    SingularJacobian,
    ReductionFailed,
    SolutionRejected,
    DegenerateState,
    LabelNotFound,
)


@dataclasses.dataclass(frozen=True)
class OutputRecord:
    """Machine-readable result envelope for JSON output."""

    schema_version: str
    command: str
    inputs: dict
    results: dict

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)


def _csv_number(value: float) -> str:
    return f"{value:.12g}"


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags by default; the contract here
    # reserves 2 for numerical failures.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pairwell",
                     description="Momentum pairs of two contact-interacting "
                                 "electrons in a 1D infinite well.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one state")
    p_solve.add_argument("--U", type=float, required=True,
                         help="dimensionless interaction strength")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--m", type=int, required=True)
    p_solve.add_argument("--format", choices=("json", "csv"), default="json")
    p_solve.add_argument("--tol", type=float, default=1e-12,
                         help="Newton residual tolerance; a pair must still meet "
                              "the fixed 1e-10 residual ceiling, so a value above "
                              "it can exit 2")
    p_solve.add_argument("--basis", type=int, default=cimethod.DEFAULT_N_MAX,
                         help="variational cutoff for the n != m path")
    p_solve.set_defaults(handler=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="continuation sweep over U")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--m", type=int, required=True)
    p_sweep.add_argument("--U-start", type=float, required=True)
    p_sweep.add_argument("--U-end", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", type=str, default=None,
                         help="write CSV here instead of stdout")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_density = sub.add_parser("density", help="probability-density grid")
    p_density.add_argument("--U", type=float, required=True)
    p_density.add_argument("--n", type=int, required=True)
    p_density.add_argument("--m", type=int, required=True)
    p_density.add_argument("--grid", type=int, default=201,
                           help="odd samples per axis")
    p_density.add_argument("--symmetry", choices=("singlet", "triplet"),
                           default="singlet")
    p_density.add_argument("--out", type=str, default=None)
    p_density.set_defaults(handler=_cmd_density)

    p_ci = sub.add_parser("ci", help="variational spectrum")
    p_ci.add_argument("--U", type=float, required=True)
    p_ci.add_argument("--basis", type=int, required=True)
    p_ci.add_argument("--levels", type=int, required=True)
    p_ci.add_argument("--format", choices=("json", "csv"), default="json")
    p_ci.set_defaults(handler=_cmd_ci)

    return parser


def _pair_results(pair: MomentumPair, diagnostics: solver.SolveDiagnostics) -> dict:
    return {
        "re_k1": pair.k1.real,
        "im_k1": pair.k1.imag,
        "re_k2": pair.k2.real,
        "im_k2": pair.k2.imag,
        "energy": pair.energy,
        "residual_norm": diagnostics.residual_norm,
        "iterations": diagnostics.iterations,
        "case_sign": pair.case.s,
    }


def _cmd_solve(args, out: IO[str]) -> int:
    request = solver.SolveRequest(
        U=args.U,
        label=StateLabel(n=args.n, m=args.m),
        newton=NewtonConfig(residual_tolerance=args.tol),
        n_max=args.basis,
    )
    pair, diagnostics = solver.solve_with_diagnostics(request)
    results = _pair_results(pair, diagnostics)
    if args.format == "json":
        record = OutputRecord(
            schema_version=_SCHEMA_VERSION,
            command="solve",
            inputs={"U": args.U, "n": args.n, "m": args.m,
                    "tol": args.tol, "basis": args.basis},
            results=results,
        )
        out.write(record.to_json() + "\n")
    else:
        keys = list(results)
        out.write(",".join(["U", "n", "m"] + keys) + "\n")
        row = [_csv_number(args.U), str(args.n), str(args.m)]
        row += [_csv_number(results[k]) if isinstance(results[k], float)
                else str(results[k]) for k in keys]
        out.write(",".join(row) + "\n")
    return 0


def _sweep_csv_lines(result: solver.SweepResult):
    yield "U,re_k1,im_k1,re_k2,im_k2,E,residual"
    for point in result.points:
        if point.pair is None:
            yield f"{_csv_number(point.U)},,,,,,"
            continue
        pair = point.pair
        fields = [
            _csv_number(point.U),
            _csv_number(pair.k1.real),
            _csv_number(pair.k1.imag),
            _csv_number(pair.k2.real),
            _csv_number(pair.k2.imag),
            _csv_number(pair.energy),
            _csv_number(point.residual_norm),
        ]
        yield ",".join(fields)


def _cmd_sweep(args, out: IO[str]) -> int:
    result = solver.sweep(StateLabel(n=args.n, m=args.m),
                          args.U_start, args.U_end, args.steps)
    for line in _sweep_csv_lines(result):
        out.write(line + "\n")
    return 0


def _density_csv_lines(grid: wavefn.DensityGrid):
    yield f"# U = {_csv_number(grid.U)}"
    yield f"# n = {grid.label.n}"
    yield f"# m = {grid.label.m}"
    yield (f"# k1 = {_csv_number(grid.pair.k1.real)}"
           f"{grid.pair.k1.imag:+.12g}j")
    yield (f"# k2 = {_csv_number(grid.pair.k2.real)}"
           f"{grid.pair.k2.imag:+.12g}j")
    yield f"# s = {grid.s}"
    yield f"# norm = {_csv_number(grid.norm)}"
    yield "x1,x2,density"
    # One string per grid row: the axis is formatted once, and "%.12g" on a
    # Python float gives the same digits as _csv_number.
    axis = [_csv_number(x) for x in grid.axis().tolist()]
    columns = [f",{x2},%.12g" for x2 in axis]
    for x1, row in zip(axis, grid.values):
        yield (x1 + ("\n" + x1).join(columns)) % tuple(row.tolist())


def _cmd_density(args, out: IO[str]) -> int:
    label = StateLabel(n=args.n, m=args.m)
    if args.symmetry == "triplet":
        grid = wavefn._triplet_grid(args.U, label, args.grid)
    else:
        pair = solver.solve_state(solver.SolveRequest(U=args.U, label=label))
        grid = wavefn.density_grid(wavefn.normalize(pair), args.grid)
    for line in _density_csv_lines(grid):
        out.write(line + "\n")
    return 0


def _cmd_ci(args, out: IO[str]) -> int:
    states = cimethod.spectrum(args.U, args.basis, args.levels)
    rows = [
        {
            "level": index,
            "energy": state.energy,
            "n": state.dominant_label.n,
            "m": state.dominant_label.m,
            "leading_coefficient": float(np.max(np.abs(state.coefficients))),
        }
        for index, state in enumerate(states)
    ]
    if args.format == "json":
        record = OutputRecord(
            schema_version=_SCHEMA_VERSION,
            command="ci",
            inputs={"U": args.U, "basis": args.basis, "levels": args.levels},
            results={"levels": rows},
        )
        out.write(record.to_json() + "\n")
    else:
        out.write("level,energy,n,m,leading_coefficient\n")
        for row in rows:
            out.write(
                f"{row['level']},{_csv_number(row['energy'])},{row['n']},"
                f"{row['m']},{_csv_number(row['leading_coefficient'])}\n"
            )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    out_path = getattr(args, "out", None)
    try:
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8") as handle:
                return args.handler(args, handle)
        return args.handler(args, sys.stdout)
    except _NUMERICAL_FAILURES as exc:
        print(f"pairwell: numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        print(f"pairwell: error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


def entry() -> None:
    raise SystemExit(main())
