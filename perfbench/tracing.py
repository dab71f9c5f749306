"""Spans around the calls into each pairwell module, recorded from outside.

The tracer replaces module attributes with timing wrappers at the names the
callers look up at call time: ``solver.newton_solve`` and
``reduced.newton_solve`` are separate bindings of the same function, and
``pairwell.spectrum`` is the binding the benchmark itself calls.  Nothing
under ``src/`` changes.  Spans stay in memory as (name, start, end, parent,
request) and are written out when the run ends; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import time

import numpy as np

import pairwell
from pairwell import cimethod, cli, perturb, reduced, solver, transcend, wavefn

REQUEST = "bench.request"
_NEWTON = "numerics.newton_solve"
_REDUCED = "reduced._solve_detailed"
_SOLVE = "solver.solve"
_SWEEP = "solver.sweep"
# Children of a reduced solve that are not stage A.
_NOT_STAGE_A = {"cimethod.energy_for_state", _NEWTON, "transcend.verify_solution"}


def _sweep_summary(result) -> tuple[int, int]:
    return len(result.points), sum(point.pair is None for point in result.points)


# (module, attribute, span name, summary of the return value)
_BOUNDARIES = (
    (solver, "solve_with_diagnostics", _SOLVE, None),
    (solver, "sweep", _SWEEP, _sweep_summary),
    (solver, "newton_solve", _NEWTON, lambda report: report.iterations),
    (reduced, "newton_solve", _NEWTON, lambda report: report.iterations),
    (reduced, "_solve_detailed", _REDUCED, None),
    (perturb, "initial_guess", "perturb.initial_guess", None),
    (transcend, "residual", "transcend.residual", None),
    (transcend, "jacobian", "transcend.jacobian", None),
    (transcend, "verify_solution", "transcend.verify_solution", None),
    (cimethod, "energy_for_state", "cimethod.energy_for_state", None),
    (cimethod, "spectrum", "cimethod.spectrum", None),
    (pairwell, "spectrum", "cimethod.spectrum", None),
    (cimethod, "build_hamiltonian", "cimethod.build_hamiltonian",
     lambda hamiltonian: hamiltonian.matrix.shape[0]),
    (wavefn, "simpson_2d", "numerics.simpson_2d", None),
    (wavefn, "normalize", "wavefn.normalize", None),
    (wavefn, "density_grid", "wavefn.density_grid", lambda grid: grid.values.size),
    (wavefn, "triplet_amplitude", "wavefn.triplet_amplitude", np.size),
    (cli, "main", "cli.main", None),
)


class Span:
    __slots__ = ("name", "parent", "request", "start", "end", "raised", "info")

    def __init__(self, name: str, parent: int, request: int):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0
        self.raised = None
        self.info = None


class Tracer:
    """Records spans while ``active``; wrappers are inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.request = -1
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def call(self, name: str, function, args=(), kwargs=None, summary=None):
        if not self.active:
            return function(*args, **(kwargs or {}))
        span = Span(name, self._stack[-1] if self._stack else -1, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            result = function(*args, **(kwargs or {}))
        except BaseException as exc:
            span.end = time.perf_counter_ns()
            span.raised = type(exc).__name__
            self._stack.pop()
            raise
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if summary is not None:
            span.info = summary(result)
        return result

    def install(self) -> None:
        for module, attribute, name, summary in _BOUNDARIES:
            original = getattr(module, attribute)
            self._installed.append((module, attribute, original))
            setattr(module, attribute, self._wrapper(name, original, summary))

    def uninstall(self) -> None:
        while self._installed:
            module, attribute, original = self._installed.pop()
            setattr(module, attribute, original)

    def _wrapper(self, name, original, summary):
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, summary)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,request,parent,name,start_ns,end_ns,raised,info\n")
            for index, span in enumerate(self.spans):
                handle.write(f"{index},{span.request},{span.parent},{span.name},"
                             f"{span.start},{span.end},{span.raised or ''},"
                             f"{'' if span.info is None else span.info}\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as ``{name: (value, unit)}``.

    ``<module>.<function>_s`` is the time inside that function's calls,
    children included; ``<module>.self_s`` excludes the children.  A ratio
    or mean with nothing to count reads 0.
    """
    duration = [span.end - span.start for span in spans]
    children_ns = [0] * len(spans)
    by_name = collections.defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)
        if span.parent >= 0:
            children_ns[span.parent] += duration[index]

    def parent_name(index: int) -> str | None:
        parent = spans[index].parent
        return spans[parent].name if parent >= 0 else None

    def seconds(indices) -> float:
        return sum(duration[i] for i in indices) / 1e9

    def self_seconds(module: str) -> float:
        return sum(duration[i] - children_ns[i] for i, span in enumerate(spans)
                   if span.name.startswith(module + ".")) / 1e9

    lookups = by_name["cimethod.energy_for_state"] + by_name["cimethod.spectrum"]
    builds = by_name["cimethod.build_hamiltonian"]
    missed = {spans[i].parent for i in builds}
    eigensolve_ns = sum(duration[i] - children_ns[i] for i in missed if i >= 0)

    newtons = by_name[_NEWTON]
    converged = [i for i in newtons if spans[i].raised is None]
    converged_set = set(converged)
    iterations = sum(spans[i].info for i in converged)
    newton_residuals = sum(spans[i].parent in converged_set
                           for i in by_name["transcend.residual"])

    reduced_calls = by_name[_REDUCED]
    stage_a_ns = sum(duration[i] for i in reduced_calls) - sum(
        duration[i] for i, span in enumerate(spans)
        if span.name in _NOT_STAGE_A and parent_name(i) == _REDUCED)
    polish = [spans[i].info for i in converged if parent_name(i) == _REDUCED]

    solves = by_name[_SOLVE]
    sweeps = [spans[i].info for i in by_name[_SWEEP] if spans[i].raised is None]
    points = sum(summary[0] for summary in sweeps)
    grid_points = sum(spans[i].info for i in by_name["wavefn.density_grid"]
                      + by_name["wavefn.triplet_amplitude"] if spans[i].raised is None)
    cli_total = seconds(by_name["cli.main"])
    cli_self = self_seconds("cli")

    return {
        "cimethod.lookups": (len(lookups), "count"),
        "cimethod.build_calls": (len(builds), "count"),
        "cimethod.hit_ratio": (_ratio(len(lookups) - len(builds), len(lookups)), "ratio"),
        "cimethod.build_s": (seconds(builds), "s"),
        "cimethod.matrix_dim": (max((spans[i].info for i in builds), default=0), "count"),
        "cimethod.eigensolve_s": (eigensolve_ns / 1e9, "s"),
        "reduced.calls": (len(reduced_calls), "count"),
        "reduced.stage_a_s": (stage_a_ns / 1e9, "s"),
        "reduced.fail_ratio": (_ratio(sum(spans[i].raised is not None for i in reduced_calls),
                                      len(reduced_calls)), "ratio"),
        "reduced.polish_iterations_mean": (_ratio(sum(polish), len(polish)), "iterations"),
        "numerics.newton_calls": (len(newtons), "count"),
        "numerics.newton_s": (seconds(newtons), "s"),
        "numerics.newton_iterations_mean": (_ratio(iterations, len(converged)), "iterations"),
        "numerics.newton_fail_ratio": (_ratio(len(newtons) - len(converged), len(newtons)),
                                       "ratio"),
        "numerics.simpson_2d_s": (seconds(by_name["numerics.simpson_2d"]), "s"),
        "transcend.residual_calls": (len(by_name["transcend.residual"]), "count"),
        "transcend.jacobian_calls": (len(by_name["transcend.jacobian"]), "count"),
        "transcend.residual_evals_per_iteration": (_ratio(newton_residuals, iterations),
                                                   "ratio"),
        "transcend.verify_s": (seconds(by_name["transcend.verify_solution"]), "s"),
        "solver.self_s": (self_seconds("solver"), "s"),
        "solver.newton_per_solve": (_ratio(sum(parent_name(i) == _SOLVE for i in newtons),
                                           len(solves)), "ratio"),
        "solver.sweep_fresh_ratio": (_ratio(sum(parent_name(i) == _SWEEP for i in solves),
                                            points), "ratio"),
        "solver.sweep_gap_ratio": (_ratio(sum(summary[1] for summary in sweeps), points),
                                   "ratio"),
        "perturb.seed_calls": (len(by_name["perturb.initial_guess"]), "count"),
        "perturb.self_s": (self_seconds("perturb"), "s"),
        "wavefn.normalize_s": (seconds(by_name["wavefn.normalize"]), "s"),
        "wavefn.density_grid_s": (seconds(by_name["wavefn.density_grid"]), "s"),
        "wavefn.grid_points": (grid_points, "count"),
        "cli.self_s": (cli_self, "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "cli.format_share": (_ratio(cli_self, cli_total), "ratio"),
    }
