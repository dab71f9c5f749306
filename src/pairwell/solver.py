"""Front door: dispatch a (U, n, m) request to the right solve path.

Equal quantum numbers go through the perturbative seed and complex Newton
(continuation from smaller |U| once outside the seed's trust region);
unequal numbers go through the variational-energy reduced path.  Whatever
produced it, a Newton root becomes a pair only through one acceptance gate:
the root is ordered, checked by :func:`transcend.verify_solution` and held
to the fixed residual ceiling 1e-10, whatever Newton tolerance the caller
set, so every pair that leaves this module has passed it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import cimethod, perturb, reduced, transcend
from .errors import PairwellError, SolutionRejected
from .numerics import NewtonConfig, newton_solve
from .transcend import MomentumPair, StateLabel, TranscendentalCase

__all__ = [
    "SolveRequest",
    "SolveDiagnostics",
    "SweepPoint",
    "SweepResult",
    "solve_state",
    "solve",
    "solve_with_diagnostics",
    "sweep",
]

# Step size of the natural continuation used beyond the perturbative trust
# region and the residual ceiling every returned pair must beat.
_CONTINUATION_STEP = 0.5
_RESIDUAL_CEILING = 1e-10
# A continuation step is treated as a branch jump when the momenta move more
# than this factor beyond the previous step's movement.
_GUARD_FACTOR = 10.0


@dataclasses.dataclass(frozen=True)
class SolveRequest:
    """One solve: interaction strength, state label, optional overrides."""

    U: float
    label: StateLabel
    newton: NewtonConfig | None = None
    n_max: int = cimethod.DEFAULT_N_MAX

    def __post_init__(self) -> None:
        cimethod.check_cutoff(self.n_max)


@dataclasses.dataclass(frozen=True)
class SolveDiagnostics:
    """How a solve went: Newton iterations, final residual, path taken."""

    iterations: int
    residual_norm: float
    path: str


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One continuation sample; ``pair`` is None on a gap (failed step)."""

    U: float
    pair: MomentumPair | None
    energy: float | None
    residual_norm: float | None


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Momentum curves along a strength grid for one state."""

    label: StateLabel
    points: list[SweepPoint]

    def column(self, name: str) -> np.ndarray:
        """Curve values with NaN at gaps; names: re_k1, im_k1, re_k2, im_k2, E."""
        values = []
        for point in self.points:
            if point.pair is None:
                values.append(np.nan)
            elif name == "E":
                values.append(point.pair.energy)
            else:
                part, momentum = name.split("_")
                k = point.pair.k1 if momentum == "k1" else point.pair.k2
                values.append(k.real if part == "re" else k.imag)
        return np.array(values)


def _ordered(k1: complex, k2: complex) -> tuple[complex, complex]:
    """Presentation order: Im(k1) > 0 for complex pairs, k1 >= k2 for real."""
    if max(abs(k1.imag), abs(k2.imag)) > 1e-9:
        return (k1, k2) if k1.imag > 0 else (k2, k1)
    return (k1, k2) if k1.real >= k2.real else (k2, k1)


def _exact_noninteracting(label: StateLabel) -> MomentumPair:
    case = TranscendentalCase(U=0.0, s=label.case_sign)
    high, low = max(label.n, label.m), min(label.n, label.m)
    return MomentumPair(high * np.pi, low * np.pi, case, label)


def _newton_pair(case: TranscendentalCase, seed, config: NewtonConfig):
    return newton_solve(
        lambda k: transcend.residual(case, k),
        lambda k: transcend.jacobian(case, k),
        np.asarray(seed, dtype=complex),
        config,
    )


def _accept(case: TranscendentalCase, label: StateLabel,
            solution) -> tuple[MomentumPair, float]:
    """The gate that turns a Newton root into a pair: the ordered pair and
    its verified residual max-norm.

    Raises SolutionRejected when the root is spurious or its residual exceeds
    the fixed ceiling ``_RESIDUAL_CEILING``.  The ceiling does not follow the
    Newton tolerance, so a loose tolerance cannot wave an unrefined seed
    through.
    """
    pair = MomentumPair(*_ordered(*solution), case, label)
    residual_norm = transcend.verify_solution(pair)
    if residual_norm > _RESIDUAL_CEILING:
        raise SolutionRejected(
            f"residual {residual_norm:.3e} exceeds {_RESIDUAL_CEILING:.0e}"
        )
    return pair, residual_norm


def _step(label: StateLabel, U: float, seed, config: NewtonConfig,
          ) -> tuple[MomentumPair, float, int]:
    """Newton from ``seed`` at strength U: accepted pair, residual, iterations.

    Raises NoConvergence or SingularJacobian when Newton fails and
    SolutionRejected when :func:`_accept` turns the root down.
    """
    case = TranscendentalCase(U=U, s=label.case_sign)
    report = _newton_pair(case, seed, config)
    pair, residual_norm = _accept(case, label, report.solution)
    return pair, residual_norm, report.iterations


def _solve_identical(U: float, label: StateLabel, config: NewtonConfig,
                     ) -> tuple[MomentumPair, SolveDiagnostics]:
    if abs(U) <= perturb.TRUST_REGION:
        pair, residual_norm, iterations = _step(
            label, U, perturb.initial_guess(label, U), config)
        return pair, SolveDiagnostics(iterations, residual_norm, "perturbative")

    # March from the trust-region edge out to U, reseeding Newton with the
    # previous root at every step.
    edge = np.copysign(perturb.TRUST_REGION, U)
    steps = int(np.ceil((abs(U) - perturb.TRUST_REGION) / _CONTINUATION_STEP))
    grid = np.linspace(edge, U, steps + 1)
    seed = perturb.initial_guess(label, float(grid[0]))
    iterations = 0
    for strength in grid:
        pair, residual_norm, step_iterations = _step(
            label, float(strength), seed, config)
        seed = (pair.k1, pair.k2)
        iterations += step_iterations
    return pair, SolveDiagnostics(iterations, residual_norm, "continuation")


def solve_with_diagnostics(request: SolveRequest) -> tuple[MomentumPair, SolveDiagnostics]:
    """Like :func:`solve_state`, also reporting iteration counts and path."""
    label = request.label
    config = request.newton or NewtonConfig()
    U = float(request.U)
    if U == 0.0:
        # The quantization conditions are degenerate at the double root
        # k1 = k2 = n pi, so the non-interacting answer is returned directly.
        pair = _exact_noninteracting(label)
        residual_norm = transcend.verify_solution(pair)
        return pair, SolveDiagnostics(0, residual_norm, "exact-zero")
    if label.n == label.m:
        return _solve_identical(U, label, config)
    solution, iterations = reduced._solve_detailed(U, label, request.n_max, config)
    pair, residual_norm = _accept(TranscendentalCase(U=U, s=label.case_sign),
                                  label, solution)
    return pair, SolveDiagnostics(iterations, residual_norm, "reduced")


def solve_state(request: SolveRequest) -> MomentumPair:
    """Momentum pair for one state at one interaction strength."""
    return solve_with_diagnostics(request)[0]


def solve(U: float, n: int, m: int, *, newton: NewtonConfig | None = None,
          n_max: int = cimethod.DEFAULT_N_MAX) -> MomentumPair:
    """Convenience wrapper building the request from bare numbers."""
    return solve_state(SolveRequest(U=U, label=StateLabel(n=n, m=m),
                                    newton=newton, n_max=n_max))


def sweep(label: StateLabel, u_start: float, u_end: float, steps: int,
          *, newton: NewtonConfig | None = None,
          n_max: int = cimethod.DEFAULT_N_MAX) -> SweepResult:
    """Solve along a uniform strength grid by natural continuation.

    The march starts at the grid point nearest zero (where seeds are
    guaranteed good) and works outward, each point one validated Newton step
    seeded with the previous root and held to the same residual ceiling as
    :func:`solve_state`.  The first point of each directional chain, and any
    point after a failure, is solved fresh through
    :func:`solve_with_diagnostics`.  A
    step whose momenta move more than ten times the previous step's movement
    is treated as a branch jump and re-solved fresh; a step that still fails
    is recorded as a gap and the march continues.
    """
    if steps < 2:
        raise ValueError("a sweep needs at least 2 steps")
    config = newton or NewtonConfig()
    grid = np.linspace(u_start, u_end, steps)
    delta_u = abs(grid[1] - grid[0])
    points: dict[int, SweepPoint] = {}

    def fresh(strength: float) -> tuple[MomentumPair, float]:
        pair, diagnostics = solve_with_diagnostics(SolveRequest(
            U=strength, label=label, newton=config, n_max=n_max))
        return pair, diagnostics.residual_norm

    def march(indices: list[int]) -> None:
        previous: MomentumPair | None = None
        previous_delta: float | None = None
        for index in indices:
            strength = float(grid[index])
            pair = None
            if previous is not None:
                try:
                    pair, residual_norm, _ = _step(
                        label, strength, (previous.k1, previous.k2), config)
                except PairwellError:
                    pass
                if pair is not None and previous_delta is not None:
                    movement = max(abs(pair.k1 - previous.k1),
                                   abs(pair.k2 - previous.k2))
                    if movement > _GUARD_FACTOR * max(previous_delta, delta_u):
                        pair = None
            if pair is None:
                try:
                    pair, residual_norm = fresh(strength)
                except PairwellError:
                    pair = None
            if pair is None:
                points[index] = SweepPoint(strength, None, None, None)
                previous = None
                previous_delta = None
                continue
            if previous is not None:
                previous_delta = max(abs(pair.k1 - previous.k1),
                                     abs(pair.k2 - previous.k2))
            points[index] = SweepPoint(strength, pair, pair.energy,
                                       residual_norm)
            previous = pair

    order = [int(i) for i in np.argsort(np.abs(grid), kind="stable")]
    negative = [i for i in order if grid[i] < 0.0]
    positive = [i for i in order if grid[i] > 0.0]
    exact = _exact_noninteracting(label)
    for index in np.flatnonzero(grid == 0.0):
        points[int(index)] = SweepPoint(0.0, exact, exact.energy, 0.0)
    march(negative)
    march(positive)

    return SweepResult(label=label, points=[points[i] for i in range(steps)])
