"""Self-contained numerical kernels.

Damped Newton iteration and composite Simpson quadrature in one and two
dimensions.  Newton runs in the dtype of its seed, complex or real, and
solves 2x2 steps in closed form.  Everything here is a pure function of its
inputs and safe to call concurrently.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import BadPanelCount, NoConvergence, SingularJacobian

__all__ = [
    "NewtonConfig",
    "NewtonReport",
    "newton_solve",
    "simpson_1d",
    "simpson_2d",
]

# Trial steps of the Newton line search before the last halved step is taken.
_MAX_HALVINGS = 20


@dataclasses.dataclass(frozen=True)
class NewtonConfig:
    """Tunables for :func:`newton_solve`.

    ``residual_tolerance`` is tested against the max-norm of the residual,
    ``step_tolerance`` against the max-norm of the damped update.  Every step
    is damped by a halving line search of at most ``_MAX_HALVINGS`` trials.
    """

    max_iterations: int = 100
    residual_tolerance: float = 1e-12
    step_tolerance: float = 1e-14

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        # Chained comparisons are false for nan as well as out of range.
        if not (0.0 < self.residual_tolerance < np.inf
                and 0.0 < self.step_tolerance < np.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclasses.dataclass(frozen=True)
class NewtonReport:
    """Outcome of a Newton run.

    ``converged`` implies ``final_residual_norm <= residual_tolerance``.
    """

    solution: NDArray[np.complex128]
    iterations: int
    final_residual_norm: float
    converged: bool


def _as_vector(x) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x))
    if v.ndim != 1:
        raise ValueError("expected a one-dimensional vector")
    if np.iscomplexobj(v):
        return v.astype(np.complex128)
    return v.astype(np.float64)


def _max_norm(v: np.ndarray) -> float:
    """Max-norm over the real and imaginary parts taken separately.

    This is the max-norm of the stacked real vector (Re v, Im v), so a complex
    iteration meets the same tolerances as the equivalent real system.
    """
    return float(np.abs(v.view(np.float64)).max())


def _newton_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jac @ step = rhs``; 2x2 systems by Cramer's rule."""
    if jac.shape == (2, 2):
        (a, b), (c, d) = jac.tolist()
        det = a * d - b * c
        if det == 0:
            raise SingularJacobian("jacobian is singular")
        r0, r1 = rhs.tolist()
        step = np.array([(d * r0 - b * r1) / det, (a * r1 - c * r0) / det])
    else:
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
    if not np.isfinite(step).all():
        raise SingularJacobian("linear solve overflowed")
    return step


def newton_solve(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    x0,
    config: NewtonConfig | None = None,
) -> NewtonReport:
    """Solve ``residual_fn(x) = 0`` by damped Newton iteration.

    The iteration runs in the dtype of the seed: a complex seed takes complex
    Newton steps, which for an analytic residual are exactly the steps of the
    stacked 2N-dimensional real system, and a real seed stays real.  A 2x2
    step is solved in closed form, larger ones by LAPACK.  The step is halved
    until the residual norm decreases or the halving budget runs out; the
    accepted trial residual is kept, so an undamped iteration evaluates the
    residual once.  Norms are taken over real and imaginary parts separately.

    Raises:
        SingularJacobian: the jacobian is singular or not finite, or the
            linear solve produced non-finite values.
        NoConvergence: the iteration budget was exhausted or the step fell
            below tolerance first; the best iterate is attached to the
            exception as a ``NewtonReport``.
    """
    cfg = config or NewtonConfig()
    x = _as_vector(x0)
    n, dtype = x.size, x.dtype

    def eval_residual(z: np.ndarray) -> np.ndarray:
        r = np.ascontiguousarray(residual_fn(z), dtype=dtype)
        if r.shape != (n,):
            raise ValueError("residual dimension does not match the unknown vector")
        return r

    def eval_jacobian(z: np.ndarray) -> np.ndarray:
        j = np.atleast_2d(np.asarray(jacobian_fn(z), dtype=dtype))
        if j.shape != (n, n):
            raise ValueError("jacobian shape does not match the unknown vector")
        if not np.isfinite(j).all():
            raise SingularJacobian("jacobian has non-finite entries")
        return j

    # Trial points may overflow; a non-finite trial norm just fails the line
    # search.
    with np.errstate(over="ignore", invalid="ignore"):
        r = eval_residual(x)
        if not np.isfinite(r).all():
            raise ValueError("residual is not finite at the initial point")
        rnorm = best_norm = _max_norm(r)
        best_x = x
        steps = 0
        stalled = False
        while True:
            if rnorm < best_norm:
                best_norm, best_x = rnorm, x
            if rnorm <= cfg.residual_tolerance:
                return NewtonReport(
                    solution=x.astype(np.complex128),
                    iterations=steps,
                    final_residual_norm=rnorm,
                    converged=True,
                )
            if stalled or steps >= cfg.max_iterations:
                break

            step = _newton_step(eval_jacobian(x), -r)
            scale = 1.0
            for _ in range(_MAX_HALVINGS):
                trial_x = x + scale * step
                trial = eval_residual(trial_x)
                trial_norm = _max_norm(trial)
                # False for nan and inf trials as well as for no decrease.
                if trial_norm < rnorm:
                    x, r, rnorm = trial_x, trial, trial_norm
                    break
                scale *= 0.5
            else:
                x = x + scale * step
                r = eval_residual(x)
                rnorm = _max_norm(r)
            steps += 1
            stalled = _max_norm(scale * step) <= cfg.step_tolerance

    report = NewtonReport(
        solution=best_x.astype(np.complex128),
        iterations=steps,
        final_residual_norm=best_norm,
        converged=False,
    )
    raise NoConvergence(
        f"Newton stalled at residual norm {best_norm:.3e} "
        f"after {steps} iterations",
        report=report,
    )


def _simpson_weights(panels: int) -> NDArray[np.float64]:
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _check_panels(panels: int) -> int:
    panels = int(panels)
    if panels < 2 or panels % 2 != 0:
        raise BadPanelCount(f"panel count must be even and >= 2, got {panels}")
    return panels


def _evaluate(f: Callable, *grids: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` once on the broadcast grids."""
    target = np.broadcast_shapes(*(g.shape for g in grids))
    return np.broadcast_to(np.asarray(f(*grids), dtype=float), target)


def simpson_1d(f: Callable, a: float, b: float, panels: int) -> float:
    """Composite Simpson estimate of the integral of ``f`` over ``[a, b]``.

    ``f`` is called once on the whole grid, so it must accept numpy arrays.
    The error is O(h^4) for smooth integrands.
    """
    panels = _check_panels(panels)
    x = np.linspace(a, b, panels + 1)
    y = _evaluate(f, x)
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand is not finite on the grid")
    h = (b - a) / panels
    return float(h / 3.0 * np.dot(_simpson_weights(panels), y))


def simpson_2d(
    f: Callable,
    domain: Sequence[Sequence[float]],
    panels: int | Sequence[int],
) -> float:
    """Composite Simpson estimate over a rectangle.

    ``domain`` is ``((ax, bx), (ay, by))``; ``panels`` is an even count used
    for both axes or an ``(nx, ny)`` pair.
    """
    (ax, bx), (ay, by) = domain
    if np.isscalar(panels):
        nx = ny = _check_panels(panels)  # type: ignore[arg-type]
    else:
        nx, ny = (_check_panels(p) for p in panels)
    x = np.linspace(ax, bx, nx + 1)
    y = np.linspace(ay, by, ny + 1)
    grid_x, grid_y = np.meshgrid(x, y, indexing="ij")
    z = _evaluate(f, grid_x, grid_y)
    if not np.all(np.isfinite(z)):
        raise ValueError("integrand is not finite on the grid")
    hx = (bx - ax) / nx
    hy = (by - ay) / ny
    weights = np.outer(_simpson_weights(nx), _simpson_weights(ny))
    return float(hx * hy / 9.0 * np.sum(weights * z))
