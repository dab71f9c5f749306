"""Self-contained numerical kernels.

Damped Newton iteration over real or complex vectors and composite Simpson
quadrature in one and two dimensions.  Everything here is a pure function of
its inputs and safe to call concurrently.
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


def newton_solve(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    x0,
    config: NewtonConfig | None = None,
) -> NewtonReport:
    """Solve ``residual_fn(x) = 0`` by damped Newton iteration.

    Complex systems are iterated on the stacked 2N-dimensional real vector of
    real and imaginary parts; for analytic residuals this reproduces the
    complex Newton step exactly, and the real-only path is the N-dimensional
    special case.  Each linear step is solved by direct elimination with
    partial pivoting.  The step is halved until the residual norm decreases
    or the halving budget runs out.

    Raises:
        SingularJacobian: the linear solve failed or produced non-finite
            values.
        NoConvergence: the iteration budget was exhausted; the best iterate
            is attached to the exception as a ``NewtonReport``.
    """
    cfg = config or NewtonConfig()
    x = _as_vector(x0)
    is_complex = np.iscomplexobj(x)
    n = x.size

    def pack(z: np.ndarray) -> np.ndarray:
        if not is_complex:
            return z.astype(np.float64)
        return np.concatenate([z.real, z.imag])

    def unpack(u: np.ndarray) -> np.ndarray:
        if not is_complex:
            return u
        return u[:n] + 1j * u[n:]

    def eval_residual(u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.atleast_1d(np.asarray(residual_fn(unpack(u))))
        if r.size != n:
            raise ValueError("residual dimension does not match the unknown vector")
        return pack(r.astype(np.complex128) if is_complex else r.astype(np.float64))

    def eval_jacobian(u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            j = np.atleast_2d(np.asarray(jacobian_fn(unpack(u))))
        if j.shape != (n, n):
            raise ValueError("jacobian shape does not match the unknown vector")
        if not is_complex:
            return j.astype(np.float64)
        jr, ji = j.real, j.imag
        return np.block([[jr, -ji], [ji, jr]])

    u = pack(x)
    r = eval_residual(u)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual is not finite at the initial point")

    best_u = u
    best_norm = float(np.max(np.abs(r)))
    steps = 0

    while True:
        rnorm = float(np.max(np.abs(r)))
        if rnorm < best_norm:
            best_norm, best_u = rnorm, u
        if rnorm <= cfg.residual_tolerance:
            return NewtonReport(
                solution=unpack(u).astype(np.complex128),
                iterations=steps,
                final_residual_norm=rnorm,
                converged=True,
            )
        if steps >= cfg.max_iterations:
            break

        jac = eval_jacobian(u)
        if not np.all(np.isfinite(jac)):
            raise SingularJacobian("jacobian has non-finite entries")
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("linear solve overflowed")

        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = eval_residual(u + scale * step)
            tnorm = float(np.max(np.abs(trial)))
            if np.isfinite(tnorm) and tnorm < rnorm:
                break
            scale *= 0.5
        u = u + scale * step
        r = eval_residual(u)
        steps += 1
        if float(np.max(np.abs(scale * step))) <= cfg.step_tolerance:
            break

    rnorm = float(np.max(np.abs(r)))
    if rnorm <= cfg.residual_tolerance:
        return NewtonReport(
            solution=unpack(u).astype(np.complex128),
            iterations=steps,
            final_residual_norm=rnorm,
            converged=True,
        )
    if rnorm < best_norm:
        best_norm, best_u = rnorm, u
    report = NewtonReport(
        solution=unpack(best_u).astype(np.complex128),
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
