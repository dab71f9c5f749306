"""Energy-constrained reparameterization and the unequal-number solve path.

Writing the momenta as

    k1 = sqrt(E + rho^2) sin(theta) + i rho cos(theta),
    k2 = sqrt(E + rho^2) cos(theta) - i rho sin(theta),

makes k1^2 + k2^2 = E an algebraic identity for any real (rho, theta), so a
search in the two free parameters can never leave the real-energy surface.
With E fixed from the variational engine the root search drops from three
unknowns to two, which is what lets Newton-type iteration succeed for states
whose quantum numbers differ.

The variational energy carries truncation error, so the constrained stage
cannot zero both residual components exactly.  The solve therefore runs in
two stages: a damped Gauss-Newton least-squares pass over (rho, theta) at
fixed E to land in the right basin, then an unconstrained Newton polish on
the real momentum pair that removes the energy constraint and drives the
residual to tolerance.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import cimethod, transcend
from .errors import InvalidReduction, ReductionFailed
from .numerics import NewtonConfig, newton_solve
from .transcend import MomentumPair, StateLabel, TranscendentalCase

__all__ = ["ReducedParams", "params_to_momenta", "solve_nonidentical"]

_GAUSS_NEWTON_MAX_ITERATIONS = 200
_GAUSS_NEWTON_STEP_TOLERANCE = 1e-12
# A stagnated constrained stage further than this from a root means the
# energy seed was useless, not merely truncated.
_STAGE_A_RESIDUAL_CEILING = 0.5


@dataclasses.dataclass(frozen=True)
class ReducedParams:
    """Real-energy momentum parameters (E, rho, theta)."""

    energy: float
    rho: float
    theta: float

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise InvalidReduction("rho must be nonnegative")
        if self.energy + self.rho**2 < 0:
            raise InvalidReduction(
                f"E + rho^2 = {self.energy + self.rho**2:.3e} must be nonnegative"
            )

    @property
    def omega(self) -> float:
        return float(np.sqrt(self.energy + self.rho**2))


def _momenta(energy: float, rho: float, theta: float) -> tuple[complex, complex]:
    omega = np.sqrt(energy + rho * rho)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    k1 = omega * sin_t + 1j * rho * cos_t
    k2 = omega * cos_t - 1j * rho * sin_t
    return complex(k1), complex(k2)


def params_to_momenta(params: ReducedParams) -> tuple[complex, complex]:
    """Momentum pair for ``params``; k1^2 + k2^2 equals the stored energy."""
    return _momenta(params.energy, params.rho, params.theta)


def _stage_a(case: TranscendentalCase, energy: float, theta0: float) -> tuple[complex, complex]:
    """Damped Gauss-Newton on (rho, theta) at fixed energy.

    Minimizes the squared residual of the quantization conditions over the
    real-energy surface.  Raises ReductionFailed if it stagnates far from a
    root.
    """
    # A nonpositive energy seed needs rho > 0 to keep omega real.
    rho = 0.0 if energy > 0.0 else float(np.sqrt(-energy) + 1.0)
    theta = theta0

    def residual_vector(r: float, t: float) -> np.ndarray:
        # Excursions below rho^2 = -energy produce NaN momenta; the loop
        # guards treat them as failed trials, so the warnings are noise.
        with np.errstate(invalid="ignore", over="ignore"):
            f = transcend.residual(case, _momenta(energy, r, t))
        return np.concatenate([f.real, f.imag])

    res = residual_vector(rho, theta)
    for _ in range(_GAUSS_NEWTON_MAX_ITERATIONS):
        if not np.all(np.isfinite(res)):
            break
        k1, k2 = _momenta(energy, rho, theta)
        omega = np.sqrt(energy + rho * rho)
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        # Chain rule: the residual is analytic in (k1, k2), and the momenta
        # are smooth in the real parameters.
        dk_drho = np.array([(rho / max(omega, 1e-300)) * sin_t + 1j * cos_t,
                            (rho / max(omega, 1e-300)) * cos_t - 1j * sin_t])
        dk_dtheta = np.array([k2, -k1])
        jac_complex = transcend.jacobian(case, (k1, k2))
        col_rho = jac_complex @ dk_drho
        col_theta = jac_complex @ dk_dtheta
        jac = np.column_stack([
            np.concatenate([col_rho.real, col_rho.imag]),
            np.concatenate([col_theta.real, col_theta.imag]),
        ])
        if not np.all(np.isfinite(jac)):
            break
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        norm0 = np.linalg.norm(res)
        scale = 1.0
        for _ in range(20):
            trial = residual_vector(rho + scale * step[0], theta + scale * step[1])
            trial_norm = float(np.linalg.norm(trial))
            if np.isfinite(trial_norm) and trial_norm < norm0:
                break
            scale *= 0.5
        rho += scale * step[0]
        # The momenta depend on rho only through rho^2 times a sign split;
        # fold a negative excursion back to the nonnegative half-line.
        if energy > 0.0 and rho < 0.0:
            rho = -rho
        theta += scale * step[1]
        res = residual_vector(rho, theta)
        if float(np.max(np.abs(scale * step))) < _GAUSS_NEWTON_STEP_TOLERANCE:
            break

    final_norm = float(np.max(np.abs(res)))
    if not (final_norm <= _STAGE_A_RESIDUAL_CEILING):
        raise ReductionFailed(
            f"constrained stage stagnated at residual {final_norm:.3e} "
            f"for energy seed {energy:.6g}"
        )
    return _momenta(energy, rho, theta)


def solve_nonidentical(
    U: float,
    label: StateLabel,
    n_max: int = cimethod.DEFAULT_N_MAX,
    config: NewtonConfig | None = None,
) -> MomentumPair:
    """Momentum pair for a state with unequal quantum numbers.

    The case sign follows parity: wave numbers of different parity satisfy
    the ratio +1 system, same parity the ratio -1 system.  The energy seed
    comes from the variational spectrum at cutoff ``n_max``; the returned
    pair is purely real, ordered k1 > k2, with residual max-norm at Newton
    tolerance.
    """
    return _solve_detailed(U, label, n_max, config)[0]


def _solve_detailed(
    U: float,
    label: StateLabel,
    n_max: int,
    config: NewtonConfig | None,
) -> tuple[MomentumPair, float, int]:
    """solve_nonidentical plus the verified residual max-norm and the
    Newton iteration count of the polish."""
    if label.n == label.m:
        raise ValueError("solve_nonidentical requires n != m")
    case = TranscendentalCase(U=float(U), s=label.case_sign)
    low, high = sorted((label.n, label.m))
    if U == 0.0:
        pair = MomentumPair(high * np.pi, low * np.pi, case, label)
        return pair, transcend.verify_solution(pair), 0

    energy = cimethod.energy_for_state(U, label, n_max)
    theta0 = float(np.arctan2(label.m * np.pi, label.n * np.pi))
    k1, k2 = _stage_a(case, energy, theta0)

    report = newton_solve(
        lambda k: transcend.residual(case, k),
        lambda k: transcend.jacobian(case, k),
        np.array([k1.real, k2.real]),
        config or NewtonConfig(),
    )
    a, b = report.solution[0].real, report.solution[1].real
    if a < b:
        a, b = b, a
    pair = MomentumPair(a, b, case, label)
    # Rejects the spurious root families of the polynomial form (vanishing
    # momenta, non-interacting points) that a bad energy seed can land on.
    return pair, transcend.verify_solution(pair), report.iterations
