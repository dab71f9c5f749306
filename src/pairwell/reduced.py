"""Energy-constrained reparameterization and the unequal-number root search.

Writing the momenta as

    k1 = sqrt(E + rho^2) sin(theta) + i rho cos(theta),
    k2 = sqrt(E + rho^2) cos(theta) - i rho sin(theta),

makes k1^2 + k2^2 = E an algebraic identity for any real (rho, theta), so a
search in the two free parameters can never leave the real-energy surface.
With E fixed from the variational engine the root search drops from three
unknowns to two, which is what lets Newton-type iteration succeed for states
whose quantum numbers differ.

The variational energy carries truncation error, so the constrained stage
cannot zero both residual components exactly.  The search therefore runs in
two stages: a damped Gauss-Newton least-squares pass over (rho, theta) at
fixed E to land in the right basin, then an unconstrained Newton polish on
the real momentum pair that removes the energy constraint and drives the
residual to tolerance.  The root it returns is not yet a state: the solver
orders and verifies it through the same acceptance gate as every other
Newton root, and handles U = 0 and n = m before dispatching here.
"""

from __future__ import annotations

import numpy as np

from . import cimethod, transcend
from .errors import ReductionFailed
from .numerics import NewtonConfig, newton_solve
from .transcend import StateLabel, TranscendentalCase

__all__: list[str] = []

_GAUSS_NEWTON_MAX_ITERATIONS = 200
_GAUSS_NEWTON_STEP_TOLERANCE = 1e-12
# A stagnated constrained stage further than this from a root means the
# energy seed was useless, not merely truncated.
_STAGE_A_RESIDUAL_CEILING = 0.5


def _momenta(energy: float, rho: float, theta: float) -> tuple[complex, complex]:
    omega = np.sqrt(energy + rho * rho)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    k1 = omega * sin_t + 1j * rho * cos_t
    k2 = omega * cos_t - 1j * rho * sin_t
    return complex(k1), complex(k2)


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


def _solve_detailed(
    U: float,
    label: StateLabel,
    n_max: int,
    config: NewtonConfig,
) -> tuple[np.ndarray, int]:
    """Real root near the CI-seeded state ``label`` (n != m, U != 0).

    The case sign follows parity: wave numbers of different parity satisfy
    the ratio +1 system, same parity the ratio -1 system.  The energy seed
    comes from the variational spectrum at cutoff ``n_max``.  Returns the
    unordered, unverified root of the polish and its Newton iteration count.
    """
    case = TranscendentalCase(U=U, s=label.case_sign)
    energy = cimethod.energy_for_state(U, label, n_max)
    theta0 = float(np.arctan2(label.m * np.pi, label.n * np.pi))
    k1, k2 = _stage_a(case, energy, theta0)
    report = newton_solve(
        lambda k: transcend.residual(case, k),
        lambda k: transcend.jacobian(case, k),
        np.array([k1.real, k2.real]),
        config,
    )
    return report.solution, report.iterations
