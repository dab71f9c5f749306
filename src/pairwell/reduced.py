"""Energy-constrained root search for unequal quantum numbers.

For n != m the momenta are real, so at a fixed scaled energy E > 0 they lie
on the circle

    k1 = sqrt(E) sin(theta),    k2 = sqrt(E) cos(theta),

and k1^2 + k2^2 = E holds for every real theta.  With E fixed from the
variational engine the root search drops from two unknowns to the one angle
theta, which is what lets Newton-type iteration succeed for states whose
quantum numbers differ.  The search stays on the real axis: a complex
offset rho, as in k1 = sqrt(E + rho^2) sin(theta) + i rho cos(theta), is
inert there, because at real momenta the residual is real while the rho
direction is purely imaginary, so a least-squares step never moves rho.

The variational energy carries truncation error, so the constrained stage
cannot zero both residual components exactly.  The search therefore runs in
two stages: a damped Gauss-Newton least-squares pass over theta at fixed E
to land in the right basin, then an unconstrained Newton polish on the real
momentum pair that removes the energy constraint and drives the residual to
tolerance.  The root it returns is not yet a state: the solver orders and
verifies it through the same acceptance gate as every other Newton root,
and handles U = 0 and n = m before dispatching here.
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


def _stage_a(case: TranscendentalCase, energy: float, theta0: float) -> tuple[float, float]:
    """Damped Gauss-Newton on theta at fixed energy.

    Minimizes the squared residual of the quantization conditions over the
    energy circle and returns the real momenta there.  Raises
    ReductionFailed for a nonpositive energy seed, which has no real circle,
    or if the search stagnates far from a root.
    """
    if not energy > 0.0:
        raise ReductionFailed(f"energy seed {energy:.6g} is not positive")
    radius = np.sqrt(energy)

    def momenta(theta: float) -> tuple[float, float]:
        return radius * np.sin(theta), radius * np.cos(theta)

    theta = theta0
    k1, k2 = momenta(theta)
    res = transcend.residual(case, (k1, k2))
    for _ in range(_GAUSS_NEWTON_MAX_ITERATIONS):
        # dk/dtheta = (k2, -k1), so the residual moves along this tangent.
        tangent = transcend.jacobian(case, (k1, k2)) @ np.array([k2, -k1])
        gram = tangent @ tangent
        if not gram > 0.0:
            break
        step = -float(tangent @ res) / gram
        norm0 = np.linalg.norm(res)
        scale = 1.0
        accepted = None
        for _ in range(20):
            trial = transcend.residual(case, momenta(theta + scale * step))
            if np.linalg.norm(trial) < norm0:
                accepted = trial
                break
            scale *= 0.5
        theta += scale * step
        k1, k2 = momenta(theta)
        # An accepted trial was evaluated at this very theta; only when every
        # halving failed did theta move by a scale no trial was tried at.
        res = accepted if accepted is not None else transcend.residual(case, (k1, k2))
        if abs(scale * step) < _GAUSS_NEWTON_STEP_TOLERANCE:
            break

    final_norm = float(np.max(np.abs(res)))
    if not (final_norm <= _STAGE_A_RESIDUAL_CEILING):
        raise ReductionFailed(
            f"constrained stage stagnated at residual {final_norm:.3e} "
            f"for energy seed {energy:.6g}"
        )
    return k1, k2


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
        np.array([k1, k2]),
        config,
    )
    return report.solution, report.iterations
