"""Physics identities as reference-free oracles.

With H = -d^2/dx1^2 - d^2/dx2^2 + U delta(x1 - x2) on the unit square:

- contact cusp: on the diagonal, the derivative of Psi along the separation
  r = x2 - x1 at r = 0+ equals (U/4) Psi(x, x);
- Hellmann-Feynman: dE/dU = <delta(x1 - x2)> = int_0^1 |Psi(x, x)|^2 dx for
  the normalized Psi.

Neither needs stored reference data.  The cusp checks the solved pair, the
amplitude, the ratio sign and the U convention together, independently of
``transcend.residual``; Hellmann-Feynman adds the norm.
"""

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from pairwell import normalize, singlet_amplitude, solve

LABELS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1)]
STRENGTHS = [-3.5, -1.0, 0.5, 1.0, 3.0, 5.0]
# The cutoff only seeds the n != m solves; the roots do not depend on it.
CUTOFF = 16
# Measured worst cases over the 42 (label, U) pairs above: 7.5e-12 for the
# cusp, limited by rounding in the differentiation, and 3.7e-10 for
# Hellmann-Feynman, limited by Newton's stopping point in each energy.  A
# 400 x 400 Simpson norm misses Hellmann-Feynman by 6.4e-6.
CUSP_TOLERANCE = 5e-11
HELLMANN_FEYNMAN_TOLERANCE = 2e-9

_DIAGONAL = np.linspace(0.05, 0.95, 19)
# Chebyshev-Lobatto separations on [0, h] for the one-sided derivative.
_SPAN = 0.1
_NODES = 16
_SEPARATIONS = 0.5 * _SPAN * (1.0 - np.cos(np.pi * np.arange(_NODES) / (_NODES - 1)))
# Energy stencil step and the Gauss-Legendre rule along the diagonal.
_STEP = 0.01
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(60)


def _cases():
    return [pytest.param(n, m, U, id=f"{n}{m}@{U:g}") for n, m in LABELS for U in STRENGTHS]


def _derivative_at_contact(pair):
    """d Psi / dr at r = 0+ from the package's amplitude, r = x2 - x1.

    Psi is analytic in r on each side of the diagonal, so its interpolant on
    Chebyshev-Lobatto points of [0, h] differentiates to rounding level.
    """
    values = singlet_amplitude(pair, _DIAGONAL[:, None] - _SEPARATIONS / 2,
                               _DIAGONAL[:, None] + _SEPARATIONS / 2)
    coefficients = chebyshev.chebfit(2.0 * _SEPARATIONS / _SPAN - 1.0, values.T, _NODES - 1)
    return chebyshev.chebval(-1.0, chebyshev.chebder(coefficients)) * 2.0 / _SPAN


@pytest.mark.parametrize("n, m, U", _cases())
def test_contact_cusp(n, m, U):
    pair = solve(U, n, m, n_max=CUTOFF)
    on_diagonal = singlet_amplitude(pair, _DIAGONAL, _DIAGONAL)
    mismatch = _derivative_at_contact(pair) - U / 4.0 * on_diagonal
    assert np.max(np.abs(mismatch)) <= CUSP_TOLERANCE * np.max(np.abs(on_diagonal))


@pytest.mark.parametrize("n, m, U", _cases())
def test_hellmann_feynman(n, m, U):
    energies = [solve(U + k * _STEP, n, m, n_max=CUTOFF).energy for k in (-2, -1, 1, 2)]
    slope = (energies[0] - 8.0 * energies[1] + 8.0 * energies[2] - energies[3]) / (12.0 * _STEP)
    wavefunction = normalize(solve(U, n, m, n_max=CUTOFF))
    x = 0.5 * (_GAUSS_X + 1.0)
    contact = 0.5 * float(np.sum(_GAUSS_W * np.abs(wavefunction.value(x, x)) ** 2))
    assert slope == pytest.approx(contact, rel=HELLMANN_FEYNMAN_TOLERANCE)
