"""Wavefunction evaluation, normalization, density grids, pointwise checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairwell import solve
from pairwell.errors import DegenerateState, IdenticallyZero, PairwellError
from pairwell.numerics import simpson_2d
from pairwell.transcend import MomentumPair, StateLabel, TranscendentalCase
from pairwell.wavefn import (
    _amplitude_on_axis,
    _raw_amplitude,
    density_grid,
    normalize,
    schrodinger_residual,
    singlet_amplitude,
    triplet_amplitude,
)

PI = np.pi
_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(200)


def _triangle_rule(k1, k2, s):
    """Independent oracle for the integral of |Psi|^2 over the unit square.

    Twice the integral over x1 < x2, in u = x1 + x2 - 1 and v = x1 - x2 + 1
    (Jacobian 1/2) on {0 <= v <= 1, |u| <= v}, with u = v t.  The amplitude
    is analytic on the closed triangle, since its kink lies on the edge
    v = 1, so a 200 x 200 Gauss-Legendre product rule converges to rounding
    level.
    """
    v = 0.5 * (_GAUSS_T + 1.0)[:, None]
    u = v * _GAUSS_T[None, :]
    weights = 0.5 * _GAUSS_W[:, None] * _GAUSS_W[None, :] * v
    amplitude = _raw_amplitude(k1, k2, s, 0.5 * (u + v), 0.5 * (u - v) + 1.0)
    return float(np.sum(weights * np.abs(amplitude) ** 2))


def _cusp_mismatch(pair, s, position):
    """Independent oracle for the derivative jump across x1 = x2.

    Integrating the eigenproblem across the interaction line gives the jump
    condition 2 S(c) + U Psi(c, c) = 0 with

        S(c) = k2 sin(k1 c) cos(k2 (1-c)) + k1 cos(k1 c) sin(k2 (1-c))
             + s [k1 sin(k2 c) cos(k1 (1-c)) + k2 cos(k2 c) sin(k1 (1-c))],

    which holds pointwise in c exactly when (k1, k2) solves the quantization
    conditions; for arbitrary momenta it fails at order one.
    """
    k1, k2, U = pair.k1, pair.k2, pair.case.U
    c = position
    jump = (
        k2 * np.sin(k1 * c) * np.cos(k2 * (1 - c))
        + k1 * np.cos(k1 * c) * np.sin(k2 * (1 - c))
        + s * (
            k1 * np.sin(k2 * c) * np.cos(k1 * (1 - c))
            + k2 * np.cos(k2 * c) * np.sin(k1 * (1 - c))
        )
    )
    value = singlet_amplitude(pair, c, c, s=s)
    return abs(2.0 * jump + U * value)


class TestSingletAmplitude:
    def test_boundary_zeros(self, attractive_roots):
        pair = attractive_roots[(1, 1)]
        xs = np.linspace(0.0, 1.0, 7)
        assert np.all(singlet_amplitude(pair, 0.0, xs) == 0.0)
        assert np.all(singlet_amplitude(pair, xs, 1.0) == 0.0)
        assert np.all(singlet_amplitude(pair, 1.0, xs) == 0.0)
        assert np.all(singlet_amplitude(pair, xs, 0.0) == 0.0)

    def test_real_for_conjugate_pair(self, attractive_roots):
        pair = attractive_roots[(1, 1)]
        xs = np.linspace(0.0, 1.0, 101)
        values = singlet_amplitude(pair, xs[:, None], xs[None, :])
        assert np.max(np.abs(values.imag)) <= 1e-12 * np.max(np.abs(values))

    def test_piecewise_branches_agree_on_the_seam(self):
        # Evaluate the two half-plane formulas independently at x1 = x2.
        k1, k2, s = 3.06 + 0.52j, 3.06 - 0.52j, 1
        x = 0.3
        below = np.sin(k1 * x) * np.sin(k2 * (1 - x)) + s * np.sin(k2 * x) * np.sin(k1 * (1 - x))
        above = np.sin(k1 * x) * np.sin(k2 * (1 - x)) + s * np.sin(k2 * x) * np.sin(k1 * (1 - x))
        pair = MomentumPair(k1, k2, TranscendentalCase(U=-1.0, s=1), StateLabel(1, 1))
        assert singlet_amplitude(pair, x, x) == below == above

    def test_exchange_symmetry_is_exact(self, attractive_roots):
        pair = attractive_roots[(2, 1)]
        rng = np.random.default_rng(3)
        x1, x2 = rng.uniform(0, 1, size=(2, 50))
        forward = singlet_amplitude(pair, x1, x2)
        backward = singlet_amplitude(pair, x2, x1)
        assert np.array_equal(forward, backward)


_parts = st.floats(0.0, 40.0, allow_nan=False)


@st.composite
def _momentum_pairs(draw):
    """A conjugate pair (n = m, attractive) or two real momenta."""
    if draw(st.booleans()):
        k = complex(draw(_parts), draw(st.floats(0.0, 8.0, allow_nan=False)))
        return k, k.conjugate()
    return draw(_parts), draw(_parts)


class TestAmplitudeOnAxis:
    """The per-axis square grid against the pointwise amplitude, bit for bit."""

    @given(momenta=_momentum_pairs(), s=st.sampled_from([1, -1]),
           resolution=st.integers(1, 50).map(lambda half: 2 * half + 1))
    def test_equals_the_pointwise_amplitude(self, momenta, s, resolution):
        k1, k2 = momenta
        xs = np.linspace(0.0, 1.0, resolution)
        expected = _raw_amplitude(k1, k2, s, xs[:, None], xs[None, :])
        assert np.array_equal(_amplitude_on_axis(k1, k2, s, xs), expected)

    @pytest.mark.parametrize("roots, key", [
        ("attractive_roots", (1, 1)), ("attractive_roots", (2, 1)),
        ("attractive_roots", (2, 2)), ("attractive_roots", (3, 1)),
        ("repulsive_roots", (1, 1)), ("repulsive_roots", (2, 2)),
    ])
    def test_norm_grid_and_max_match_the_pointwise_path(self, request, roots, key):
        pair = request.getfixturevalue(roots)[key]
        wavefunction = normalize(pair)
        assert wavefunction.norm ** -2 == pytest.approx(
            _triangle_rule(pair.k1, pair.k2, pair.case.s), rel=1e-12)
        xs = np.linspace(0.0, 1.0, 201)
        pointwise = wavefunction.value(xs[:, None], xs[None, :])
        assert np.array_equal(density_grid(wavefunction, 201).values,
                              np.abs(pointwise) ** 2)
        assert wavefunction.max_abs() == float(np.max(np.abs(pointwise)))


class TestTripletAmplitude:
    def test_vanishes_on_the_diagonal(self):
        xs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(triplet_amplitude(1, 2, xs, xs), 0.0, atol=1e-15)

    def test_antisymmetric_under_exchange(self):
        rng = np.random.default_rng(5)
        x1, x2 = rng.uniform(0, 1, size=(2, 40))
        assert np.allclose(
            triplet_amplitude(1, 2, x2, x1),
            -triplet_amplitude(1, 2, x1, x2),
            atol=1e-14,
        )

    def test_already_normalized(self):
        integral = simpson_2d(
            lambda a, b: np.abs(triplet_amplitude(1, 2, a, b)) ** 2,
            ((0.0, 1.0), (0.0, 1.0)),
            200,
        )
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_rejects_equal_numbers(self):
        with pytest.raises(IdenticallyZero):
            triplet_amplitude(2, 2, 0.3, 0.4)


class TestNormalize:
    def test_noninteracting_product_form(self):
        pair = MomentumPair(PI, PI, TranscendentalCase(U=0.0, s=1), StateLabel(1, 1))
        wavefunction = normalize(pair)
        # The two terms coincide at k1 = k2, so the singlet degenerates to
        # the product mode 2 sin(pi x1) sin(pi x2).
        assert wavefunction.norm == pytest.approx(1.0, abs=1e-8)
        x1, x2 = 0.21, 0.63
        assert wavefunction.value(x1, x2) == pytest.approx(
            2.0 * np.sin(PI * x1) * np.sin(PI * x2), abs=1e-8)

    def test_solved_pair_has_finite_norm(self, attractive_roots):
        wavefunction = normalize(attractive_roots[(1, 1)])
        assert 0.0 < wavefunction.norm < 100.0

    def test_norm_invariant_under_momentum_swap(self, attractive_roots):
        pair = attractive_roots[(1, 1)]
        swapped = MomentumPair(pair.k2, pair.k1, pair.case, pair.label)
        assert normalize(pair).norm == pytest.approx(normalize(swapped).norm, rel=1e-12)

    def test_degenerate_state(self):
        pair = MomentumPair(4.0, 4.0, TranscendentalCase(U=1.0, s=1), StateLabel(1, 1))
        with pytest.raises(DegenerateState):
            normalize(pair, s=-1)

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
    def test_closed_form_matches_the_triangle_rule(self, n, m):
        # Every strength where solve returns; the cutoff only seeds n != m.
        strengths = [float(U) for U in np.linspace(-80.0, 80.0, 33)]
        solved = 0
        for U in strengths + [1e-3, -1e-3, 1e-8, -1e-8]:
            try:
                pair = solve(U, n, m, n_max=16)
            except PairwellError:
                continue
            solved += 1
            assert normalize(pair).norm ** -2 == pytest.approx(
                _triangle_rule(pair.k1, pair.k2, pair.case.s), rel=1e-12), U
        assert solved >= 6  # the fewest of any label: (3,4) and (4,3) solve at 6

    @pytest.mark.parametrize("s", [1, -1])
    def test_any_pair_and_sign(self, attractive_roots, s):
        # A complex pair that is not conjugate (k1^2 + k2^2 is still real),
        # and solved pairs under either sign.
        skew = MomentumPair(3.0 + 0.5j, 1.5 - 1.0j, TranscendentalCase(U=1.0, s=1),
                            StateLabel(2, 1))
        for pair in (skew, attractive_roots[(1, 1)], attractive_roots[(2, 1)]):
            assert normalize(pair, s=s).norm ** -2 == pytest.approx(
                _triangle_rule(pair.k1, pair.k2, s), rel=1e-12)

    def test_nonfinite_integral(self):
        overflow = MomentumPair(1.5 + 800j, 1.5 - 800j, TranscendentalCase(U=-1.0, s=1),
                                StateLabel(1, 1))
        nan = MomentumPair(complex(np.nan, 0.0), PI, TranscendentalCase(U=1.0, s=1),
                           StateLabel(1, 1))
        for pair in (overflow, nan):
            with pytest.raises(ValueError, match="not finite"):
                normalize(pair)

    def test_sign_must_be_unit(self, attractive_roots):
        with pytest.raises(ValueError, match="ratio sign"):
            normalize(attractive_roots[(1, 1)], s=0)


class TestDensityGrid:
    def test_grid_properties(self, attractive_roots):
        grid = density_grid(normalize(attractive_roots[(1, 1)]), 81)
        assert grid.values.shape == (81, 81)
        assert np.all(grid.values >= 0.0)
        assert np.array_equal(grid.values, grid.values.T)
        assert np.all(grid.values[0] == 0.0) and np.all(grid.values[-1] == 0.0)
        assert np.all(grid.values[:, 0] == 0.0) and np.all(grid.values[:, -1] == 0.0)
        assert grid.U == -1.0
        assert (grid.label.n, grid.label.m) == (1, 1)

    def test_integrates_to_one(self, attractive_roots):
        grid = density_grid(normalize(attractive_roots[(2, 2)]), 201)
        assert grid.simpson_integral() == pytest.approx(1.0, abs=1e-4)

    def test_diagonal_contrast_flips_with_sign(self, attractive_roots, repulsive_roots):
        attractive = density_grid(normalize(attractive_roots[(2, 2)]), 201)
        assert attractive.diagonal_mean() > attractive.antidiagonal_mean()
        repulsive = density_grid(normalize(repulsive_roots[(2, 2)]), 201)
        assert repulsive.diagonal_mean() < repulsive.antidiagonal_mean()

    def test_resolution_validation(self, attractive_roots):
        wavefunction = normalize(attractive_roots[(1, 1)])
        with pytest.raises(ValueError):
            density_grid(wavefunction, 200)
        with pytest.raises(ValueError):
            density_grid(wavefunction, 1)


class TestSchrodingerResidual:
    def test_solution_satisfies_the_equation(self, attractive_roots):
        wavefunction = normalize(attractive_roots[(1, 1)])
        assert schrodinger_residual(wavefunction, 0.3, 0.7) <= 1e-4

    def test_noninteracting_product_state(self):
        pair = MomentumPair(PI, PI, TranscendentalCase(U=0.0, s=1), StateLabel(1, 1))
        assert schrodinger_residual(normalize(pair), 0.3, 0.7) <= 1e-6

    def test_point_restrictions(self, attractive_roots):
        wavefunction = normalize(attractive_roots[(1, 1)])
        with pytest.raises(ValueError):
            schrodinger_residual(wavefunction, 0.5, 0.52)
        with pytest.raises(ValueError):
            schrodinger_residual(wavefunction, 0.01, 0.7)

    def test_cusp_oracle_separates_solutions_from_impostors(self, attractive_roots):
        # The off-diagonal eigen-residual cannot reject wrong momenta: both
        # piecewise branches are exact free eigenfunctions for any (k1, k2),
        # so the discriminating check is the derivative jump on the seam.
        impostor = MomentumPair(
            PI + 0.3, PI, TranscendentalCase(U=-1.0, s=1), StateLabel(1, 3))
        assert schrodinger_residual(normalize(impostor), 0.3, 0.7) <= 1e-4

        solution = attractive_roots[(1, 1)]
        for c in (0.2, 0.5, 0.7):
            assert _cusp_mismatch(solution, 1, c) < 1e-8
            assert _cusp_mismatch(impostor, 1, c) > 0.5
