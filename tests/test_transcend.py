"""Residual systems, Jacobians, and solution verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairwell import solve
from pairwell.errors import SolutionRejected
from pairwell.transcend import (
    MomentumPair,
    StateLabel,
    TranscendentalCase,
    jacobian,
    residual,
    verify_solution,
)

finite_floats = st.floats(-3.0, 3.0, allow_nan=False)
momenta = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=12.0, allow_nan=False, allow_infinity=False
)


def _finite_difference_jacobian(case, k, step=1e-6):
    k = np.asarray(k, dtype=complex)
    columns = []
    for i in range(2):
        bump = np.zeros(2, dtype=complex)
        bump[i] = step
        columns.append((residual(case, k + bump) - residual(case, k - bump)) / (2 * step))
    return np.column_stack(columns)


class TestResidual:
    def test_noninteracting_root(self):
        case = TranscendentalCase(U=0.0, s=1)
        values = residual(case, (np.pi, np.pi))
        assert np.max(np.abs(values)) < 1e-12

    def test_reference_complex_root(self):
        # Rounded 2-decimal values, so only a loose residual is expected.
        case = TranscendentalCase(U=-1.0, s=1)
        values = residual(case, (3.06 + 0.52j, 3.06 - 0.52j))
        assert np.linalg.norm(values) < 0.05

    def test_reference_real_root(self):
        case = TranscendentalCase(U=-1.0, s=-1)
        values = residual(case, (6.05, 3.27))
        assert np.linalg.norm(values) < 0.05

    def test_real_input_gives_real_residual(self):
        case = TranscendentalCase(U=1.5, s=-1)
        values = residual(case, np.array([5.9, 3.3]))
        assert values.dtype == np.float64

    @settings(max_examples=60, deadline=None)
    @given(k1=momenta, k2=momenta, U=finite_floats)
    def test_swap_symmetry(self, k1, k2, U):
        symmetric = residual(TranscendentalCase(U=U, s=1), (k1, k2))
        swapped = residual(TranscendentalCase(U=U, s=1), (k2, k1))
        assert np.allclose(symmetric, swapped, rtol=1e-12, atol=1e-12)

        anti = residual(TranscendentalCase(U=U, s=-1), (k1, k2))
        anti_swapped = residual(TranscendentalCase(U=U, s=-1), (k2, k1))
        assert np.allclose(anti[0], -anti_swapped[0], rtol=1e-12, atol=1e-12)
        assert np.allclose(anti[1], anti_swapped[1], rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(k1=momenta, k2=momenta, U=finite_floats, s=st.sampled_from([1, -1]))
    def test_conjugation_symmetry(self, k1, k2, U, s):
        case = TranscendentalCase(U=U, s=s)
        direct = residual(case, (np.conj(k1), np.conj(k2)))
        conjugated = np.conj(residual(case, (k1, k2)))
        assert np.allclose(direct, conjugated, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(k1=momenta, k2=momenta, U=finite_floats, s=st.sampled_from([1, -1]))
    def test_regularized_form_factors_the_raw_conditions(self, k1, k2, U, s):
        # f1 = (quotient + s) * k2 sin(k1) and f2 = (cot-form + U) * sin(k1) sin(k2)
        # wherever the sines are nonzero, so the root sets coincide there.
        sin1, sin2 = np.sin(k1), np.sin(k2)
        if min(abs(sin1), abs(sin2)) < 1e-3 or min(abs(k1), abs(k2)) < 1e-3:
            return
        case = TranscendentalCase(U=U, s=s)
        f1, f2 = residual(case, (k1, k2))
        quotient = k1 * sin2 / (k2 * sin1) + s
        cotangent = 2.0 * (k1 * np.cos(k1) / sin1 + k2 * np.cos(k2) / sin2) + U
        scale1 = abs(k2 * sin1)
        scale2 = abs(sin1 * sin2)
        assert abs(f1 - quotient * k2 * sin1) <= 1e-9 * max(1.0, abs(f1), scale1 * abs(quotient))
        assert abs(f2 - cotangent * sin1 * sin2) <= 1e-9 * max(1.0, abs(f2), scale2 * abs(cotangent))


class TestJacobian:
    @pytest.mark.parametrize("s", [1, -1])
    def test_hand_derivative_at_noninteracting_point(self, s):
        case = TranscendentalCase(U=0.0, s=s)
        matrix = jacobian(case, (np.pi, np.pi))
        assert matrix[0, 0] == pytest.approx(-s * np.pi, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(k1=momenta, k2=momenta, U=finite_floats, s=st.sampled_from([1, -1]))
    def test_matches_finite_differences(self, k1, k2, U, s):
        case = TranscendentalCase(U=U, s=s)
        analytic = jacobian(case, (k1, k2))
        numeric = _finite_difference_jacobian(case, (k1, k2))
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale

    def test_nonsingular_at_converged_root(self):
        pair = solve(-1.0, 1, 1)
        matrix = jacobian(pair.case, (pair.k1, pair.k2))
        assert abs(np.linalg.det(matrix)) > 1e-6


class TestVerifySolution:
    def test_reference_roots_reduce_to_norms(self):
        complex_pair = MomentumPair(
            3.06 + 0.52j, 3.06 - 0.52j,
            TranscendentalCase(U=-1.0, s=1), StateLabel(1, 1),
        )
        assert verify_solution(complex_pair) < 0.05

        real_pair = MomentumPair(
            6.05, 3.27, TranscendentalCase(U=-1.0, s=-1), StateLabel(2, 1),
        )
        assert verify_solution(real_pair) < 0.05

    def test_noninteracting_point_accepted_only_at_zero_strength(self):
        at_zero = MomentumPair(
            2 * np.pi, np.pi, TranscendentalCase(U=0.0, s=-1), StateLabel(2, 1),
        )
        assert verify_solution(at_zero) < 1e-12

        spurious = MomentumPair(
            2 * np.pi, np.pi, TranscendentalCase(U=-1.0, s=-1), StateLabel(2, 1),
        )
        with pytest.raises(SolutionRejected):
            verify_solution(spurious)

    def test_solver_output_passes(self):
        pair = solve(-1.0, 2, 1)
        assert verify_solution(pair) <= 1e-10

    def test_equal_momenta_rejected_for_negative_ratio_sign(self):
        # The (2,1) root family warm sweep steps reach past U = -4.5: an
        # exact root of both conditions whose s = -1 singlet vanishes.
        k = 4.3826255266
        collided = MomentumPair(
            k, k * (1.0 + 1e-12), TranscendentalCase(U=-6.0, s=-1), StateLabel(2, 1),
        )
        with pytest.raises(SolutionRejected, match="singlet vanish"):
            verify_solution(collided)
        # The same momenta with ratio sign +1 are not a collision.
        same_sign = MomentumPair(
            k, k, TranscendentalCase(U=-6.0, s=1), StateLabel(3, 1),
        )
        assert verify_solution(same_sign) > 0.0


class TestDomainTypes:
    def test_case_validation(self):
        with pytest.raises(ValueError):
            TranscendentalCase(U=1.0, s=2)
        with pytest.raises(ValueError):
            TranscendentalCase(U=float("inf"), s=1)

    def test_label_parity_and_sign(self):
        same = StateLabel(3, 1)
        assert same.parity_class == "same"
        assert same.case_sign == 1
        different = StateLabel(2, 1)
        assert different.parity_class == "different"
        assert different.case_sign == -1
        with pytest.raises(ValueError):
            StateLabel(0, 1)

    def test_pair_rejects_complex_energy(self):
        with pytest.raises(SolutionRejected):
            MomentumPair(
                1.0 + 1.0j, 1.0,
                TranscendentalCase(U=-1.0, s=1), StateLabel(1, 1),
            )

    def test_pair_rejects_broken_conjugacy(self):
        # Real energy but not a conjugate pair: k2 = -conj(k1).
        with pytest.raises(SolutionRejected):
            MomentumPair(
                3.0 + 0.5j, -3.0 + 0.5j,
                TranscendentalCase(U=-1.0, s=1), StateLabel(1, 1),
            )

    def test_pair_energy_is_real_scalar(self):
        pair = MomentumPair(
            3.06 + 0.52j, 3.06 - 0.52j,
            TranscendentalCase(U=-1.0, s=1), StateLabel(1, 1),
        )
        expected = 2.0 * (3.06**2 - 0.52**2)
        assert pair.energy == pytest.approx(expected, rel=1e-12)
