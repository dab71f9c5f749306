"""Newton and Simpson kernels."""

import math

import numpy as np
import pytest

from pairwell import transcend
from pairwell.errors import BadPanelCount, NoConvergence, SingularJacobian
from pairwell.numerics import (
    NewtonConfig,
    newton_solve,
    simpson_1d,
    simpson_2d,
)
from pairwell.perturb import initial_guess
from pairwell.transcend import StateLabel, TranscendentalCase


class TestNewton:
    def test_scalar_real_quadratic(self):
        report = newton_solve(
            lambda x: x**2 - 4.0,
            lambda x: np.array([[2.0 * x[0]]]),
            np.array([3.0]),
        )
        assert report.converged
        assert abs(report.solution[0] - 2.0) < 1e-12

    def test_scalar_complex_unit_root(self):
        report = newton_solve(
            lambda z: z**2 + 1.0,
            lambda z: np.array([[2.0 * z[0]]]),
            np.array([0.5j]),
        )
        assert report.converged
        assert abs(report.solution[0] - 1j) < 1e-12

    def test_quantization_system_reference_root(self):
        # Equal-number attractive case from the perturbative seed.
        case = TranscendentalCase(U=-1.0, s=1)
        seed = np.array(initial_guess(StateLabel(1, 1), -1.0))
        report = newton_solve(
            lambda k: transcend.residual(case, k),
            lambda k: transcend.jacobian(case, k),
            seed,
        )
        assert report.converged
        k1 = report.solution[0]
        assert round(k1.real, 2) == pytest.approx(3.06)
        assert round(abs(k1.imag), 2) == pytest.approx(0.52)

    def test_converged_report_invariant(self):
        case = TranscendentalCase(U=-1.0, s=1)
        report = newton_solve(
            lambda k: transcend.residual(case, k),
            lambda k: transcend.jacobian(case, k),
            np.array(initial_guess(StateLabel(2, 2), -1.0)),
        )
        assert report.converged
        recheck = np.max(np.abs(transcend.residual(case, report.solution)))
        assert recheck <= NewtonConfig().residual_tolerance

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            newton_solve(
                lambda x: x**2 + 1.0,
                lambda x: np.array([[2.0 * x[0]]]),
                np.array([0.0]),
            )

    def test_no_convergence_carries_best_iterate(self):
        # x^2 + 1 has no real root; the solver must give up and report, and
        # a real seed must not be promoted to complex on the way.
        seen = []

        def residual(x):
            seen.append(x.dtype)
            return x**2 + 1.0

        with pytest.raises(NoConvergence) as excinfo:
            newton_solve(
                residual,
                lambda x: np.array([[2.0 * x[0]]]),
                np.array([3.0]),
                NewtonConfig(max_iterations=30),
            )
        assert set(seen) == {np.dtype(np.float64)}
        report = excinfo.value.report
        assert report is not None
        assert not report.converged
        assert np.all(np.isfinite(report.solution))
        assert report.solution.imag[0] == 0.0
        assert report.final_residual_norm > NewtonConfig().residual_tolerance

    def test_iteration_budget_exhausted(self):
        with pytest.raises(NoConvergence):
            newton_solve(
                lambda x: np.array([math.cos(x[0]) + 2.0]),
                lambda x: np.array([[-math.sin(x[0])]]),
                np.array([0.5]),
                NewtonConfig(max_iterations=5),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iterations=0)
        with pytest.raises(ValueError):
            NewtonConfig(residual_tolerance=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(step_tolerance=-1e-3)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                NewtonConfig(residual_tolerance=bad)
            with pytest.raises(ValueError, match="finite"):
                NewtonConfig(step_tolerance=bad)

    def test_undamped_iteration_evaluates_residual_once_per_step(self):
        calls = []

        def residual(x):
            calls.append(x.copy())
            return x**2 - 4.0

        report = newton_solve(residual, lambda x: np.array([[2.0 * x[0]]]),
                              np.array([3.0]))
        assert report.converged
        assert report.iterations > 1
        assert len(calls) == 1 + report.iterations

    def test_singular_2x2_jacobian(self):
        with pytest.raises(SingularJacobian):
            newton_solve(
                lambda x: np.array([x[0] + 2.0 * x[1] - 1.0,
                                    2.0 * x[0] + 4.0 * x[1] + 1.0]),
                lambda x: np.array([[1.0, 2.0], [2.0, 4.0]]),
                np.array([0.0, 0.0]),
            )

    def test_complex_2x2_root_matches_dense_solve(self):
        # Reference: the same damped iteration with every step solved by
        # LAPACK on the stacked real system.
        case = TranscendentalCase(U=-3.0, s=1)
        seed = np.array(initial_guess(StateLabel(2, 2), -2.0))

        def residual(k):
            return transcend.residual(case, k)

        def jacobian(k):
            return transcend.jacobian(case, k)

        k = seed.astype(complex)
        for _ in range(100):
            r = residual(k)
            rnorm = np.max(np.abs(r))
            if rnorm <= 1e-12:
                break
            j = jacobian(k)
            block = np.block([[j.real, -j.imag], [j.imag, j.real]])
            packed = np.linalg.solve(block, -np.concatenate([r.real, r.imag]))
            step = packed[:2] + 1j * packed[2:]
            scale = 1.0
            for _ in range(20):
                if np.max(np.abs(residual(k + scale * step))) < rnorm:
                    break
                scale *= 0.5
            k = k + scale * step
        assert np.max(np.abs(residual(k))) <= 1e-12
        report = newton_solve(residual, jacobian, seed)
        assert report.converged
        assert np.max(np.abs(report.solution - k)) < 1e-12
        assert abs(report.solution[0].imag) > 0.5

    def test_solution_already_at_root(self):
        report = newton_solve(
            lambda x: x - 2.0,
            lambda x: np.array([[1.0]]),
            np.array([2.0]),
        )
        assert report.converged
        assert report.iterations == 0


class TestSimpson:
    def test_normalized_mode(self):
        value = simpson_1d(lambda x: 2.0 * np.sin(np.pi * x) ** 2, 0.0, 1.0, 200)
        assert abs(value - 1.0) < 1e-10

    def test_quartic_mode(self):
        # Closed form: integral of sin^4 over one period is 3/8.
        expected = 4.0 * (3.0 / 8.0)
        value = simpson_1d(lambda x: 4.0 * np.sin(np.pi * x) ** 4, 0.0, 1.0, 200)
        assert abs(value - expected) < 1e-10

    def test_product_mode_2d(self):
        value = simpson_2d(
            lambda x, y: 4.0 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2,
            ((0.0, 1.0), (0.0, 1.0)),
            200,
        )
        assert abs(value - 1.0) < 1e-10

    @pytest.mark.parametrize("panels", [1, 3, 0, -2, 7])
    def test_rejects_bad_panel_counts(self, panels):
        with pytest.raises(BadPanelCount):
            simpson_1d(np.exp, 0.0, 1.0, panels)

    def test_rejects_bad_panel_counts_2d(self):
        with pytest.raises(BadPanelCount):
            simpson_2d(lambda x, y: x + y, ((0.0, 1.0), (0.0, 1.0)), (4, 5))

    def test_fourth_order_convergence(self):
        exact = np.e - 1.0
        coarse = abs(simpson_1d(np.exp, 0.0, 1.0, 50) - exact)
        fine = abs(simpson_1d(np.exp, 0.0, 1.0, 100) - exact)
        assert 10.0 < coarse / fine < 22.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_nonfinite_integrand(self):
        with pytest.raises(ValueError):
            simpson_1d(lambda x: 1.0 / x, 0.0, 1.0, 10)
