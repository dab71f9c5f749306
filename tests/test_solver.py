"""Dispatch, validation, continuation, and sweeps."""

import numpy as np
import pytest

from pairwell import solver
from pairwell.errors import NoConvergence, SingularJacobian, SolutionRejected
from pairwell.numerics import NewtonConfig, NewtonReport
from pairwell.solver import SolveRequest, solve, solve_with_diagnostics, sweep
from pairwell.transcend import StateLabel, verify_solution
from pairwell.wavefn import normalize

PI = np.pi


class TestSolveState:
    def test_reference_attractive(self, attractive_roots):
        pair = attractive_roots[(1, 1)]
        assert round(pair.k1.real, 2) == 3.06
        assert round(pair.k1.imag, 2) == 0.52
        pair = attractive_roots[(2, 2)]
        assert round(pair.k1.real, 2) == 6.24
        assert round(pair.k1.imag, 2) == 0.52

    def test_reference_repulsive(self, repulsive_roots):
        pair = repulsive_roots[(1, 1)]
        assert (round(pair.k1.real, 2), round(pair.k2.real, 2)) == (3.70, 2.74)
        pair = repulsive_roots[(2, 2)]
        assert (round(pair.k1.real, 2), round(pair.k2.real, 2)) == (6.80, 5.84)

    def test_zero_interaction_exact(self):
        pair = solve(0.0, 1, 1)
        assert pair.k1 == PI and pair.k2 == PI
        pair = solve(0.0, 2, 1)
        assert pair.k1 == 2.0 * PI and pair.k2 == PI

    def test_invariants(self, attractive_roots, repulsive_roots):
        for pair in list(attractive_roots.values()) + list(repulsive_roots.values()):
            assert verify_solution(pair) <= 1e-10
            assert abs((pair.k1**2 + pair.k2**2).imag) <= 1e-9
        for (n, m), pair in attractive_roots.items():
            if n == m:
                assert abs(pair.k2 - np.conj(pair.k1)) <= 1e-9
        for pair in repulsive_roots.values():
            assert abs(pair.k1.imag) <= 1e-9 and abs(pair.k2.imag) <= 1e-9

    def test_attraction_lowers_energy_repulsion_raises(self):
        for (n, m) in [(1, 1), (2, 1), (2, 2)]:
            free = PI**2 * (n**2 + m**2)
            assert solve(-1.0, n, m).energy < free
            assert solve(1.0, n, m).energy > free

    def test_continuation_beyond_trust_region(self):
        pair = solve(-5.0, 1, 1)
        assert verify_solution(pair) <= 1e-10
        assert abs(pair.k2 - np.conj(pair.k1)) <= 1e-9
        assert pair.k1.imag > 0.5

        repulsive = solve(3.5, 1, 1)
        assert verify_solution(repulsive) <= 1e-10
        assert abs(repulsive.k1.imag) <= 1e-9
        assert repulsive.k1.real > repulsive.k2.real

    def test_diagnostics_paths(self):
        _, diag = solve_with_diagnostics(SolveRequest(0.0, StateLabel(1, 1)))
        assert diag.path == "exact-zero" and diag.iterations == 0
        _, diag = solve_with_diagnostics(SolveRequest(-1.0, StateLabel(1, 1)))
        assert diag.path == "perturbative" and diag.iterations > 0
        _, diag = solve_with_diagnostics(SolveRequest(-3.0, StateLabel(1, 1)))
        assert diag.path == "continuation"
        _, diag = solve_with_diagnostics(SolveRequest(-1.0, StateLabel(2, 1)))
        assert diag.path == "reduced"
        assert diag.iterations >= 1
        assert diag.residual_norm <= 1e-10

    def test_ordering_conventions(self, attractive_roots):
        complex_pair = attractive_roots[(1, 1)]
        assert complex_pair.k1.imag > 0 > complex_pair.k2.imag
        real_pair = attractive_roots[(2, 1)]
        assert real_pair.k1.real > real_pair.k2.real

    def test_cutoff_rule_matches_the_basis(self):
        # SolveRequest takes the cutoffs SymmetricBasis takes, no fewer.
        assert solve(-1.0, 2, 1, n_max=16.0) == solve(-1.0, 2, 1, n_max=16)
        with pytest.raises(ValueError, match="basis cutoff"):
            SolveRequest(U=-1.0, label=StateLabel(1, 1), n_max=0)

    def test_loose_tolerance_still_validates(self):
        pair = solve(-1.0, 1, 1, newton=NewtonConfig(residual_tolerance=1e-8))
        assert round(pair.k1.real, 2) == 3.06

    def test_rejected_intermediate_continuation_step_raises(self, monkeypatch):
        # solve(-5, 1, 1) marches -2, -2.5, ..., -5.  At -3.5 Newton claims
        # convergence but hands back its seed, the root at -3.0, which misses
        # the residual ceiling at -3.5.  The march must stop there instead of
        # seeding the next step from it and recovering.
        original = solver._newton_pair

        def false_convergence(case, seed, config):
            if abs(case.U + 3.5) < 1e-12:
                return NewtonReport(np.asarray(seed, dtype=complex), 0, 0.0, True)
            return original(case, seed, config)

        monkeypatch.setattr(solver, "_newton_pair", false_convergence)
        with pytest.raises(SolutionRejected, match="exceeds"):
            solve(-5.0, 1, 1)


class TestSweep:
    def test_grid_and_endpoint(self):
        result = sweep(StateLabel(1, 1), -10.0, 0.0, 200)
        assert len(result.points) == 200
        assert all(point.pair is not None for point in result.points)
        assert result.points[0].U == -10.0
        # Emission order follows the requested grid; the march itself runs
        # from the zero end outward.
        last = result.points[-1]
        assert last.U == 0.0
        assert last.pair.k1 == PI

    def test_imaginary_part_grows_with_strength(self):
        result = sweep(StateLabel(1, 1), -10.0, 0.0, 200)
        imag = result.column("im_k1")
        assert imag[-1] == 0.0
        # Marching toward more negative U the imaginary part strictly grows.
        assert np.all(np.diff(imag[:-1]) < 0.0)

    def test_energy_identity_along_sweep(self):
        result = sweep(StateLabel(2, 2), -3.0, 0.0, 31)
        for point in result.points:
            pair = point.pair
            expected = (pair.k1.real**2 - pair.k1.imag**2
                        + pair.k2.real**2 - pair.k2.imag**2)
            assert point.energy == pytest.approx(expected, abs=1e-9)

    def test_sample_matches_direct_solve(self):
        result = sweep(StateLabel(2, 2), -1.0, 0.0, 5)
        direct = solve(-1.0, 2, 2)
        sample = result.points[0].pair
        assert sample.k1 == pytest.approx(direct.k1, abs=1e-10)
        assert sample.k2 == pytest.approx(direct.k2, abs=1e-10)

    def test_nearly_equal_imaginary_parts_across_states(self):
        lowest = solve(-1.0, 1, 1)
        highest = solve(-1.0, 5, 5)
        assert abs(lowest.k1.imag - highest.k1.imag) < 0.02

    def test_unequal_number_sweep(self):
        result = sweep(StateLabel(2, 1), -1.0, 0.0, 6, n_max=12)
        assert all(point.pair is not None for point in result.points)
        assert result.points[-1].pair.k1 == 2.0 * PI
        assert result.points[0].pair.k1 == pytest.approx(6.052, abs=5e-3)

    def test_unequal_sweep_points_normalize(self):
        # Past U = -4.5 warm (2,1) steps land on k1 = k2, where the s = -1
        # singlet vanishes; those points must be gaps.
        result = sweep(StateLabel(2, 1), -6.0, 0.0, 13)
        accepted = [point.pair for point in result.points if point.pair is not None]
        assert len(accepted) >= 9
        for pair in accepted:
            normalize(pair)

    def test_requires_two_steps(self):
        with pytest.raises(ValueError):
            sweep(StateLabel(1, 1), -1.0, 0.0, 1)

    def test_continuity_bound_calibrated_from_early_steps(self):
        # The march runs from U = 0 outward, where the square-root branch
        # makes the momenta move fastest; a slope bound calibrated on the
        # first ten marched steps must hold along the whole curve.
        result = sweep(StateLabel(1, 1), -10.0, 0.0, 200)
        pairs = [point.pair for point in reversed(result.points)]  # march order
        deltas = np.array([
            max(abs(a.k1 - b.k1), abs(a.k2 - b.k2))
            for a, b in zip(pairs, pairs[1:])
        ])
        step = 10.0 / 199.0
        bound = np.max(deltas[:10]) / step
        assert np.all(deltas <= bound * step + 1e-12)

    def test_gap_recovery(self, monkeypatch):
        result = sweep(StateLabel(1, 1), -2.0, -1.0, 5)
        poisoned = result.points[2].U
        original = solver._newton_pair

        def sabotaged(case, seed, config):
            if abs(case.U - poisoned) < 1e-12:
                raise NoConvergence("forced failure for the gap test")
            return original(case, seed, config)

        monkeypatch.setattr(solver, "_newton_pair", sabotaged)
        gapped = sweep(StateLabel(1, 1), -2.0, -1.0, 5)
        assert gapped.points[2].pair is None
        assert gapped.points[2].energy is None
        others = [p for i, p in enumerate(gapped.points) if i != 2]
        assert all(p.pair is not None for p in others)
        assert np.isnan(gapped.column("re_k1")[2])

    def test_singular_warm_step_leaves_a_gap(self, monkeypatch):
        # A singular Jacobian at one point must not abort the sweep: the warm
        # step falls back to a fresh solve, and when that fails too the point
        # is a gap.
        original = solver._newton_pair

        def singular(case, seed, config):
            if abs(case.U + 0.5) < 1e-12:
                raise SingularJacobian("forced singular step")
            return original(case, seed, config)

        monkeypatch.setattr(solver, "_newton_pair", singular)
        result = sweep(StateLabel(1, 1), -1.0, 0.0, 11)
        assert result.points[5].U == pytest.approx(-0.5)
        assert result.points[5].pair is None
        others = [p for i, p in enumerate(result.points) if i != 5]
        assert all(p.pair is not None for p in others)

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(request):
            raise RuntimeError("not a numerical failure")

        monkeypatch.setattr(solver, "solve_with_diagnostics", broken)
        with pytest.raises(RuntimeError, match="not a numerical failure"):
            sweep(StateLabel(1, 1), -2.0, -1.0, 5)

    def test_sweep_crossing_zero(self):
        result = sweep(StateLabel(1, 1), -0.5, 0.5, 5)
        strengths = [point.U for point in result.points]
        assert strengths == pytest.approx([-0.5, -0.25, 0.0, 0.25, 0.5])
        assert result.points[2].pair.k1 == PI
        assert result.points[0].pair.k1.imag > 0.0
        assert abs(result.points[-1].pair.k1.imag) <= 1e-9
