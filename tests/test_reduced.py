"""Real-energy reparameterization and the unequal-number solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairwell import cimethod
from pairwell.errors import ReductionFailed, SolutionRejected
from pairwell.reduced import _momenta
from pairwell.solver import solve
from pairwell.transcend import residual

PI = np.pi


class TestParamsToMomenta:
    """The (E, rho, theta) -> (k1, k2) map behind the constrained stage."""

    def test_noninteracting_ground(self):
        k1, k2 = _momenta(2.0 * PI**2, 0.0, PI / 4.0)
        assert k1 == pytest.approx(PI, abs=1e-12)
        assert k2 == pytest.approx(PI, abs=1e-12)

    def test_inverts_reference_real_pair(self):
        energy = 6.05**2 + 3.27**2
        k1, k2 = _momenta(energy, 0.0, float(np.arctan2(3.27, 6.05)))
        assert sorted([k1.real, k2.real]) == pytest.approx([3.27, 6.05], abs=1e-12)
        assert k1.imag == 0.0 and k2.imag == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        energy=st.floats(-50.0, 400.0, allow_nan=False),
        rho=st.floats(0.0, 10.0, allow_nan=False),
        theta=st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False),
    )
    def test_energy_stays_real(self, energy, rho, theta):
        # Only the real-energy surface E + rho^2 >= 0 keeps omega real.
        if energy + rho**2 < 0:
            return
        k1, k2 = _momenta(energy, rho, theta)
        total = k1**2 + k2**2
        scale = 1.0 + abs(energy) + rho**2
        assert abs(total.imag) <= 1e-10 * scale
        assert total.real == pytest.approx(energy, abs=1e-9 * scale)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(0.1, 20.0, allow_nan=False),
        b=st.floats(0.1, 20.0, allow_nan=False),
    )
    def test_round_trip_real_pairs(self, a, b):
        k1, k2 = _momenta(a**2 + b**2, 0.0, float(np.arctan2(a, b)))
        assert k1.real == pytest.approx(a, rel=1e-12)
        assert k2.real == pytest.approx(b, rel=1e-12)


class TestSolveNonidentical:
    def test_reference_different_parity(self):
        pair = solve(-1.0, 2, 1)
        assert pair.case.s == -1
        assert round(pair.k1.real, 2) == pytest.approx(6.05)
        assert round(pair.k2.real, 2) == pytest.approx(3.27)

    def test_reference_same_parity(self):
        pair = solve(-1.0, 3, 1)
        assert pair.case.s == 1
        assert round(pair.k1.real, 2) == pytest.approx(9.30)
        assert round(pair.k2.real, 2) == pytest.approx(3.18)

    def test_solutions_are_real_ordered_and_exact(self):
        for n, m in ((2, 1), (3, 1), (1, 2)):
            pair = solve(-1.0, n, m)
            assert pair.k1.imag == 0.0 and pair.k2.imag == 0.0
            assert pair.k1.real > pair.k2.real
            assert np.max(np.abs(residual(pair.case, (pair.k1, pair.k2)))) <= 1e-10

    def test_repulsive_real_pair(self):
        pair = solve(1.0, 2, 1)
        assert pair.k1.imag == 0.0
        assert pair.energy > 5.0 * PI**2

    def test_garbage_energy_seeds_fail_loudly(self, monkeypatch):
        # A useless variational seed must not silently return a spurious
        # root: far-off energies either stagnate in the constrained stage or
        # land on a rejected root family (zero momentum, free point).
        for bogus, expected in [(5000.0, ReductionFailed),
                                (20.0, SolutionRejected),
                                (1.0, SolutionRejected)]:
            monkeypatch.setattr(cimethod, "energy_for_state",
                                lambda *a, value=bogus, **k: value)
            with pytest.raises(expected):
                solve(-1.0, 2, 1)
