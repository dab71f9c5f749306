"""Energy-circle constrained stage and the unequal-number solve."""

import numpy as np
import pytest

from pairwell import cimethod
from pairwell.errors import ReductionFailed, SolutionRejected
from pairwell.reduced import _stage_a
from pairwell.solver import solve
from pairwell.transcend import StateLabel, TranscendentalCase, residual

PI = np.pi


class TestStageA:
    """The constrained stage: a search in theta on the energy circle."""

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (1, 2)])
    def test_momenta_are_real_and_on_the_energy_circle(self, n, m):
        label = StateLabel(n, m)
        case = TranscendentalCase(U=-1.0, s=label.case_sign)
        energy = cimethod.energy_for_state(-1.0, label)
        k1, k2 = _stage_a(case, energy, float(np.arctan2(m * PI, n * PI)))
        assert isinstance(k1, float) and isinstance(k2, float)
        assert k1**2 + k2**2 == pytest.approx(energy, rel=1e-12)
        assert np.max(np.abs(residual(case, (k1, k2)))) <= 0.5


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
        # land on a rejected root family (zero momentum, free point), and a
        # nonpositive one has no real energy circle at all.
        for bogus, expected in [(5000.0, ReductionFailed),
                                (20.0, SolutionRejected),
                                (1.0, SolutionRejected),
                                (-5.0, ReductionFailed)]:
            monkeypatch.setattr(cimethod, "energy_for_state",
                                lambda *a, value=bogus, **k: value)
            with pytest.raises(expected):
                solve(-1.0, 2, 1)
