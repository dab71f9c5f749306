"""Energy-circle constrained stage and the unequal-number solve."""

import numpy as np
import pytest

from pairwell import cimethod, reduced
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

    # Residual calls and the returned momenta (float.hex) of each search
    # before the accepted trial residual was reused (n_max 16).
    _BEFORE_REUSE = {
        ((2, 1), -3.0): (35, "0x1.d88ed46868972p+1", "0x1.5a264fb5ebcedp+2"),
        ((2, 1), -1.0): (11, "0x1.a1ed1ce4b225ep+1", "0x1.8362029248b15p+2"),
        ((2, 1), 2.0): (11, "0x1.7d3bc32951c50p+1", "0x1.a9e4e4e577baep+2"),
        ((2, 1), 5.0): (11, "0x1.6cc148b352075p+1", "0x1.c4db1e0e38326p+2"),
        ((3, 1), -3.0): (12, "0x1.a2f48d9d4a84dp+1", "0x1.21b5e834b4d03p+3"),
        ((3, 1), -1.0): (9, "0x1.976a9445350e7p+1", "0x1.29b78ec06871ep+3"),
        ((3, 1), 2.0): (9, "0x1.88d04c28b65d5p+1", "0x1.34f94e1b45c7fp+3"),
        ((3, 1), 5.0): (9, "0x1.7e2ff24d9b55ep+1", "0x1.3efa569beb3dbp+3"),
        ((3, 2), -3.0): (15, "0x1.b98e60890c676p+2", "0x1.13c196e01b129p+3"),
        ((3, 2), -1.0): (11, "0x1.9b67bf7338290p+2", "0x1.26ea0d9685992p+3"),
        ((3, 2), 2.0): (11, "0x1.8513585e103e3p+2", "0x1.382e218424da8p+3"),
        ((3, 2), 5.0): (12, "0x1.7973c9e0d7e52p+2", "0x1.43fcb812046d2p+3"),
    }

    @pytest.mark.parametrize("key", list(_BEFORE_REUSE),
                             ids=lambda key: f"{key[0][0]}-{key[0][1]}-U{key[1]:g}")
    def test_accepted_trial_residual_is_reused(self, monkeypatch, key):
        (n, m), U = key
        calls_before, k1_before, k2_before = self._BEFORE_REUSE[key]
        calls = []

        def counting_residual(case, k):
            calls.append(k)
            return residual(case, k)

        monkeypatch.setattr(reduced.transcend, "residual", counting_residual)
        label = StateLabel(n, m)
        case = TranscendentalCase(U=U, s=label.case_sign)
        energy = cimethod.energy_for_state(U, label, 16)
        k1, k2 = _stage_a(case, energy, float(np.arctan2(m * PI, n * PI)))
        assert (k1.hex(), k2.hex()) == (k1_before, k2_before)
        assert len(calls) < calls_before


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
