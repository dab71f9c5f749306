"""Coverage map: which (n, m, U) points of a fixed grid solve, and how the
rest fail.

The grid is n, m <= 6 and U in linspace(-20, 20, 16) at the default CI
cutoff.  481 of its 576 points solve; the pass share may only go up.
"""

import numpy as np
import pytest

from pairwell import singlet_amplitude, solve
from pairwell.errors import PairwellError
from pairwell.transcend import verify_solution

_STRENGTHS = [float(U) for U in np.linspace(-20.0, 20.0, 16)]
_POINTS = [(n, m, U) for n in range(1, 7) for m in range(1, 7) for U in _STRENGTHS]
_SOLVED_FLOOR = 481
# Off-diagonal probe points; a singlet that vanishes identically (k1 = k2
# with ratio sign -1) reads zero to roundoff at every one of them.
_PROBE_X1 = np.array([0.13, 0.29, 0.41, 0.58, 0.77])
_PROBE_X2 = np.array([0.62, 0.88, 0.07, 0.35, 0.21])


@pytest.fixture(scope="module")
def coverage():
    """Each grid point mapped to its pair or the exception it raised."""
    outcomes = {}
    for n, m, U in _POINTS:
        try:
            outcomes[n, m, U] = solve(U, n, m)
        except Exception as exc:  # noqa: BLE001 - the type is under test
            outcomes[n, m, U] = exc
    return outcomes


def _accepted(coverage):
    return {key: value for key, value in coverage.items()
            if not isinstance(value, Exception)}


def test_pass_share_does_not_drop(coverage):
    assert len(coverage) == 576
    assert len(_accepted(coverage)) >= _SOLVED_FLOOR


def test_accepted_pairs_are_exact_roots(coverage):
    for key, pair in _accepted(coverage).items():
        assert verify_solution(pair) <= 1e-10, key


def test_accepted_singlets_do_not_vanish(coverage):
    for key, pair in _accepted(coverage).items():
        amplitude = np.abs(singlet_amplitude(pair, _PROBE_X1, _PROBE_X2))
        assert np.max(amplitude) > 1e-9, key


def test_failures_are_typed(coverage):
    for key, outcome in coverage.items():
        if isinstance(outcome, Exception):
            assert isinstance(outcome, PairwellError), (key, outcome)
