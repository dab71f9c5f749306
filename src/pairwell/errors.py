"""Exception types shared across the package."""


class PairwellError(Exception):
    """Base class for all package-specific failures."""


class SingularJacobian(PairwellError):
    """The Newton linear solve hit a singular or numerically unusable Jacobian."""


class NoConvergence(PairwellError):
    """An iteration budget was exhausted before reaching tolerance.

    Carries the best iterate seen (a ``NewtonReport`` with ``converged=False``)
    in ``report`` when the failing routine had one.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class BadPanelCount(PairwellError, ValueError):
    """Simpson quadrature needs an even, positive panel count."""


class DegenerateDenominator(PairwellError, ValueError):
    """The perturbative shift formula divides by zero at interaction strength -4."""


class WrongSolvePath(PairwellError, ValueError):
    """A routine restricted to equal quantum numbers was called with n != m."""


class ReductionFailed(PairwellError):
    """The constrained least-squares stage had a nonpositive energy seed or
    stagnated far from a root."""


class LabelNotFound(PairwellError, LookupError):
    """No eigenstate with the requested dominant quantum numbers was found."""


class SolutionRejected(PairwellError):
    """A candidate momentum pair violated a solution invariant."""


class DegenerateState(PairwellError):
    """The wavefunction vanishes identically and cannot be normalized."""


class IdenticallyZero(PairwellError, ValueError):
    """The antisymmetric spatial factor vanishes when n = m."""
