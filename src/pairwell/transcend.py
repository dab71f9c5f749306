"""Quantization conditions for a contact-interacting electron pair in a box.

Two electrons in a unit-length infinite well with a pointlike interaction of
dimensionless strength U admit momentum pairs (k1, k2) constrained by a ratio
condition between the two mode amplitudes and a cotangent relation carrying
U.  Both conditions are kept here in polynomial-in-sines form,

    f1 = k1 sin(k2) + s k2 sin(k1),
    f2 = 2 [k1 cos(k1) sin(k2) + k2 cos(k2) sin(k1)] + U sin(k1) sin(k2),

with s = +1 for the amplitude-ratio -1 branch and s = -1 for the +1 branch.
Multiplying through by sin(k1) sin(k2) removes every pole of the raw
quotient-and-cotangent form, so f1 and f2 are entire and Newton steps may
pass near multiples of pi safely.  The price is a family of spurious roots
at sin(k1) = sin(k2) = 0, which :func:`verify_solution` rejects unless U = 0.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import SolutionRejected

__all__ = [
    "TranscendentalCase",
    "StateLabel",
    "MomentumPair",
    "residual",
    "jacobian",
    "verify_solution",
]

# A candidate sitting closer than this to a non-interacting point (both sines
# vanishing) cannot be checked through the quotient form.
_SIN_FLOOR = 1e-8
# Residual level at which a candidate counts as a root for cross-checking.
_ROOT_LEVEL = 1e-8
# Relative distance below which two momenta count as equal.
_COLLISION_LEVEL = 1e-8


@dataclasses.dataclass(frozen=True)
class TranscendentalCase:
    """Interaction strength plus the amplitude-ratio sign selecting f1."""

    U: float
    s: int

    def __post_init__(self) -> None:
        if self.s not in (1, -1):
            raise ValueError(f"ratio sign must be +1 or -1, got {self.s}")
        if not np.isfinite(self.U):
            raise ValueError("interaction strength must be finite")


@dataclasses.dataclass(frozen=True)
class StateLabel:
    """Quantum numbers of the non-interacting parent state."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("quantum numbers must be positive integers")

    @property
    def parity_class(self) -> str:
        """``"same"`` when n and m are both even or both odd."""
        return "same" if (self.n - self.m) % 2 == 0 else "different"

    @property
    def case_sign(self) -> int:
        """Ratio sign of the residual system this state satisfies."""
        return 1 if self.parity_class == "same" else -1


@dataclasses.dataclass(frozen=True)
class MomentumPair:
    """A solved momentum pair with the case and state it belongs to.

    Construction enforces the solution invariants: the scaled energy
    k1^2 + k2^2 must be real to 1e-9, and attractive same-number states must
    come as a conjugate pair.
    """

    k1: complex
    k2: complex
    case: TranscendentalCase
    label: StateLabel

    def __post_init__(self) -> None:
        object.__setattr__(self, "k1", complex(self.k1))
        object.__setattr__(self, "k2", complex(self.k2))
        energy = self.k1**2 + self.k2**2
        if abs(energy.imag) > 1e-9:
            raise SolutionRejected(
                f"scaled energy has imaginary part {energy.imag:.3e}"
            )
        if self.label.n == self.label.m and self.case.U < 0:
            if abs(self.k2 - self.k1.conjugate()) > 1e-9:
                raise SolutionRejected(
                    "attractive equal-number solutions must be conjugate pairs"
                )

    @property
    def energy(self) -> float:
        """Scaled energy k1^2 + k2^2 in units of hbar^2 / (2 m L^2)."""
        return float((self.k1**2 + self.k2**2).real)


def residual(case: TranscendentalCase, k) -> np.ndarray:
    """Regularized residual (f1, f2) at momenta ``k = (k1, k2)``.

    Both components vanish exactly where the quotient-and-cotangent
    quantization conditions hold.  Real input yields a real residual.
    """
    k1, k2 = k[0], k[1]
    s1, s2 = np.sin(k1), np.sin(k2)
    f1 = k1 * s2 + case.s * k2 * s1
    f2 = 2.0 * (k1 * np.cos(k1) * s2 + k2 * np.cos(k2) * s1) + case.U * s1 * s2
    return np.array([f1, f2])


def jacobian(case: TranscendentalCase, k) -> np.ndarray:
    """Closed-form derivative of :func:`residual` with respect to (k1, k2)."""
    k1, k2 = k[0], k[1]
    s1, c1 = np.sin(k1), np.cos(k1)
    s2, c2 = np.sin(k2), np.cos(k2)
    d11 = s2 + case.s * k2 * c1
    d12 = k1 * c2 + case.s * s1
    d21 = 2.0 * ((c1 - k1 * s1) * s2 + k2 * c2 * c1) + case.U * c1 * s2
    d22 = 2.0 * ((c2 - k2 * s2) * s1 + k1 * c1 * c2) + case.U * c2 * s1
    return np.array([[d11, d12], [d21, d22]])


def verify_solution(pair: MomentumPair) -> float:
    """Max-norm of the regularized residual at ``pair``.

    When both sines are bounded away from zero the raw quotient and
    cotangent forms are recomputed and must agree with the regularized root
    status; a candidate parked on a non-interacting point (both sines zero)
    is a spurious root of the polynomial form and is only accepted at U = 0.
    Equal momenta with ratio sign -1 are rejected at any residual: the two
    terms of the singlet amplitude then cancel and no state is left.

    Raises:
        SolutionRejected: spurious or inconsistent root.
    """
    case = pair.case
    k1, k2 = pair.k1, pair.k2
    rnorm = float(np.max(np.abs(residual(case, (k1, k2)))))

    if min(abs(k1), abs(k2)) < _SIN_FLOOR and rnorm <= _ROOT_LEVEL:
        # Every term of f1 and f2 carries a factor of the vanishing momentum,
        # so the k = 0 axes are root lines of the polynomial form; they do
        # not correspond to states.
        raise SolutionRejected("zero momentum is not a valid mode")

    if case.s == -1 and abs(k1 - k2) <= _COLLISION_LEVEL * max(1.0, abs(k1)):
        raise SolutionRejected("equal momenta make the s = -1 singlet vanish")

    sin1, sin2 = np.sin(k1), np.sin(k2)
    if abs(sin1) < _SIN_FLOOR and abs(sin2) < _SIN_FLOOR:
        if rnorm <= _ROOT_LEVEL and case.U != 0.0:
            raise SolutionRejected(
                "root coincides with a non-interacting point but U != 0"
            )
        return rnorm
    if min(abs(sin1), abs(sin2)) >= _SIN_FLOOR and rnorm <= _ROOT_LEVEL:
        quotient = k1 * sin2 / (k2 * sin1) + case.s
        cotangent = 2.0 * (k1 * np.cos(k1) / sin1 + k2 * np.cos(k2) / sin2) + case.U
        if max(abs(quotient), abs(cotangent)) > 1e-3:
            raise SolutionRejected(
                "regularized root disagrees with the quotient form"
            )
    return rnorm
