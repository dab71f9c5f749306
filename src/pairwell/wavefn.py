"""Two-electron spatial wavefunctions on the unit square.

The spin-singlet spatial factor for a solved momentum pair (k1, k2) is the
piecewise mode product

    x1 < x2:  N sin(k1 x1) sin(k2 (1 - x2)) + M sin(k2 x1) sin(k1 (1 - x2))
    x1 > x2:  the same expression with x1 and x2 exchanged,

here with N = 1 and M = s, the amplitude-ratio sign of the solved case.  Both
branches agree on x1 = x2 and are functions of (min, max) only, so exchange
symmetry is built in; the contact interaction shows up as a derivative kink
across the diagonal, not in the values.

In the rotated coordinates u = x1 + x2 - 1 and v = x1 - x2 + 1 the x1 < x2
branch is a sum of two separated products of a = (k1 + k2) / 2 (centre of
mass) and d = (k1 - k2) / 2 (separation),

    s = +1:  cos(a u) cos(d v) - cos(a v) cos(d u),
    s = -1:  sin(a v) sin(d u) - sin(a u) sin(d v),

on the triangle {0 <= v <= 1, |u| <= v}.  The overall scale that makes the
density integrate to one therefore comes in closed form, with no quadrature.

The spin-triplet factor is the antisymmetrized product of two distinct box
modes and is unaffected by the contact term.  The box length is fixed to 1
throughout (momenta are dimensionless); energies convert to physical units
through hbar^2 / (2 m L^2), which is never applied here.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateState, IdenticallyZero
# simpson_2d is no longer called here; it stays a module attribute because
# perfbench/tracing.py patches wavefn.simpson_2d.
from .numerics import _simpson_weights, simpson_2d  # noqa: F401
from .transcend import MomentumPair, StateLabel, TranscendentalCase

__all__ = [
    "SingletWavefunction",
    "DensityGrid",
    "singlet_amplitude",
    "triplet_amplitude",
    "normalize",
    "density_grid",
    "schrodinger_residual",
]

_DEFAULT_RESOLUTION = 201
# Below this modulus the quotients of the norm's closed form switch to their
# two-term Taylor series, whose next term is below 1e-18 relative.
_SERIES_LEVEL = 1e-4
# Finite-difference step and the exclusion margin of the pointwise
# Schroedinger check.
_FD_STEP = 1e-4
_EXCLUSION = 0.05


def _raw_amplitude(k1: complex, k2: complex, s: int, x1, x2) -> np.ndarray:
    low = np.minimum(x1, x2)
    high = np.maximum(x1, x2)
    return (
        np.sin(k1 * low) * np.sin(k2 * (1.0 - high))
        + s * np.sin(k2 * low) * np.sin(k1 * (1.0 - high))
    )


def _amplitude_on_axis(k1: complex, k2: complex, s: int, xs: NDArray[np.float64]) -> np.ndarray:
    """``_raw_amplitude`` on the square grid ``xs`` x ``xs``, from axis sines.

    On the upper triangle i <= j the amplitude is a rank-2 outer product of
    sines of xs[i] (low) and of 1 - xs[j] (high); the lower triangle is its
    mirror.  The operands and their order match ``_raw_amplitude``, so each
    element is bit-identical to the pointwise value, from 4 n sines instead
    of 4 n^2.
    """
    high_k2 = np.sin(k2 * (1.0 - xs))[None, :]
    high_k1 = np.sin(k1 * (1.0 - xs))[None, :]
    amplitude = (np.sin(k1 * xs)[:, None] * high_k2
                 + (s * np.sin(k2 * xs))[:, None] * high_k1)
    lower = np.tril_indices(xs.size, -1)
    amplitude[lower] = amplitude.T[lower]
    return amplitude


def singlet_amplitude(pair: MomentumPair, x1, x2, s: int | None = None):
    """Unnormalized singlet amplitude at scaled positions in [0, 1].

    ``s`` defaults to the ratio sign of the pair's solved case.  Accepts
    scalars or broadcastable arrays; for a conjugate momentum pair with
    s = +1 the two terms are mutual conjugates and the value is real up to
    roundoff.
    """
    sign = pair.case.s if s is None else s
    return _raw_amplitude(pair.k1, pair.k2, sign, np.asarray(x1), np.asarray(x2))


def triplet_amplitude(n: int, m: int, x1, x2):
    """Normalized antisymmetric spatial factor for distinct modes n and m.

    Raises:
        IdenticallyZero: n = m makes the antisymmetrized product vanish.
    """
    if n == m:
        raise IdenticallyZero("the antisymmetric spatial factor vanishes for n = m")
    k1, k2 = n * np.pi, m * np.pi
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    return np.sqrt(2.0) * (
        np.sin(k1 * x1) * np.sin(k2 * x2) - np.sin(k2 * x1) * np.sin(k1 * x2)
    )


@dataclasses.dataclass
class SingletWavefunction:
    """A normalized singlet spatial wavefunction for a solved pair."""

    pair: MomentumPair
    s: int
    norm: float

    def value(self, x1, x2):
        """Normalized amplitude at scaled positions."""
        return self.norm * _raw_amplitude(self.pair.k1, self.pair.k2, self.s, x1, x2)

    def _value_on_axis(self, xs: NDArray[np.float64]) -> np.ndarray:
        """``value`` on the square grid ``xs`` x ``xs``, bit for bit."""
        return self.norm * _amplitude_on_axis(self.pair.k1, self.pair.k2, self.s, xs)

    def density(self, x1, x2):
        """Probability density |Psi|^2."""
        return np.abs(self.value(x1, x2)) ** 2

    def max_abs(self) -> float:
        """Largest |Psi| on a 201-point grid; cached after the first call."""
        cached = getattr(self, "_max_abs", None)
        if cached is None:
            cached = float(np.max(np.abs(self._value_on_axis(_axis(_DEFAULT_RESOLUTION)))))
            self._max_abs = cached
        return cached


@dataclasses.dataclass(frozen=True)
class DensityGrid:
    """|Psi|^2 sampled on a uniform inclusive grid over the unit square.

    ``values[i, j]`` is the density at (x1_i, x2_j), row-major.  The
    resolution is odd so the grid doubles as a Simpson rule: the grid sum
    must integrate to one within 1e-4 at the default resolution.
    """

    resolution: int
    values: NDArray[np.float64]
    pair: MomentumPair
    s: int
    norm: float

    @property
    def U(self) -> float:
        return self.pair.case.U

    @property
    def label(self) -> StateLabel:
        return self.pair.label

    def axis(self) -> NDArray[np.float64]:
        return np.linspace(0.0, 1.0, self.resolution)

    def simpson_integral(self) -> float:
        """Simpson integral of the stored density over the unit square."""
        panels = self.resolution - 1
        weights = _simpson_weights(panels)
        h = 1.0 / panels
        return float(
            (h / 3.0) ** 2 * weights @ self.values @ weights
        )

    def diagonal_mean(self) -> float:
        """Mean density along x1 = x2."""
        return float(np.mean(np.diag(self.values)))

    def antidiagonal_mean(self) -> float:
        """Mean density along x1 + x2 = 1."""
        return float(np.mean(np.diag(np.fliplr(self.values))))


def _sine_mean(x: complex) -> complex:
    """(1 - cos x) / x, the mean of sin(x v) over v in [0, 1], without cancellation."""
    if abs(x) < _SERIES_LEVEL:
        return 0.5 * x * (1.0 - x * x / 12.0)
    half = cmath.sin(0.5 * x)
    return 2.0 * half * half / x


def _triangle_cosines(alpha: complex, beta: complex) -> complex:
    """Integral of cos(alpha u) cos(beta v) over {0 <= v <= 1, |u| <= v}.

    Integrating u first gives (f(alpha + beta) + f(alpha - beta)) / alpha with
    f = ``_sine_mean``; integrating v first gives
    (2 sin(beta) sinc(alpha) - f(beta + alpha) - f(beta - alpha)) / beta.
    Dividing by the larger of the two frequencies keeps either quotient free
    of cancellation, down to alpha = beta = 0 where the integral is the
    triangle's area, 1.
    """
    if abs(alpha) >= abs(beta):
        if alpha == 0.0:
            return 1.0
        return (_sine_mean(alpha + beta) + _sine_mean(alpha - beta)) / alpha
    if abs(alpha) < _SERIES_LEVEL:
        sinc = 1.0 - alpha * alpha / 6.0
    else:
        sinc = cmath.sin(alpha) / alpha
    return (2.0 * cmath.sin(beta) * sinc
            - _sine_mean(beta + alpha) - _sine_mean(beta - alpha)) / beta


def _product_overlap(p: complex, q: complex, r: complex, t: complex,
                     odd: bool) -> complex:
    """Triangle integral of g(p u) g(q v) conj(g(r u) g(t v)).

    g is sin when ``odd`` and cos otherwise; each product of two g's is half
    a sum (cos) or difference (sin) of cosines of the summed and differenced
    frequencies.
    """
    r, t = r.conjugate(), t.conjugate()
    total = 0.0
    for su in (1.0, -1.0):
        for sv in (1.0, -1.0):
            term = _triangle_cosines(p + su * r, q + sv * t)
            total += su * sv * term if odd else term
    return 0.25 * total


def normalize(pair: MomentumPair, s: int | None = None) -> SingletWavefunction:
    """Fix the overall scale so the density integrates to one.

    The integral of |Psi|^2 over the unit square equals that of
    |X(a, d) - X(d, a)|^2 over the (u, v) triangle, X(p, q) = g(p u) g(q v)
    with g = cos for s = +1 and sin for s = -1 (see the module docstring).
    It expands into 12 triangle integrals of cosine products, each in closed
    form, and holds for any pair: conjugate, real, or a complex pair that is
    not conjugate, with either sign.

    Raises:
        DegenerateState: the unnormalized amplitude vanishes identically
            (for example equal momenta with ratio sign -1).
        ValueError: ``s`` is not +1 or -1, or the integral is not finite
            (the amplitude overflows).
    """
    sign = pair.case.s if s is None else s
    if sign not in (1, -1):
        raise ValueError(f"ratio sign must be +1 or -1, got {sign}")
    a = 0.5 * (pair.k1 + pair.k2)
    d = 0.5 * (pair.k1 - pair.k2)
    odd = sign == -1
    try:
        integral = (_product_overlap(a, d, a, d, odd).real
                    + _product_overlap(d, a, d, a, odd).real
                    - 2.0 * _product_overlap(a, d, d, a, odd).real)
    except (OverflowError, ValueError):
        # cmath raises where numpy would return inf or nan.
        integral = math.nan
    if not math.isfinite(integral):
        raise ValueError("the norm integral is not finite")
    if integral < 1e-12:
        raise DegenerateState("wavefunction norm vanishes; cannot normalize")
    return SingletWavefunction(pair=pair, s=sign, norm=1.0 / math.sqrt(integral))


def _axis(resolution: int) -> NDArray[np.float64]:
    """Inclusive sample axis over [0, 1]; odd so it doubles as a Simpson rule."""
    resolution = int(resolution)
    if resolution < 3 or resolution % 2 == 0:
        raise ValueError(f"resolution must be odd and >= 3, got {resolution}")
    return np.linspace(0.0, 1.0, resolution)


def density_grid(wavefunction: SingletWavefunction,
                 resolution: int = _DEFAULT_RESOLUTION) -> DensityGrid:
    """Sample the probability density on an odd inclusive grid."""
    xs = _axis(resolution)
    values = np.abs(wavefunction._value_on_axis(xs)) ** 2
    return DensityGrid(
        resolution=xs.size,
        values=values,
        pair=wavefunction.pair,
        s=wavefunction.s,
        norm=wavefunction.norm,
    )


def _triplet_grid(U: float, label: StateLabel, resolution: int) -> DensityGrid:
    """Density of the normalized triplet factor of distinct modes n, m."""
    if label.n == label.m:
        raise IdenticallyZero("triplet density requires n != m")
    xs = _axis(resolution)
    pair = MomentumPair(
        k1=max(label.n, label.m) * np.pi,
        k2=min(label.n, label.m) * np.pi,
        case=TranscendentalCase(U=U, s=-1),
        label=label,
    )
    values = np.abs(triplet_amplitude(label.n, label.m,
                                      xs[:, None], xs[None, :])) ** 2
    return DensityGrid(resolution=xs.size, values=values, pair=pair, s=-1,
                       norm=1.0)


def schrodinger_residual(wavefunction: SingletWavefunction,
                         x1: float, x2: float) -> float:
    """Pointwise free-Schroedinger defect away from the interaction line.

    Evaluates |(-d^2/dx1^2 - d^2/dx2^2) Psi - E Psi| / max|Psi| with
    five-point central second differences (step 1e-4), where E is the scaled
    energy of the stored momentum pair.  The point must keep a distance of
    at least 0.05 from the diagonal x1 = x2 (where the interaction acts) and
    from the box walls, so the stencil never straddles a kink.
    """
    if abs(x1 - x2) / np.sqrt(2.0) < _EXCLUSION:
        raise ValueError("point is too close to the interaction diagonal")
    if min(x1, 1.0 - x1, x2, 1.0 - x2) < _EXCLUSION:
        raise ValueError("point is too close to the box walls")

    h = _FD_STEP
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    along_x1 = wavefunction.value(x1 + offsets, x2)
    along_x2 = wavefunction.value(x1, x2 + offsets)
    laplacian = np.dot(stencil, along_x1) + np.dot(stencil, along_x2)
    defect = -laplacian - wavefunction.pair.energy * wavefunction.value(x1, x2)
    return float(abs(defect) / wavefunction.max_abs())
