"""Configuration-interaction engine over the symmetric two-particle basis.

The scaled two-electron Hamiltonian -d^2/dxi^2 - d^2/deta^2 + U delta(xi-eta)
is assembled in the truncated basis of symmetrized products of box modes
psi_n(x) = sqrt(2) sin(n pi x),

    |n, m> = N_nm (psi_n(xi) psi_m(eta) + psi_m(xi) psi_n(eta)),

with N_nm = 1/2 for n = m and 1/sqrt(2) otherwise, over 1 <= n <= m <= n_max.
Kinetic elements are diagonal; the contact interaction collapses to a
seven-term Kronecker pattern in the mode numbers, of which five terms can
fire in the ordered basis.  That pattern conserves (n + m) mod 2, the
reflection parity about x = 1/2, so the matrix splits into two parity blocks
that are diagonalized separately with LAPACK.  The eigenvalues are
variational energies used to seed the exact transcendental solve for states
whose quantum numbers differ.

Contact interactions converge slowly in a mode cutoff (roughly 1/n_max), but
the energies only have to be good enough to land Newton in the right basin,
so the default cutoff of 30 (basis size 465) is plenty.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from numpy.typing import NDArray

from .errors import LabelNotFound
from .transcend import StateLabel

__all__ = [
    "DEFAULT_N_MAX",
    "check_cutoff",
    "SymmetricBasis",
    "CIHamiltonian",
    "CIEigenstate",
    "basis_norm",
    "kinetic_element",
    "interaction_element",
    "build_hamiltonian",
    "spectrum",
    "energy_for_state",
]

DEFAULT_N_MAX = 30


def basis_norm(n: int, m: int) -> float:
    """Normalization N_nm of the symmetrized basis state."""
    return 0.5 if n == m else 1.0 / np.sqrt(2.0)


def kinetic_element(n: int, m: int, nt: int, mt: int) -> float:
    """Matrix element of -d^2/dxi^2 - d^2/deta^2 between |n,m> and |nt,mt>."""
    deltas = (1.0 if (n == nt and m == mt) else 0.0) + (
        1.0 if (n == mt and nt == m) else 0.0
    )
    return 2.0 * np.pi**2 * (nt**2 + mt**2) * basis_norm(nt, mt) * basis_norm(n, m) * deltas


def interaction_element(n: int, m: int, nt: int, mt: int, U: float) -> float:
    """Matrix element of the contact term U delta(xi - eta).

    The overlap of four box modes on the diagonal xi = eta reduces to sums of
    Kronecker deltas in the mode numbers; parity-forbidden combinations cancel
    to zero identically.
    """
    def delta(a: int, b: int) -> float:
        return 1.0 if a == b else 0.0

    pattern = (
        delta(n + mt, m + nt)
        + delta(n + nt, m + mt)
        - delta(m + nt + mt, n)
        - delta(n + nt + mt, m)
        - delta(n + m + mt, nt)
        - delta(n + m + nt, mt)
        + delta(n + m, nt + mt)
    )
    return 2.0 * U * basis_norm(nt, mt) * basis_norm(n, m) * pattern


def check_cutoff(n_max: int) -> int:
    """The basis cutoff as an int; raises ValueError when it is below 1."""
    if n_max < 1:
        raise ValueError("basis cutoff must be a positive integer")
    return int(n_max)


class SymmetricBasis:
    """Ordered truncated basis of symmetric states (n, m), 1 <= n <= m <= n_max."""

    def __init__(self, n_max: int):
        self.n_max = check_cutoff(n_max)
        self.states: tuple[tuple[int, int], ...] = tuple(
            (n, m) for n in range(1, self.n_max + 1) for m in range(n, self.n_max + 1)
        )
        self._index = {state: i for i, state in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def index_of(self, n: int, m: int) -> int:
        """Row of the (unordered) pair {n, m}; raises LabelNotFound outside."""
        key = (min(n, m), max(n, m))
        try:
            return self._index[key]
        except KeyError:
            raise LabelNotFound(f"state {key} is outside the n_max={self.n_max} basis") from None


@dataclasses.dataclass(frozen=True)
class CIHamiltonian:
    """Dense symmetric Hamiltonian over a truncated symmetric basis."""

    matrix: NDArray[np.float64]
    U: float
    basis: SymmetricBasis


@dataclasses.dataclass(frozen=True)
class CIEigenstate:
    """One variational eigenstate with its dominant parent label.

    ``dominant_label`` follows the larger-number-first convention matching
    the momentum ordering k1 > k2.
    """

    energy: float
    coefficients: NDArray[np.float64]
    dominant_label: StateLabel


def build_hamiltonian(basis: SymmetricBasis, U: float) -> CIHamiltonian:
    """Assemble the kinetic-plus-contact matrix, exactly symmetric."""
    n = np.array([s[0] for s in basis.states])
    m = np.array([s[1] for s in basis.states])
    norms = np.where(n == m, 0.5, 1.0 / np.sqrt(2.0))

    # Bra indices vary along rows, ket indices along columns.  Each Kronecker
    # term of interaction_element compares a sum or difference of bra mode
    # numbers with one of ket mode numbers.  With n <= m on both sides,
    # m + nt + mt = n and n + m + mt = nt never hold, so five terms remain.
    diff_b, sum_b = (m - n)[:, None], (n + m)[:, None]
    diff_k, sum_k = (m - n)[None, :], (n + m)[None, :]
    contact_pattern = (
        (diff_b == diff_k).astype(np.int8)
        + (diff_b == -diff_k)
        - (diff_b == sum_k)
        - (sum_b == diff_k)
        + (sum_b == sum_k)
    )
    matrix = 2.0 * U * np.outer(norms, norms) * contact_pattern
    # The kinetic term is diagonal in this basis.
    matrix[np.diag_indices_from(matrix)] += (
        2.0 * np.pi**2 * (n**2 + m**2) * norms**2 * np.where(n == m, 2.0, 1.0)
    )
    return CIHamiltonian(matrix=matrix, U=float(U), basis=basis)


@functools.lru_cache(maxsize=32)
def _eigensystem(U: float, n_max: int):
    """Eigenvalues ascending, eigenvectors as columns of the full basis, and
    the basis index of each level's dominant state.

    Each parity block is diagonalized on its own, so every eigenvector is
    exactly zero outside its block and near-degenerate levels of opposite
    parity can never mix.  The dominant state is the first largest weight,
    which is the lexicographically smallest (n, m) on ties.  Exactly
    degenerate levels are listed in the order of their dominant states.
    """
    if not np.isfinite(U):
        raise ValueError("interaction strength must be finite")
    basis = SymmetricBasis(n_max)
    matrix = build_hamiltonian(basis, U).matrix
    parity = np.array([(n + m) % 2 for n, m in basis.states])
    eigenvalues = np.empty(len(basis))
    eigenvectors = np.zeros((len(basis), len(basis)))
    start = 0
    for block in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)):
        values, vectors = np.linalg.eigh(matrix[np.ix_(block, block)])
        columns = slice(start, start + block.size)
        eigenvalues[columns] = values
        eigenvectors[block, columns] = vectors
        start += block.size
    dominant = np.argmax(np.abs(eigenvectors), axis=0)
    order = np.lexsort((dominant, eigenvalues))
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    dominant = dominant[order]
    for array in (eigenvalues, eigenvectors, dominant):
        array.setflags(write=False)
    return basis, eigenvalues, eigenvectors, dominant


def spectrum(U: float, n_max: int = DEFAULT_N_MAX, levels: int = 4) -> list[CIEigenstate]:
    """Lowest ``levels`` eigenstates, ascending, with dominant parent labels."""
    size = len(SymmetricBasis(int(n_max)))
    if levels < 1 or levels > size:
        raise ValueError(
            f"levels must be between 1 and the basis size {size}, got {levels}"
        )
    basis, eigenvalues, eigenvectors, dominant = _eigensystem(float(U), int(n_max))
    states = []
    for level in range(levels):
        small, big = basis.states[dominant[level]]
        states.append(
            CIEigenstate(
                energy=float(eigenvalues[level]),
                coefficients=eigenvectors[:, level],
                dominant_label=StateLabel(n=big, m=small),
            )
        )
    return states


def energy_for_state(U: float, label: StateLabel, n_max: int = DEFAULT_N_MAX) -> float:
    """Variational energy of the eigenstate dominated by ``label``.

    Used as the scaled-energy seed for the reduced solve of unequal quantum
    numbers; the later Newton stage removes the truncation error.

    Raises:
        LabelNotFound: the label is outside the basis or never dominant.
    """
    basis, eigenvalues, _, dominant = _eigensystem(float(U), int(n_max))
    target = (min(label.n, label.m), max(label.n, label.m))
    levels = np.flatnonzero(dominant == basis.index_of(*target))
    if levels.size:
        return float(eigenvalues[levels[0]])
    raise LabelNotFound(
        f"no eigenstate with dominant label {target} at n_max={n_max}"
    )
