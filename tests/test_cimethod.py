"""Variational engine: matrix elements, assembly, spectrum, labeling."""

import numpy as np
import pytest

from pairwell.cimethod import (
    SymmetricBasis,
    _eigensystem,
    basis_norm,
    build_hamiltonian,
    energy_for_state,
    interaction_element,
    kinetic_element,
    spectrum,
)
from pairwell.errors import LabelNotFound
from pairwell.numerics import simpson_1d, simpson_2d
from pairwell.transcend import StateLabel

PI = np.pi


def _mode(order, x):
    return np.sqrt(2.0) * np.sin(order * PI * x)


def interaction_oracle(n, m, nt, mt, U, panels=2000):
    """Brute-force contact element: the 2D matrix element against the
    diagonal delta collapses to a 1D integral of four box modes."""
    overlap = simpson_1d(
        lambda x: _mode(n, x) * _mode(m, x) * _mode(nt, x) * _mode(mt, x),
        0.0, 1.0, panels,
    )
    return 4.0 * U * basis_norm(n, m) * basis_norm(nt, mt) * overlap


def kinetic_oracle(n, m, nt, mt, panels=200):
    """Brute-force kinetic element: quadrature of the symmetrized bra against
    the analytically differentiated symmetrized ket."""
    def integrand(xi, eta):
        bra = basis_norm(n, m) * (
            _mode(n, xi) * _mode(m, eta) + _mode(m, xi) * _mode(n, eta))
        lap_ket = PI**2 * (nt**2 + mt**2) * basis_norm(nt, mt) * (
            _mode(nt, xi) * _mode(mt, eta) + _mode(mt, xi) * _mode(nt, eta))
        return bra * lap_ket
    return simpson_2d(integrand, ((0.0, 1.0), (0.0, 1.0)), panels)


class TestElements:
    def test_kinetic_examples(self):
        assert kinetic_element(1, 1, 1, 1) == pytest.approx(2.0 * PI**2, rel=1e-14)
        assert kinetic_element(1, 2, 1, 2) == pytest.approx(5.0 * PI**2, rel=1e-14)
        assert kinetic_element(1, 1, 2, 2) == 0.0

    def test_kinetic_matches_oracle(self):
        for (n, m, nt, mt) in [(1, 1, 1, 1), (1, 2, 1, 2), (1, 1, 2, 2),
                               (2, 3, 3, 2), (1, 3, 1, 3)]:
            assert kinetic_element(n, m, nt, mt) == pytest.approx(
                kinetic_oracle(n, m, nt, mt), abs=1e-8)

    def test_interaction_examples(self):
        for U in (-1.0, 1.0, 0.37):
            assert interaction_element(1, 1, 1, 1, U) == pytest.approx(1.5 * U, rel=1e-14)
            assert interaction_element(1, 1, 2, 2, U) == pytest.approx(U, rel=1e-14)
        # Parity-forbidden: the delta pattern cancels to zero.
        assert interaction_element(1, 2, 1, 3, -1.0) == 0.0

    def test_interaction_matches_oracle(self):
        for (n, m, nt, mt) in [(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 3),
                               (2, 2, 3, 3), (1, 3, 2, 2), (2, 1, 1, 2)]:
            assert interaction_element(n, m, nt, mt, -1.0) == pytest.approx(
                interaction_oracle(n, m, nt, mt, -1.0), abs=1e-8)

    def test_elements_symmetric_in_bra_ket(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n, m, nt, mt = rng.integers(1, 7, size=4)
            assert kinetic_element(n, m, nt, mt) == kinetic_element(nt, mt, n, m)
            assert interaction_element(n, m, nt, mt, -0.8) == interaction_element(
                nt, mt, n, m, -0.8)


class TestBasis:
    def test_states_and_size(self):
        basis = SymmetricBasis(2)
        assert basis.states == ((1, 1), (1, 2), (2, 2))
        assert len(SymmetricBasis(30)) == 30 * 31 // 2

    def test_index_lookup_is_unordered(self):
        basis = SymmetricBasis(4)
        assert basis.index_of(3, 1) == basis.index_of(1, 3)

    def test_index_outside_basis(self):
        with pytest.raises(LabelNotFound):
            SymmetricBasis(3).index_of(1, 6)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            SymmetricBasis(0)


class TestHamiltonian:
    def test_single_state_matrix(self):
        for U in (-1.0, 0.5):
            matrix = build_hamiltonian(SymmetricBasis(1), U).matrix
            assert matrix.shape == (1, 1)
            assert matrix[0, 0] == pytest.approx(2.0 * PI**2 + 1.5 * U, rel=1e-14)

    def test_noninteracting_is_diagonal(self):
        matrix = build_hamiltonian(SymmetricBasis(2), 0.0).matrix
        expected = np.diag([2.0 * PI**2, 5.0 * PI**2, 8.0 * PI**2])
        assert np.allclose(matrix, expected, rtol=1e-15, atol=0.0)
        assert np.count_nonzero(matrix - np.diag(np.diag(matrix))) == 0

    def test_attractive_off_diagonal_entry(self):
        matrix = build_hamiltonian(SymmetricBasis(2), -1.0).matrix
        assert matrix[0, 2] == pytest.approx(-1.0, rel=1e-14)
        assert np.array_equal(matrix, matrix.T)

    def test_vectorized_assembly_matches_scalar_elements(self):
        basis = SymmetricBasis(4)
        matrix = build_hamiltonian(basis, -0.63).matrix
        for i, (n, m) in enumerate(basis.states):
            for j, (nt, mt) in enumerate(basis.states):
                expected = kinetic_element(n, m, nt, mt) + interaction_element(
                    n, m, nt, mt, -0.63)
                assert matrix[i, j] == pytest.approx(expected, rel=1e-14, abs=1e-13)


class TestSpectrum:
    def test_noninteracting_ground_energy(self):
        for cutoff in (1, 5):
            states = spectrum(0.0, n_max=cutoff, levels=1)
            assert states[0].energy == pytest.approx(2.0 * PI**2, abs=1e-10)

    def test_noninteracting_spectrum_is_exact(self):
        basis = SymmetricBasis(5)
        states = spectrum(0.0, n_max=5, levels=len(basis))
        expected = np.sort([PI**2 * (n**2 + m**2) for n, m in basis.states])
        assert np.allclose([s.energy for s in states], expected, atol=1e-10, rtol=0.0)

    def test_attractive_ordering_and_labels(self):
        states = spectrum(-1.0, n_max=30, levels=4)
        labels = [(s.dominant_label.n, s.dominant_label.m) for s in states]
        assert labels == [(1, 1), (2, 1), (2, 2), (3, 1)]
        # Attraction pulls the ground energy below the free value, close to
        # the energy the solved momenta imply.
        assert states[0].energy < 2.0 * PI**2
        assert states[0].energy == pytest.approx(2 * (3.06**2 - 0.52**2), abs=0.5)

    def test_coefficients_are_normalized(self):
        for state in spectrum(-1.0, n_max=12, levels=6):
            assert np.linalg.norm(state.coefficients) == pytest.approx(1.0, abs=1e-10)

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            spectrum(0.0, n_max=2, levels=4)
        with pytest.raises(ValueError):
            spectrum(0.0, n_max=2, levels=0)

    def test_variational_monotonicity(self):
        energies = [spectrum(-1.0, n_max=cutoff, levels=1)[0].energy
                    for cutoff in (5, 10, 20, 30)]
        assert all(later <= earlier + 1e-12
                   for earlier, later in zip(energies, energies[1:]))

    def test_dominant_tie_breaks_lexicographically(self, monkeypatch):
        # Column j of each stand-in block solution weighs block states j and
        # j + 1 equally; the label must be the first, smaller state.  At
        # n_max = 3 the odd block is (1,2), (2,3) and the even block (1,1),
        # (1,3), (2,2), (3,3).
        def tied_eigh(block):
            size = block.shape[0]
            vectors = 0.6 * np.eye(size)
            vectors[np.arange(1, size), np.arange(size - 1)] = 0.6
            return 10.0 * size + np.arange(size), vectors

        monkeypatch.setattr(np.linalg, "eigh", tied_eigh)
        _eigensystem.cache_clear()
        try:
            labels = [(s.dominant_label.n, s.dominant_label.m)
                      for s in spectrum(0.125, n_max=3, levels=6)]
            energy = energy_for_state(0.125, StateLabel(3, 1), n_max=3)
        finally:
            _eigensystem.cache_clear()
        assert labels == [(2, 1), (3, 2), (1, 1), (3, 1), (2, 2), (3, 3)]
        assert energy == 41.0


class TestEnergyForState:
    def test_noninteracting_ground(self):
        assert energy_for_state(0.0, StateLabel(1, 1), n_max=10) == pytest.approx(
            2.0 * PI**2, abs=1e-10)

    def test_reference_energies_within_truncation(self):
        assert energy_for_state(-1.0, StateLabel(2, 1), n_max=30) == pytest.approx(
            6.05**2 + 3.27**2, rel=0.01)
        assert energy_for_state(-1.0, StateLabel(3, 1), n_max=30) == pytest.approx(
            9.30**2 + 3.18**2, rel=0.01)

    def test_label_order_does_not_matter(self):
        forward = energy_for_state(-1.0, StateLabel(2, 1), n_max=12)
        backward = energy_for_state(-1.0, StateLabel(1, 2), n_max=12)
        assert forward == backward

    def test_label_outside_basis(self):
        with pytest.raises(LabelNotFound):
            energy_for_state(-1.0, StateLabel(1, 6), n_max=3)


class TestEigensystem:
    def test_pinned_energies(self):
        # Reference values from an independent cyclic Jacobi eigensolver.
        assert energy_for_state(-1.0, StateLabel(2, 1), n_max=30) == pytest.approx(
            47.294344443085635, rel=1e-9)
        assert energy_for_state(-1.0, StateLabel(3, 1), n_max=30) == pytest.approx(
            96.68583470072603, rel=1e-9)
        states = spectrum(-3.0, n_max=16, levels=4)
        assert [s.energy for s in states] == pytest.approx(
            [14.766012635481129, 42.88264936153007, 74.03475855024526,
             92.67816177639148], rel=1e-9)
        assert [(s.dominant_label.n, s.dominant_label.m) for s in states] == [
            (1, 1), (2, 1), (2, 2), (3, 1)]

    @pytest.mark.parametrize("U", [-4.0, 3.0])
    def test_eigenvalues_ascending(self, U):
        _, eigenvalues, _, _ = _eigensystem(U, 16)
        assert np.all(np.diff(eigenvalues) >= 0.0)

    @pytest.mark.parametrize("U", [-4.0, 3.0])
    def test_eigenpair_residual(self, U):
        basis, eigenvalues, eigenvectors, _ = _eigensystem(U, 16)
        matrix = build_hamiltonian(basis, U).matrix
        residual = matrix @ eigenvectors - eigenvectors * eigenvalues
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(matrix)

    @pytest.mark.parametrize("U", [-4.0, 3.0])
    def test_eigenvectors_orthonormal(self, U):
        basis, _, eigenvectors, _ = _eigensystem(U, 16)
        gram = eigenvectors.T @ eigenvectors
        assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-12

    @pytest.mark.parametrize("U", [-4.0, 3.0])
    def test_eigenvectors_stay_in_parity_block(self, U):
        basis, _, eigenvectors, _ = _eigensystem(U, 16)
        parity = np.array([(n + m) % 2 for n, m in basis.states])
        for column in eigenvectors.T:
            block = parity[int(np.argmax(np.abs(column)))]
            assert np.all(column[parity != block] == 0.0)

    @pytest.mark.parametrize("U", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_strength_rejected(self, U):
        with pytest.raises(ValueError, match="interaction strength must be finite"):
            spectrum(U, n_max=4, levels=1)
        with pytest.raises(ValueError, match="interaction strength must be finite"):
            energy_for_state(U, StateLabel(2, 1), n_max=4)

    @pytest.mark.parametrize("n_max, level", [(12, 46), (16, 78), (16, 98)])
    def test_noninteracting_ties_follow_basis_order(self, n_max, level):
        _, eigenvalues, eigenvectors, dominant = _eigensystem(0.0, n_max)
        assert np.array_equal(dominant, np.argmax(np.abs(eigenvectors), axis=0))
        assert list(zip(eigenvalues, dominant)) == sorted(zip(eigenvalues, dominant))
        assert eigenvalues[level] == eigenvalues[level + 1]
        assert dominant[level] < dominant[level + 1]

    def test_noninteracting_tie_labels(self):
        states = spectrum(0.0, n_max=12, levels=48)
        labels = [(s.dominant_label.n, s.dominant_label.m) for s in states[46:]]
        assert labels == [(11, 2), (10, 5)]
