"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest -s`` or ``-rA`` to see them).  Reference values
are rounded to two decimals, so those comparisons allow 0.01 per component;
everything else is checked at the stated tolerance.
"""

import time

import numpy as np

from pairwell import solve, sweep
from pairwell.cimethod import basis_norm, interaction_element, kinetic_element, spectrum
from pairwell.numerics import simpson_1d, simpson_2d
from pairwell.transcend import StateLabel, verify_solution
from pairwell.wavefn import density_grid, normalize, schrodinger_residual

PI = np.pi

_ATTRACTIVE_STATES = [(1, 1), (2, 1), (2, 2), (3, 1)]
_REPULSIVE_STATES = [(1, 1), (2, 2)]

# Solved pairs shared between criteria (each criterion populates on demand,
# so the tests stay independently runnable).
_CACHE = {}


def _solved(strength, n, m):
    key = (strength, n, m)
    if key not in _CACHE:
        _CACHE[key] = solve(strength, n, m)
    return _CACHE[key]


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")


def _rounded_matches(value: float, reference: float) -> bool:
    return abs(round(value, 2) - reference) <= 0.01 + 1e-12


def test_criterion_01_reference_roots_attractive():
    reference = {
        (1, 1): (3.06 + 0.52j, 3.06 - 0.52j),
        (2, 1): (6.05 + 0j, 3.27 + 0j),
        (2, 2): (6.24 + 0.52j, 6.24 - 0.52j),
        (3, 1): (9.30 + 0j, 3.18 + 0j),
    }
    checks, timings = [], {}
    for (n, m), (k1_ref, k2_ref) in reference.items():
        start = time.perf_counter()
        pair = solve(-1.0, n, m)
        timings[(n, m)] = time.perf_counter() - start
        _CACHE[(-1.0, n, m)] = pair
        checks.append(_rounded_matches(pair.k1.real, k1_ref.real))
        checks.append(_rounded_matches(pair.k1.imag, k1_ref.imag))
        checks.append(_rounded_matches(pair.k2.real, k2_ref.real))
        checks.append(_rounded_matches(pair.k2.imag, k2_ref.imag))
    time_ok = (
        timings[(1, 1)] < 1.0
        and timings[(2, 2)] < 1.0
        and timings[(2, 1)] < 60.0
        and timings[(3, 1)] < 60.0
    )
    passed = all(checks) and time_ok
    _report(1, passed,
            "U=-1 roots match reference values to 2 decimals "
            f"(slowest solve {max(timings.values()):.2f}s)")
    assert all(checks)
    assert time_ok


def test_criterion_02_reference_roots_repulsive():
    reference = {(1, 1): (3.70, 2.74), (2, 2): (6.80, 5.84)}
    checks, timings = [], {}
    for (n, m), (k1_ref, k2_ref) in reference.items():
        start = time.perf_counter()
        pair = solve(1.0, n, m)
        timings[(n, m)] = time.perf_counter() - start
        _CACHE[(1.0, n, m)] = pair
        checks.append(_rounded_matches(pair.k1.real, k1_ref))
        checks.append(_rounded_matches(pair.k2.real, k2_ref))
        checks.append(abs(pair.k1.imag) <= 1e-9 and abs(pair.k2.imag) <= 1e-9)
    time_ok = all(t < 1.0 for t in timings.values())
    passed = all(checks) and time_ok
    _report(2, passed, "U=+1 roots match reference values to 2 decimals")
    assert all(checks)
    assert time_ok


def test_criterion_03_residual_exactness():
    worst = 0.0
    for (n, m) in _ATTRACTIVE_STATES:
        worst = max(worst, verify_solution(_solved(-1.0, n, m)))
    for (n, m) in _REPULSIVE_STATES:
        worst = max(worst, verify_solution(_solved(1.0, n, m)))
    passed = worst <= 1e-10
    _report(3, passed, f"worst residual max-norm {worst:.2e} <= 1e-10")
    assert passed


def test_criterion_04_conjugacy_and_real_energy():
    worst_conjugacy, worst_energy = 0.0, 0.0
    for strength in (-0.1, -1.0, -5.0):
        for n in range(1, 6):
            pair = solve(strength, n, n)
            worst_conjugacy = max(worst_conjugacy, abs(pair.k2 - np.conj(pair.k1)))
            worst_energy = max(worst_energy, abs((pair.k1**2 + pair.k2**2).imag))
    passed = worst_conjugacy <= 1e-9 and worst_energy <= 1e-9
    _report(4, passed,
            f"conjugacy defect {worst_conjugacy:.2e}, "
            f"energy imaginary part {worst_energy:.2e} (both <= 1e-9)")
    assert passed


def test_criterion_05_noninteracting_limit():
    exact = all(
        solve(0.0, n, m).k1 == max(n, m) * PI and solve(0.0, n, m).k2 == min(n, m) * PI
        for (n, m) in [(1, 1), (2, 1), (3, 3), (4, 1)]
    )
    result = sweep(StateLabel(1, 1), -10.0, 0.0, 201)  # grid step exactly 0.05
    endpoint = result.points[-1]
    endpoint_ok = endpoint.U == 0.0 and abs(endpoint.pair.k1 - PI) <= 1e-3
    passed = exact and endpoint_ok
    _report(5, passed,
            "U=0 returns (n pi, m pi) exactly; sweep endpoint reaches pi within 1e-3")
    assert exact
    assert endpoint_ok


def _mode(order, x):
    return np.sqrt(2.0) * np.sin(order * PI * x)


def test_criterion_06_element_oracle_equivalence():
    start = time.perf_counter()
    pairs = [(n, m) for n in range(1, 5) for m in range(n, 5)]
    worst_interaction, worst_kinetic = 0.0, 0.0
    strength = -1.0
    for (n, m) in pairs:
        for (nt, mt) in pairs:
            overlap = simpson_1d(
                lambda x: _mode(n, x) * _mode(m, x) * _mode(nt, x) * _mode(mt, x),
                0.0, 1.0, 2000)
            oracle = 4.0 * strength * basis_norm(n, m) * basis_norm(nt, mt) * overlap
            worst_interaction = max(
                worst_interaction,
                abs(interaction_element(n, m, nt, mt, strength) - oracle))

            def integrand(xi, eta, n=n, m=m, nt=nt, mt=mt):
                bra = basis_norm(n, m) * (
                    _mode(n, xi) * _mode(m, eta) + _mode(m, xi) * _mode(n, eta))
                lap_ket = PI**2 * (nt**2 + mt**2) * basis_norm(nt, mt) * (
                    _mode(nt, xi) * _mode(mt, eta) + _mode(mt, xi) * _mode(nt, eta))
                return bra * lap_ket
            kinetic_oracle = simpson_2d(integrand, ((0.0, 1.0), (0.0, 1.0)), 200)
            worst_kinetic = max(
                worst_kinetic, abs(kinetic_element(n, m, nt, mt) - kinetic_oracle))
    elapsed = time.perf_counter() - start
    passed = worst_interaction <= 1e-8 and worst_kinetic <= 1e-8 and elapsed < 10.0
    _report(6, passed,
            f"100+100 element tuples vs quadrature oracles: worst "
            f"{max(worst_interaction, worst_kinetic):.2e} <= 1e-8 in {elapsed:.1f}s")
    assert worst_interaction <= 1e-8
    assert worst_kinetic <= 1e-8
    assert elapsed < 10.0


def test_criterion_07_ci_ordering_and_energies():
    states = spectrum(-1.0, n_max=30, levels=4)
    labels = [(s.dominant_label.n, s.dominant_label.m) for s in states]
    labels_ok = labels == [(1, 1), (2, 1), (2, 2), (3, 1)]
    worst_gap = 0.0
    for state, (n, m) in zip(states, labels):
        reference = _solved(-1.0, n, m).energy
        worst_gap = max(worst_gap, abs(state.energy - reference) / reference)
    passed = labels_ok and worst_gap <= 0.02
    _report(7, passed,
            f"CI labels {labels}; worst relative gap to solved energies "
            f"{worst_gap:.2%} <= 2%")
    assert labels_ok
    assert worst_gap <= 0.02


def test_criterion_08_density_diagonal_contrast():
    attractive = density_grid(normalize(_solved(-1.0, 2, 2)), 201)
    repulsive = density_grid(normalize(_solved(1.0, 2, 2)), 201)
    attract_ok = attractive.diagonal_mean() > attractive.antidiagonal_mean()
    repulse_ok = repulsive.diagonal_mean() < repulsive.antidiagonal_mean()
    passed = attract_ok and repulse_ok
    _report(8, passed,
            "(2,2) density: diagonal > antidiagonal at U=-1 and reversed at U=+1")
    assert passed


def test_criterion_09_eigenfunction_property():
    rng = np.random.default_rng(20240901)
    points = []
    while len(points) < 50:
        x1, x2 = rng.uniform(0.06, 0.94, size=2)
        if abs(x1 - x2) / np.sqrt(2.0) >= 0.06:
            points.append((x1, x2))
    worst = 0.0
    solutions = [_solved(-1.0, n, m) for (n, m) in _ATTRACTIVE_STATES]
    solutions += [_solved(1.0, n, m) for (n, m) in _REPULSIVE_STATES]
    for pair in solutions:
        wavefunction = normalize(pair)
        for (x1, x2) in points:
            worst = max(worst, schrodinger_residual(wavefunction, x1, x2))
    passed = worst <= 1e-4
    _report(9, passed,
            f"pointwise eigen-defect at 50 interior points x 6 states: "
            f"worst {worst:.2e} <= 1e-4")
    assert passed


def test_criterion_10_sweep_shape_properties():
    start = time.perf_counter()
    results = {n: sweep(StateLabel(n, n), -10.0, 0.0, 200) for n in range(1, 6)}
    elapsed = time.perf_counter() - start

    imag = results[1].column("im_k1")
    zero_ok = imag[-1] == 0.0
    increasing_ok = bool(np.all(np.diff(imag) < 0.0))  # grows toward U=-10

    spread = max(
        abs(_solved(-1.0, 1, 1).k1.imag - solve(-1.0, n, n).k1.imag)
        for n in range(2, 6)
    )
    spread_ok = spread < 0.02
    passed = zero_ok and increasing_ok and spread_ok and elapsed < 30.0
    _report(10, passed,
            f"five 200-step sweeps in {elapsed:.1f}s; Im k1 zero at U=0, "
            f"monotone in |U|; cross-state spread {spread:.4f} < 0.02")
    assert zero_ok
    assert increasing_ok
    assert spread_ok
    assert elapsed < 30.0


def test_criterion_11_density_normalization():
    from pairwell.wavefn import _triplet_grid

    grids = [
        density_grid(normalize(_solved(-1.0, 2, 2)), 201),
        density_grid(normalize(_solved(1.0, 2, 2)), 201),
        density_grid(normalize(_solved(-1.0, 1, 1)), 201),
        _triplet_grid(-1.0, StateLabel(1, 2), 201),
    ]
    worst = max(abs(grid.simpson_integral() - 1.0) for grid in grids)
    passed = worst <= 1e-4
    _report(11, passed,
            f"every emitted density grid integrates to 1 within {worst:.2e} <= 1e-4")
    assert passed
