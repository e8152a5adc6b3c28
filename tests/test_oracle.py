import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncpath.oracle
from ncpath.core import (
    ConfigError,
    GridMismatchError,
    PhaseSpaceGrid,
    PhysicsParams,
    Potential,
    ThetaMatrix,
    _axis_factors,
)
from ncpath.oracle import (
    _bessel_coefficients,
    _chebyshev_series,
    _dense_reference,
    _factored_hamiltonian,
    build_hamiltonian_matrix,
    chebyshev_evolve,
    oracle_compare,
    spectral_propagator,
    split_step_evolve,
)
from ncpath.slicer import SlicingConfig, full_kernel
from ncpath.star import OperatorKernel, gaussian_packet, potential_operator_kernel
from ncpath.weyl import symbol_of_operator


def test_oscillator_ground_state_energy():
    # one-dimensional analog check: lowest eigenvalue ≈ ħω/2
    params = PhysicsParams(dim=1)
    grid = PhaseSpaceGrid(64, 8.0, 1)
    H = build_hamiltonian_matrix(Potential.harmonic(1.0, 1.0, dim=1),
                                 ThetaMatrix.zero(1), grid, params)
    herm = 0.5 * (H.entries + H.entries.conj().T) * grid.cell_volume
    evals = np.linalg.eigvalsh(herm)
    assert abs(evals[0] - 0.5) < 1e-4


def test_free_hamiltonian_eigenvalues_are_lattice_kinetic():
    params = PhysicsParams(dim=1, mass=1.5)
    grid = PhaseSpaceGrid(32, 6.0, 1)
    H = build_hamiltonian_matrix(Potential.zero(1), ThetaMatrix.zero(1), grid, params)
    herm = 0.5 * (H.entries + H.entries.conj().T) * grid.cell_volume
    evals = np.sort(np.linalg.eigvalsh(herm))
    expected = np.sort(grid.k_points[:, 0] ** 2 / (2 * params.mass))
    assert np.max(np.abs(evals - expected)) < 1e-10


def test_shifted_hamiltonian_hermitian_real_spectrum():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    H = build_hamiltonian_matrix(Potential.harmonic(1.0, 1.0, dim=2), theta, grid,
                                 params)
    assert H.adjoint_deviation()[0] < 1e-10
    herm = 0.5 * (H.entries + H.entries.conj().T) * grid.cell_volume
    evals = np.linalg.eigvalsh(herm)
    assert np.all(np.isreal(evals))


def test_dense_size_guard():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(128, 8.0, 2)
    with pytest.raises(ValueError):
        build_hamiltonian_matrix(Potential.zero(2), ThetaMatrix.zero(2), grid, params)


def test_spectral_propagator_unitary_and_semigroup():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(12, 5.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    H = build_hamiltonian_matrix(Potential.harmonic(1.0, 1.0, dim=2), theta, grid,
                                 params)
    U = spectral_propagator(H, 1.0)
    A = U.entries * grid.cell_volume
    assert np.max(np.abs(A.conj().T @ A - np.eye(grid.size))) < 1e-8
    U2 = spectral_propagator(H, 2.0)
    assert np.max(np.abs(A @ A - U2.entries * grid.cell_volume)) < 1e-9
    U0 = spectral_propagator(H, 0.0)
    assert np.max(np.abs(U0.entries - np.eye(grid.size) / grid.cell_volume)) < 1e-10


def test_spectral_propagator_rejects_non_hermitian():
    grid = PhaseSpaceGrid(8, 4.0, 1)
    bad = OperatorKernel(np.triu(np.ones((8, 8))) * 5.0, grid)
    with pytest.raises(ValueError):
        spectral_propagator(bad, 1.0)


def test_spectral_propagator_rejects_a_non_finite_hamiltonian():
    # a NaN deviation must not pass the Hermiticity check into eigh
    grid = PhaseSpaceGrid(8, 4.0, 1)
    H = build_hamiltonian_matrix(Potential.harmonic(1.0, 1.0, dim=1), ThetaMatrix.zero(1),
                                 grid, PhysicsParams(dim=1))
    H.entries[5, 2] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        spectral_propagator(H, 1.0)


# the strip pass reads (2, 9) in block 0's upper strip and (9, 2) in its
# column strip: a NaN on either side of the diagonal must reach every check
@pytest.mark.parametrize("where", [(9, 2), (2, 9)], ids=["below", "above"])
def test_a_nan_on_one_side_of_the_diagonal_fails_every_spectral_route(where, monkeypatch):
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(4, 2.0, 2)
    # quartic V does not factor by axis, so oracle_compare builds the dense H
    V, theta = Potential.quartic(0.1), ThetaMatrix.zero(2)

    def poisoned(*args):
        H = build_hamiltonian_matrix(Potential.zero(2), theta, grid, params)
        H.entries[where] = np.nan
        return H

    assert np.isnan(poisoned().adjoint_deviation()[0])
    psi = gaussian_packet(grid)
    with pytest.raises(ValueError, match="Hamiltonian not Hermitian"):
        chebyshev_evolve(poisoned(), 1.0, psi)
    with pytest.raises(ValueError, match="Hamiltonian not Hermitian"):
        spectral_propagator(poisoned(), 1.0)
    monkeypatch.setattr(ncpath.oracle, "build_hamiltonian_matrix", poisoned)
    with pytest.raises(ValueError, match="Hamiltonian not Hermitian"):
        oracle_compare(V, theta, grid, params, 1.0, [2], psi)


def test_spectral_routes_leave_the_hamiltonian_unchanged():
    # only oracle_compare, which drops H, forms the Hermitian part in H's array
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(12, 5.0, 2)
    H = build_hamiltonian_matrix(Potential.harmonic(1.0, 1.0, dim=2),
                                 ThetaMatrix.single_block(2, 0.1), grid, params)
    before = H.entries.tobytes()
    chebyshev_evolve(H, 1.0, gaussian_packet(grid))
    assert H.entries.tobytes() == before
    spectral_propagator(H, 1.0)
    assert H.entries.tobytes() == before


# The lattice kernel of a non-separable V(X + θK) is Hermitian only at θ = 0.
@pytest.mark.parametrize("V, theta", [
    (Potential.harmonic(1.0, 1.0, dim=2), ThetaMatrix.single_block(2, 0.1)),
    (Potential.quartic(0.1), ThetaMatrix.zero(2)),
    (Potential.zero(2), ThetaMatrix.single_block(2, 0.1)),
], ids=["harmonic", "quartic", "zero"])
@pytest.mark.parametrize("T", [1e-3, 1.0, 5.0])
def test_chebyshev_evolve_matches_diagonalization(V, theta, T):
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 6.0, 2)
    H = build_hamiltonian_matrix(V, theta, grid, params)
    psi = gaussian_packet(grid, center=(0.5, -0.3), width=0.8, momentum=(0.4, 0.2))
    out = chebyshev_evolve(H, T, psi)
    ref = spectral_propagator(H, T).apply(psi)
    assert np.linalg.norm(out.values - ref.values) <= 1e-12 * np.linalg.norm(ref.values)
    assert abs(out.norm() / psi.norm() - 1.0) <= 1e-12


def test_chebyshev_evolve_reports_bounds_around_the_spectrum():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(12, 5.0, 2)
    H = build_hamiltonian_matrix(Potential.quartic(0.1), ThetaMatrix.zero(2), grid, params)
    stats = {}
    chebyshev_evolve(H, 1.0, gaussian_packet(grid), stats=stats)
    lo, hi = stats["spectral_bounds"]
    evals = np.linalg.eigvalsh(0.5 * (H.entries + H.entries.conj().T) * grid.cell_volume)
    assert lo <= evals[0] and evals[-1] <= hi
    assert stats["hermiticity_deviation"] < 1e-10
    # terms grow past z = (hi - lo)T/(2ħ): the series is not cut early
    assert stats["terms"] > 0.5 * (hi - lo)


def test_chebyshev_evolve_at_zero_time_returns_the_state():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(12, 5.0, 2)
    H = build_hamiltonian_matrix(Potential.harmonic(1.0, 1.0, dim=2),
                                 ThetaMatrix.single_block(2, 0.1), grid, params)
    psi = gaussian_packet(grid, center=(0.3, 0.1), momentum=(0.2, 0.0))
    assert np.array_equal(chebyshev_evolve(H, 0.0, psi).values, psi.values)
    tiny = chebyshev_evolve(H, 1e-15, psi)
    assert np.max(np.abs(tiny.values - psi.values)) <= 1e-12


def test_chebyshev_evolve_rejects_non_hermitian_like_diagonalization():
    grid = PhaseSpaceGrid(8, 4.0, 1)
    bad = OperatorKernel(np.triu(np.ones((8, 8))) * 5.0, grid)
    psi = gaussian_packet(grid)
    with pytest.raises(ValueError) as series:
        chebyshev_evolve(bad, 1.0, psi)
    with pytest.raises(ValueError) as dense:
        spectral_propagator(bad, 1.0)
    assert str(series.value) == str(dense.value)


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_chebyshev_evolve_rejects_non_finite_time(T):
    grid = PhaseSpaceGrid(8, 4.0, 1)
    H = build_hamiltonian_matrix(Potential.harmonic(1.0, 1.0, dim=1), ThetaMatrix.zero(1),
                                 grid, PhysicsParams(dim=1))
    with pytest.raises(ValueError, match="not finite"):
        chebyshev_evolve(H, T, gaussian_packet(grid))


def _separable_polynomial(dim):
    return Potential.polynomial([((3,) + (0,) * (dim - 1), 0.2),
                                 ((0,) * (dim - 1) + (2,), 0.7), ((0,) * dim, 0.4)], dim)


# V(x + θk) factored by axis (`core._axis_factors`): G even and odd, N = 3
# with axes 0 and 1 paired and axis 2 paired with itself, θ = 0 and V = 0
_FACTORING_MODELS = {
    "harmonic-even-G": (8, 2, Potential.harmonic(1.0, 1.0, dim=2), 0.1),
    "harmonic-odd-G": (9, 2, Potential.harmonic(1.0, 1.0, dim=2), 0.1),
    "harmonic-3d": (6, 3, Potential.harmonic(1.3, 1.0, dim=3), 0.2),
    "linear": (8, 2, Potential.linear([0.4, -0.7]), 0.3),
    "separable-polynomial": (9, 2, _separable_polynomial(2), 0.15),
    "separable-polynomial-3d": (5, 3, _separable_polynomial(3), 0.15),
    "zero": (8, 2, Potential.zero(2), 0.1),
    "theta-zero": (7, 2, Potential.harmonic(1.0, 1.0, dim=2), 0.0),
}


def _factored_model(name):
    G, dim, V, theta_value = _FACTORING_MODELS[name]
    params = PhysicsParams(dim=dim, mass=1.3)
    grid = PhaseSpaceGrid(G, 3.0, dim)
    psi = gaussian_packet(grid, center=(0.5, -0.3, 0.2)[:dim], width=0.8,
                          momentum=(0.4, 0.2, -0.1)[:dim])
    return V, ThetaMatrix.single_block(dim, theta_value), grid, params, psi


@pytest.mark.parametrize("name", list(_FACTORING_MODELS))
def test_factored_hamiltonian_matches_the_dense_matrix(name):
    V, theta, grid, params, psi = _factored_model(name)
    matvec, lo, hi, dev = _factored_hamiltonian(_axis_factors(V, theta), grid, params)
    A = build_hamiltonian_matrix(V, theta, grid, params).entries * grid.cell_volume
    expected = A @ psi.values
    assert np.max(np.abs(matvec(psi.values) - expected)) <= 1e-14 * np.max(np.abs(expected))
    evals = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
    assert dev == 0.0 and lo <= evals[0] and evals[-1] <= hi


@st.composite
def _separable_models(draw):
    """(V, θ, grid): a separable polynomial V with per-axis powers 1–4 and a
    constant term, θ zero or one (0, 1) pair, G^N ≤ 512 lattice points."""
    N = draw(st.integers(1, 3))
    G = draw(st.integers(3, 8))
    coefficient = st.floats(-1.0, 1.0)
    terms = [((0,) * N, draw(coefficient))]
    for axis in range(N):
        for power, c in draw(st.dictionaries(st.integers(1, 4), coefficient, max_size=4)).items():
            terms.append((tuple(power if b == axis else 0 for b in range(N)), c))
    theta_value = draw(st.floats(-1.0, 1.0)) if N >= 2 and draw(st.booleans()) else 0.0
    return (Potential.polynomial(terms, N), ThetaMatrix.single_block(N, theta_value),
            PhaseSpaceGrid(G, draw(st.floats(1.5, 4.0)), N))


@settings(max_examples=40, deadline=None)
@given(_separable_models(), st.integers(0, 2**32 - 1))
@example((_separable_polynomial(2), ThetaMatrix.zero(2), PhaseSpaceGrid(8, 3.0, 2)), 0)
@example((_separable_polynomial(3), ThetaMatrix.zero(3), PhaseSpaceGrid(5, 2.5, 3)), 1)
def test_factored_hamiltonian_equals_the_dense_reference(model, seed):
    # both routes reach one lattice operator A = H·Δx^N, at θ = 0 (every
    # N = 1 draw, and the examples) through the same dense builder as at
    # θ ≠ 0.  Over 300 draws the worst matvec gap was 1.4 ε·max|A|·max|x|·n
    # and the worst eigenvalue outside either [lo, hi] 2.0 ε·n·max|A| (a
    # bound that is tight to rounding, e.g. V constant), and over 600 more
    # at θ = 0 1.4 and 1.6 in those units; the bound is 16 ε times those scales
    V, theta, grid = model
    params = PhysicsParams(dim=grid.dim)
    factored, lo, hi, _ = _factored_hamiltonian(_axis_factors(V, theta), grid, params)
    H = build_hamiltonian_matrix(V, theta, grid, params)
    A = np.empty_like(H.entries)
    dense, dense_lo, dense_hi, _ = _dense_reference(H, A)
    tol = 16 * np.finfo(float).eps * grid.size * np.max(np.abs(A))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
        assert np.max(np.abs(factored(x) - dense(x))) <= tol * np.max(np.abs(x))
    evals = np.linalg.eigvalsh(A)
    for bottom, top in [(lo, hi), (dense_lo, dense_hi)]:
        assert bottom - tol <= evals[0] and evals[-1] <= top + tol


@pytest.mark.parametrize("T", [1.0, 5.0])
@pytest.mark.parametrize("name", list(_FACTORING_MODELS))
def test_factored_reference_matches_diagonalization(name, T):
    V, theta, grid, params, psi = _factored_model(name)
    matvec, lo, hi, _ = _factored_hamiltonian(_axis_factors(V, theta), grid, params)
    stats = {}
    out = _chebyshev_series(matvec, lo, hi, grid, T, psi, stats)
    ref = spectral_propagator(build_hamiltonian_matrix(V, theta, grid, params), T).apply(psi)
    assert np.linalg.norm(out.values - ref.values) <= 1e-12 * np.linalg.norm(ref.values)
    assert stats["spectral_bounds"] == (lo, hi) and stats["terms"] > 0.5 * (hi - lo) * T


# one axis's table overflows to +inf; opposite signs on the two axes give
# an infinite bound at each end
@pytest.mark.parametrize("terms", [[((12, 0), 1e306)], [((12, 0), 1e306), ((0, 12), -1e306)]],
                         ids=["inf", "both-signs"])
def test_a_non_finite_table_fails_the_factored_reference_like_the_dense_one(terms):
    V, theta = Potential.polynomial(terms, 2), ThetaMatrix.single_block(2, 0.1)
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(8, 4.0, 2)
    psi = gaussian_packet(grid)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the input
        with pytest.raises(ValueError, match="Hamiltonian not finite"):
            oracle_compare(V, theta, grid, params, 1.0, [2], psi)
        with pytest.raises(ValueError, match="Hamiltonian not Hermitian"):
            chebyshev_evolve(build_hamiltonian_matrix(V, theta, grid, params), 1.0, psi)


@pytest.mark.parametrize("name", list(_FACTORING_MODELS))
def test_oracle_compare_builds_no_dense_hamiltonian_where_v_factors(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("the dense Hamiltonian was built")

    V, theta, grid, params, psi = _factored_model(name)
    expected = oracle_compare(V, theta, grid, params, 1.0, [2, 4], psi)
    monkeypatch.setattr(ncpath.oracle, "build_hamiltonian_matrix", refuse)
    timings = {}
    assert oracle_compare(V, theta, grid, params, 1.0, [2, 4], psi, timings=timings) == expected
    assert timings["reference_route"] == "axis-factored"
    assert timings["hermiticity_deviation"] == 0.0


# quartic, Gaussian-well and mixed polynomials do not factor by axis, at θ = 0
# either (their dense H at θ ≠ 0 is not Hermitian)
@pytest.mark.parametrize("V", [
    Potential.quartic(0.1), Potential.gaussian_well(1.0, 1.5),
    Potential.polynomial([((2, 0), 0.5), ((0, 2), 0.5), ((1, 1), 0.1)], 2),
], ids=["quartic", "gaussian-well", "mixed-polynomial"])
def test_oracle_compare_keeps_the_dense_hamiltonian_where_v_does_not_factor(V, monkeypatch):
    def refuse(*args):
        raise AssertionError("the factored reference was built")

    monkeypatch.setattr(ncpath.oracle, "_factored_hamiltonian", refuse)
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(8, 4.0, 2)
    timings = {}
    oracle_compare(V, ThetaMatrix.zero(2), grid, params, 1.0, [2], gaussian_packet(grid),
                   timings=timings)
    assert timings["reference_route"] == "dense"
    assert 0.0 <= timings["hermiticity_deviation"] < 1e-8


def test_oracle_compare_refuses_a_grid_past_the_dense_limit_before_the_reference(monkeypatch):
    def refuse(*args):
        raise AssertionError("a reference Hamiltonian was built")

    monkeypatch.setattr(ncpath.oracle, "build_hamiltonian_matrix", refuse)
    monkeypatch.setattr(ncpath.oracle, "_factored_hamiltonian", refuse)
    grid = PhaseSpaceGrid(65, 8.0, 2)
    with pytest.raises(ConfigError, match="grid.points_per_axis"):
        oracle_compare(Potential.harmonic(1.0, 1.0, dim=2), ThetaMatrix.single_block(2, 0.1),
                       grid, PhysicsParams(dim=2), 1.0, [2], gaussian_packet(grid))


def test_bessel_coefficients_match_tables_and_sum_to_the_exponential():
    # J_0(1), J_1(1), J_0(10), J_1(10) from Abramowitz & Stegun, table 9.1
    one, ten = _bessel_coefficients(1.0), _bessel_coefficients(10.0)
    assert one[0] == pytest.approx(0.765197686557966551, abs=1e-15)
    assert one[1] == pytest.approx(-1j * 0.440050585744933516, abs=1e-15)
    assert ten[0] == pytest.approx(-0.245935764451348335, abs=1e-14)
    assert ten[1] == pytest.approx(-1j * 0.0434727461688614367, abs=1e-14)
    assert np.array_equal(_bessel_coefficients(0.0), [1.0])
    for z in (0.0, 1.0, 10.0, 300.0):
        coeffs = _bessel_coefficients(z)
        assert len(coeffs) == 1 or np.all(np.abs(coeffs[-3:]) < 1e-12)
        for x in (-1.0, 0.3, 1.0):
            series = coeffs[0] + 2.0 * np.sum(coeffs[1:] * np.cos(
                np.arange(1, len(coeffs)) * np.arccos(x)))
            assert abs(series - np.exp(-1j * z * x)) <= 1e-13 * max(1.0, z)


# 4z + 128 gives 512, 1024, 2048 and 4096 points here, a quarter of which is
# fewer than the z + 10·z^{1/3} terms: the window must double, not refuse
@pytest.mark.parametrize("z", [90.0, 95.0, 210.0, 220.0, 470.0, 990.0])
def test_bessel_coefficients_reach_rounding_just_below_each_window_boundary(z):
    coeffs = _bessel_coefficients(z)
    assert len(coeffs) > z
    for x in (-1.0, 0.3, 1.0):
        series = coeffs[0] + 2.0 * np.sum(coeffs[1:] * np.cos(
            np.arange(1, len(coeffs)) * np.arccos(x)))
        assert abs(series - np.exp(-1j * z * x)) <= 1e-13 * z


def test_bessel_coefficients_accept_every_z_up_to_2000():
    for z in np.arange(0.0, 2000.0, 3.7):
        assert len(_bessel_coefficients(z)) <= z + 20.0 * np.cbrt(z) + 20.0


def test_bessel_coefficients_refuse_a_tail_beyond_the_largest_window(monkeypatch):
    with pytest.raises(ValueError, match="did not reach rounding within 262144 terms"):
        _bessel_coefficients(1e7)
    # J_k(100) is above rounding past k = 128, a quarter of 512 points
    monkeypatch.setattr(ncpath.oracle, "_MAX_WINDOW", 512)
    with pytest.raises(ValueError, match="within 128 terms"):
        _bessel_coefficients(100.0)
    assert len(_bessel_coefficients(50.0)) <= 128


def test_chebyshev_evolve_matches_diagonalization_where_the_window_doubles():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 6.0, 2)
    H = build_hamiltonian_matrix(Potential.harmonic(1.0, 1.0, dim=2),
                                 ThetaMatrix.single_block(2, 0.1), grid, params)
    psi = gaussian_packet(grid, center=(0.5, -0.3), width=0.8, momentum=(0.4, 0.2))
    stats = {}
    chebyshev_evolve(H, 1.0, psi, stats=stats)
    lo, hi = stats["spectral_bounds"]
    T = 95.0 * 2.0 * grid.hbar / (hi - lo)  # z = 95: 512 points are too few
    out = chebyshev_evolve(H, T, psi, stats=stats)
    assert stats["terms"] > 128
    ref = spectral_propagator(H, T).apply(psi)
    assert np.linalg.norm(out.values - ref.values) <= 1e-12 * np.linalg.norm(ref.values)


def test_spectral_free_matches_analytic_gaussian_spreading():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(32, 8.0, 2)
    H = build_hamiltonian_matrix(Potential.zero(2), ThetaMatrix.zero(2), grid, params)
    T, sigma = 0.5, 1.0
    psi = gaussian_packet(grid, width=sigma)
    action = spectral_propagator(H, T).apply(psi)
    z = 1.0 + 1j * T / (2.0 * sigma**2)
    r2 = np.sum(grid.x_points**2, axis=-1)
    norm = 1.0 / np.sqrt(np.sum(np.exp(-r2 / (2 * sigma**2))) * grid.cell_volume)
    exact = norm / z * np.exp(-r2 / (4 * sigma**2 * z))
    err = np.sqrt(np.sum(np.abs(action.values - exact) ** 2) * grid.cell_volume)
    assert err < 1e-6


# θ = 0, the commutative control, runs the general builders: the potential
# kernel is diag(V)/Δx^N and H is H(V = 0) + diag(V)/Δx^N up to rounding.
# Over quartic and Gaussian-well V, N = 1–3, G = 4–32 and boxes 2.5, 3 and
# 4, the worst gaps were 3.8 ε (kernel) and 4.6 ε (H) of the largest entry;
# where G and Δx = 2L/G are powers of two the kernel is diag(V)/Δx^N bitwise
@pytest.mark.parametrize("N, G", [(N, G) for N in (1, 2, 3) for G in (5, 7, 8, 16, 32)
                                  if G**N <= 1024])
def test_theta_zero_builders_reduce_to_the_potential_diagonal(N, G):
    eps = np.finfo(float).eps
    params, theta = PhysicsParams(dim=N, mass=1.3), ThetaMatrix.zero(N)
    for V in (Potential.quartic(0.7, dim=N), Potential.gaussian_well(1.0, 1.5, dim=N)):
        for box in (4.0, 3.0):
            grid = PhaseSpaceGrid(G, box, N)
            diagonal = np.diag(V(grid.x_points) / grid.cell_volume).astype(complex)
            K = potential_operator_kernel(V, theta, grid).entries
            if box == 4.0 and G & (G - 1) == 0:  # Δx = 8/G
                assert np.array_equal(K, diagonal)
            assert np.max(np.abs(K - diagonal)) <= 8 * eps * np.max(np.abs(diagonal))
            H = build_hamiltonian_matrix(V, theta, grid, params).entries
            free = build_hamiltonian_matrix(Potential.zero(N), theta, grid, params).entries
            assert np.max(np.abs(H - (free + diagonal))) <= 8 * eps * np.max(np.abs(H))


def test_split_step_free_is_exact():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 6.0, 2)
    psi = gaussian_packet(grid, momentum=(0.4, -0.1))
    one = split_step_evolve(psi, Potential.zero(2), ThetaMatrix.zero(2), params,
                            1.0, 1)
    many = split_step_evolve(psi, Potential.zero(2), ThetaMatrix.zero(2), params,
                             1.0, 64)
    assert np.max(np.abs(one.values - many.values)) < 1e-12


def test_split_step_coherent_state_center_tracks_classical_ellipse():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(32, 7.0, 2)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    x0 = np.array([1.0, 0.0])
    psi = gaussian_packet(grid, center=x0, width=np.sqrt(0.5))
    T = 2.0
    out = split_step_evolve(psi, V, ThetaMatrix.zero(2), params, T, 256)
    density = np.abs(out.values) ** 2
    center = (density @ grid.x_points) * grid.cell_volume
    assert np.max(np.abs(center - x0 * np.cos(T))) < 1e-3
    assert abs(out.norm() - 1.0) < 1e-6


def test_split_step_second_order_when_commutative():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(24, 7.0, 2)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    psi = gaussian_packet(grid, width=1.0)
    H = build_hamiltonian_matrix(V, ThetaMatrix.zero(2), grid, params)
    ref = spectral_propagator(H, 1.0).apply(psi)
    errs = []
    for steps in (32, 64):
        out = split_step_evolve(psi, V, ThetaMatrix.zero(2), params, 1.0, steps)
        errs.append(np.sqrt(np.sum(np.abs(out.values - ref.values) ** 2)
                            * grid.cell_volume))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_oracle_paths_agree_with_coupling():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(24, 7.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    psi = gaussian_packet(grid, width=1.0)
    H = build_hamiltonian_matrix(V, theta, grid, params)
    ref = spectral_propagator(H, 1.0).apply(psi)
    out = split_step_evolve(psi, V, theta, params, 1.0, 256)
    err = np.sqrt(np.sum(np.abs(out.values - ref.values) ** 2) * grid.cell_volume)
    assert err < 1e-4


def _with_a_zero_mixed_term(terms, dim):
    """The polynomial Σ terms plus 0·u_0·u_1: the same values as the
    one-axis terms, but no longer split by axis."""
    mixed = (1, 1) + (0,) * (dim - 2)
    return Potential.polynomial(list(terms) + [(mixed, 0.0)], dim)


def _one_axis_terms(dim, power, coeffs):
    return [(tuple(power if a == b else 0 for a in range(dim)), c)
            for b, c in enumerate(coeffs)]


# the factorized route (V split by axis, θ pairing the axes) against the
# n×n half-step matrix, forced by a zero-coefficient mixed term
@pytest.mark.parametrize("G, dim, V, dense", [
    (16, 2, Potential.harmonic(1.0, 1.0, dim=2),
     _with_a_zero_mixed_term(_one_axis_terms(2, 2, (0.5, 0.5)), 2)),
    (9, 2, Potential.harmonic(1.0, 1.0, dim=2),
     _with_a_zero_mixed_term(_one_axis_terms(2, 2, (0.5, 0.5)), 2)),
    (8, 3, Potential.harmonic(1.0, 1.0, dim=3),
     _with_a_zero_mixed_term(_one_axis_terms(3, 2, (0.5, 0.5, 0.5)), 3)),
    (16, 2, Potential.linear([0.4, -0.7]),
     _with_a_zero_mixed_term(_one_axis_terms(2, 1, (0.4, -0.7)), 2)),
], ids=["harmonic-even-G", "harmonic-odd-G", "harmonic-3d-fixed-axis", "linear"])
def test_split_step_factorized_route_matches_the_dense_half_step(G, dim, V, dense):
    assert V.axis_terms() is not None and dense.axis_terms() is None
    params = PhysicsParams(dim=dim)
    grid = PhaseSpaceGrid(G, 5.0, dim)
    theta = ThetaMatrix.single_block(dim, 0.1)  # at dim 3, axis 2 pairs with itself
    psi = gaussian_packet(grid, center=(0.5, -0.3, 0.2)[:dim], width=0.8,
                          momentum=(0.4, 0.2, -0.1)[:dim])
    out = split_step_evolve(psi, V, theta, params, 1.0, 64)
    ref = split_step_evolve(psi, dense, theta, params, 1.0, 64)
    assert np.max(np.abs(out.values - ref.values)) <= 1e-13 * np.max(np.abs(ref.values))


def _long_double_split_step(psi, V, theta, params, T, steps):
    """The Strang split-step of `split_step_evolve` in long double.

    Dense transforms with plane-wave phases 2π(n·n' mod G)/G and the exact
    lattice round-trip scale G^{-N} (ΔxΔk·G = 2πħ per axis); V(x + θk) for
    quartic or harmonic V; every product and sum in long double.
    """
    grid = psi.grid
    G, N, ld = grid.points_per_axis, grid.dim, np.longdouble
    pi = 4 * np.arctan(ld(1))
    idx = np.indices(grid.shape).reshape(N, -1).T - G // 2
    plane = np.exp(2j * pi * ((idx @ idx.T) % G) / G)  # e^{(i/ħ)x·k} at [x, k]
    x, k = idx * ld(grid.dx), idx * ld(grid.dk)
    u = x[:, None, :] + np.einsum("jl,kl->kj", theta.entries.astype(ld), k)[None, :, :]
    r2 = np.sum(u * u, axis=-1)
    if V.form == "quartic":
        vals = ld(V.coeffs["lam"]) * r2 * r2
    else:
        vals = ld(0.5) * ld(V.coeffs["mass"]) * ld(V.coeffs["omega"]) ** 2 * r2
    hbar, dt = ld(grid.hbar), ld(T) / steps
    half = plane * np.exp(-0.5j * dt * vals / hbar) / ld(G) ** N  # ψ̂ -> ψ
    forward = plane.conj().T  # ψ -> ψ̂, unscaled
    kin = np.exp(-1j * dt * np.sum(k * k, axis=-1) / (2 * ld(params.mass) * hbar))
    values = psi.values.astype(np.clongdouble)
    for _ in range(steps):
        values = half @ (forward @ values)
        values = half @ (kin * (forward @ values))
    return values


def _split_step_error(V, theta_value, G):
    """max|split_step_evolve − the long-double split-step| / max|reference|,
    64 steps to T = 1 on a box of half-width 4 with θ^{01} = theta_value."""
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(G, 4.0, 2)
    theta = ThetaMatrix.single_block(2, theta_value)
    psi = gaussian_packet(grid, center=(0.5, -0.3), width=0.9, momentum=(0.4, 0.2))
    ref = _long_double_split_step(psi, V, theta, params, 1.0, 64)
    out = split_step_evolve(psi, V, theta, params, 1.0, 64)
    return np.max(np.abs(out.values - ref)) / np.max(np.abs(ref))


_NO_WIDE_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double on this platform")


# quartic V at θ ≠ 0 takes the n×n half-step matrix, harmonic V the
# factorized route and θ = 0 the phases with FFTs; each bound is about
# twice the error measured on this input
@_NO_WIDE_LONG_DOUBLE
@pytest.mark.parametrize("V, theta_value, bound",
                         [(Potential.quartic(0.05), 0.3, 5e-14),
                          (Potential.harmonic(1.0, 1.0, dim=2), 0.3, 1.5e-14),
                          (Potential.quartic(0.05), 0.0, 3.5e-14)],
                         ids=["dense", "factorized", "theta-zero"])
def test_split_step_matches_a_long_double_reference(V, theta_value, bound):
    assert _split_step_error(V, theta_value, 9) <= bound


# Each round trip x -> k -> x divides by G^N once.  With the two transforms'
# scales Δx^N(2πħ)^{-N/2} and Δk^N(2πħ)^{-N/2}, whose product is G^{-N} only
# up to rounding, the same state drifted by a fixed factor per step: 2.9e-14
# (dense) and 2.7e-14 (θ = 0) here, against 9.0e-15 and 8.6e-15 now.  At
# odd G the FFT's own round trip still loses norm, so G = 10.
@_NO_WIDE_LONG_DOUBLE
@pytest.mark.parametrize("theta_value", [0.3, 0.0], ids=["dense", "theta-zero"])
def test_split_step_round_trips_carry_no_scale_drift(theta_value):
    assert _split_step_error(Potential.quartic(0.05), theta_value, 10) <= 1.8e-14


@pytest.fixture
def nothing_built(monkeypatch):
    """Fail any split-step route that gets as far as building its tables."""
    def refuse(*args):
        raise AssertionError("a split-step route was built")

    monkeypatch.setattr(ncpath.oracle, "_require_dense_size", refuse)
    monkeypatch.setattr(ncpath.oracle, "_axis_step_tables", refuse)


def _split_step_inputs():
    grid = PhaseSpaceGrid(8, 4.0, 2)
    return (gaussian_packet(grid), Potential.harmonic(1.0, 1.0, dim=2),
            ThetaMatrix.single_block(2, 0.1))


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_split_step_rejects_a_non_finite_time(T, nothing_built):
    psi, V, theta = _split_step_inputs()
    with pytest.raises(ConfigError, match="^T: must be finite"):
        split_step_evolve(psi, V, theta, PhysicsParams(dim=2), T, 4)


def test_split_step_rejects_params_hbar_unlike_the_grid(nothing_built):
    psi, V, theta = _split_step_inputs()
    with pytest.raises(GridMismatchError, match="hbar"):
        split_step_evolve(psi, V, theta, PhysicsParams(hbar=0.5, dim=2), 1.0, 4)


def test_split_step_rejects_params_dim_unlike_the_grid(nothing_built):
    psi, _, theta = _split_step_inputs()
    with pytest.raises(GridMismatchError, match="dim"):
        split_step_evolve(psi, Potential.harmonic(1.0, 1.0, dim=3),
                          ThetaMatrix.single_block(3, 0.1), PhysicsParams(dim=3), 1.0, 4)


def test_split_step_rejects_a_theta_of_another_dimension(nothing_built):
    psi, V, _ = _split_step_inputs()
    with pytest.raises(GridMismatchError, match="dim"):
        split_step_evolve(psi, V, ThetaMatrix.single_block(3, 0.1), PhysicsParams(dim=2),
                          1.0, 4)


@pytest.mark.parametrize("steps", [True, 0, 2.0], ids=["bool", "zero", "float"])
def test_split_step_rejects_steps_that_are_not_a_positive_integer(steps, nothing_built):
    psi, V, theta = _split_step_inputs()
    with pytest.raises(ValueError, match="steps: must be an integer of at least 1"):
        split_step_evolve(psi, V, theta, PhysicsParams(dim=2), 1.0, steps)


def test_sliced_kernel_approaches_spectral_oracle():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    probe = gaussian_packet(grid, width=np.sqrt(0.5))
    rows = oracle_compare(V, theta, grid, params, 1.0, [8, 16, 32], probe)
    errors = [err for _, err in rows]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 2e-2


def test_commutative_oscillator_coherent_state_vs_sliced():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(32, 7.0, 2)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    tz = ThetaMatrix.zero(2)
    probe = gaussian_packet(grid, center=(0.8, 0.0), width=np.sqrt(0.5))
    H = build_hamiltonian_matrix(V, tz, grid, params)
    ref = spectral_propagator(H, 1.0).apply(probe)
    cfg = SlicingConfig(64, 1.0, 0.5, params)
    out = full_kernel(cfg, V, tz, grid).apply(probe)
    diff = np.sqrt(np.sum(np.abs(out.values - ref.values) ** 2) * grid.cell_volume)
    assert diff < 1e-2


def test_unitarity_probe_of_sliced_kernel():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(32, 7.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    probe = gaussian_packet(grid)
    cfg = SlicingConfig(64, 1.0, 0.5, params)
    ratio = full_kernel(cfg, V, theta, grid).apply(probe).norm() / probe.norm()
    assert 0.99 <= ratio <= 1.01


def test_kinetic_kernel_circulant_structure():
    params = PhysicsParams(dim=1)
    grid = PhaseSpaceGrid(16, 5.0, 1)
    kin = build_hamiltonian_matrix(Potential.zero(1), ThetaMatrix.zero(1), grid, params)
    # constant along wrapped diagonals
    G = grid.points_per_axis
    for d in range(G):
        vals = np.array([kin.entries[i, (i + d) % G] for i in range(G)])
        assert np.max(np.abs(vals - vals[0])) == 0.0
    assert kin.adjoint_deviation()[0] < 1e-12


def _hamiltonian_then_evolve(V, theta, grid, params):
    # H is built before tracing starts: the bound counts the peak above it
    H = build_hamiltonian_matrix(V, theta, grid, params)
    probe = gaussian_packet(grid)
    return lambda: chebyshev_evolve(H, 1.0, probe)


def _oracle_compare(V, theta, grid, params):
    # quartic V takes the dense reference: H, its Hermitian part and each
    # slice share one n×n array at a time
    probe = gaussian_packet(grid)
    return lambda: oracle_compare(Potential.quartic(0.1), ThetaMatrix.zero(2), grid, params,
                                  1.0, [4, 8], probe)


def _oracle_compare_factorized(V, theta, grid, params):
    # harmonic V: the reference's per-axis tables and the α = 1/2 slices'
    # n×G tables, no n×n array
    probe = gaussian_packet(grid)
    return lambda: oracle_compare(V, theta, grid, params, 1.0, [4, 8], probe)


def _kernel_then_symbol(V, theta, grid, params):
    # the kernel is built before tracing starts; the layout and each
    # transform stage hold at most two n×n arrays
    kernel = potential_operator_kernel(V, theta, grid)
    return lambda: symbol_of_operator(kernel, 0.3)


@pytest.mark.parametrize("prepare,bound", [
    # beside the output sit one row block's h(k, y) values and transforms,
    # then that block's gathered entries
    (lambda V, theta, grid, params: lambda: build_hamiltonian_matrix(V, theta, grid, params),
     1.5),
    (_hamiltonian_then_evolve, 1.25),
    # quartic V does not split by axis: the n×n half-step matrix
    (lambda V, theta, grid, params: lambda: split_step_evolve(
        gaussian_packet(grid), Potential.quartic(0.1), theta, params, 1.0, 2), 1.25),
    # harmonic V: 2N tables of n×G and an (n, G^{N-1}) product, no n×n array
    (lambda V, theta, grid, params: lambda: split_step_evolve(
        gaussian_packet(grid), V, theta, params, 1.0, 2), 0.5),
    (_oracle_compare, 1.5),
    (_oracle_compare_factorized, 0.3),
    (_kernel_then_symbol, 2.5),
], ids=["build_hamiltonian_matrix", "chebyshev_evolve",
        "split_step_evolve", "split_step_evolve_factorized", "oracle_compare",
        "oracle_compare_factorized", "symbol_of_operator"])
def test_dense_builds_allocate_one_n_by_n_array(prepare, bound):
    # each builder allocates its n×n output once and fills it in row blocks
    # of n²/G entries, so the traced peak stays near one kernel
    import tracemalloc

    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 5.0, 2)
    run = prepare(Potential.harmonic(1.0, 1.0, dim=2), ThetaMatrix.single_block(2, 0.1),
                  grid, params)
    kernel_bytes = grid.size**2 * 16
    run()  # the first call imports numpy.fft; its allocations are not the build's
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * kernel_bytes, f"peak {peak} B for a {kernel_bytes} B kernel"


def test_factorized_split_step_holds_four_tables_and_one_work_array():
    # harmonic V: 2N = 4 tables of n×G and one (n, G^{N-1}) work array, each
    # one table's bytes at N = 2 (64 KB at G = 16); a table is built in place,
    # its plane waves broadcast, so the build stays below that.  With numpy
    # 2.4 it traces 5.47 tables; the margin covers the probe, its copies and
    # the kinetic phases
    import tracemalloc

    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 5.0, 2)
    V, theta = Potential.harmonic(1.0, 1.0, dim=2), ThetaMatrix.single_block(2, 0.1)
    probe = gaussian_packet(grid)
    table_bytes = grid.size * grid.points_per_axis * 16
    split_step_evolve(probe, V, theta, params, 1.0, 2)  # the first call imports numpy.fft
    tracemalloc.start()
    try:
        split_step_evolve(probe, V, theta, params, 1.0, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (4 + 1 + 0.75) * table_bytes, f"peak {peak} B, {peak / table_bytes:.2f} tables"


@pytest.mark.parametrize("m_values, alpha, message", [([2, -1], 0.5, "slices_m"),
                                                      ([2, 2.7], 0.5, "slices_m"),
                                                      ([2, 2.5], 0.5, "slices_m"),
                                                      ([True, 4], 0.5, "slices_m"),
                                                      ([2, 4], 0.7, "alpha"),
                                                      ([16, 4, 16], 0.5,
                                                       "m_values: slice counts must be distinct")],
                         ids=["m", "m-fraction", "m-half", "m-bool", "alpha", "m-repeated"])
def test_oracle_compare_refuses_a_bad_slicing_before_the_reference(m_values, alpha, message,
                                                                   monkeypatch):
    def refuse(*args):
        raise AssertionError("the reference Hamiltonian was built")

    monkeypatch.setattr(ncpath.oracle, "build_hamiltonian_matrix", refuse)
    monkeypatch.setattr(ncpath.oracle, "_factored_hamiltonian", refuse)
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(8, 4.0, 2)
    with pytest.raises(ValueError, match=message):
        oracle_compare(Potential.harmonic(1.0, 1.0, dim=2), ThetaMatrix.single_block(2, 0.1),
                       grid, params, 1.0, m_values, gaussian_packet(grid), alpha=alpha)
