import numpy as np
import pytest

from ncpath.core import PhaseSpaceGrid, PhysicsParams, Potential, ThetaMatrix
from ncpath.core import GridMismatchError
from ncpath.star import (
    ComplexField,
    OperatorKernel,
    gaussian_packet,
    identity_kernel,
    potential_operator_kernel,
    star_apply,
    star_apply_field,
    star_integral_identity_check,
)


def brute_force_star(V, theta, psi):
    """Literal mixed-domain double sum: the oracle every fast path answers to."""
    grid = psi.grid
    hat = grid.wave_to_momentum(psi.values)
    out = np.zeros(grid.size, dtype=complex)
    pref = grid.momentum_cell_volume * (2 * np.pi * grid.hbar) ** (-grid.dim / 2)
    for ik in range(grid.size):
        k = grid.k_points[ik]
        shifted = grid.x_points + theta.shift(k)
        out += np.exp(1j * (grid.x_points @ k) / grid.hbar) * V(shifted) * hat[ik]
    return out * pref


@pytest.fixture
def setup2d():
    grid = PhaseSpaceGrid(16, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    psi = gaussian_packet(grid, center=(0.4, -0.2), width=1.0, momentum=(0.3, 0.0))
    return grid, theta, psi


def test_star_theta_zero_is_pointwise_exact(setup2d):
    grid, _, psi = setup2d
    V = Potential.quartic(0.7, dim=2)
    out = star_apply(V, ThetaMatrix.zero(2), psi)
    assert np.array_equal(out.values, V(grid.x_points) * psi.values)


def test_star_linear_terminates_at_first_order(setup2d):
    grid, theta, psi = setup2d
    c = np.array([0.7, -0.3])
    out = star_apply(Potential.linear(c), theta, psi)
    hat = grid.wave_to_momentum(psi.values)
    grad = [grid.momentum_to_wave(1j * grid.k_points[:, ax] / grid.hbar * hat)
            for ax in range(2)]
    ctheta = c @ theta.entries  # c_j θ^{jl}
    expected = (grid.x_points @ c) * psi.values \
        - 1j * grid.hbar * (ctheta[0] * grad[0] + ctheta[1] * grad[1])
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_star_matches_brute_force_double_sum():
    grid = PhaseSpaceGrid(64, 8.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    psi = gaussian_packet(grid, width=1.1)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    fast = star_apply(V, theta, psi)
    slow = brute_force_star(V, theta, psi)
    scale = np.max(np.abs(slow))
    assert np.max(np.abs(fast.values - slow)) / scale < 1e-10


def test_star_linearity(setup2d):
    grid, theta, psi = setup2d
    phi = gaussian_packet(grid, center=(-0.5, 0.1), width=1.3)
    V = Potential.quartic(1.0, dim=2)
    a, b = 1.7 - 0.3j, -0.8 + 0.2j
    combo = ComplexField(a * psi.values + b * phi.values, grid)
    lhs = star_apply(V, theta, combo)
    rhs = a * star_apply(V, theta, psi).values + b * star_apply(V, theta, phi).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs.values - rhs)) / scale < 1e-13


def test_star_polynomial_matches_truncated_derivative_expansion():
    # for quadratic V the derivative series stops at second order
    grid = PhaseSpaceGrid(24, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    psi = gaussian_packet(grid, width=0.9)
    V = Potential.harmonic(1.2, 1.0, dim=2)
    out = star_apply(V, theta, psi)
    hat = grid.wave_to_momentum(psi.values)
    hbar = grid.hbar

    def deriv(axis, values_hat):
        return 1j * grid.k_points[:, axis] / hbar * values_hat

    # V⋆ψ = V ψ + (∂_j V)(−iħ θ^{jl} ∂_l ψ) + ½(∂_j∂_k V)(−iħθ∂)_j(−iħθ∂)_k ψ
    x = grid.x_points
    mass_omega2 = 1.0 * 1.2**2
    vx = V(x)
    dV = mass_omega2 * x  # gradient of ½Mω²|x|²
    first = np.zeros(grid.size, dtype=complex)
    shift_ops = []
    for j in range(2):
        op = np.zeros(grid.size, dtype=complex)
        for l in range(2):
            if theta.entries[j, l]:
                op += -1j * hbar * theta.entries[j, l] * grid.momentum_to_wave(
                    deriv(l, hat))
        shift_ops.append(op)
        first += dV[:, j] * op
    second = np.zeros(grid.size, dtype=complex)
    for j in range(2):
        # ∂_j∂_k V = Mω² δ_jk
        inner = np.zeros(grid.size, dtype=complex)
        for l in range(2):
            if theta.entries[j, l]:
                inner += -1j * hbar * theta.entries[j, l] * deriv(l, hat)
        twice = np.zeros(grid.size, dtype=complex)
        for l in range(2):
            if theta.entries[j, l]:
                twice += -1j * hbar * theta.entries[j, l] * grid.momentum_to_wave(
                    deriv(l, grid.wave_to_momentum(grid.momentum_to_wave(inner))))
        second += 0.5 * mass_omega2 * twice
    expected = vx * psi.values + first + second
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(out.values - expected)) / scale < 1e-8


def test_integral_identity_theta_zero_exact(setup2d):
    grid, _, psi = setup2d
    phi = gaussian_packet(grid, center=(0.2, 0.3), width=1.2)
    assert star_integral_identity_check(phi, psi, ThetaMatrix.zero(2)) == 0.0


def test_integral_identity_gaussians():
    grid = PhaseSpaceGrid(64, 8.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    phi = gaussian_packet(grid, center=(0.5, -0.3), width=1.0)
    psi = gaussian_packet(grid, center=(-0.4, 0.2), width=1.2, momentum=(0.5, -0.2))
    assert star_integral_identity_check(phi, psi, theta) < 1e-8


def test_integral_identity_constant_fields():
    grid = PhaseSpaceGrid(8, 4.0, 2)
    theta = ThetaMatrix.single_block(2, 0.2)
    const = ComplexField(np.full(grid.size, 1.3 + 0.1j), grid)
    assert star_integral_identity_check(const, const.copy(), theta) < 1e-12


def test_star_apply_field_matches_potential_on_bandlimited_data():
    # a multiplier built from low lattice frequencies is exactly representable,
    # so the field route and an explicit plane-wave expansion must agree
    grid = PhaseSpaceGrid(16, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    psi = gaussian_packet(grid, width=1.0)
    w = grid.k_points[grid.size // 2 + 3]  # a small lattice frequency
    phi_vals = np.exp(1j * (grid.x_points @ w) / grid.hbar)
    phi = ComplexField(phi_vals, grid)
    out = star_apply_field(phi, theta, psi)
    # e^{iwx} ⋆ ψ = e^{iwx} ψ_interp(x - θw): one twisted inverse transform
    hat = grid.wave_to_momentum(psi.values)
    shift = theta.shift(w)
    twisted = hat * np.exp(-1j * (grid.k_points @ shift) / grid.hbar)
    psi_shifted = grid.momentum_to_wave(twisted)
    expected = phi_vals * psi_shifted
    assert np.max(np.abs(out.values - expected)) < 1e-12


def per_frequency_star_field(phi, theta, psi):
    """φ ⋆ ψ = Σ_w c_w e^{(i/ħ) w·x} ψ_interp(x - θw), one inverse DFT per frequency w.

    The literal reading of the twisted convolution that star_apply_field
    evaluates as a single transform.
    """
    grid = psi.grid
    c = grid.wave_to_momentum(phi.values) * grid.momentum_cell_volume \
        * (2 * np.pi * grid.hbar) ** (-grid.dim / 2)
    hat = grid.wave_to_momentum(psi.values)
    out = np.zeros(grid.size, dtype=complex)
    for iw in range(grid.size):
        w = grid.k_points[iw]
        twisted = hat * np.exp(-1j * (grid.k_points @ theta.shift(w)) / grid.hbar)
        out += c[iw] * np.exp(1j * (grid.x_points @ w) / grid.hbar) \
            * grid.momentum_to_wave(twisted)
    return out


@pytest.mark.parametrize("points, dim", [(8, 2), (9, 2), (7, 3), (5, 4)])
def test_star_apply_field_matches_per_frequency_reference(points, dim):
    rng = np.random.default_rng(points * 10 + dim)
    grid = PhaseSpaceGrid(points, 3.0, dim, hbar=0.8)
    upper = np.triu(rng.normal(size=(dim, dim)), 1)
    theta = ThetaMatrix(upper - upper.T)
    phi, psi = (ComplexField(rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size),
                             grid) for _ in range(2))
    reference = per_frequency_star_field(phi, theta, psi)
    fast = star_apply_field(phi, theta, psi).values
    assert np.max(np.abs(fast - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_potential_kernel_theta_zero_diagonal():
    grid = PhaseSpaceGrid(8, 4.0, 2)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    kern = potential_operator_kernel(V, ThetaMatrix.zero(2), grid)
    expected = np.diag(V(grid.x_points) / grid.cell_volume)
    assert np.array_equal(kern.entries, expected.astype(complex))


def test_potential_kernel_zero_potential():
    grid = PhaseSpaceGrid(8, 4.0, 2)
    kern = potential_operator_kernel(Potential.zero(2), ThetaMatrix.single_block(2, 0.1),
                                     grid)
    assert np.max(np.abs(kern.entries)) < 1e-14


def test_potential_kernel_hermitian_harmonic():
    grid = PhaseSpaceGrid(16, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    kern = potential_operator_kernel(Potential.harmonic(1.0, 1.0, dim=2), theta, grid)
    assert kern.adjoint_deviation()[0] < 1e-10


def test_hermiticity_deviation_matches_literal_and_keeps_nan():
    # reduced strip by strip: the same max as the whole-array formula, and a
    # NaN on either side of the diagonal is not dropped by the reduction;
    # (9, 2) lies in block 0's column strip, (2, 9) in its upper strip
    grid = PhaseSpaceGrid(4, 2.0, 2)
    rng = np.random.default_rng(5)
    entries = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    literal = float(np.max(np.abs(entries - entries.conj().T)))
    assert OperatorKernel(entries, grid).adjoint_deviation()[0] == literal
    for where in [(9, 2), (2, 9)]:
        poisoned = entries.copy()
        poisoned[where] = np.nan
        dev, top = OperatorKernel(poisoned, grid).adjoint_deviation()
        assert np.isnan(dev) and np.isnan(top)


@pytest.mark.parametrize("G, N", [(4, 2), (3, 3), (5, 1)])
def test_strip_pass_writes_the_hermitian_part_in_place(G, N):
    # each strip pair is read before any block writes it, so out = entries
    # gives the same bits as a fresh array, and both are the bytes of the
    # literal formula; a complex-symmetric and a real matrix make imaginary
    # parts cancel to signed zeros on both sides of the diagonal
    grid = PhaseSpaceGrid(G, 2.0, N)
    rng = np.random.default_rng(G + N)
    n = grid.size
    general = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for entries in [general, general + general.T, np.conjugate(general.real + 0j)]:
        scaled = entries * 0.3  # the caller scales first, as `oracle._dense_reference` does
        literal = (scaled + scaled.conj().T) * 0.5
        fresh = np.empty_like(scaled)
        kern = OperatorKernel(scaled.copy(), grid)
        dev, top = kern.adjoint_deviation(out=fresh)
        assert (dev, top) == (float(np.max(np.abs(scaled - scaled.conj().T))),
                              float(np.max(np.abs(scaled))))
        assert fresh.tobytes() == literal.tobytes()
        assert kern.adjoint_deviation(out=kern.entries) == (dev, top)
        assert kern.entries.tobytes() == literal.tobytes()


def test_kernel_application_matches_star_apply():
    grid = PhaseSpaceGrid(32, 7.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    psi = gaussian_packet(grid, width=1.1, momentum=(0.3, 0.1))
    V = Potential.harmonic(1.0, 1.0, dim=2)
    via_kernel = potential_operator_kernel(V, theta, grid).apply(psi)
    direct = star_apply(V, theta, psi)
    assert np.max(np.abs(via_kernel.values - direct.values)) < 1e-8


def test_identity_kernel_is_neutral():
    grid = PhaseSpaceGrid(8, 4.0, 2)
    psi = gaussian_packet(grid)
    out = identity_kernel(grid).apply(psi)
    assert np.max(np.abs(out.values - psi.values)) < 1e-12


def test_grid_mismatch_raises():
    g1 = PhaseSpaceGrid(8, 4.0, 2)
    g2 = PhaseSpaceGrid(8, 5.0, 2)
    psi = gaussian_packet(g1)
    phi = gaussian_packet(g2)
    with pytest.raises(GridMismatchError):
        star_integral_identity_check(phi, psi, ThetaMatrix.zero(2))
    with pytest.raises(GridMismatchError):
        star_apply(Potential.zero(3), ThetaMatrix.zero(3), psi)


def test_gaussian_packet_boundary_mass_and_norm():
    grid = PhaseSpaceGrid(32, 7.0, 2)
    psi = gaussian_packet(grid)
    assert psi.norm() == pytest.approx(1.0, abs=1e-13)
    # wrap-sensitive width: < 1e-12 of the mass near the box boundary
    narrow = gaussian_packet(grid, width=grid.box_half_width / 9.0)
    edge = np.max(np.abs(grid.x_points), axis=1) >= grid.box_half_width - 2 * grid.dx
    boundary_mass = np.sum(np.abs(narrow.values[edge]) ** 2) * grid.cell_volume
    assert boundary_mass < 1e-12


@pytest.mark.parametrize("width", [float("nan"), float("inf"), 0.0, -1.0])
def test_gaussian_packet_rejects_non_finite_or_non_positive_width(width):
    with pytest.raises(ValueError, match="width"):
        gaussian_packet(PhaseSpaceGrid(8, 4.0, 2), width=width)


def _long_double_star_apply(V, theta, psi):
    """The mixed-domain sum of `star_apply` for harmonic V in long double.

    Dense transforms with plane-wave phases 2π(n·n' mod G)/G and the exact
    lattice scale G^{-N} of the two measures (ΔxΔk·G = 2πħ per axis); every
    product and sum in long double.
    """
    grid = psi.grid
    G, N, ld = grid.points_per_axis, grid.dim, np.longdouble
    pi = 4 * np.arctan(ld(1))
    idx = np.indices(grid.shape).reshape(N, -1).T - G // 2
    plane = np.exp(2j * pi * ((idx @ idx.T) % G) / G)  # e^{(i/ħ)x·k} at [x, k]
    x, k = idx * ld(grid.dx), idx * ld(grid.dk)
    u = x[:, None, :] + np.einsum("jl,kl->kj", theta.entries.astype(ld), k)[None, :, :]
    vals = ld(0.5) * ld(V.coeffs["mass"]) * ld(V.coeffs["omega"]) ** 2 * np.sum(u * u, axis=-1)
    hat = plane.conj().T @ psi.values.astype(np.clongdouble)  # unscaled ψ̂
    return (plane * vals) @ hat / ld(G) ** N


# each bound is about twice the error measured on this input (2.9e-15, 4.6e-15)
@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("G, bound", [(16, 6e-15), (32, 1e-14)])
def test_star_apply_matches_a_long_double_mixed_sum(G, bound):
    grid = PhaseSpaceGrid(G, 4.0, 2)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    theta = ThetaMatrix.single_block(2, 0.1)
    psi = gaussian_packet(grid, center=(0.5, -0.3), width=0.9, momentum=(0.4, 0.2))
    ref = _long_double_star_apply(V, theta, psi)
    out = star_apply(V, theta, psi).values
    err = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
    assert err <= bound
