import numpy as np
import pytest

from ncpath import weyl
from ncpath.core import ConfigError, PhaseSpaceGrid, PhysicsParams, Potential, ThetaMatrix
from ncpath.oracle import build_hamiltonian_matrix
from ncpath.star import OperatorKernel, identity_kernel, potential_operator_kernel
from ncpath.weyl import (
    delta_alpha_matrix_element,
    shifted_potential_symbol,
    symbol_of_operator,
    symbol_via_quantizer_trace,
    symmetrized_position_momentum_kernel,
    verify_alpha_washout,
)


def brute_symbol_1d(kernel, alpha, grid):
    """Literal implementation of the defining sum in one dimension.

    Reads each wrapped diagonal of the kernel, interpolates it along its
    anchor by an explicit frequency sum (endpoint frequencies and endpoint
    diagonals averaged over their ± representatives), and accumulates the
    phase-weighted diagonal contributions point by point.
    """
    G = grid.points_per_axis
    n = grid.index_axis
    beta = 0.5 + alpha

    def reps(value):
        return [value, -value] if value == -(G // 2) else [value]

    A = kernel.entries
    sym = np.zeros((G, G), dtype=complex)
    for id_, d in enumerate(n):
        # samples of this diagonal: s_i = A[y_i, y_i + d (wrapped)]
        samples = np.array([A[i, (i + id_ - G // 2) % G] for i in range(G)])
        shat = np.array([np.sum(samples * np.exp(-2j * np.pi * w * n / G)) / G
                         for w in n])
        for ik, k in enumerate(n):
            phase_kd = np.exp(2j * np.pi * k * d / G)
            for ix, x in enumerate(n):
                interp = 0.0
                for iw, w in enumerate(n):
                    twist = np.mean([np.exp(-2j * np.pi * beta * wr * dr / G)
                                     for wr in reps(w) for dr in reps(d)])
                    interp += shat[iw] * np.exp(2j * np.pi * w * x / G) * twist
                sym[ik, ix] += grid.dx * phase_kd * interp
    return sym


def test_alpha_index_range():
    # the ends of [-1/2, 1/2] are ordering indices; a number outside, a
    # non-finite one or a value that is not a number is refused under alpha
    identity = identity_kernel(PhaseSpaceGrid(4, 2.0, 1))
    symbol_of_operator(identity, 0.5)
    symbol_of_operator(identity, np.float64(-0.5))
    for alpha in (0.51, 0.7, -0.5000001, np.nan, np.inf, "0", True, None):
        with pytest.raises(ConfigError, match="^alpha:"):
            symbol_of_operator(identity, alpha)


def test_symbol_matches_brute_force_1d():
    grid = PhaseSpaceGrid(8, 4.0, 1)
    rng = np.random.default_rng(1)
    K = OperatorKernel(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), grid)
    for alpha in (-0.5, -0.3, 0.0, 0.25, 0.5):
        fast = symbol_of_operator(K, alpha).values
        slow = brute_symbol_1d(K, alpha, grid)
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_identity_symbol_is_one_for_every_alpha():
    grid = PhaseSpaceGrid(8, 4.0, 2)
    I = identity_kernel(grid)
    for alpha in (-0.5, -0.17, 0.0, 0.37, 0.5):
        s = symbol_of_operator(I, alpha).values
        assert np.max(np.abs(s - 1.0)) < 1e-12


def test_kinetic_symbol_alpha_invariant():
    # no ordering ambiguity for a function of momentum alone
    grid = PhaseSpaceGrid(8, 4.0, 1)
    kin = build_hamiltonian_matrix(Potential.zero(1), ThetaMatrix.zero(1), grid,
                                   PhysicsParams(dim=1))
    target = (grid.k_points[:, 0] ** 2 / 2.0)[:, None] * np.ones((1, grid.size))
    symbols = [symbol_of_operator(kin, a).values for a in (-0.5, -0.4, 0.0, 0.4, 0.5)]
    for s in symbols:
        assert np.max(np.abs(s - target)) < 1e-12
    spread = max(np.max(np.abs(symbols[0] - s)) for s in symbols[1:])
    assert spread < 1e-12  # rounding only: the w=0 profile never sees α


def test_symbol_linearity_exact():
    grid = PhaseSpaceGrid(8, 4.0, 1)
    rng = np.random.default_rng(5)
    K1 = OperatorKernel(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), grid)
    K2 = OperatorKernel(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), grid)
    a, b = 1.5 - 0.5j, -0.7 + 0.1j
    combo = OperatorKernel(a * K1.entries + b * K2.entries, grid)
    lhs = symbol_of_operator(combo, 0.3).values
    rhs = a * symbol_of_operator(K1, 0.3).values + b * symbol_of_operator(K2, 0.3).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_potential_symbol_exact_at_bra_anchor():
    # α = -1/2 reads every diagonal at lattice anchors: the symbol equals
    # the shifted potential on the nose
    grid = PhaseSpaceGrid(8, 5.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.quartic(1.0, dim=2)
    kern = potential_operator_kernel(V, theta, grid)
    target = V(grid.x_points[None, :, :] + theta.shift(grid.k_points)[:, None, :])
    s = symbol_of_operator(kern, -0.5).values
    assert np.max(np.abs(s - target)) < 1e-9


def test_harmonic_symbol_close_to_shifted_potential():
    grid = PhaseSpaceGrid(16, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    kern = potential_operator_kernel(V, theta, grid)
    target = V(grid.x_points[None, :, :] + theta.shift(grid.k_points)[:, None, :])
    s = symbol_of_operator(kern, 0.3).values
    assert np.max(np.abs(s - target)) < 1e-3


def test_washout_closed_form_zero_potential():
    grid = PhaseSpaceGrid(8, 4.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    report = verify_alpha_washout(Potential.zero(2), theta, grid, [-0.4, 0.0, 0.4])
    assert report.max_pairwise_abs == 0.0
    assert all(d == 0.0 for d in report.max_dev_from_shifted)


def test_washout_closed_form_theta_zero_control():
    # without the shift, V(X) involves no noncommuting products: symbols agree
    grid = PhaseSpaceGrid(8, 4.0, 2)
    report = verify_alpha_washout(Potential.quartic(1.0, dim=2), ThetaMatrix.zero(2),
                                  grid, [-0.4, 0.4])
    assert report.max_pairwise_abs < 1e-12


def test_washout_closed_form_quartic():
    grid = PhaseSpaceGrid(16, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    report = verify_alpha_washout(Potential.quartic(1.0, dim=2), theta, grid,
                                  [-0.4, 0.0, 0.4])
    assert report.max_pairwise_relative < 1e-6


def test_closed_form_washout_evaluates_the_potential_once(monkeypatch):
    # only the k·θk factor depends on α: the V(x+θk) table is built once
    grid = PhaseSpaceGrid(8, 4.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.quartic(1.0, dim=2)
    alphas = [-0.4, 0.0, 0.4]
    rebuilt = [shifted_potential_symbol(V, theta, grid, a).values for a in alphas]
    calls = []
    original = Potential.__call__
    monkeypatch.setattr(Potential, "__call__",
                        lambda self, u: calls.append(1) or original(self, u))
    report = verify_alpha_washout(V, theta, grid, alphas)
    assert len(calls) == 1
    for sym, values in zip(report.symbols, rebuilt):
        assert np.array_equal(sym.values, values)


@pytest.mark.parametrize("method", ["closed_form", "direct"])
def test_washout_refuses_repeated_ordering_indices(method, monkeypatch):
    # a repeated α would compare an index with itself: a spread of 0 that checks nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a symbol was built")

    monkeypatch.setattr(weyl, "shifted_potential_symbol", refuse)
    monkeypatch.setattr(weyl, "potential_operator_kernel", refuse)
    grid = PhaseSpaceGrid(8, 4.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    with pytest.raises(ValueError, match="alphas: ordering indices must be distinct"):
        verify_alpha_washout(Potential.quartic(1.0, dim=2), theta, grid, [0.4, -0.4, 0.4],
                             method=method)


def test_closed_form_rejects_endpoint():
    grid = PhaseSpaceGrid(8, 4.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    with pytest.raises(ValueError):
        shifted_potential_symbol(Potential.zero(2), theta, grid, -0.5)


def test_washout_direct_within_selfconvergence_budget():
    # quantitative contract for the defining-integral route: the spread over
    # α is bounded by ten times the G → 2G self-convergence error
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.quartic(1.0, dim=2)
    L = 6.0
    alphas = (-0.4, 0.0, 0.4)
    symbols = {}
    for G in (8, 16):
        grid = PhaseSpaceGrid(G, L, 2)
        kern = potential_operator_kernel(V, theta, grid)
        symbols[G] = {a: symbol_of_operator(kern, a).values.reshape((G,) * 4)
                      for a in alphas}
    # common nodes: coarse x-lattice is every other fine point, k-window is
    # the central half of the fine window (same spacing)
    xi = [2 * i for i in range(8)]
    ki = [i + 4 for i in range(8)]
    self_err = max(
        np.max(np.abs(symbols[8][a] - symbols[16][a][np.ix_(ki, ki, xi, xi)]))
        for a in alphas)
    spread = max(np.max(np.abs(symbols[8][a] - symbols[8][b]))
                 for a in alphas for b in alphas if a < b)
    assert spread <= 10 * self_err


def test_control_operator_symbol_detects_ordering():
    grid = PhaseSpaceGrid(16, 6.0, 1)
    ctrl = symmetrized_position_momentum_kernel(grid, PhysicsParams(dim=1))
    s_plus = symbol_of_operator(ctrl, 0.5).values
    s_minus = symbol_of_operator(ctrl, -0.5).values
    assert np.max(np.abs(s_plus - s_minus)) >= 1e-2
    # detected on a refined grid too: a grid-independent finite amount
    grid2 = PhaseSpaceGrid(32, 6.0, 1)
    ctrl2 = symmetrized_position_momentum_kernel(grid2, PhysicsParams(dim=1))
    d2 = np.max(np.abs(symbol_of_operator(ctrl2, 0.5).values
                       - symbol_of_operator(ctrl2, -0.5).values))
    assert d2 >= 1e-2


@pytest.mark.parametrize("grid", [
    PhaseSpaceGrid(8, 4.0, 1),
    # Δx = 0.75: a lost Δx^N factor in the trace measure shows here only
    PhaseSpaceGrid(8, 3.0, 1),
    PhaseSpaceGrid(4, 1.5, 2),
    PhaseSpaceGrid(5, 2.0, 2),
    PhaseSpaceGrid(3, 1.5, 3),
], ids=["unit-spacing", "spacing-0.75", "2d", "odd-2d", "3d"])
def test_quantizer_trace_matches_direct_symbol(grid):
    rng = np.random.default_rng(2)
    n = grid.size
    K = OperatorKernel(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), grid)
    for alpha in (-0.5, 0.0, 0.3, 0.5):
        s = symbol_of_operator(K, alpha).values
        for ik in (0, 3, 7):
            for ix in (1, 4, 6):
                tr = symbol_via_quantizer_trace(K, alpha, grid.k_points[ik],
                                                grid.x_points[ix])
                assert abs(tr - s[ik, ix]) < 1e-8


def test_quantizer_trace_normalization():
    # symbol of the identity through the trace form is 1 at any point
    grid = PhaseSpaceGrid(8, 4.0, 1)
    I = identity_kernel(grid)
    value = symbol_via_quantizer_trace(I, 0.3, grid.k_points[2], grid.x_points[5])
    assert abs(value - 1.0) < 1e-10


def test_quantizer_midpoint_symmetry_at_k_zero():
    # symmetric ordering at zero momentum: real pairing, Hermitian quantizer
    grid = PhaseSpaceGrid(8, 4.0, 1)
    x = grid.x_points[3]
    k = np.zeros(1)
    delta = delta_alpha_matrix_element(0.0, k, x, grid)
    assert np.max(np.abs(delta.entries - delta.entries.conj().T)) < 1e-12


def test_quantizer_size_guard():
    # the dense quantizer stops at 1024 points, naming the key, the count and the limit
    grid = PhaseSpaceGrid(33, 8.0, 2)
    with pytest.raises(ConfigError,
                       match=r"^grid\.points_per_axis: 33\^2 = 1089 lattice points exceed "
                             r"the quantizer limit of 1024$"):
        delta_alpha_matrix_element(0.0, np.zeros(2), np.zeros(2), grid)
