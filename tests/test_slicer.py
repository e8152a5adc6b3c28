import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpath import slicer
from ncpath.core import (
    ConfigError,
    GridMismatchError,
    PhaseSpaceGrid,
    PhysicsParams,
    Potential,
    ThetaMatrix,
    _apply_axis_tables,
    _axis_factors,
)
from ncpath.slicer import (
    PropagatorKernel,
    SlicingConfig,
    _factorized_blocks,
    _grouped_slice,
    alpha_sweep,
    compose,
    free_kernel_closed_form,
    full_kernel,
    propagate,
    short_time_propagator,
)
from ncpath.star import gaussian_packet, identity_kernel, potential_operator_kernel
from ncpath.weyl import _diagonal_layout, delta_alpha_matrix_element


def brute_slice(cfg, V, theta, grid):
    """Literal loops over (x_out, x_in, symmetric momentum window).

    The window is -K ... +K (G+1 momenta) on even G, whose endpoint sheets
    carry trapezoid half-weights, which is the fold the production builder
    applies to the potential factor; on odd G it is the G lattice momenta.
    """
    G = grid.points_per_axis
    eps = cfg.epsilon
    hbar = cfg.params.hbar
    M = cfg.params.mass
    wa, wb = 0.5 + cfg.alpha, 0.5 - cfg.alpha
    even = G % 2 == 0
    ext = np.arange(G + even) - G // 2
    out = np.zeros((grid.size, grid.size), dtype=complex)
    norm = grid.dk**grid.dim / (2 * np.pi * hbar) ** grid.dim
    for io in range(grid.size):
        xo = grid.x_points[io]
        for ii in range(grid.size):
            xi = grid.x_points[ii]
            xb = wa * xo + wb * xi
            acc = 0.0
            for a1 in ext:
                for a2 in ext:
                    w = (0.5 if even and abs(a1) == G // 2 else 1.0) \
                        * (0.5 if even and abs(a2) == G // 2 else 1.0)
                    k = np.array([a1, a2]) * grid.dk
                    shifted = xb + theta.shift(k)
                    phase = (k @ (xo - xi)) / hbar \
                        - eps * (k @ k) / (2 * M * hbar) - eps * V(shifted) / hbar
                    acc += w * np.exp(1j * phase)
            out[io, ii] = acc * norm
    return out


@pytest.fixture
def small2d():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(6, 3.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    return params, grid, theta, V


NON_SEPARABLE = {
    "quartic": Potential.quartic(0.05, dim=2),
    "gaussian_well": Potential.gaussian_well(2.0, 1.3, dim=2),
}


@pytest.mark.parametrize("form,alpha,G", [
    *(pytest.param("harmonic", a, 6, id=str(a)) for a in (0.5, -0.5, 0.0, 0.3)),
    # non-separable V takes the grouped builder
    *(pytest.param(f, a, 6, id=f"{f}-{a}") for f in NON_SEPARABLE for a in (-0.5, 0.3)),
    # an odd grid sums over its G symmetric momenta, with no endpoint fold
    *(pytest.param(f, a, 5, id=f"G5-{f}-{a}")
      for f in ("harmonic", "quartic") for a in (0.5, 0.0, 0.3)),
])
def test_slice_matches_brute_force(small2d, form, alpha, G):
    params, _, theta, V = small2d
    grid = PhaseSpaceGrid(G, 3.0, 2)
    V = NON_SEPARABLE.get(form, V)
    cfg = SlicingConfig(31, 1.0, alpha, params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fast = short_time_propagator(cfg, V, theta, grid).entries
    slow = brute_slice(cfg, V, theta, grid)
    assert np.max(np.abs(fast - slow)) < 1e-12


def two_pair_theta():
    """N = 4 θ pairing axes (0, 3) and (1, 2)."""
    entries = np.zeros((4, 4))
    entries[0, 3], entries[3, 0], entries[1, 2], entries[2, 1] = 0.2, -0.2, -0.1, 0.1
    return ThetaMatrix(entries)


# rows with two nonzeros couple three axes: a θ that does not pair the axes
THREE_AXIS_THETA = ThetaMatrix([[0.0, 0.1, 0.2], [-0.1, 0.0, 0.3], [-0.2, -0.3, 0.0]])


SEPARABLE_CASES = {
    # N: (G, θ) with one axis at θ = 0, one pair, one pair plus an unpaired
    # axis, two crossed pairs on an odd grid
    1: (8, ThetaMatrix.zero(1)),
    2: (6, ThetaMatrix.single_block(2, 0.1)),
    3: (4, ThetaMatrix.single_block(3, 0.15)),
    4: (3, two_pair_theta()),
}


def separable_potential(form, dim):
    if form == "harmonic":
        return Potential.harmonic(1.3, 1.0, dim=dim)
    if form == "linear":
        return Potential.linear(np.linspace(0.5, -0.3, dim))
    # single-axis terms on the first and last axis plus a constant
    return Potential.polynomial([((3,) + (0,) * (dim - 1), 0.2),
                                 ((0,) * (dim - 1) + (2,), 0.7), ((0,) * dim, 0.4)], dim)


@pytest.mark.parametrize("alpha", [0.5, -0.5, 0.0, 0.3, -0.17])
@pytest.mark.parametrize("form", ["harmonic", "linear", "polynomial"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_factorized_slice_matches_point_builders(dim, form, alpha):
    G, theta = SEPARABLE_CASES[dim]
    grid = PhaseSpaceGrid(G, 2.0, dim)
    V = separable_potential(form, dim)
    cfg = SlicingConfig(7, 1.0, alpha, PhysicsParams(dim=dim))
    fill = _factorized_blocks(cfg, _axis_factors(V, theta), grid)
    # the row blocks, each written into its own buffer
    factorized = np.concatenate([fill(o, np.empty((grid.size // G, grid.size), dtype=complex))
                                 for o in range(G)])
    scale = np.max(np.abs(factorized))
    grouped = _grouped_slice(cfg, V, theta, grid)
    assert np.max(np.abs(factorized - grouped)) <= 1e-13 * scale
    # short_time_propagator and slice_row_blocks take the factorized route for this input
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kernel = short_time_propagator(cfg, V, theta, grid)
        rows = slicer.slice_row_blocks(cfg, V, theta, grid)
    assert np.array_equal(kernel.entries, factorized)
    assert np.array_equal(rows(1), factorized[grid.size // G:2 * grid.size // G])


def test_zero_potential_kernels_bitwise_alpha_independent(small2d):
    params, grid, theta, _ = small2d
    Vz = Potential.zero(2)
    with pytest.warns(UserWarning, match="momentum edge"):  # m = 0 is coarse
        kernels = [short_time_propagator(SlicingConfig(m, 1.0, a, params), Vz, theta, grid)
                   for m in (0, 2, 7) for a in (-0.5, -0.3, 0.0, 0.5)]
    for m_idx in range(3):
        base = kernels[4 * m_idx].entries
        for j in range(1, 4):
            assert np.array_equal(base, kernels[4 * m_idx + j].entries)


def test_zero_potential_theta_independent(small2d, monkeypatch):
    def grouped(*args):
        raise AssertionError("a V = 0 slice took the grouped route")

    monkeypatch.setattr(slicer, "_grouped_slice", grouped)
    _, grid2, theta2, _ = small2d
    # with V ≠ 0 the three-axis θ is grouped
    for grid, theta in ((grid2, theta2), (PhaseSpaceGrid(4, 2.0, 3), THREE_AXIS_THETA)):
        Vz = Potential.zero(grid.dim)
        cfg = SlicingConfig(3, 1.0, 0.2, PhysicsParams(dim=grid.dim))
        with_theta = short_time_propagator(cfg, Vz, theta, grid)
        without = short_time_propagator(cfg, Vz, ThetaMatrix.zero(grid.dim), grid)
        assert np.array_equal(with_theta.entries, without.entries)


def test_free_kernel_probe_action_matches_analytic_gaussian():
    # K·ψ for a Gaussian probe has a closed form under the exact free kernel
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(64, 8.0, 2)
    T, sigma = 0.5, 1.0
    cfg = SlicingConfig(0, T, 0.0, params)
    with pytest.warns(UserWarning, match="momentum edge"):  # one slice of the whole T
        K = short_time_propagator(cfg, Potential.zero(2), ThetaMatrix.zero(2), grid)
    psi = gaussian_packet(grid, width=sigma)
    action = K.apply(psi)
    z = 1.0 + 1j * params.hbar * T / (2.0 * params.mass * sigma**2)
    r2 = np.sum(grid.x_points**2, axis=-1)
    norm = 1.0 / np.sqrt(np.sum(np.exp(-r2 / (2 * sigma**2))) * grid.cell_volume)
    exact = norm / z * np.exp(-r2 / (4 * sigma**2 * z))
    err = np.sqrt(np.sum(np.abs(action.values - exact) ** 2) * grid.cell_volume)
    assert err < 1e-6


def test_closed_form_kernel_prefactor():
    # one axis: (M/(2πiħT))^{1/2} at Δx = 0: magnitude and -45° phase
    params = PhysicsParams(dim=1)
    grid = PhaseSpaceGrid(8, 4.0, 1)
    K = free_kernel_closed_form(grid, params, 2.0)
    center = K.entries[3, 3]  # coincident points: pure prefactor
    expected = (1.0 / (2 * np.pi * 2.0)) ** 0.5 * np.exp(-1j * np.pi / 4)
    assert center == pytest.approx(expected, rel=1e-12)


def test_compose_identity_neutral(small2d):
    params, grid, theta, V = small2d
    cfg = SlicingConfig(3, 1.0, 0.0, params)
    K = short_time_propagator(cfg, V, theta, grid)
    ident = identity_kernel(grid)
    neutral = PropagatorKernel(ident.entries, grid, None)
    left = compose(K, neutral)
    assert np.max(np.abs(left.entries - K.entries)) < 1e-10


def test_compose_semigroup_free_particle():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 6.0, 2)
    Vz = Potential.zero(2)
    tz = ThetaMatrix.zero(2)
    with pytest.warns(UserWarning, match="momentum edge"):  # one slice each
        K_eps = short_time_propagator(SlicingConfig(0, 0.25, 0.0, params), Vz, tz, grid)
        K_2eps = short_time_propagator(SlicingConfig(0, 0.5, 0.0, params), Vz, tz, grid)
    composed = compose(K_eps, K_eps)
    assert np.max(np.abs(composed.entries - K_2eps.entries)) < 1e-8


def test_compose_halves_match_direct_build(small2d):
    params, grid, theta, V = small2d
    half = short_time_propagator(SlicingConfig(0, 0.5, 0.0, params), V, theta, grid)
    direct = full_kernel(SlicingConfig(1, 1.0, 0.0, params), V, theta, grid)
    recomposed = compose(half, half)
    assert np.max(np.abs(recomposed.entries - direct.entries)) < 1e-6
    assert recomposed.config.total_time == pytest.approx(1.0)
    assert recomposed.config.slices_m == 1


def test_compose_associative(small2d):
    params, grid, theta, V = small2d
    with pytest.warns(UserWarning, match="momentum edge"):  # one slice each
        ks = [short_time_propagator(SlicingConfig(0, t, 0.0, params), V, theta, grid)
              for t in (0.3, 0.5, 0.7)]
    left = compose(compose(ks[0], ks[1]), ks[2])
    right = compose(ks[0], compose(ks[1], ks[2]))
    assert np.max(np.abs(left.entries - right.entries)) < 1e-10


def test_full_kernel_m_zero_is_single_slice(small2d):
    params, grid, theta, V = small2d
    cfg = SlicingConfig(0, 0.8, 0.2, params)
    with pytest.warns(UserWarning, match="momentum edge"):  # one slice of the whole T
        assert np.array_equal(full_kernel(cfg, V, theta, grid).entries,
                              short_time_propagator(cfg, V, theta, grid).entries)


@pytest.mark.parametrize("alpha", [0.5, 0.0, 0.3])
@pytest.mark.parametrize("m", [0, 1, 7])
def test_propagate_matches_full_kernel_action(small2d, m, alpha):
    params, grid, theta, V = small2d
    cfg = SlicingConfig(m, 1.0, alpha, params)
    probe = gaussian_packet(grid, center=(0.4, -0.2), momentum=(0.3, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        powered = full_kernel(cfg, V, theta, grid).apply(probe)
        stepped = propagate(cfg, V, theta, grid, probe)
    scale = np.max(np.abs(powered.values))
    assert np.max(np.abs(stepped.values - powered.values)) <= 1e-12 * scale


def test_propagate_m_zero_is_slice_action(small2d):
    params, grid, theta, V = small2d
    cfg = SlicingConfig(0, 0.8, 0.3, params)
    probe = gaussian_packet(grid, momentum=(0.2, -0.4))
    with pytest.warns(UserWarning, match="momentum edge"):  # one slice of the whole T
        slice_action = short_time_propagator(cfg, V, theta, grid).apply(probe)
        sliced = propagate(cfg, V, theta, grid, probe)
    assert np.array_equal(sliced.values, slice_action.values)


def test_propagate_zero_potential_bitwise_alpha_independent(small2d):
    params, grid, theta, _ = small2d
    Vz = Potential.zero(2)
    probe = gaussian_packet(grid, center=(0.3, 0.1))
    base = propagate(SlicingConfig(5, 1.0, -0.5, params), Vz, theta, grid, probe)
    for alpha in (-0.3, 0.0, 0.25, 0.5):
        other = propagate(SlicingConfig(5, 1.0, alpha, params), Vz, theta, grid, probe)
        assert np.array_equal(base.values, other.values)


HALF_SLICE_CASES = {
    # N, G and θ: even and odd grids; θ zero, one pair, and at N = 3 one pair
    # plus an axis that pairs with itself
    "1d-even": (1, 8, ThetaMatrix.zero(1)),
    "1d-odd": (1, 7, ThetaMatrix.zero(1)),
    "2d-even": (2, 6, ThetaMatrix.single_block(2, 0.1)),
    "2d-odd": (2, 7, ThetaMatrix.single_block(2, 0.1)),
    "2d-theta0": (2, 6, ThetaMatrix.zero(2)),
    "3d-even": (3, 4, ThetaMatrix.single_block(3, 0.15)),
    "3d-odd": (3, 5, ThetaMatrix.single_block(3, 0.15)),
}


def _counting_half_slice_tables(monkeypatch):
    """Count the calls of the per-axis table route of `propagate`."""
    calls = []
    build = slicer._half_slice_tables

    def counted(*args):
        calls.append(args[0].alpha)
        return build(*args)

    monkeypatch.setattr(slicer, "_half_slice_tables", counted)
    return calls


@pytest.mark.parametrize("form", ["harmonic", "linear", "polynomial", "zero"])
@pytest.mark.parametrize("case", list(HALF_SLICE_CASES))
def test_half_slice_route_matches_dense_slice_powering(case, form, monkeypatch):
    dim, G, theta = HALF_SLICE_CASES[case]
    grid = PhaseSpaceGrid(G, 2.5, dim)
    params = PhysicsParams(dim=dim)
    V = Potential.zero(dim) if form == "zero" else separable_potential(form, dim)
    probe = gaussian_packet(grid, center=(0.3, -0.2, 0.1)[:dim],
                            momentum=(0.4, 0.1, -0.3)[:dim])
    calls = _counting_half_slice_tables(monkeypatch)
    for alpha in (0.5, -0.5):
        for m in (0, 3):
            cfg = SlicingConfig(m, 1.0, alpha, params)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                kernel = short_time_propagator(cfg, V, theta, grid)
                powered = probe
                for _ in range(m + 1):
                    powered = kernel.apply(powered)
                stepped = propagate(cfg, V, theta, grid, probe)
            scale = np.max(np.abs(powered.values))
            assert np.max(np.abs(stepped.values - powered.values)) <= 1e-13 * scale
    assert len(calls) == 4  # every case took the table route


def test_half_slice_route_is_taken_only_where_it_applies(small2d, monkeypatch):
    params, grid, theta, V = small2d
    calls = _counting_half_slice_tables(monkeypatch)
    probe = gaussian_packet(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha in (0.5, -0.5, 0.3, 0.0):
            propagate(SlicingConfig(2, 1.0, alpha, params), V, theta, grid, probe)
            propagate(SlicingConfig(2, 1.0, alpha, params), Potential.zero(2), theta, grid,
                      probe)
            propagate(SlicingConfig(2, 1.0, alpha, params), NON_SEPARABLE["quartic"], theta,
                      grid, probe)
    # harmonic V at α = ±1/2, and V = 0 (built at +1/2) at every α
    assert calls == [0.5, 0.5, -0.5, 0.5, 0.5, 0.5]


@pytest.mark.parametrize("alpha", [0.5, -0.5, 0.3])
@pytest.mark.parametrize("form", ["harmonic", "zero"])
def test_propagate_checks_the_probe_grid_before_any_build(small2d, form, alpha,
                                                          monkeypatch):
    params, grid, theta, V = small2d

    def refuse(*args):
        raise AssertionError("a slice was built for a probe on another grid")

    monkeypatch.setattr(slicer, "short_time_propagator", refuse)
    monkeypatch.setattr(slicer, "_half_slice_tables", refuse)
    V = Potential.zero(2) if form == "zero" else V
    probe = gaussian_packet(PhaseSpaceGrid(8, 3.0, 2))
    with pytest.raises(GridMismatchError, match="different grids"):
        propagate(SlicingConfig(2, 1.0, alpha, params), V, theta, grid, probe)


def test_half_slice_route_keeps_the_slice_checks(small2d):
    params, _, theta, V = small2d
    big = PhaseSpaceGrid(128, 8.0, 2)
    with pytest.raises(ConfigError, match="grid.points_per_axis"):
        propagate(SlicingConfig(4, 1.0, 0.5, params), V, theta, big, gaussian_packet(big))
    grid = PhaseSpaceGrid(6, 3.0, 2)
    with pytest.warns(UserWarning, match="momentum edge"):  # one slice of the whole T
        propagate(SlicingConfig(0, 0.8, -0.5, params), V, theta, grid, gaussian_packet(grid))


@pytest.mark.parametrize("alpha", [0.5, -0.5])
def test_half_slice_route_allocates_no_n_by_n_array(alpha):
    # N tables of n×G and one (n, G^{N-1}) product beside the fields;
    # the dense route at α = 0.3 traces 1.23× a kernel here
    import tracemalloc

    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 5.0, 2)
    probe = gaussian_packet(grid)
    cfg = SlicingConfig(4, 1.0, alpha, params)
    V, theta = Potential.harmonic(1.0, 1.0, dim=2), ThetaMatrix.single_block(2, 0.1)
    kernel_bytes = grid.size**2 * 16
    propagate(cfg, V, theta, grid, probe)  # the first call imports numpy.fft
    tracemalloc.start()
    try:
        propagate(cfg, V, theta, grid, probe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * kernel_bytes, f"peak {peak} B for a {kernel_bytes} B kernel"


def _half_slice_setup(G, N, alpha):
    """A harmonic α = ±1/2 slice's N tables of n×G, a probe's values and a
    matching (n, G^{N-1}) work array."""
    grid = PhaseSpaceGrid(G, 5.0, N)
    V = Potential.harmonic(1.0, 1.0, dim=N)
    theta = ThetaMatrix.single_block(N, 0.1 if N > 1 else 0.0)
    cfg = SlicingConfig(4, 1.0, alpha, PhysicsParams(dim=N))
    tables = slicer._half_slice_tables(cfg, _axis_factors(V, theta), grid)
    work = np.empty((grid.size, grid.size // G), dtype=complex)
    return grid, tables, gaussian_packet(grid).values, work


CONTRACTIONS = [pytest.param(0.5, _apply_axis_tables, id="apply_axis_tables"),
                pytest.param(-0.5, slicer._contract_incoming, id="contract_incoming")]


@pytest.mark.parametrize("alpha, contract", CONTRACTIONS)
def test_table_contraction_writes_its_product_into_the_work_array(alpha, contract):
    # at G = 32, N = 2 the (n, G^{N-1}) intermediate is 512 KB; with the work
    # array one application traces its (n,) result and the later, G times
    # smaller contraction (16 KB each), besides the one iterator buffer of
    # np.getbufsize() elements that numpy may allocate for a broadcast multiply
    import tracemalloc

    grid, tables, values, work = _half_slice_setup(32, 2, alpha)
    contract(tables, values, grid, work)
    tracemalloc.start()
    try:
        contract(tables, values, grid, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 + np.getbufsize() * 16, f"peak {peak} B"


@pytest.mark.parametrize("alpha, contract", CONTRACTIONS)
@pytest.mark.parametrize("G, N", [(7, 1), (32, 2), (6, 3)])
def test_table_contraction_is_bitwise_the_same_with_a_work_array(alpha, contract, G, N):
    # the result is fed back in, as `propagate` does; at N = 1 it is a view
    # of the work array the next application writes
    grid, tables, values, work = _half_slice_setup(G, N, alpha)
    fresh = contract(tables, values, grid)
    fresh_twice = contract(tables, fresh, grid)
    reused = contract(tables, values, grid, work)
    assert reused.tobytes() == fresh.tobytes()
    reused = contract(tables, reused, grid, work)
    assert reused.tobytes() == fresh_twice.tobytes()


def _slice_at_generic_alpha(V, theta, grid, _):
    cfg = SlicingConfig(4, 1.0, 0.3, PhysicsParams(dim=grid.dim))
    return short_time_propagator(cfg, V, theta, grid).entries


def _potential_kernel(V, theta, grid, _):
    return potential_operator_kernel(V, theta, grid).entries


def _layout(V, theta, grid, kernel):
    return _diagonal_layout(kernel)


def _quantizer(V, theta, grid, _):
    return delta_alpha_matrix_element(0.3, grid.k_points[1], grid.x_points[2], grid).entries


GRID_2D, GRID_3D = PhaseSpaceGrid(16, 5.0, 2), PhaseSpaceGrid(6, 3.0, 3)


@pytest.mark.parametrize("form,grid,build,bound", [
    # harmonic V takes the factorized route, which multiplies its per-axis
    # factors into the kernel one leading-axis block (n²/G entries) at a time
    pytest.param("harmonic", GRID_2D, _slice_at_generic_alpha, 1.25, id="harmonic-slice"),
    # α = 0.3 on G = 16 has 76 slice points per axis, and quartic V takes the
    # grouped builder: one pass transforms χ at the 76 last-axis slice points
    # and writes its (G, G) blocks into the kernel before the next pass
    pytest.param("quartic", GRID_2D, _slice_at_generic_alpha, 3, id="quartic-slice"),
    # in 3-D a pass fixes two slice points and fills up to G·G (G, G) blocks
    pytest.param("quartic", GRID_3D, _slice_at_generic_alpha, 2.5, id="quartic-slice-3d"),
    # the standard-ordered builder: one row block's G^{N-1} transforms,
    # gathered into the one kernel array that is also the result
    pytest.param("quartic", GRID_2D, _potential_kernel, 2, id="quartic-potential_kernel"),
    # gathered from the held kernel one leading-axis block at a time
    pytest.param("quartic", GRID_2D, _layout, 1.25, id="diagonal-layout"),
    # each axis factor is multiplied into the output in place
    pytest.param("quartic", GRID_2D, _quantizer, 1.25, id="quantizer"),
])
def test_kernel_build_memory_stays_near_kernel_size(form, grid, build, bound):
    import tracemalloc

    V = Potential.harmonic(1.0, 1.0, dim=grid.dim) if form == "harmonic" \
        else Potential.quartic(0.05, dim=grid.dim)
    theta = ThetaMatrix.single_block(grid.dim, 0.1)
    kernel_bytes = grid.size**2 * 16
    held = identity_kernel(grid)
    build(V, theta, grid, held)  # the first call imports numpy.fft; its allocations are not the build's
    tracemalloc.start()
    try:
        entries = build(V, theta, grid, held)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entries.nbytes == kernel_bytes
    assert peak <= bound * kernel_bytes, f"peak {peak} B for a {kernel_bytes} B kernel"


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), points=st.integers(2, 10), paired=st.booleans(),
       coupling=st.floats(-0.3, 0.3), form=st.sampled_from(["harmonic", "quartic"]),
       alpha=st.sampled_from([0.5, -0.5, 0.0]) | st.floats(-0.5, 0.5))
# rational α, where distinct lattice pairs share a grouped slice point
@example(dim=2, points=10, paired=False, coupling=0.0, form="quartic", alpha=-5 / 14)
@example(dim=2, points=10, paired=True, coupling=0.17, form="quartic", alpha=0.3)
def test_theta_reflection_transposes_kernel(dim, points, paired, coupling, form, alpha):
    # transposing a slice swaps x_out and x_in, which takes x̄(α) to x̄(-α),
    # and k → -k (the momentum window is symmetric) takes θk to -θk:
    # K_α[θ]ᵀ = K_{-α}[-θ] for every V, on both slice routes
    grid, params = PhaseSpaceGrid(points, 4.0, dim), PhysicsParams(dim=dim)
    V = Potential.harmonic(1.0, dim=dim) if form == "harmonic" else Potential.quartic(1.0, dim)
    theta = ThetaMatrix.single_block(dim, coupling if paired and dim == 2 else 0.0)
    factored = _axis_factors(V, theta) is not None
    assert factored == (form == "harmonic")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the edge-phase warning of the coarse grids
        k_plus = short_time_propagator(SlicingConfig(3, 0.5, alpha, params), V, theta, grid)
        k_minus = short_time_propagator(SlicingConfig(3, 0.5, -alpha, params), V,
                                        ThetaMatrix(-theta.entries), grid)
    top = np.max(np.abs(k_plus.entries))
    ulps = np.max(np.abs(k_minus.entries - k_plus.entries.T)) / (np.finfo(float).eps * top)
    # measured at most 2.3 ulp of max|K| on the factorized route over 1500
    # random draws and every α = p/q with q ≤ 20, G = 2 … 10; on the grouped
    # route, which evaluates V at the smallest x̄ of each slice point's group
    # on both sides, at most 1.27 ulp over every such α (N = 1, G = 2 … 10;
    # N = 2, G ∈ {7, 9, 10}, θ₀₁ ∈ {0, 0.17}) and 1.40 ulp over 1500 draws
    # like this test's
    assert ulps <= 4


def test_slice_warns_when_phase_unresolved():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(16, 2.0, 2)  # large momentum window
    cfg = SlicingConfig(0, 2.0, 0.0, params)
    with pytest.warns(UserWarning):
        short_time_propagator(cfg, Potential.harmonic(1.0, 1.0, dim=2),
                              ThetaMatrix.zero(2), grid)


def test_config_validation():
    params = PhysicsParams(dim=2)
    with pytest.raises(ValueError):
        SlicingConfig(-1, 1.0, 0.0, params)
    with pytest.raises(ValueError):
        SlicingConfig(2, 0.0, 0.0, params)
    with pytest.raises(ValueError):
        SlicingConfig(2, 1.0, 0.7, params)
    cfg = SlicingConfig(3, 1.0, 0.0, params)
    assert cfg.epsilon == pytest.approx(0.25)
    assert SlicingConfig(np.int64(3), 1.0, 0.0, params).epsilon == cfg.epsilon


def test_slice_rejects_hbar_mismatch_between_grid_and_params():
    # the slice phase uses params.hbar and the lattice Δk uses grid.hbar: with
    # 0.5 vs 1.0 each free slice scaled the norm by 2, silently
    params = PhysicsParams(dim=1, hbar=0.5)
    grid = PhaseSpaceGrid(8, 4.0, 1, hbar=1.0)
    cfg = SlicingConfig(4, 1.0, 0.0, params)
    probe = gaussian_packet(grid, width=1.0)
    with pytest.raises(GridMismatchError, match="hbar"):
        propagate(cfg, Potential.zero(1), ThetaMatrix.zero(1), grid, probe)
    with pytest.raises(GridMismatchError, match="hbar"):
        short_time_propagator(cfg, Potential.harmonic(1.0, dim=1), ThetaMatrix.zero(1), grid)


def test_alpha_sweep_zero_potential_is_flat(small2d):
    params, grid, theta, _ = small2d
    probe = gaussian_packet(grid)
    result = alpha_sweep(params, 1.0, [0.5, -0.5], [1, 2, 4], Potential.zero(2),
                         theta, grid, probe)
    assert all(v == 0.0 for v in result.d_values.values())


def test_alpha_sweep_first_order_shrinkage():
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(12, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    probe = gaussian_packet(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = alpha_sweep(params, 1.0, [0.5, -0.5], [4, 8, 16], V, theta, grid,
                             probe)
    assert -1.2 < result.slope < -0.8
    # D(m)·(m+1) stays bounded across the list (first-order vanishing)
    scaled = [result.d_values[m] * (m + 1) for m in result.m_values]
    assert max(scaled) / min(scaled) < 1.5


def test_alpha_sweep_generic_ordering_index_shrinks_first_order():
    # α = -0.17 gives every per-axis pair its own slice point (G² per axis);
    # harmonic V builds its slices by the factorized route
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(12, 6.0, 2)
    theta = ThetaMatrix.single_block(2, 0.1)
    V = Potential.harmonic(1.0, 1.0, dim=2)
    probe = gaussian_packet(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = alpha_sweep(params, 1.0, [0.5, -0.17], [4, 8, 16], V, theta, grid,
                             probe)
    assert -1.2 < result.slope < -0.8


def test_alpha_sweep_rejects_degenerate_probe(small2d):
    params, grid, theta, V = small2d
    zero_probe = gaussian_packet(grid)
    zero_probe.values[:] = 0.0
    with pytest.raises(ValueError):
        alpha_sweep(params, 1.0, [0.5, -0.5], [1, 2, 4], V, theta, grid, zero_probe)


@pytest.mark.parametrize("alphas, m_values, key", [([0.5, 0.5], [1, 2, 4], "alphas"),
                                                   ([0.5, -0.5, 0.5], [1, 2, 4], "alphas"),
                                                   ([0.5, -0.5], [4, 4, 4], "m_values"),
                                                   ([0.5, -0.5], [1, 2, 4, 2], "m_values")])
def test_alpha_sweep_rejects_repeated_values(small2d, alphas, m_values, key):
    # a repeated α gives a zero spread and a repeated m a degenerate fit
    params, grid, theta, V = small2d
    with pytest.raises(ValueError, match=f"{key}: .* must be distinct"):
        alpha_sweep(params, 1.0, alphas, m_values, V, theta, grid, gaussian_packet(grid))


def test_linear_potential_midpoint_sweep():
    # a linear potential's slice-point sensitivity is a pure O(ε) phase
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(12, 6.0, 2)
    V = Potential.linear([0.5, -0.2])
    probe = gaussian_packet(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = alpha_sweep(params, 1.0, [0.5, -0.5], [4, 8, 16], V,
                             ThetaMatrix.zero(2), grid, probe)
    assert -1.3 < result.slope < -0.7


def test_propagator_kernel_is_the_one_kernel_type():
    import ncpath

    assert ncpath.PropagatorKernel is ncpath.OperatorKernel
    assert all(hasattr(ncpath, name) for name in ncpath.__all__)


def test_package_exports_resolve_to_their_home_objects():
    import importlib

    import ncpath

    for layer in ("core", "star", "weyl", "slicer", "oracle", "phi_engine", "cli"):
        assert getattr(ncpath, layer) is importlib.import_module(f"ncpath.{layer}")
    for name in ncpath.__all__:
        home = importlib.import_module(f"ncpath.{ncpath._HOME[name]}")
        assert getattr(ncpath, name) is getattr(home, name), name
    assert set(ncpath.__all__) <= set(dir(ncpath))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ncpath.no_such_name
    namespace = {}
    exec("from ncpath import *", namespace)
    assert {name: namespace[name] for name in ncpath.__all__} == \
        {name: getattr(ncpath, name) for name in ncpath.__all__}


def test_axis_split_of_potentials_and_theta():
    u = np.random.default_rng(3).normal(size=(5, 3))
    for form in ("harmonic", "linear", "polynomial"):
        V = separable_potential(form, 3)
        terms = V.axis_terms()
        assert len(terms) == 3
        total = sum(term(u[:, b]) for b, term in enumerate(terms))
        assert np.max(np.abs(total - V(u))) <= 1e-14 * np.max(np.abs(V(u)))
    mixed = Potential.polynomial([((1, 1, 0), 0.3), ((2, 0, 0), 1.0)], 3)
    assert mixed.axis_terms() is None
    assert Potential.quartic(1.0, dim=3).axis_terms() is None
    assert Potential.gaussian_well(1.0, 1.0, dim=3).axis_terms() is None
    assert ThetaMatrix.single_block(3, 0.1).axis_pairing() == (1, 0, 2)
    assert ThetaMatrix.zero(2).axis_pairing() == (0, 1)
    assert two_pair_theta().axis_pairing() == (3, 2, 1, 0)
    full = [[0.0, 0.1, 0.2], [-0.1, 0.0, 0.3], [-0.2, -0.3, 0.0]]
    assert ThetaMatrix(full).axis_pairing() is None


def test_axis_factors_of_zero_potential_ignore_a_three_axis_theta():
    # V = 0 splits at every θ: θ enters only V's argument
    factors = _axis_factors(Potential.zero(3), THREE_AXIS_THETA)
    assert [(b, shift) for b, _, shift in factors] == [(0, 0.0), (1, 0.0), (2, 0.0)]
    u = np.linspace(-1.0, 1.0, 7)
    assert not any(term(u).any() for _, term, _ in factors)
    assert _axis_factors(Potential.harmonic(1.0, dim=3), THREE_AXIS_THETA) is None


@pytest.mark.parametrize("theta", [ThetaMatrix.zero(2), ThetaMatrix.single_block(2, 0.1)],
                         ids=["theta0", "paired"])
@pytest.mark.parametrize("V", [Potential.quartic(1.0, dim=2),
                               Potential.gaussian_well(1.0, 1.0, dim=2),
                               Potential.polynomial([((1, 1), 0.3), ((2, 0), 1.0)], 2)],
                         ids=["quartic", "gaussian_well", "mixed_polynomial"])
def test_axis_factors_refuse_potentials_that_do_not_split(V, theta):
    assert _axis_factors(V, theta) is None


def test_axis_factors_of_a_two_pair_theta():
    theta = two_pair_theta()  # pairs axes (0, 3) and (1, 2)
    V = separable_potential("polynomial", 4)
    factors = _axis_factors(V, theta)
    assert [(b, shift) for b, _, shift in factors] == [(3, -0.2), (2, 0.1), (1, -0.1), (0, 0.2)]
    x, k = np.random.default_rng(5).normal(size=(2, 9, 4))
    total = sum(term(x[:, b] + shift * k[:, a]) for a, (b, term, shift) in enumerate(factors))
    exact = V(x + theta.shift(k))
    assert np.max(np.abs(total - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("alpha", [0.5, -0.5, 0.0, 0.3])
def test_propagate_zero_potential_ignores_a_three_axis_theta(alpha):
    grid = PhaseSpaceGrid(4, 2.0, 3)
    probe = gaussian_packet(grid, center=(0.3, -0.2, 0.1))
    cfg = SlicingConfig(3, 1.0, alpha, PhysicsParams(dim=3))
    with_theta = propagate(cfg, Potential.zero(3), THREE_AXIS_THETA, grid, probe)
    without = propagate(cfg, Potential.zero(3), ThetaMatrix.zero(3), grid, probe)
    assert np.array_equal(with_theta.values, without.values)


@pytest.mark.parametrize("form", ["zero", "harmonic", "quartic"])
def test_slice_refuses_grids_too_big_for_a_dense_kernel(form):
    # 128² lattice points: one kernel would take 4.3 GB; the check runs first
    params = PhysicsParams(dim=2)
    grid = PhaseSpaceGrid(128, 8.0, 2)
    V = {"zero": Potential.zero(2), "harmonic": Potential.harmonic(1.0, dim=2),
         "quartic": Potential.quartic(1.0, dim=2)}[form]
    with pytest.raises(ConfigError, match="grid.points_per_axis"):
        short_time_propagator(SlicingConfig(4, 1.0, 0.3, params), V,
                              ThetaMatrix.single_block(2, 0.1), grid)


@pytest.mark.parametrize("total_time", [float("nan"), float("inf"), 0.0, -1.0])
def test_slicing_config_rejects_non_finite_or_non_positive_time(total_time):
    with pytest.raises(ValueError, match="total_time"):
        SlicingConfig(4, total_time, 0.5, PhysicsParams(dim=2))


@pytest.mark.parametrize("m", [True, 2.5, 2.7, 3.0, float("nan"), float("inf"), "3"])
def test_slicing_config_refuses_a_slice_count_that_is_not_an_integer(m):
    with pytest.raises(ValueError, match="slices_m"):
        SlicingConfig(m, 1.0, 0.5, PhysicsParams(dim=2))


@pytest.mark.parametrize("bad", [2.7, 2.5, True])
def test_alpha_sweep_refuses_a_bad_slice_count_before_any_propagation(small2d, bad,
                                                                      monkeypatch):
    # no m may be rounded (2.7 to 2) or read as a count (True as 1)
    def refuse(*args):
        raise AssertionError("a slice was propagated")

    monkeypatch.setattr(slicer, "propagate", refuse)
    params, grid, theta, V = small2d
    with pytest.raises(ValueError, match="slices_m"):
        alpha_sweep(params, 1.0, [0.5, -0.5], [4, 8, bad], V, theta, grid,
                    gaussian_packet(grid))
