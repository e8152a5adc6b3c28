"""Independent ground truth for the sliced kernels: a spectral reference
for H = K²/(2M) + V(X + θK) and a split-step integrator for the
corresponding wave equation

    -ħ²/(2M) ∇² Ψ + V(x) ⋆ Ψ = iħ ∂Ψ/∂t .

The spectral reference evaluates e^{-(i/ħ) T H} on the standard-ordered
lattice Hamiltonian exactly (to rounding) in two independent ways: by dense
diagonalization (`spectral_propagator`, the whole n×n propagator) and by a
Chebyshev series in H with Bessel coefficients (`chebyshev_evolve`, one
state from matrix-vector products; Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967 (1984)).  Both expand in the Hermitian part of the dense H, and the
tests hold the series to the diagonalization.  One helper turns a dense H
into that reference operator: `_dense_reference` scales H by Δx^N into a
given array, forms the Hermitian part there in one strip pass, refuses a
non-Hermitian or non-finite H and bounds the spectrum by Gershgorin discs.
`spectral_propagator` and `chebyshev_evolve` run it on a new array, so H
is left as it was; `oracle_compare` runs it in H's own array.  The series
itself (`_chebyshev_series`) takes a matrix-vector product and rigorous
spectral bounds, so `oracle_compare` runs it on one of two Hamiltonians.
Where V(x + θk) factors by axis (`core._axis_factors` decides),
H = Σ_a [K_a²/2M + V_b(X_b + θ_ba K_a)] and each term for b ≠ a is a real
table on the commuting pair (x_b, k_a): one FFT along axis a, a multiply
by a G×G table and one inverse FFT, with the sums of the tables' extremes
as rigorous bounds (`_factored_hamiltonian`, no n×n array).  Any other V
takes the dense route (`_dense_reference`).

The split-step route alternates exact kinetic steps in momentum space with
mixed-domain phase steps e^{-(i/ħ) δt V(x + θk)}.  Because the x- and
k-dependence of the shifted potential do not commute, the split-step scheme
is first order in the coupling θ and second order when θ = 0; step counts
in the tests are chosen accordingly.  Where V(x + θk) factors by axis, each
row of that phase step is a product of one length-G factor per momentum
axis, so a half-step, its forward transform folded in, is N tables of n×G
and no n×n array; any other V at θ ≠ 0 builds the n×n half-step matrix.
The split-step shares only the `core._axis_factors` decision with the
spectral reference and the slicer.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (
    PhaseSpaceGrid,
    PhysicsParams,
    Potential,
    ThetaMatrix,
    _apply_axis_tables,
    _axis_factors,
    _centered_fft,
    _count,
    _finite,
    _pair_axes,
    _plane_waves,
    _require_dense_size,
    _require_model,
    _row_blocks,
    _symbol_entries,
    realize_hamiltonian_symbol,
)
from .slicer import PropagatorKernel, SlicingConfig, propagate
from .star import ComplexField, OperatorKernel


def build_hamiltonian_matrix(V: Potential, theta: ThetaMatrix, grid: PhaseSpaceGrid,
                             params: PhysicsParams) -> OperatorKernel:
    """Dense lattice Hamiltonian kernel; guarded to G^N ≤ 4096.

    The standard-ordered kernel of h(k, y) = k·k/2M + V(y + θk)
    (`core.realize_hamiltonian_symbol`), built one row block of n²/G
    entries at a time, so H is the only n×n array.  θ = 0 and V = 0, the
    commutative and free controls, run this same builder.  Grid, V, θ and
    params must share dim and ħ (`core._require_model`).
    """
    _require_model(grid, params, V, theta)
    _require_dense_size(grid)
    return OperatorKernel(_symbol_entries(grid, realize_hamiltonian_symbol(V, theta, params)),
                          grid)


def spectral_propagator(H: OperatorKernel, T: float) -> PropagatorKernel:
    """e^{-(i/ħ) T H} by dense diagonalization; the reference kernel.

    Input must be Hermitian to tolerance (`_dense_reference`, on a new n×n
    array, so H is left as it was); the Hermitian part is diagonalized, so
    the result is unitary to rounding.
    """
    grid = H.grid
    herm = np.empty_like(H.entries)
    _dense_reference(H, herm)
    evals, evecs = np.linalg.eigh(herm)
    phases = np.exp(-1j * evals * T / grid.hbar)
    entries = (evecs * phases[None, :]) @ evecs.conj().T / grid.cell_volume
    return PropagatorKernel(entries, grid, None)


# largest FFT window for the Bessel coefficients: 2^20 points, 2^18 terms
_MAX_WINDOW = 1 << 20


def _bessel_coefficients(z: float) -> np.ndarray:
    """(-i)^k J_k(z) for k = 0 … K-1, cut where |J_k(z)| falls below rounding.

    Jacobi–Anger: e^{-iz cos t} = Σ_k (-i)^k J_k(z) e^{ikt}, so one FFT of
    e^{-iz cos t} gives the coefficients.  Rounding is max(1, |z|)·eps: a
    phase of size |z| is known only to that, so the samples, and the
    evolution they expand, carry that error anyway.  K is one past the last
    coefficient above it, about |z| + 10|z|^{1/3}.  The window starts at the
    first power of two from 4|z| + 128 and doubles while K is beyond a
    quarter of it, where aliasing would reach the kept terms; raises if K
    does not fit in `_MAX_WINDOW` points.
    """
    if not np.isfinite(z):
        raise ValueError(f"Chebyshev argument not finite ({z})")
    a = abs(z)
    rounding = np.finfo(float).eps * max(1.0, a)
    size = 1 << int(np.ceil(np.log2(4.0 * a + 128.0)))
    while size <= _MAX_WINDOW:
        t = 2.0 * np.pi * np.arange(size) / size
        coeffs = np.fft.fft(np.exp(-1j * z * np.cos(t)))[: size // 2] / size
        terms = int(np.nonzero(np.abs(coeffs) > rounding)[0][-1]) + 1
        if terms <= size // 4:
            return coeffs[:terms]
        size *= 2
    raise ValueError(f"Chebyshev series for z = {z:.6g} did not reach rounding "
                     f"within {_MAX_WINDOW // 4} terms")


def chebyshev_evolve(H: OperatorKernel, T: float, psi: ComplexField,
                     stats: dict | None = None) -> ComplexField:
    """e^{-(i/ħ) T H} ψ by a Chebyshev series in H; no diagonalization.

    Expands in the Hermitian part A of `_dense_reference`, which also
    checks H's Hermiticity, within A's Gershgorin bounds (`_chebyshev_series`).
    H is left as it was: A goes into a new n×n array, so the call holds
    two.  A `stats` dict also receives "hermiticity_deviation".
    """
    matvec, lo, hi, dev = _dense_reference(H, np.empty_like(H.entries))
    if stats is not None:
        stats["hermiticity_deviation"] = dev
    return _chebyshev_series(matvec, lo, hi, H.grid, T, psi, stats)


def _dense_reference(H: OperatorKernel, out: np.ndarray):
    """(matvec, lo, hi, deviation) of the Hermitian part A of S = H·Δx^N, written into `out`.

    The one place a dense H becomes the reference operator.  S is written
    into `out`, which may be H.entries itself (then H is overwritten and A
    is the only n×n array), and one strip pass over it
    (`OperatorKernel.adjoint_deviation`) writes A in place and gives
    deviation = max|S − S†|.  The matvec is A's product and [lo, hi] are
    A's Gershgorin discs, the row sums taken one `_row_blocks` slice at a
    time.  Raises ValueError when the deviation exceeds 1e-8 of the
    largest entry or is NaN (a non-finite entry).
    """
    np.multiply(H.entries, H.grid.cell_volume, out=out)
    dev, top = OperatorKernel(out, H.grid).adjoint_deviation(out=out)
    if not dev <= 1e-8 * (top or 1.0):  # a NaN entry fails too
        raise ValueError(f"Hamiltonian not Hermitian (deviation {dev:.3e})")
    diag = out.diagonal().real
    radius = np.concatenate([np.sum(np.abs(out[rows]), axis=1) for rows in _row_blocks(H.grid)])
    radius -= np.abs(diag)
    return out.__matmul__, float(np.min(diag - radius)), float(np.max(diag + radius)), dev


def _factored_hamiltonian(factors, grid: PhaseSpaceGrid, params: PhysicsParams):
    """(matvec, lo, hi, 0.0) of H·Δx^N where V(x + θk) factors by axis.

    With (b, V_b, θ_ba) the factor of momentum axis a (`core._axis_factors`),
    the standard-ordered lattice H is Σ_a [K_a²/2M + V_b(X_b + θ_ba K_a)].
    For b ≠ a, X_b and K_a act on different axes and commute, so the term
    is the real table t_a[x_b, k_a] = k_a²/2M + V_b(x_b + θ_ba k_a) on the
    joint lattice: one FFT along axis a, a multiply by t_a and one inverse
    FFT.  For b = a (θ_ba = 0) the kinetic part acts in k_a and V_a(x_a) in
    x; the V_a of all such axes are summed into one diagonal.  Each term is
    Hermitian and its eigenvalues are its table values, so lo = Σ_a min t_a
    and hi = Σ_a max t_a bound the spectrum rigorously, and the Hermiticity
    deviation is 0 by construction.  No n×n array is formed.  Raises
    ValueError when a table holds a non-finite value.
    """
    N = grid.dim
    k = np.fft.ifftshift(grid.k_axis)  # the FFT's frequency order
    kinetic = k * k / (2.0 * params.mass)
    diagonal = np.zeros(grid.shape)
    tables, lo, hi = [], 0.0, 0.0
    for a, (b, term, shift) in enumerate(factors):
        if b == a:
            v = term(grid.x_axis)
            diagonal += _pair_axes(v, (a,), N)
            table = _pair_axes(kinetic, (a,), N)
            lo, hi = lo + kinetic.min() + v.min(), hi + kinetic.max() + v.max()
        else:
            table = kinetic + term(grid.x_axis[:, None] + shift * k)  # [x_b, k_a]
            lo, hi = lo + table.min(), hi + table.max()
            table = _pair_axes(table if b < a else table.T, (a, b), N)
        tables.append((a, table))
    if not (np.isfinite(lo) and np.isfinite(hi)):  # min and max keep a NaN
        raise ValueError(f"Hamiltonian not finite (spectral bounds [{lo:.3e}, {hi:.3e}])")

    def matvec(values):
        psi = values.reshape(grid.shape)
        out = diagonal * psi
        for a, table in tables:
            spectrum = np.fft.fft(psi, axis=a)
            spectrum *= table
            out += np.fft.ifft(spectrum, axis=a)
        return out.reshape(-1)

    return matvec, float(lo), float(hi), 0.0


def _chebyshev_series(matvec, lo: float, hi: float, grid: PhaseSpaceGrid, T: float,
                      psi: ComplexField, stats: dict | None) -> ComplexField:
    """e^{-(i/ħ) T A} ψ for a Hermitian A, given as `matvec`, with spectrum in [lo, hi].

    With c = (hi + lo)/2, r = (hi − lo)/2 and z = rT/ħ,

        e^{-(i/ħ) T A} = e^{-(i/ħ) cT} Σ_k (2 − δ_k0) (-i)^k J_k(z) T_k((A − c)/r),

    evaluated by the three-term recurrence, one matrix-vector product per
    term.  The series stops where the Bessel coefficients fall below
    rounding, after about z + 10·z^{1/3} terms.  A `stats` dict receives
    "terms" and "spectral_bounds" (lo, hi).
    """
    grid.require_same(psi.grid)
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coeffs = _bessel_coefficients(half * T / grid.hbar)
    if stats is not None:
        stats.update(terms=len(coeffs), spectral_bounds=(lo, hi))
    values = psi.values
    out = coeffs[0] * values
    if len(coeffs) > 1:
        def scaled(v):  # 2(A − c)/r v, so T_{k+1} = scaled(T_k) − T_{k-1}
            w = matvec(v)
            w -= center * v
            w *= 2.0 / half
            return w

        prev, cur = values, 0.5 * scaled(values)
        out += 2.0 * coeffs[1] * cur
        for c in coeffs[2:]:
            prev, cur = cur, scaled(cur) - prev
            out += 2.0 * c * cur
    return ComplexField(np.exp(-1j * center * T / grid.hbar) * out, grid)


def split_step_evolve(psi: ComplexField, V: Potential, theta: ThetaMatrix,
                      params: PhysicsParams, T: float, steps: int) -> ComplexField:
    """Strang-split evolution: half potential, full kinetic, half potential.

    The potential half-step applies the shifted-symbol phase in mixed
    domain:  ψ(x) ← (2πħ)^{-N/2} Σ_k Δk^N e^{(i/ħ)k·x} e^{-(i/ħ)(δt/2)V(x+θk)} ψ̂(k).
    A step is one half-step on ψ̂, then one on e^{-iδt k²/2Mħ} ψ̂ of the
    result; no two half-steps are merged.  At θ = 0, and at V = 0 (θ enters
    only V's argument), the steps alternate phases with FFTs.  Otherwise
    there are two routes, both refused on grids of more than 4096 lattice
    points:

    - V(x + θk) factored by axis (`core._axis_factors`): a half-step row is
      a product of one length-G factor per momentum axis, so each half-step,
      its forward transform included, is N tables of n×G
      (`_axis_step_tables`), applied by `core._apply_axis_tables` through
      one work array of shape (n, G^{N-1}), allocated once per call.
    - Any other V: the half-step is an n×n matrix, built row block by row
      block (n²/G entries each) with no other n×n array.

    On the θ = 0 and n×n routes each round trip x → k → x is an unscaled
    transform pair and one division by G^N.  The two lattice transforms'
    scales Δx^N(2πħ)^{-N/2} and Δk^N(2πħ)^{-N/2} multiply to G^{-N} only up
    to rounding, which would shrink or grow the state by a fixed factor
    per step.

    The grid, θ, V and params must share dim and ħ, T must be finite and
    steps an integer of at least 1; all are checked before anything is built.
    """
    grid = psi.grid
    _require_model(grid, params, V, theta)
    T, steps = _finite(T, "T"), _count(steps, "steps", 1)
    dt = T / steps
    hbar = grid.hbar
    k2 = np.sum(grid.k_points**2, axis=-1)
    kin_phase = np.exp(-1j * dt * k2 / (2.0 * params.mass * hbar))
    values = psi.values.copy()
    if theta.is_zero or V.is_zero:
        half = np.exp(-0.5j * dt * V(grid.x_points) / hbar).reshape(grid.shape)
        kin = np.fft.ifftshift(kin_phase.reshape(grid.shape))  # the FFT's frequency order
        values = values.reshape(grid.shape)
        for _ in range(steps):
            values *= half
            hat = np.fft.fftn(values)
            hat *= kin
            values = np.fft.ifftn(hat, norm="forward")  # unscaled
            values /= grid.size
            values *= half
        return ComplexField(values.reshape(-1), grid)
    _require_dense_size(grid)
    factors = _axis_factors(V, theta)
    if factors is not None:
        half_steps = [_axis_step_tables(grid, factors, dt, mass) for mass in (None, params.mass)]
        work = np.empty((grid.size, grid.size // grid.points_per_axis), dtype=complex)
        for _ in range(steps):
            for tables in half_steps:
                values = _apply_axis_tables(tables, values, grid, work)
        return ComplexField(values, grid)
    # mixed-domain half-step matrix, unscaled: momentum rep -> position rep,
    # its plane waves e^{(i/ħ)x·k} from `core._plane_waves`
    shifts = theta.shift(grid.k_points)
    idx = grid._index_points
    half_v = np.empty((grid.size, grid.size), dtype=complex)
    for rows in _row_blocks(grid):
        x = grid.x_points[rows]
        block = half_v[rows]  # (x, k)
        np.exp(-0.5j * dt * V(x[:, None, :] + shifts[None, :, :]) / hbar, out=block)
        block *= _plane_waves(grid.points_per_axis, idx[rows], idx)

    def forward(v):  # Σ_x e^{-(i/ħ)k·x} v(x) at centred k, unscaled
        return np.fft.fftshift(_centered_fft(v.reshape(grid.shape), -1, range(grid.dim)))

    for _ in range(steps):
        values = half_v @ forward(values).reshape(-1)
        values /= grid.size
        hat = forward(values).reshape(-1)
        hat *= kin_phase
        values = half_v @ hat
        values /= grid.size
    return ComplexField(values, grid)


def _axis_step_tables(grid: PhaseSpaceGrid, factors, dt: float, mass: float | None):
    """One split-step half-step as N tables h_c of shape (n, G), position to position.

    With (b, V_b, θ_bc) the factor of momentum axis c (`core._axis_factors`),
    V(x + θk) = Σ_c V_b(x_b + θ_bc k_c), so the mixed-domain half-step
    after the forward transform is a product over axes of

        h_c[x, x'_c] = (1/G) Σ_{k_c} e^{(i/ħ)(x_c − x'_c)k_c} e^{-iφ_c(x, k_c)},
        φ_c = (δt/2) V_b(x_b + θ_bc k_c)/ħ  [+ δt k_c²/2Mħ],

    the kinetic phase included when `mass` is given (ΔxΔk/2πħ = 1/G per
    axis).  The sum is taken as δ(x_c, x'_c) plus the transform of
    e^{-iφ_c} − 1, so a near-identity table carries no rounding from the
    identity part.  The plane-wave phases come from `core._plane_waves`.
    """
    G, n, N, hbar = grid.points_per_axis, grid.size, grid.dim, grid.hbar
    idx, k = grid.index_axis[:, None], grid.k_axis
    plane = _plane_waves(G, idx, idx)  # e^{(i/ħ)xk}
    forward = plane.conj() / G  # (k_c, x'_c)
    rows = np.indices(grid.shape).reshape(N, -1)  # 0-based axis indices of each x
    tables = []
    for c, (b, term, shift) in enumerate(factors):
        phase = term(grid.x_points[:, b, None] + shift * k)
        phase *= 0.5 * dt / hbar
        if mass is not None:
            phase += dt * k * k / (2.0 * mass * hbar)
        factor = phase.astype(complex)  # a cast without the -1j * phase ufunc's buffer
        del phase
        factor *= -1j
        np.expm1(factor, out=factor)
        by_axis = factor.reshape(grid.shape + (G,))  # times e^{(i/ħ)x_c k_c}, broadcast
        by_axis *= _pair_axes(plane, (c, N), N + 1)
        table = factor @ forward
        del factor, by_axis  # before the next axis's phase
        table[np.arange(n), rows[c]] += 1.0
        tables.append(table)
    return tables


def oracle_compare(V: Potential, theta: ThetaMatrix, grid: PhaseSpaceGrid,
                   params: PhysicsParams, total_time: float, m_values,
                   probe: ComplexField, alpha: float = 0.5, timings: dict | None = None):
    """Rows of (m, L2 error of the sliced propagation vs the spectral reference).

    The sliced kernel uses α = +1/2 by default: there the slice point
    coincides with the outgoing argument, matching the construction of the
    reference Hamiltonian's potential kernel, so the comparison converges
    without an ordering-mismatch floor.  The reference e^{-(i/ħ) T H} probe
    is evaluated once for all m, by the Chebyshev series of
    `_chebyshev_series`.  Where V(x + θk) factors by axis
    (`core._axis_factors`) H is applied by per-axis FFTs and G×G tables
    with exact spectral bounds, and no n×n array exists
    (`_factored_hamiltonian`); any other V builds the dense H and forms its
    Hermitian part in H's own array, one n×n array freed before the slices
    are built (`_dense_reference`).  A `timings` dict receives the seconds
    of that one-off evaluation (H build included) under "reference", each
    m's propagation seconds under m, "reference_route" ("axis-factored" or
    "dense"), and the series' "terms", "spectral_bounds" and
    "hermiticity_deviation" (0.0 on the factored route).  The model check
    (`core._require_model`), every m's SlicingConfig, the refusal of a
    repeated m (timings are keyed by m) and the slices' dense-kernel size
    limit all run before the reference is computed.
    """
    _require_model(grid, params, V, theta, probe)
    configs = [SlicingConfig(m, total_time, alpha, params) for m in m_values]
    if len({cfg.slices_m for cfg in configs}) < len(configs):
        raise ValueError("m_values: slice counts must be distinct")
    _require_dense_size(grid)  # the slices need it; refuse before the reference
    timings = {} if timings is None else timings
    t0 = time.perf_counter()
    factors = _axis_factors(V, theta)
    if factors is None:
        H = build_hamiltonian_matrix(V, theta, grid, params)
        route, (matvec, lo, hi, dev) = "dense", _dense_reference(H, H.entries)
        del H  # the matvec holds its one array
    else:
        route, (matvec, lo, hi, dev) = "axis-factored", _factored_hamiltonian(factors, grid,
                                                                              params)
    timings.update(reference_route=route, hermiticity_deviation=dev)
    reference = _chebyshev_series(matvec, lo, hi, grid, total_time, probe, timings)
    del matvec  # free a dense H before the slices are built
    ref_norm = reference.norm() or 1.0
    timings["reference"] = time.perf_counter() - t0
    rows = []
    for cfg in configs:
        t0 = time.perf_counter()
        sliced = propagate(cfg, V, theta, grid, probe)
        err = ComplexField(sliced.values - reference.values, grid).norm() / ref_norm
        timings[cfg.slices_m] = time.perf_counter() - t0
        rows.append((cfg.slices_m, err))
    return rows
