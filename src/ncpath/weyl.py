"""Ordering transforms: map operators to phase-space symbols with a real
ordering index α ∈ [-1/2, 1/2] and quantify how little the symbol of
V(X + θK) depends on that index.

The α-symbol of a kernel A is the lattice form of

    h_α(k, x) = Σ_y Δx^N e^{(i/ħ) k·y} A(x - (1/2+α) y, x + (1/2-α) y).

The two arguments always differ by the on-lattice separation -y, so the
kernel enters through its wrapped diagonals: writing β = 1/2 + α and
f_d(anchor) = A(anchor - βd, anchor + (1-β)d), the matrix supplies the
samples f_d(y_i + βd) = A[y_i, y_i ⊕ d] and the off-lattice evaluation at
anchor = x is trigonometric interpolation along each diagonal.  In
frequency space this closes into

    h_α(k, x) = Σ_w e^{(i/ħ) w·x} P_w(k - βw),
    P_w(κ)    = Δx^N Σ_d ŝ_d[w] e^{(i/ħ) κ·d},

with ŝ_d[w] the anchor spectrum of diagonal d — three lattice transforms
and one fractional phase twist.  α = ±1/2 read the diagonals at lattice
anchors and are exact; for kernels of V(X + θK) the evaluation point
κ = k - βw meets the antisymmetry of θ (w·θw = 0), which washes the
α-dependence out up to the interpolation residue of the diagonal profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    PhaseSpaceGrid,
    PhysicsParams,
    Potential,
    ThetaMatrix,
    _centered_fft,
    _finite,
    _gather_block,
    _ordering_index,
    _pair_axes,
    _require_dense_size,
    _require_model,
    _symbol_entries,
    evaluate_potential_shifted,
)
from .star import OperatorKernel, potential_operator_kernel


@dataclass
class PhaseSpaceSymbol:
    """Symbol values indexed [k_node, x_node] (each flattened row-major)."""

    values: np.ndarray
    grid: PhaseSpaceGrid

    def __post_init__(self):
        n = self.grid.size
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (n, n):
            raise ValueError("symbol must be sized (k nodes, x nodes)")


def _diagonal_layout(K: OperatorKernel):
    """D[i, d] = A[y_i, y_i ⊕ d] viewed as (G,)*2N: anchor axes, then wrapped
    diagonal offset axes; gathered one leading-axis block (n²/G entries) at a time."""
    grid = K.grid
    G, N, n = grid.points_per_axis, grid.dim, grid.size
    pos = np.arange(G)
    ket_pos = (pos[:, None] + pos[None, :] - G // 2) % G  # [i_pos, d_pos]
    parts = [_pair_axes(pos * (n * G ** (N - 1 - a)), (a,), 2 * N) for a in range(N)] \
        + [_pair_axes(ket_pos * G ** (N - 1 - a), (a, N + a), 2 * N) for a in range(N)]
    diag = np.empty((G,) * (2 * N), dtype=complex)
    for o in range(G):
        diag[o] = _gather_block(K.entries, parts, o)
    return diag


def _balanced_twist(G: int, beta: float, n) -> np.ndarray:
    """Fractional anchor twist e^{-2πi β n_w n_d / G} with split endpoints.

    On even windows the unpaired frequency -G/2 is shared half-and-half
    with +G/2 (in both the w and d directions), which keeps the
    interpolation real for real data and symmetric under reflection.  For
    integer β the two representatives carry identical phases, so the
    endpoint treatment changes nothing at α = ±1/2.
    """
    twist = np.exp(-2j * np.pi * beta * np.outer(n, n) / G).astype(complex)
    if G % 2 == 0:
        twist[0, :] = np.cos(np.pi * beta * n)
        twist[:, 0] = np.cos(np.pi * beta * n)
        twist[0, 0] = np.cos(np.pi * beta * G / 2)
    return twist


def symbol_of_operator(K: OperatorKernel, alpha) -> PhaseSpaceSymbol:
    """Phase-space symbol of a lattice operator at ordering index α.

    The w = 0 profile never acquires an α-phase, so symbols of
    translation-invariant kernels (constant diagonals, e.g. purely kinetic
    operators) are α-independent down to rounding, and α = ±1/2 evaluate
    the diagonals at exact lattice anchors.
    """
    a = _ordering_index(alpha, "alpha")
    beta = 0.5 + a
    grid = K.grid
    G, N = grid.points_per_axis, grid.dim
    first, last = range(N), range(N, 2 * N)
    # each step rebinds `table`, which frees the step's input: at most two
    # n×n arrays are alive at a time
    table = _centered_fft(_diagonal_layout(K), -1, first)  # from (i axes..., d axes...)
    table = np.fft.fftshift(table, first)  # the anchor spectrum, (w..., d...)
    table /= grid.size
    twist = _balanced_twist(G, beta, grid.index_axis)  # [w, d]
    for axis in range(N):
        table *= _pair_axes(twist, (axis, N + axis), 2 * N)
    table = _centered_fft(table, +1, last)
    table = np.fft.fftshift(table, last)  # the profiles P_w
    table *= grid.cell_volume
    table = _centered_fft(table, +1, first)
    table = np.fft.fftshift(table, first)  # (x axes..., k axes...)
    flat = table.reshape(grid.size, grid.size).T  # -> [k, x]
    return PhaseSpaceSymbol(flat, grid)


def _closed_form_index(value, key: str) -> float:
    """An ordering index the closed-form route can take: any but -1/2."""
    a = _ordering_index(value, key)
    if a == -0.5:
        raise ConfigError(f"{key}: the closed-form route divides by (alpha + 1/2), "
                          "so alpha = -1/2 needs the direct method")
    return a


def shifted_potential_symbol(V: Potential, theta: ThetaMatrix, grid: PhaseSpaceGrid,
                             alpha, shifted=None) -> PhaseSpaceSymbol:
    """α-symbol of V(X+θK) along the closed-form route.

    Exchanging the order of integration collapses the intermediate momentum
    quadrature into a delta (done analytically), which leaves

        v_α(k, x) = V(x + θk) · exp( -(i/ħ) k·θk / (α + 1/2) ).

    The exponent is evaluated numerically from the actual θ entries: for an
    antisymmetric matrix the contraction k·θk cancels term against term, so
    the would-be α-dependence is erased at rounding level.  The route
    divides by (α + 1/2) and is therefore unavailable at α = -1/2, where
    the defining integral (symbol_of_operator) remains regular.

    Only the exponential depends on α: a caller that already holds the table
    V(x + θk), indexed [k, x], passes it as `shifted` and it is not rebuilt.
    """
    _require_model(grid, V=V, theta=theta)
    a = _closed_form_index(alpha, "alpha")
    _require_dense_size(grid)
    shifts = theta.shift(grid.k_points)  # (k, N)
    twist = np.einsum("kj,kj->k", grid.k_points, shifts)  # k·θk: cancels exactly
    factor = np.exp(-1j * twist / (grid.hbar * (a + 0.5)))
    if shifted is None:
        shifted = V(grid.x_points[None, :, :] + shifts[:, None, :])
    values = shifted * factor[:, None]
    return PhaseSpaceSymbol(values, grid)


@dataclass
class WashoutReport:
    """Result of comparing symbols of V(X+θK) across ordering indices."""

    alphas: list
    max_dev_from_shifted: list          # per α: max |h_α(k,x) - V(x+θk)|
    pairwise_abs: dict                  # (i, j) -> max |h_i - h_j|
    scale: float                        # max |V(x+θk)| over the lattice
    method: str = "closed_form"
    symbols: list = field(repr=False, default_factory=list)
    target: np.ndarray | None = field(repr=False, default=None)  # V(x+θk), [k, x]

    @property
    def max_pairwise_abs(self) -> float:
        return max(self.pairwise_abs.values()) if self.pairwise_abs else 0.0

    @property
    def max_pairwise_relative(self) -> float:
        return self.max_pairwise_abs / self.scale if self.scale > 0 else self.max_pairwise_abs


def verify_alpha_washout(V: Potential, theta: ThetaMatrix, grid: PhaseSpaceGrid,
                         alphas, method: str = "closed_form") -> WashoutReport:
    """Compare α-symbols of V(X+θK) across a list of ordering indices.

    method="closed_form" uses shifted_potential_symbol (requires every
    α ≠ -1/2); the residual spread then measures the numerically-cancelled
    k·θk contraction.  method="direct" builds the kernel once and runs
    symbol_of_operator per α; its spread sits at the lattice quadrature
    scale (comparable to the grid-refinement self-convergence error).
    The report carries per-α deviation from the shifted potential V(x+θk)
    and the pairwise spread, absolute and relative to max |V(x+θk)|, and
    the table V(x+θk) itself as `target`.  Repeated ordering indices, grids
    of more than 4096 lattice points, and a V or θ of another dimension than
    the grid are refused.
    """
    _require_model(grid, V=V, theta=theta)
    if method not in ("closed_form", "direct"):
        raise ValueError(f"method: unknown washout method {method!r}")
    read = _closed_form_index if method == "closed_form" else _ordering_index
    alphas = [read(a, "alpha") for a in alphas]
    if len(alphas) < 2:
        raise ValueError("alphas: need at least two ordering indices to compare")
    if len(set(alphas)) < len(alphas):
        raise ValueError("alphas: ordering indices must be distinct")
    _require_dense_size(grid)
    target = evaluate_potential_shifted(V, theta, grid.x_points[None, :, :],
                                        grid.k_points[:, None, :])
    scale = float(np.max(np.abs(target))) if target.size else 0.0
    if method == "closed_form":
        symbols = [shifted_potential_symbol(V, theta, grid, a, shifted=target)
                   for a in alphas]
    else:
        kernel = potential_operator_kernel(V, theta, grid)
        symbols = [symbol_of_operator(kernel, a) for a in alphas]
    devs = [float(np.max(np.abs(s.values - target))) for s in symbols]
    pairwise = {}
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            pairwise[(i, j)] = float(np.max(np.abs(symbols[i].values - symbols[j].values)))
    return WashoutReport(alphas=alphas, max_dev_from_shifted=devs, pairwise_abs=pairwise,
                         scale=scale, method=method, symbols=symbols, target=target)


def _minimal_offsets(grid: PhaseSpaceGrid):
    """Per-axis minimal wrapped offset n_v - n_u mapped into [-G/2, G/2)."""
    G = grid.points_per_axis
    n = grid.index_axis
    return ((n[None, :] - n[:, None]) + G // 2) % G - G // 2  # [u, v]


def _periodic_sinc(t, points: int):
    """Real balanced interpolation kernel: (1/G)[Σ_{|n|<G/2} e^{2πint/G} + cos(πt)].

    Even in t, equal to 1 at t = 0 and to 0 at other lattice offsets; the
    split endpoint matches the twist convention of symbol_of_operator.
    """
    t = np.asarray(t, dtype=float)
    total = np.cos(np.pi * t) if points % 2 == 0 else np.zeros_like(t)
    top = points // 2 - 1 if points % 2 == 0 else (points - 1) // 2
    acc = np.ones_like(t) + total
    for n in range(1, top + 1):
        acc = acc + 2.0 * np.cos(2.0 * np.pi * n * t / points)
    return acc / points


# the quantizer is a dense n×n matrix: larger grids are refused
_QUANTIZER_POINTS = 1024


def delta_alpha_matrix_element(alpha, k, x, grid: PhaseSpaceGrid) -> OperatorKernel:
    """Quantizer Δ_α(K-k, X-x) as a lattice kernel.

    Discretizes (2πħ)^{-N} Σ_τ Δx^N e^{-(i/ħ)τ·k} |x-(1/2+α)τ⟩⟨x+(1/2-α)τ|
    with the pair of position states sharing one fractional translation,
    the same convention the symbol's diagonal interpolation uses, so that
    tr[A Δ_{-α}]·(2πħ)^N recomputes symbol_of_operator along an independent
    path.  Dense; intended for small grids.
    """
    a = _ordering_index(alpha, "alpha")
    if grid.size > _QUANTIZER_POINTS:
        raise ConfigError(f"grid.points_per_axis: {grid.points_per_axis}^{grid.dim} = "
                          f"{grid.size} lattice points exceed the quantizer limit of "
                          f"{_QUANTIZER_POINTS}")
    k, x = _finite(k, "k", (grid.dim,)), _finite(x, "x", (grid.dim,))
    G = grid.points_per_axis
    beta = 0.5 - a  # the -α convention of the trace pairing
    offs = _minimal_offsets(grid)  # [u, v] per axis in lattice units
    n = grid.index_axis
    pref = (2.0 * np.pi * grid.hbar) ** (-grid.dim) / grid.cell_volume
    entries = np.full((grid.size, grid.size), pref, dtype=complex)
    view = entries.reshape((G,) * (2 * grid.dim))
    # entries[v, u] = pref · Π_axis e^{(i/ħ) k_a d_a} S((x_a - u_a)/Δx - β d_a),
    # with the ±G/2 diagonal class averaged over its two representatives.
    for axis in range(grid.dim):
        d = offs  # lattice units, shape [u, v]
        phase = np.exp(1j * k[axis] * d * grid.dx / grid.hbar)
        t = x[axis] / grid.dx - n[:, None]  # [u, v] anchor offsets
        sinc = _periodic_sinc(t - beta * d, G)
        if G % 2 == 0:
            mirrored = _periodic_sinc(t - beta * (d + G), G)
            sinc = np.where(d == -(G // 2), 0.5 * (sinc + mirrored), sinc)
        factor = (phase * sinc).T  # -> [v, u]
        view *= _pair_axes(factor, (axis, grid.dim + axis), 2 * grid.dim)
    return OperatorKernel(entries, grid)


def symbol_via_quantizer_trace(K: OperatorKernel, alpha, k, x) -> complex:
    """α-symbol at one phase-space point from the trace form tr[K Δ_{-α}]·(2πħ)^N.

    With both kernels acting by the Δx^N measure the trace is
    Σ_ij K_ij Δ_ji · Δx^{2N}, summed without forming the product kernel.
    """
    grid = K.grid
    a = _ordering_index(alpha, "alpha")
    quantizer = delta_alpha_matrix_element(-a, k, x, grid)
    trace = np.einsum("ij,ji->", K.entries, quantizer.entries) * grid.cell_volume**2
    return complex(trace * (2.0 * np.pi * grid.hbar) ** grid.dim)


def symmetrized_position_momentum_kernel(grid: PhaseSpaceGrid,
                                         params: PhysicsParams) -> OperatorKernel:
    """(X¹K¹ + K¹X¹)/2 as a lattice kernel (one dimension).

    A control operator whose symbol genuinely depends on the ordering index
    (symbol ≈ x·k + iħα), used to demonstrate that the washout measurement
    detects α-dependence when it is really there.
    """
    if grid.dim != 1:
        raise ValueError("control operator is defined for one-dimensional grids")
    momentum = _symbol_entries(grid, lambda k, y: k[..., 0])
    mid = 0.5 * (grid.x_points[:, None, 0] + grid.x_points[None, :, 0])
    return OperatorKernel(momentum * mid, grid)
