"""Short-time propagators over one slice ε and their composition into the
discretized evolution kernel, plus the α-sweep convergence harness.

One slice of duration ε between lattice points x_in → x_out:

    K[x_out, x_in] = (2πħ)^{-N} Σ_k Δk^N
        exp{ (iε/ħ) [ k·(x_out - x_in)/ε - k·k/(2M) - V(x̄(α) + θk) ] },

with the α-weighted slice point x̄(α) = (1/2+α) x_out + (1/2-α) x_in.  The
full kernel is the (m+1)-fold composition, each intermediate integration a
Δx^N-weighted matrix product; `propagate` applies that composition to one
field slice by slice without forming it.

Quadrature detail: the momentum sum runs over a window symmetric under
k → -k.  On odd grids that is the G lattice momenta.  On even grids the
lattice [-K, K) has an unpaired endpoint, so the sum runs over the G+1
momenta -K … +K and the ±K endpoint sheets are averaged onto the -K row (a
trapezoid fold), which leaves the V = 0 case untouched.

α enters only through V's argument, so V = 0 kernels are bitwise identical
for every α, and the α-spread of composed kernels shrinks like 1/(m+1) —
the quantitative face of ordering independence in the continuum limit.

A slice is built by one of two routes, chosen by `core._axis_factors`, the
one place that decides whether V(x + θk) factors by axis:

- Where it does, V(x̄ + θk) = Σ_a V_b(x̄_b + θ_ba k_a), so the integrand, its
  ±K fold and the momentum sum factor over momentum axes.  Each axis needs
  one (G, G, G) table of 1-D transforms, and an entry is the product of one
  table value per axis; the cost does not depend on α.  The kernel is
  gathered from the tables one leading-axis row block at a time
  (`slice_row_blocks`), so a caller that reads the rows in order, as
  `ncpath kernel` does, never holds the n×n slice.
- Otherwise (quartic, Gaussian well, mixed polynomials, a θ coupling three
  axes): the grouped builder, which groups lattice pairs by their slice
  point x̄(α) and transforms the full N-dimensional integrand once per slice
  point, at any α.

`propagate` needs no slice kernel where the first route meets α = ±1/2, the
standard and anti-standard orderings.  There x̄(α) is x_out or x_in, a
lattice point, so each axis's table is needed at the G lattice points only,
and a slice acts as N tables of shape (n, G): `core._apply_axis_tables` at
α = +1/2, the transposed contraction at α = -1/2.  V = 0 takes that route
at every α.  Any other α or V is propagated by the dense slice.

Kernels are star.OperatorKernel; PropagatorKernel is an alias of that one
type, and a slice's kernel carries its SlicingConfig in `config`.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

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
    _gather_block,
    _index_difference_table,
    _ordering_index,
    _pair_axes,
    _positive,
    _require_dense_size,
    _require_model,
    _row_blocks,
)
from .star import ComplexField, OperatorKernel


@dataclass(frozen=True)
class SlicingConfig:
    """Slice count m, total duration T, ordering index α, and constants.

    The interval is divided into m + 1 equal subintervals: ε = T/(m+1).
    """

    slices_m: int
    total_time: float
    alpha: float
    params: PhysicsParams

    def __post_init__(self):
        object.__setattr__(self, "slices_m", _count(self.slices_m, "slices_m", 0))
        object.__setattr__(self, "total_time", _positive(self.total_time, "total_time"))
        object.__setattr__(self, "alpha", _ordering_index(self.alpha, "alpha"))

    @property
    def epsilon(self) -> float:
        return self.total_time / (self.slices_m + 1)


PropagatorKernel = OperatorKernel


def _momentum_window(grid: PhaseSpaceGrid):
    """Per-axis momenta of a slice's sum, symmetric under k → -k: the G
    lattice momenta on odd G, and -K … +K (G+1 of them) on even G."""
    G = grid.points_per_axis
    return (np.arange(G + 1 - G % 2) - G // 2) * grid.dk


def _fold_nyquist(values, points: int, dims: int):
    """Fold a table over `_momentum_window` onto the G-point lattice window.

    On each of the trailing dims axes, a window of G+1 entries (even G)
    gives up its +K sheet and its -K slot holds the ±K average; a window of
    G entries (odd G) has no endpoint pair and is returned as it is.
    """
    for axis in range(values.ndim - dims, values.ndim):
        if values.shape[axis] == points:
            continue
        head = (slice(None),) * axis
        folded = values[head + (slice(0, points),)].copy()
        folded[head + (0,)] = 0.5 * (values[head + (0,)] + values[head + (points,)])
        values = folded
    return values


def edge_phase_turns(cfg: SlicingConfig, grid: PhaseSpaceGrid) -> float:
    """Kinetic phase ε·k²_max/(2Mħ) of one slice at the momentum-window
    corner, in full turns; above 1 the slice's momentum sum aliases."""
    kmax2 = grid.dim * (grid.points_per_axis // 2 * grid.dk) ** 2
    return cfg.epsilon * kmax2 / (2.0 * cfg.params.mass * cfg.params.hbar) / (2.0 * np.pi)


def short_time_propagator(cfg: SlicingConfig, V: Potential, theta: ThetaMatrix,
                          grid: PhaseSpaceGrid) -> PropagatorKernel:
    """One slice of duration ε = T/(m+1) at ordering index α.

    Two routes build the same entries.

    - V(x + θk) factored by axis (`core._axis_factors`): the factorized
      route, one table of 1-D momentum transforms per axis, at any α; the
      kernel is filled one row block at a time.
    - Otherwise the grouped builder: pairs (x_out, x_in) are grouped by
      their per-axis slice point x̄(α) (coordinates rounded to 12
      decimals), and each tuple of slice points on axes 0 … N-2 is one
      pass of momentum-lattice transforms at the last axis's slice points.

    Grids of more than 4096 lattice points are refused before any n×n build.
    """
    _check_slice(cfg, V, theta, grid)
    factors = _axis_factors(V, theta)
    if factors is None:
        return PropagatorKernel(_grouped_slice(cfg, V, theta, grid), grid, cfg)
    fill = _factorized_blocks(cfg, factors, grid)  # its tables' temporaries go first
    entries = np.empty((grid.size, grid.size), dtype=complex)
    for o, rows in enumerate(_row_blocks(grid)):
        fill(o, entries[rows])
    return PropagatorKernel(entries, grid, cfg)


def slice_row_blocks(cfg: SlicingConfig, V: Potential, theta: ThetaMatrix,
                     grid: PhaseSpaceGrid):
    """The slice of `short_time_propagator` as G row blocks, checked once here.

    Returns block(o), the C-contiguous (n/G, n) complex array of the
    `core._row_blocks` rows o·n/G … (o+1)·n/G - 1, the leading-axis slab of
    the kernel viewed as (G,)*2N.  Where V(x + θk) factors by axis, only the
    per-axis tables are held and block gathers each block from them into one
    buffer of its own, which the next call overwrites, so no n×n array
    exists.  Otherwise the grouped builder forms the slice here, whole, and
    block(o) is a view of its rows.  The checks (`_check_slice`) run before
    anything is built.
    """
    _check_slice(cfg, V, theta, grid)
    factors = _axis_factors(V, theta)
    if factors is None:
        return _held_row_blocks(_grouped_slice(cfg, V, theta, grid), grid)
    fill = _factorized_blocks(cfg, factors, grid)
    out = np.empty((grid.size // grid.points_per_axis, grid.size), dtype=complex)
    return lambda o: fill(o, out)


def _held_row_blocks(entries, grid):
    """The `slice_row_blocks` source of a kernel already held: views of its rows."""
    rows = _row_blocks(grid)
    return lambda o: entries[rows[o]]


def _check_slice(cfg, V, theta, grid):
    """The checks every slice route runs before it builds anything: the model
    check (`core._require_model`), the dense-kernel limit, and the edge phase
    warning (raised at the caller of the slice route)."""
    _require_model(grid, cfg.params, V, theta)
    _require_dense_size(grid)
    if edge_phase_turns(cfg, grid) > 1.0:
        warnings.warn(
            "slice phase at the momentum edge exceeds one full turn; "
            "refine the grid or increase the slice count for continuum fidelity",
            stacklevel=3,
        )


def _axis_transforms(cfg, factors, grid, xbar):
    """Per momentum axis a with factor (b, V_b, θ_ba) (`core._axis_factors`):
    A_a[..., d], the 1-D momentum transform of the ±K-folded
    f_a = e^{-iεk_a²/2Mħ} e^{-iεV_b(x̄ + θ_ba k_a)/ħ} at every slice point of
    the array xbar, read at offset d = 0 … G-1."""
    G = grid.points_per_axis
    eps, hbar = cfg.epsilon, cfg.params.hbar
    k = _momentum_window(grid)
    kin = np.exp(-1j * eps * k * k / (2.0 * cfg.params.mass * hbar))
    tables = []
    for _, term, shift in factors:
        u = xbar[..., None] + shift * k
        integrand = kin * np.exp(-1j * eps * term(u) / hbar)
        tables.append(_centered_fft(_fold_nyquist(integrand, G, 1), +1, (-1,)))
    return tables


def _slice_measure(cfg, grid):
    """The momentum measure Δk^N/(2πħ)^N of a slice's sum."""
    return grid.momentum_cell_volume * (2.0 * np.pi * cfg.params.hbar) ** (-grid.dim)


def _factorized_blocks(cfg, factors, grid):
    """Row-block source of the slice for V(x̄ + θk) factored as
    Σ_a V_b(x̄_b + θ_ba k_a) (`core._axis_factors`).

    The integrand is then a product over momentum axes of
    f_a = e^{-iεk_a²/2Mħ} e^{-iεV_b(x̄_b + θ_ba k_a)/ħ}, and the ±K fold and
    the momentum sum factor with it.  A_a[n_out_b, n_in_b, d] is the 1-D
    transform of f_a at every per-axis pair's slice point, built once here,
    and

        entry = Π_a A_a[n_out_b, n_in_b, (n_out_a - n_in_a) mod G] · Δk^N/(2πħ)^N.

    fill(o, out) gathers the kernel's leading-axis block view[o] (n²/G
    entries, the kernel viewed as (G,)*2N) into out, a C-contiguous array
    of shape (n/G, n), factor by factor in axis order, scales it by the
    momentum measure and returns out.
    """
    G, N = grid.points_per_axis, grid.dim
    xbar = (0.5 + cfg.alpha) * grid.x_axis[:, None] + (0.5 - cfg.alpha) * grid.x_axis[None, :]
    tables = _axis_transforms(cfg, factors, grid, xbar)  # (G, G, G) each
    diff = _index_difference_table(grid)
    pos = np.arange(G)
    # per momentum axis: its table and the flat offsets of A_a[n_out_b, n_in_b, d]
    gathers = [(table, (_pair_axes(pos * G * G, (b,), 2 * N),
                        _pair_axes(pos * G, (N + b,), 2 * N),
                        _pair_axes(diff, (a, N + a), 2 * N)))
               for a, (table, (b, _, _)) in enumerate(zip(tables, factors))]
    measure = _slice_measure(cfg, grid)

    def fill(o, out):
        block = out.reshape((G,) * (2 * N - 1))  # a view: out is C-contiguous
        block[...] = _gather_block(*gathers[0], o)
        for table, parts in gathers[1:]:
            block *= _gather_block(table, parts, o)
        block *= measure
        return out

    return fill


def _slice_points(cfg, grid):
    """(svals, slot): the distinct per-axis slice-point coordinates x̄(α) and,
    for each per-axis pair (n_out, n_in), the position of its x̄ in svals."""
    G = grid.points_per_axis
    n = grid.index_axis
    wa = 0.5 + cfg.alpha  # weight on x_out
    wb = 0.5 - cfg.alpha  # weight on x_in
    mids = ((wa * n[:, None] + wb * n[None, :]) * grid.dx).reshape(-1)
    # group on rounded coordinates, but evaluate V at a member's unrounded
    # x̄ (the rounding itself would move V's argument by up to 5e-13): the
    # smallest, which the mirrored slice (-α, pairs swapped) picks too
    keys, slot = np.unique(np.round(mids, 12), return_inverse=True)
    svals = np.full(keys.size, np.inf)
    np.minimum.at(svals, slot, mids)
    return svals, slot.reshape(G, G)


def _grouped_slice(cfg, V, theta, grid):
    """Slice entries grouped by slice point, scaled by the momentum measure at the end.

    χ at a slice point x̄ is the momentum transform of the ±K-folded
    integrand e^{-iεk²/2Mħ} e^{-iεV(x̄ + θk)/ħ}, read by offset
    (n_out - n_in) mod G at every lattice pair with that slice point
    (`_slice_points`).  Each pass fixes the slice points of axes 0 … N-2,
    transforms χ at the S slice points of the last axis, and fills every
    combination of the lead axes' lattice pairs with those slice points —
    a (G, G) last-axis block each — with one fancy-index assignment.
    """
    eps, hbar = cfg.epsilon, cfg.params.hbar
    G, N, n = grid.points_per_axis, grid.dim, grid.size
    window = _momentum_window(grid)
    mesh = np.meshgrid(*(window,) * N, indexing="ij")
    k_ext = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    kin_ext = np.exp(-1j * eps * np.sum(k_ext**2, axis=-1) / (2.0 * cfg.params.mass * hbar))
    shifts_ext = theta.shift(k_ext)
    ext_shape = (window.size,) * N

    def chi_of(xbar):
        vvals = V(xbar[:, None, :] + shifts_ext[None, :, :])
        integrand = kin_ext * np.exp(-1j * eps * vvals / hbar)
        folded = _fold_nyquist(integrand.reshape((-1,) + ext_shape), G, N)
        return _centered_fft(folded, +1, range(-N, 0)).reshape(-1)  # [s·n + offset]

    svals, slot = _slice_points(cfg, grid)
    diff = _index_difference_table(grid)
    members = [np.argwhere(slot == s) for s in range(svals.size)]  # (n_out, n_in) rows
    last = slot * n + diff  # where a last-axis pair reads the pass's χ
    points = np.empty((svals.size, N))
    points[:, -1] = svals
    entries = np.empty((n, n), dtype=complex)
    view = entries.reshape((G,) * (2 * N))
    for lead in itertools.product(range(svals.size), repeat=N - 1):
        points[:, :-1] = svals[list(lead)]
        pairs = [members[s] for s in lead]
        outs = np.ix_(*(p[:, 0] for p in pairs))
        ins = np.ix_(*(p[:, 1] for p in pairs))
        offset = sum(np.ix_(*(diff[p[:, 0], p[:, 1]] * G ** (N - 1 - a)
                              for a, p in enumerate(pairs))))
        flat = last + np.expand_dims(offset, (-2, -1))
        view[(*outs, slice(None), *ins, slice(None))] = chi_of(points)[flat]
    entries *= _slice_measure(cfg, grid)
    return entries


def compose(Ka: PropagatorKernel, Kb: PropagatorKernel) -> PropagatorKernel:
    """Chain two kernels: matrix product with one Δx^N intermediate measure."""
    product = Ka.matmul(Kb)
    a, b = Ka.config, Kb.config
    if a is not None and b is not None and a.alpha == b.alpha:
        product.config = replace(a, slices_m=a.slices_m + b.slices_m + 1,
                                 total_time=a.total_time + b.total_time)
    return product


def full_kernel(cfg: SlicingConfig, V: Potential, theta: ThetaMatrix,
                grid: PhaseSpaceGrid) -> PropagatorKernel:
    """(m+1)-fold composition of one short-time propagator (binary powering).

    Costs O(n³ log m) for n = G^N; to evolve a single field use `propagate`.
    """
    accum = short_time_propagator(cfg, V, theta, grid)
    power = cfg.slices_m + 1
    result = None
    while power:
        if power & 1:
            result = accum if result is None else result.matmul(accum)
        power >>= 1
        if power:
            accum = accum.matmul(accum)
    return PropagatorKernel(result.entries, grid, cfg)


def propagate(cfg: SlicingConfig, V: Potential, theta: ThetaMatrix,
              grid: PhaseSpaceGrid, probe: ComplexField) -> ComplexField:
    """K^{m+1}·ψ: one short-time slice applied m + 1 times to the probe.

    Equal to full_kernel(cfg, ...).apply(probe) up to rounding, at
    O((m+1)·n²) instead of O(n³ log m).  Two routes:

    - α = ±1/2 with V(x + θk) factored by axis (`core._axis_factors`), and
      V = 0 at every α: the slice is applied through N per-axis tables of
      shape (n, G) (`_half_slice_tables`), with no n×n array.  One work
      array of shape (n, G^{N-1}), allocated once per call, takes each
      application's largest intermediate.
    - Otherwise the dense slice of `short_time_propagator`, applied as a
      matrix; at m = 0 the result is then that slice's action bitwise.

    The model check (`core._require_model`: dim, ħ and the probe's grid)
    runs first, then the slice checks (the dense-kernel limit, the
    edge-phase warning) on either route.
    """
    _require_model(grid, cfg.params, V, theta, probe)
    factors = _axis_factors(V, theta)
    if factors is not None and (V.is_zero or abs(cfg.alpha) == 0.5):
        _check_slice(cfg, V, theta, grid)
        cfg = replace(cfg, alpha=0.5) if V.is_zero else cfg  # V = 0: one table set for every α
        tables = _half_slice_tables(cfg, factors, grid)
        contract = _apply_axis_tables if cfg.alpha > 0 else _contract_incoming
        work = np.empty((grid.size, grid.size // grid.points_per_axis), dtype=complex)
        values = probe.values
        for _ in range(cfg.slices_m + 1):
            values = contract(tables, values, grid, work)
        return ComplexField(values, grid)
    kernel = short_time_propagator(cfg, V, theta, grid)
    field = probe
    for _ in range(cfg.slices_m + 1):
        field = kernel.apply(field)
    return field


def _half_slice_tables(cfg, factors, grid):
    """The α = ±1/2 slice as N tables of shape (n, G), measures included.

    There x̄(α) is x_out (α = +1/2) or x_in (α = -1/2), a lattice point, so
    the table A_a of `_axis_transforms` is needed at the G lattice points
    only, and with (b, V_b, θ_ba) the factor of momentum axis a, a slice
    entry times Δx^N is

        K[o, i]·Δx^N = Π_a (ΔxΔk/2πħ) A_a[x̄_b, (o_a - i_a) mod G].

    Row r of table a is the lattice point x̄ sits on (o at +1/2, i at
    -1/2) and column j the other end's index on axis a.
    """
    G = grid.points_per_axis
    rows = np.indices(grid.shape).reshape(grid.dim, -1)  # 0-based axis indices of each point
    diff = _index_difference_table(grid)  # [o_a, i_a]
    offset = diff if cfg.alpha > 0 else diff.T  # [r_a, j]
    measure = grid.dx * grid.dk / (2.0 * np.pi * cfg.params.hbar)
    tables = _axis_transforms(cfg, factors, grid, grid.x_axis)  # (G, G) each
    return [(measure * table).reshape(-1)[rows[b][:, None] * G + offset[rows[a]]]
            for a, (table, (b, _, _)) in enumerate(zip(tables, factors))]


def _contract_incoming(tables, values, grid, work=None):
    """α = -1/2: out[o] = Σ_i ψ[i] Π_a g_a[i, o_a], the transpose of
    `core._apply_axis_tables` (α = +1/2): row-wise outer products over axes
    N-1 … 1, then one (G×n)·(n×G^{N-1}) product over the input point.

    The last outer product, (n, G^{N-1}), is written into `work` as in
    `core._apply_axis_tables`; the earlier ones are G times smaller each."""
    n, G = grid.size, grid.points_per_axis
    acc = values[:, None]  # (i, o_{a+1} … o_{N-1})
    for a in range(len(tables) - 1, 0, -1):
        out = work.reshape(n, G, -1) if a == 1 and work is not None else None
        acc = np.multiply(tables[a][:, :, None], acc[:, None, :], out=out).reshape(n, -1)
    return (tables[0].T @ acc).reshape(n)


def free_kernel_closed_form(grid: PhaseSpaceGrid, params: PhysicsParams,
                            T: float) -> PropagatorKernel:
    """Closed-form free kernel (M/(2πiħT))^{N/2} e^{iM|Δx|²/(2ħT)} on lattice pairs;
    grids of more than 4096 lattice points are refused."""
    _require_model(grid, params)
    _require_dense_size(grid)
    d = grid.x_points[:, None, :] - grid.x_points[None, :, :]
    r2 = np.sum(d * d, axis=-1)
    pref = (params.mass / (2.0 * np.pi * params.hbar * T)) ** (grid.dim / 2.0) \
        * np.exp(-1j * np.pi * grid.dim / 4.0)
    entries = pref * np.exp(1j * params.mass * r2 / (2.0 * params.hbar * T))
    return PropagatorKernel(entries, grid, None)


@dataclass
class SweepResult:
    """α-spread of composed kernels versus slice count, with a power-law fit."""

    m_values: list
    alphas: list
    spreads: dict          # m -> {(i, j): ||(K_i - K_j)ψ|| / ||K_ref ψ||}
    d_values: dict         # m -> max spread over α pairs
    slope: float
    intercept: float
    residual: float        # rms residual of the log-log fit
    norm_ratios: dict      # m -> [||K^{m+1}ψ|| / ||ψ|| for each α]


def _loglog_fit(m_values, d_values):
    x = np.log(np.asarray(m_values, dtype=float) + 1.0)
    y = np.log(np.asarray(d_values, dtype=float))
    coeffs = np.polyfit(x, y, 1)
    fit = np.polyval(coeffs, x)
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    return float(coeffs[0]), float(coeffs[1]), residual


def alpha_sweep(params: PhysicsParams, total_time: float, alphas, m_values,
                V: Potential, theta: ThetaMatrix, grid: PhaseSpaceGrid,
                probe: ComplexField) -> SweepResult:
    """Measure D(m) = max α-pair spread of K^{m+1}·ψ, relative to ||K^{m+1}·ψ||
    at the first α, and the norm ratio ||K^{m+1}·ψ|| / ||ψ|| at every α.

    Expected: D(m) ∝ 1/(m+1) (log-log slope ≈ -1), since each slice's
    α-sensitivity enters at order ε and the kernels stay near unitary.  Every
    (m, α) SlicingConfig is checked before the first propagation.
    """
    alphas = [_ordering_index(a, "alpha") for a in alphas]
    m_values = list(m_values)
    if len(alphas) < 2:
        raise ValueError("alphas: need at least two ordering indices")
    if len(set(alphas)) < len(alphas):
        raise ValueError("alphas: ordering indices must be distinct")
    if len(m_values) < 3:
        raise ValueError("m_values: need at least three slice counts for a fit")
    if len(set(m_values)) < len(m_values):
        raise ValueError("m_values: slice counts must be distinct")
    if probe.norm() == 0:
        raise ValueError("probe: degenerate (zero norm)")
    configs = [[SlicingConfig(m, total_time, a, params) for a in alphas] for m in m_values]

    spreads: dict = {}
    d_values: dict = {}
    norm_ratios: dict = {}
    for m, row in zip(m_values, configs):
        actions = [propagate(cfg, V, theta, grid, probe) for cfg in row]
        norm_ratios[m] = [action.norm() / probe.norm() for action in actions]
        ref = actions[0].norm()
        pair_spread = {}
        for i in range(len(alphas)):
            for j in range(i + 1, len(alphas)):
                spread = ComplexField(actions[i].values - actions[j].values, grid).norm()
                pair_spread[(i, j)] = spread / ref if ref > 0 else spread
        spreads[m] = pair_spread
        d_values[m] = max(pair_spread.values())
    positive = [d_values[m] for m in m_values]
    if all(v > 0 for v in positive):
        slope, intercept, residual = _loglog_fit(m_values, positive)
    else:
        slope, intercept, residual = 0.0, 0.0, 0.0
    return SweepResult(m_values=m_values, alphas=alphas, spreads=spreads,
                       d_values=d_values, slope=slope, intercept=intercept,
                       residual=residual, norm_ratios=norm_ratios)
