"""Core phase-space types: physical parameters, the antisymmetric coordinate
coupling θ, dual position/momentum lattices, and analytic potentials.

The coordinate algebra  [Q^l, Q^j] = -2iħ θ^{lj},  [Q^l, P^j] = iħ δ^{lj},
[P^l, P^j] = 0  is realized on ordinary wavefunctions by Q^l = X^l + θ^{lj} K^j
with X, K canonical.  Every operator built downstream (star products, ordering
transforms, sliced propagators) ends up evaluating the potential at the shifted
argument x + θk, so the types here expose exactly that operation.

Lattice convention: a box [-L, L)^N with G points per axis pairs with the
momentum lattice of spacing Δk = 2πħ/(G Δx).  Then k·x/ħ on lattice pairs is an
exact multiple of 2π/G, the forward and inverse transforms (one centered FFT
each) are inverses of each other up to rounding, and every ∫dx or ∫dk becomes
a Δx^N- or Δk^N-weighted lattice sum.

Inputs: every scalar of the model is read once, by the object that holds it,
through one of four readers: `_finite` (a finite number, or an array of them),
`_positive` (finite and above zero), `_count` (an int or NumPy integer of at
least a floor, never a bool or a float) and `_ordering_index` (finite, within
[-1/2, 1/2]).  Only numbers are read; a bool, a string or null is refused,
not converted.  Each refusal is a `ConfigError` that starts with the value's
config key, so the API refuses exactly what `load_config` refuses.
Phase-space points (V's argument, the k and x of θk, V(x + θk) and the
symbols) are read by `_points`, and a refusal starts with the parameter's
name.
`load_config` adds only what a JSON file needs: objects, known and required
keys, counts written as integral floats (2.0 reads as 2), θ's (N, N) shape
and the probe's keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from math import prod

import numpy as np


class ConfigError(ValueError):
    """Raised when parameters or configuration files are inconsistent."""


class GridMismatchError(ValueError):
    """Raised when fields or kernels living on different grids are combined."""


# -- readers (see the module docstring) -------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _finite(value, key: str, shape=()):
    """A finite float, or a finite float array of the given shape (of any
    shape for None).

    Only numbers are read: a bool, a string or null is refused, not converted.
    """
    try:
        if not all(_is_number(v) for v in np.asarray(value, dtype=object).flat):
            raise ValueError
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: must be numeric") from None
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key}: must be finite") from None
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{key}: must be " + (f"of shape {shape}" if shape else "a number"))
    if not np.isfinite(arr).all():
        raise ConfigError(f"{key}: must be finite")
    return float(arr) if shape == () else arr


def _points(value, key: str):
    """Phase-space points as a float array of any shape.

    A NumPy array of integer or float dtype is taken as it is, with no pass
    over its elements: the lattices reach V and θ this way, millions of
    points per evaluation.  Anything else is read by `_finite`.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float, copy=False)
    return _finite(value, key, None)


def _positive(value, key: str) -> float:
    """A finite number above zero, as a float."""
    number = _finite(value, key)
    if not number > 0:
        raise ConfigError(f"{key}: must be positive (got {value!r})")
    return number


def _count(value, key: str, least: int) -> int:
    """An int or a NumPy integer of at least `least`, as an int; a bool, a
    float or anything else is refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{key}: must be an integer of at least {least} (got {value!r})")
    return int(value)


def _ordering_index(value, key: str) -> float:
    """A finite number in [-1/2, 1/2], as a float: the ordering index α."""
    number = _finite(value, key)
    if not -0.5 <= number <= 0.5:
        raise ConfigError(f"{key}: ordering index must lie in [-1/2, 1/2] (got {value!r})")
    return number


@dataclass(frozen=True)
class PhysicsParams:
    """Run-level constants: ħ and the mass M (positive and finite), and the
    spatial dimension N (a positive integer)."""

    hbar: float = 1.0
    mass: float = 1.0
    dim: int = 2

    def __post_init__(self):
        object.__setattr__(self, "hbar", _positive(self.hbar, "hbar"))
        object.__setattr__(self, "mass", _positive(self.mass, "mass"))
        object.__setattr__(self, "dim", _count(self.dim, "dim", 1))


class ThetaMatrix:
    """Real antisymmetric N×N matrix θ setting [Q^l, Q^j] = -2iħ θ^{lj}.

    Antisymmetry is required exactly (bitwise θ^{lj} == -θ^{jl}, zero
    diagonal); it is what kills the ordering dependence, so it is never
    allowed to hold only approximately.  Every entry must be finite.
    """

    def __init__(self, entries):
        arr = np.array(_finite(entries, "theta", None))  # a copy, frozen below
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("theta: must be a square matrix")
        if not np.array_equal(arr, -arr.T) or np.any(arr.diagonal() != 0.0):
            raise ConfigError("theta: must be exactly antisymmetric")
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def zero(cls, dim: int) -> "ThetaMatrix":
        return cls(np.zeros((_count(dim, "dim", 1),) * 2))

    @classmethod
    def single_block(cls, dim: int, value: float) -> "ThetaMatrix":
        """θ with a single independent entry θ^{12} = value (needs dim ≥ 2)."""
        dim, value = _count(dim, "dim", 1), _finite(value, "theta")
        if dim < 2 and value != 0.0:
            raise ConfigError("theta: a nonzero theta requires dim >= 2")
        arr = np.zeros((dim, dim))
        if dim >= 2:
            arr[0, 1] = value
            arr[1, 0] = -value
        return cls(arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def is_zero(self) -> bool:
        return not self.entries.any()

    def axis_pairing(self):
        """The involution σ with θ nonzero only at (b, σ(b)), or None.

        σ(b) = b on a zero row; a row with two nonzeros couples three axes
        and gives None.  Antisymmetry makes σ its own inverse.
        """
        cols = [np.flatnonzero(row) for row in self.entries]
        if any(c.size > 1 for c in cols):
            return None
        return tuple(int(c[0]) if c.size else b for b, c in enumerate(cols))

    def shift(self, k):
        """Map momentum vectors k (shape (..., N)) to (θk)^j = θ^{jl} k^l."""
        return np.einsum("jl,...l->...j", self.entries, _points(k, "k"))

    def __eq__(self, other):
        return isinstance(other, ThetaMatrix) and np.array_equal(self.entries, other.entries)

    def __repr__(self):
        return f"ThetaMatrix({self.entries.tolist()})"


# larger grids are refused before their point tables (3N eight-byte values
# per point) are allocated; every n×n route already stops at _DENSE_POINTS
_GRID_POINTS = 1 << 20


class PhaseSpaceGrid:
    """Paired position/momentum lattices with Fourier-dual spacing.

    x nodes: n Δx for centered integers n, covering [-L, L) with Δx = 2L/G.
    k nodes: n Δk with Δk = 2πħ/(G Δx), so Δx·Δk·G = 2πħ exactly per axis.
    Flattened node arrays are row-major over the per-axis index grids.
    """

    def __init__(self, points_per_axis: int, box_half_width: float, dim: int, hbar: float = 1.0):
        self.points_per_axis = G = _count(points_per_axis, "grid.points_per_axis", 2)
        self.box_half_width = _positive(box_half_width, "grid.box_half_width")
        self.dim = dim = _count(dim, "dim", 1)
        self.hbar = _positive(hbar, "hbar")
        if G**dim > _GRID_POINTS:
            raise ConfigError(f"grid.points_per_axis: {G}^{dim} lattice points "
                              f"exceed the grid limit of {_GRID_POINTS}")
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            dx = np.float64(2.0) * self.box_half_width / G
            dk = 2.0 * np.pi * self.hbar / (G * dx)
            cells = dx**dim, dk**dim
        if not all(0.0 < c < np.inf for c in cells):
            raise ConfigError(f"grid.box_half_width: the cells Δx^N = {cells[0]:.3g} and "
                              f"Δk^N = {cells[1]:.3g} (ħ = {self.hbar}) must be positive "
                              f"and finite")
        self.dx, self.dk = float(dx), float(dk)
        self.index_axis = np.arange(G) - G // 2
        self.x_axis = self.index_axis * self.dx
        self.k_axis = self.index_axis * self.dk
        self.shape = (G,) * dim
        self.size = G**dim
        mesh = np.meshgrid(*(self.index_axis,) * dim, indexing="ij")
        self._index_points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        self.x_points = self._index_points * self.dx
        self.k_points = self._index_points * self.dk

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def momentum_cell_volume(self) -> float:
        return self.dk**self.dim

    def same_as(self, other: "PhaseSpaceGrid") -> bool:
        return (
            self.points_per_axis == other.points_per_axis
            and self.box_half_width == other.box_half_width
            and self.dim == other.dim
            and self.hbar == other.hbar
        )

    def require_same(self, other: "PhaseSpaceGrid"):
        if not self.same_as(other):
            raise GridMismatchError("fields/kernels live on different grids")

    def wave_to_momentum(self, values):
        """ψ̂(k) = (2πħ)^{-N/2} Δx^N Σ_x e^{-(i/ħ) k·x} ψ(x)."""
        scale = self.cell_volume * (2.0 * np.pi * self.hbar) ** (-self.dim / 2.0)
        tensor = np.asarray(values, dtype=complex).reshape(self.shape)
        return np.fft.fftshift(_centered_fft(tensor, -1, range(self.dim))).reshape(-1) * scale

    def momentum_to_wave(self, values):
        """ψ(x) = (2πħ)^{-N/2} Δk^N Σ_k e^{+(i/ħ) k·x} ψ̂(k)."""
        scale = self.momentum_cell_volume * (2.0 * np.pi * self.hbar) ** (-self.dim / 2.0)
        tensor = np.asarray(values, dtype=complex).reshape(self.shape)
        return np.fft.fftshift(_centered_fft(tensor, +1, range(self.dim))).reshape(-1) * scale


# -- lattice plumbing shared by the kernel builders ---------------------------


_DENSE_POINTS = 4096


def _require_model(grid: PhaseSpaceGrid, params=None, V=None, theta=None, field=None):
    """Refuse inputs outside the one model before anything is built: params,
    V and θ share the grid's N, params its ħ, and a field lives on the grid."""
    if any(obj is not None and obj.dim != grid.dim for obj in (params, V, theta)):
        raise GridMismatchError("dim: grid/params/potential/theta disagree")
    if params is not None and params.hbar != grid.hbar:
        # phases and norms use params.hbar, the lattice Δk uses grid.hbar
        raise GridMismatchError("hbar: grid and params disagree")
    if field is not None:
        grid.require_same(field.grid)


def _require_dense_size(grid: PhaseSpaceGrid):
    """Refuse an n×n kernel build on more than _DENSE_POINTS lattice points."""
    if grid.size > _DENSE_POINTS:
        raise ConfigError(
            f"grid.points_per_axis: {grid.points_per_axis}^{grid.dim} = {grid.size} lattice "
            f"points exceed the dense-kernel limit of {_DENSE_POINTS} "
            f"({grid.size**2 * 16 / 1e9:.1f} GB per kernel)")


def _centered_fft(tensor, sign: int, axes):
    """Σ_n T[.., n, ..] e^{sign·2πi n·d/G} over centered n on the given axes.

    The output is indexed by 0-based offsets d = 0 … G-1 per axis; the phase
    depends on d only mod G, so np.fft.fftshift puts it in centered order.
    A complex tensor is transformed in its rolled copy, which is returned.
    """
    axes = tuple(axes)
    work = np.roll(tensor, [-(tensor.shape[a] // 2) for a in axes], axis=axes)
    out = work if work.dtype == complex else None
    if sign < 0:
        return np.fft.fftn(work, axes=axes, out=out)
    work = np.fft.ifftn(work, axes=axes, out=out)
    work *= prod(tensor.shape[a] for a in axes)
    return work


def _plane_waves(G: int, n_x, n_k):
    """e^{2πi n_x·n_k/G} for rows of integer indices n_x (a, N) and n_k (b, N).

    The products are taken mod G and read from one G-entry table whose
    residues r sit at their representative nearest zero, so ±r give exact
    conjugates (r = G/2 on even G excepted).  On lattice points this is the
    plane wave e^{(i/ħ)x·k}.
    """
    r = np.arange(G)
    table = np.exp(2j * np.pi * (r - G * (r > G // 2)) / G)
    return table[(n_x @ n_k.T) % G]


def _index_difference_table(grid: PhaseSpaceGrid):
    """Per-axis 0-based index table of (n_out - n_in) mod G."""
    n = grid.index_axis
    return (n[:, None] - n[None, :]) % grid.points_per_axis


def _pair_axes(values, axes, ndim: int):
    """values with its dimensions on the given axes of an ndim-axis view, 1 elsewhere."""
    return values.reshape([values.shape[0] if i in axes else 1 for i in range(ndim)])


def _row_blocks(grid: PhaseSpaceGrid):
    """Row slices of an n×n array, G^{N-1} rows (n²/G entries) each; slice o
    is the leading-axis block view[o] of the array viewed as (G,)*2N."""
    step = grid.size // grid.points_per_axis
    return [slice(start, start + step) for start in range(0, grid.size, step)]


def _gather_block(table, parts, o: int):
    """table.flat[Σ parts] at leading output index o of the (G,)*2N kernel view.

    parts are `_pair_axes`-shaped arrays of flat offsets into table, which
    broadcast against each other; their sum is formed for the one block
    (axis 0 dropped), so no n×n index table exists.
    """
    flat = sum(p[o] if p.shape[0] > 1 else p[0] for p in parts)
    return table.reshape(-1)[flat]


def _apply_axis_tables(tables, values, grid: PhaseSpaceGrid, work=None):
    """ψ(x) ← Σ_{x'} Π_a h_a[x, x'_a] ψ(x') for N tables h_a of shape (n, G):
    one (n×G)·(G×G^{N-1}) product, then a row-wise contraction with each
    further axis's table.  The α = +1/2 slice and both split-step half-steps
    are applied this way.

    The product is written into `work`, an (n, G^{N-1}) complex array that a
    caller applying tables repeatedly allocates once (at N = 1 the result is
    a view of it); without one it is a fresh array.  The later contractions
    are G times smaller each."""
    n, G = grid.size, grid.points_per_axis
    out = np.matmul(tables[0], values.reshape(G, -1), out=work)  # (x, x'_1 … x'_{N-1})
    for h in tables[1:]:
        out = (h[:, None, :] @ out.reshape(n, G, -1))[:, 0]
    return out.reshape(n)


def _symbol_entries(grid: PhaseSpaceGrid, symbol):
    """The standard-ordered kernel (2πħ)^{-N} Σ_k Δk^N f(k, y) e^{(i/ħ) k·(y - y')}.

    symbol(k, y) is called with k of shape (1, n, N) and one `_row_blocks`
    slice of row points y, shape (G^{N-1}, 1, N).  Each row's χ_y, the
    centered transform of f(·, y), is gathered by per-axis offset
    (n_y - n_y') mod G into its row; a symbol free of y returns one row,
    whose χ is gathered into every row of the block.  Every block makes its
    own transforms.
    """
    G, N, n = grid.points_per_axis, grid.dim, grid.size
    diff, pos = _index_difference_table(grid), np.arange(G)
    offsets = [_pair_axes(diff * G ** (N - 1 - a), (a, N + a), 2 * N) for a in range(N)]
    # a block's row r, its flat index over output axes 1 … N-1, starts at r·n in χ
    row_part = [_pair_axes(pos * (n * G ** (N - 1 - a)), (a,), 2 * N) for a in range(1, N)]
    norm = grid.momentum_cell_volume * (2.0 * np.pi * grid.hbar) ** (-N)
    entries = np.empty((n, n), dtype=complex)
    for o, rows in enumerate(_row_blocks(grid)):
        # rebinding chi to the symbol values frees the last block's χ before the transform
        chi = np.reshape(symbol(grid.k_points[None], grid.x_points[rows, None]), (-1,) + grid.shape)
        chi = _centered_fft(chi, +1, range(1, N + 1))
        block = entries[rows]
        block[...] = _gather_block(chi, offsets if len(chi) == 1 else offsets + row_part,
                                   o).reshape(block.shape)
        block *= norm
    return entries


def _squared_norm(u):
    """u·u over the last axis, summed axis by axis (cheaper than a short reduce)."""
    r2 = u[..., 0] * u[..., 0]
    for i in range(1, u.shape[-1]):
        r2 = r2 + u[..., i] * u[..., i]
    return r2


def _power_sum(terms, u):
    """Σ c·u^p over (p, c) pairs: one axis's share of a polynomial potential."""
    out = np.zeros(np.shape(u))
    for p, c in terms:
        out = out + c * u**p
    return out


# the coefficient keys each potential form reads
_FORM_COEFFICIENTS = {"zero": (), "linear": ("c",), "harmonic": ("omega",),
                      "quartic": ("lambda",), "polynomial": ("terms",),
                      "gaussian_well": ("depth", "width")}
_MAX_POLY_DEGREE = 12


class Potential:
    """Analytic potential V, evaluable at arbitrary real (shifted) arguments.

    Supported forms are entire functions, so V(x + θk) is well defined for
    every real shift and the derivative expansion of the star product
    converges without caveats.  The constructors refuse a coefficient that
    is not a finite number (a Gaussian-well width or a mass that is not
    positive, a dim that is not a positive integer), naming its config key.
    """

    def __init__(self, form: str, dim: int, **coeffs):
        if form not in _FORM_COEFFICIENTS:
            raise ConfigError(f"potential.form: unknown form {form!r}")
        self.form = form
        self.dim = _count(dim, "dim", 1)
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Potential":
        return cls("zero", dim)

    @classmethod
    def linear(cls, c) -> "Potential":
        c = _finite(c, "potential.coefficients.c", None)
        if c.ndim != 1 or not c.size:
            raise ConfigError("potential.coefficients.c: must be a list of numbers, one per axis")
        return cls("linear", c.shape[0], c=c)

    @classmethod
    def harmonic(cls, omega: float, mass: float = 1.0, dim: int = 2) -> "Potential":
        """V(u) = ½ M ω² u·u."""
        return cls("harmonic", dim, omega=_finite(omega, "potential.coefficients.omega"),
                   mass=_positive(mass, "mass"))

    @classmethod
    def quartic(cls, lam: float, dim: int = 2) -> "Potential":
        """V(u) = λ (u·u)²."""
        return cls("quartic", dim, lam=_finite(lam, "potential.coefficients.lambda"))

    @classmethod
    def polynomial(cls, terms, dim: int) -> "Potential":
        """V(u) = Σ c·Π u_i^{p_i} from (powers, coefficient) pairs."""
        V = cls("polynomial", dim)  # reads dim first: it sets each term's length
        frozen = []
        key = "potential.coefficients.terms.powers"
        for powers, c in terms:
            powers = _finite(powers, key, (V.dim,))
            if not all(p.is_integer() and p >= 0 for p in powers):
                raise ConfigError(f"{key}: must be nonnegative integers, one per axis")
            powers = tuple(int(p) for p in powers)
            if sum(powers) > _MAX_POLY_DEGREE:
                raise ConfigError(f"{key}: total degree capped at {_MAX_POLY_DEGREE}")
            frozen.append((powers, _finite(c, "potential.coefficients.terms.c")))
        V.coeffs["terms"] = tuple(frozen)
        return V

    @classmethod
    def gaussian_well(cls, depth: float, width: float, dim: int = 2) -> "Potential":
        """V(u) = -depth · exp(-u·u / (2 width²))."""
        return cls("gaussian_well", dim, depth=_finite(depth, "potential.coefficients.depth"),
                   width=_positive(width, "potential.coefficients.width"))

    # -- evaluation ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.form == "zero"

    def axis_terms(self):
        """N one-axis callables V_b with V(u) = Σ_b V_b(u_b), or None.

        Linear, harmonic and polynomials whose terms each touch at most one
        axis split this way (a constant term goes to axis 0); quartic,
        Gaussian-well and mixed polynomials do not.  V = 0 gives None here:
        `_axis_factors`, the one caller, splits it itself at every θ.
        """
        if self.form == "linear":
            return [partial(np.multiply, c) for c in self.coeffs["c"]]
        if self.form == "harmonic":
            half = 0.5 * self.coeffs["mass"] * self.coeffs["omega"] ** 2
            return [lambda u: half * (u * u)] * self.dim
        if self.form == "polynomial":
            per_axis = [[] for _ in range(self.dim)]
            for powers, c in self.coeffs["terms"]:
                axes = [a for a, p in enumerate(powers) if p]
                if len(axes) > 1:
                    return None
                axis = axes[0] if axes else 0
                per_axis[axis].append((powers[axis], c))
            return [partial(_power_sum, terms) for terms in per_axis]
        return None

    def __call__(self, u):
        """Evaluate V at points of shape (..., N)."""
        u = _points(u, "u")
        if u.shape[-1] != self.dim:
            raise ConfigError("potential: argument dimension mismatch")
        if self.form == "zero":
            return np.zeros(u.shape[:-1])
        if self.form == "linear":
            return u @ self.coeffs["c"]
        if self.form == "harmonic":
            r2 = _squared_norm(u)
            return 0.5 * self.coeffs["mass"] * self.coeffs["omega"] ** 2 * r2
        if self.form == "quartic":
            r2 = _squared_norm(u)
            return self.coeffs["lam"] * r2 * r2
        if self.form == "polynomial":
            out = np.zeros(u.shape[:-1])
            for powers, c in self.coeffs["terms"]:
                term = np.full(u.shape[:-1], c)
                for axis, p in enumerate(powers):
                    if p:
                        term = term * u[..., axis] ** p
                out += term
            return out
        # gaussian_well
        r2 = _squared_norm(u)
        w = self.coeffs["width"]
        return -self.coeffs["depth"] * np.exp(-r2 / (2.0 * w * w))

    def __repr__(self):
        return f"Potential({self.form}, dim={self.dim})"


def evaluate_potential_shifted(V: Potential, theta: ThetaMatrix, x, k):
    """V(x + θk): the potential at the θ-shifted phase-space argument.

    Broadcasts over leading axes of x and k; `realize_hamiltonian_symbol`
    and the washout's V(x+θk) table evaluate through it.
    """
    if theta.dim != V.dim:
        raise ConfigError("theta: dimension does not match potential")
    x, k = _points(x, "x"), _points(k, "k")
    return V(x + theta.shift(k))


def _axis_factors(V: Potential, theta: ThetaMatrix):
    """Per momentum axis a, (b, V_b, θ_ba) with V(x + θk) = Σ_a V_b(x_b + θ_ba k_a),
    or None: the one place that decides whether V(x + θk) factors by axis.

    V must split into one-axis terms (`Potential.axis_terms`) and θ must pair
    each position axis b with at most one momentum axis a = σ(b)
    (`ThetaMatrix.axis_pairing`).  θ enters only V's argument, so V = 0
    splits at every θ, with b = a and θ_ba = 0.
    """
    if V.is_zero:
        return [(a, np.zeros_like, 0.0) for a in range(V.dim)]
    terms, pairing = V.axis_terms(), theta.axis_pairing()
    if terms is None or pairing is None:
        return None
    return [(b, terms[b], theta.entries[b, a]) for a, b in enumerate(pairing)]


def realize_hamiltonian_symbol(V: Potential, theta: ThetaMatrix, p: PhysicsParams):
    """Classical phase-space function h(k, x) = k·k/(2M) + V(x + θk).

    This is the ordering-independent symbol of the Hamiltonian in the
    canonical realization; the returned callable is pure and broadcasts
    over (..., N)-shaped k and x.
    """
    if theta.dim != p.dim or V.dim != p.dim:
        raise ConfigError("dim: potential/theta/params dimensions disagree")

    def symbol(k, x):
        k = _points(k, "k")
        kinetic = np.sum(k * k, axis=-1) / (2.0 * p.mass)
        return kinetic + evaluate_potential_shifted(V, theta, x, k)

    return symbol


# -- configuration files ----------------------------------------------------


@dataclass(frozen=True)
class ProbeSpec:
    """Gaussian probe packet parameters; width defaults to L/6 at build time."""

    center: tuple = ()
    width: float | None = None
    momentum: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    params: PhysicsParams
    theta: ThetaMatrix
    grid: PhaseSpaceGrid
    potential: Potential
    probe: ProbeSpec
    raw: dict


def _require(mapping: dict, key: str, context: str = ""):
    if key not in mapping:
        name = f"{context}.{key}" if context else key
        raise ConfigError(f"{name}: missing required key")
    return mapping[key]


def _integer(value, name: str) -> int:
    number = _finite(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name}: must be an integer")
    return int(number)


def _object(value, name: str, keys) -> dict:
    """value as a config object whose keys are all among keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be an object")
    unknown = sorted(str(k) for k in value if k not in keys)
    if unknown:
        path = f"{name}.{unknown[0]}" if name else unknown[0]
        raise ConfigError(f"{path}: unknown key (known keys: {', '.join(sorted(keys)) or 'none'})")
    return value


def _potential_from_config(pot: dict, dim: int, mass: float) -> Potential:
    form = _require(pot, "form", "potential")
    if not isinstance(form, str) or form not in _FORM_COEFFICIENTS:
        raise ConfigError(f"potential.form: unknown form {form!r}")
    coeffs = _object(pot.get("coefficients", {}), "potential.coefficients",
                     _FORM_COEFFICIENTS[form])
    key = "potential.coefficients"
    if form == "zero":
        return Potential.zero(dim)
    if form == "linear":
        V = Potential.linear(_require(coeffs, "c", key))
        if V.dim != dim:
            raise ConfigError(f"{key}.c: must be of shape {(dim,)}")
        return V
    if form == "harmonic":
        return Potential.harmonic(_require(coeffs, "omega", key), mass=mass, dim=dim)
    if form == "quartic":
        return Potential.quartic(_require(coeffs, "lambda", key), dim=dim)
    if form == "polynomial":
        terms = _require(coeffs, "terms", key)
        if not isinstance(terms, list):
            raise ConfigError(f"{key}.terms: must be a list")
        terms = [_object(t, f"{key}.terms", ("powers", "c")) for t in terms]
        return Potential.polynomial(
            [(_require(t, "powers", f"{key}.terms"), _require(t, "c", f"{key}.terms"))
             for t in terms], dim)
    return Potential.gaussian_well(_require(coeffs, "depth", key), _require(coeffs, "width", key),
                                   dim=dim)


def load_config(source) -> RunConfig:
    """Build a RunConfig from a JSON file path, JSON text, or a dict.

    Validation failures always name the offending key.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        stripped = text.lstrip()
        if not stripped.startswith("{"):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"config: cannot read {source!r} ({exc})") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")
    _object(data, "", ("dim", "hbar", "mass", "theta", "grid", "potential", "probe"))

    dim = _integer(_require(data, "dim"), "dim")
    params = PhysicsParams(hbar=data.get("hbar", 1.0), mass=data.get("mass", 1.0), dim=dim)
    theta = ThetaMatrix(_require(data, "theta"))
    if theta.dim != dim:
        raise ConfigError(f"theta: must be of shape {(dim, dim)}")

    grid_cfg = _object(_require(data, "grid"), "grid", ("points_per_axis", "box_half_width"))
    grid = PhaseSpaceGrid(
        _integer(_require(grid_cfg, "points_per_axis", "grid"), "grid.points_per_axis"),
        _require(grid_cfg, "box_half_width", "grid"), dim, hbar=params.hbar)

    potential = _potential_from_config(
        _object(_require(data, "potential"), "potential", ("form", "coefficients")), dim,
        params.mass)

    # the probe is built by the subcommands that use it; its keys are read here,
    # so every subcommand refuses a bad probe
    probe_cfg = _object(data.get("probe", {}), "probe", ("center", "momentum", "width"))
    center = _finite(probe_cfg.get("center", (0.0,) * dim), "probe.center", (dim,))
    momentum = _finite(probe_cfg.get("momentum", (0.0,) * dim), "probe.momentum", (dim,))
    width = probe_cfg.get("width")
    probe = ProbeSpec(center=tuple(center.tolist()),
                      width=None if width is None else _positive(width, "probe.width"),
                      momentum=tuple(momentum.tolist()))

    return RunConfig(params=params, theta=theta, grid=grid, potential=potential,
                     probe=probe, raw=data)
