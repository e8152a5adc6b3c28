"""Star product of a potential with a wavefunction, as a pseudodifferential
operator on lattice fields, plus the position-space kernel of V(X + θK).

On plane waves the derivative series collapses to an argument shift,

    V(x) ⋆ ψ(x) = V(x^j - iħ θ^{jl} ∂_l) ψ(x)
                = (2πħ)^{-N/2} Σ_k Δk^N e^{(i/ħ) k·x} V(x + θk) ψ̂(k),

so the implementation transforms ψ to the momentum lattice and accumulates
the mixed-domain sum.  The same shifted evaluation gives the matrix elements

    ⟨y|V(X+θK)|y'⟩ = (2πħ)^{-N} Σ_k Δk^N V(y + θk) e^{(i/ħ) k·(y-y')}.

For a lattice multiplier φ = Σ_w c_w e^{(i/ħ) w·x} the star product is the
twisted convolution

    (φ ⋆ ψ)(x) = (2πħ)^{-N/2} Δk^N
                 · Σ_{w,k} c_w ψ̂(k) e^{-(i/ħ) k·θw} e^{(i/ħ)(w+k)·x},

whose twist e^{-(i/ħ) k·θw} is the Moyal phase; on the lattice it is one
inverse transform over the frequency sum w + k taken mod G.

Plane waves are normalized as ⟨y|k⟩ = (2πħ)^{-N/2} e^{(i/ħ) y·k} and all
lattice sums carry explicit Δx^N / Δk^N measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    GridMismatchError,
    PhaseSpaceGrid,
    Potential,
    ThetaMatrix,
    _centered_fft,
    _finite,
    _plane_waves,
    _positive,
    _require_dense_size,
    _require_model,
    _row_blocks,
    _symbol_entries,
    evaluate_potential_shifted,
)

if TYPE_CHECKING:
    from .slicer import SlicingConfig


@dataclass
class ComplexField:
    """Complex amplitudes over the position lattice (flattened, row-major)."""

    values: np.ndarray
    grid: PhaseSpaceGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        if self.values.shape[0] != self.grid.size:
            raise GridMismatchError("field length does not match grid size")

    def norm(self) -> float:
        """L2 norm with the Δx^N measure."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def copy(self) -> "ComplexField":
        return ComplexField(self.values.copy(), self.grid)


@dataclass
class OperatorKernel:
    """Kernel values ⟨y|A|y'⟩ on lattice pairs; acts with the Δx^N measure.

    The package's one kernel type (slicer.PropagatorKernel is an alias);
    config is the SlicingConfig a sliced propagator was built from, else None.
    """

    entries: np.ndarray
    grid: PhaseSpaceGrid
    config: SlicingConfig | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        n = self.grid.size
        if self.entries.shape != (n, n):
            raise GridMismatchError("kernel shape does not match grid size")

    def apply(self, field: ComplexField) -> ComplexField:
        self.grid.require_same(field.grid)
        return ComplexField(self.entries @ field.values * self.grid.cell_volume, self.grid)

    def matmul(self, other: "OperatorKernel") -> "OperatorKernel":
        self.grid.require_same(other.grid)
        return OperatorKernel(self.entries @ other.entries * self.grid.cell_volume, self.grid)

    def adjoint_deviation(self, out=None):
        """(max|S − S†|, max|S|) for the entries S, reduced strip by strip; a
        NaN entry gives NaN for both.

        For each `core._row_blocks` slice `rows` starting at row s, the upper
        strip S[rows, s:] is held against a C-ordered copy of the column
        strip S[s:, rows]†, so each off-diagonal pair is read once.  Given an
        n×n `out`, the Hermitian part (S + S†)/2 is written into out[rows, s:]
        and into the column strip below the block, entry (a, b) summed as
        S_ab + conj(S_ba), so every bit (signed zeros too) is that of the
        whole-array formula.  `out` may be the entries themselves: the strips
        of block o lie in rows and columns ≥ s, which no earlier block writes.
        """
        devs, tops = [], []  # reduced with np.max, which keeps a NaN
        for rows in _row_blocks(self.grid):
            start, below = rows.start, rows.stop - rows.start
            upper = self.entries[rows, start:]
            # a C-ordered copy: ufuncs on the strided column view buffer a second one
            adjoint = np.array(self.entries[start:, rows].T, order="C")
            # both sums go through one C-ordered strip: a ufunc writing a
            # strided view of `out` buffers its operands, an assignment does not
            work = np.empty_like(upper)
            if out is not None:  # the rows below the block, entry (a, b) as S_ab + conj(S_ba)
                np.conjugate(upper, out=work)
                work += adjoint
                work *= 0.5
                out[rows.stop:, rows] = work[:, below:].T
            np.conjugate(adjoint, out=adjoint)
            devs.append(np.max(np.abs(np.subtract(upper, adjoint, out=work))))
            tops += [np.max(np.abs(upper)), np.max(np.abs(adjoint))]
            if out is not None:  # out[rows, s:] holds the diagonal block rows × rows whole
                np.add(upper, adjoint, out=work)
                work *= 0.5
                out[rows, start:] = work
            del upper, adjoint, work  # before the next block allocates its strips
        return float(np.max(devs)), float(np.max(tops))


def identity_kernel(grid: PhaseSpaceGrid) -> OperatorKernel:
    """Lattice identity: δ_{yy'} / Δx^N; grids of more than 4096 lattice points are refused."""
    _require_dense_size(grid)
    return OperatorKernel(np.eye(grid.size) / grid.cell_volume, grid)


def gaussian_packet(grid: PhaseSpaceGrid, center=None, width: float | None = None,
                    momentum=None) -> ComplexField:
    """Normalized Gaussian wave packet, default width L/6 centered at origin.

    Wrap-sensitive comparisons should pass width ≤ L/9, which keeps less
    than 1e-12 of the mass within two grid spacings of the box boundary.
    A center or momentum that is not N finite numbers, or a width that is
    not a positive number, is refused under its probe.* key.
    """
    N = grid.dim
    center = np.zeros(N) if center is None else _finite(center, "probe.center", (N,))
    momentum = np.zeros(N) if momentum is None else _finite(momentum, "probe.momentum", (N,))
    width = grid.box_half_width / 6.0 if width is None else _positive(width, "probe.width")
    d = grid.x_points - center
    phase = (grid.x_points @ momentum) / grid.hbar
    values = np.exp(-np.sum(d * d, axis=-1) / (4.0 * width**2) + 1j * phase)
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume)
    return ComplexField(values, grid)


def star_apply(V: Potential, theta: ThetaMatrix, psi: ComplexField) -> ComplexField:
    """V ⋆ ψ via the mixed-domain sum over momentum nodes.

    Reduces to plain pointwise multiplication when θ = 0 (the derivative
    series truncates at order zero, and the code takes that path exactly).
    Otherwise the sum runs one `core._row_blocks` block of G^{N-1} rows at a
    time, its plane waves e^{(i/ħ)x·k} read from `core._plane_waves`.
    """
    grid = psi.grid
    _require_model(grid, V=V, theta=theta)
    if theta.is_zero:
        return ComplexField(V(grid.x_points) * psi.values, grid)
    psi_hat = grid.wave_to_momentum(psi.values)
    weight = grid.momentum_cell_volume * (2.0 * np.pi * grid.hbar) ** (-grid.dim / 2.0)
    shifts = theta.shift(grid.k_points)
    idx = grid._index_points
    out = np.empty(grid.size, dtype=complex)
    for rows in _row_blocks(grid):
        phase = _plane_waves(grid.points_per_axis, idx[rows], idx)
        phase *= V(grid.x_points[rows, None, :] + shifts[None, :, :])
        out[rows] = phase @ psi_hat
    return ComplexField(out * weight, grid)


def star_apply_field(phi: ComplexField, theta: ThetaMatrix, psi: ComplexField) -> ComplexField:
    """φ ⋆ ψ with a grid-sampled multiplier φ.

    φ's values at the off-lattice points x + θk come from its own Fourier
    series (trigonometric interpolation), the natural extension of periodic
    lattice data.  With φ(x) = Σ_w c_w e^{(i/ħ) w·x} and
    pref = (2πħ)^{-N/2} Δk^N this reads

        (φ ⋆ ψ)(x) = pref · Σ_{w,k} c_w ψ̂(k) e^{-(i/ħ) k·θw} e^{(i/ħ)(w+k)·x},

    a twisted convolution of c and ψ̂.  On lattice x the last phase depends
    only on q = (n_w + n_k) mod G per axis (n the integer lattice indices),
    so the result is one inverse transform  pref · Σ_q A_q e^{2πi q·n_x/G}  of

        A_q = Σ_{n_w + n_k ≡ q} c_w ψ̂(k) e^{-(i/ħ) k·θw},

    accumulated over blocks of w with temporaries of about (block · G^N).
    """
    grid = psi.grid
    _require_model(grid, theta=theta, field=phi)
    if theta.is_zero:
        return ComplexField(phi.values * psi.values, grid)
    G, N = grid.points_per_axis, grid.dim
    pref = grid.momentum_cell_volume * (2.0 * np.pi * grid.hbar) ** (-N / 2.0)
    c = grid.wave_to_momentum(phi.values) * pref  # φ(x) = Σ_w c_w e^{(i/ħ)wx}
    psi_hat = grid.wave_to_momentum(psi.values).reshape(grid.shape)
    # acc holds A in centered slot order: slot p on an axis holds q ≡ p - G//2,
    # so the ψ̂ slot paired there with frequency index n_w is (p - n_w) mod G.
    acc = np.zeros(grid.shape, dtype=complex)
    slots = np.arange(G)
    chunk = max(1, 2**22 // (16 * grid.size))
    for start in range(0, grid.size, chunk):
        stop = min(start + chunk, grid.size)
        w_slots = np.unravel_index(np.arange(start, stop), grid.shape)  # n_w + G//2
        shifts = theta.shift(grid.k_points[start:stop]) / grid.hbar  # (B, N): θw/ħ
        idx = [((slots[None, :] - w_slots[a][:, None] + G // 2) % G).reshape(
            (stop - start,) + (1,) * a + (G,) + (1,) * (N - 1 - a)) for a in range(N)]
        block = psi_hat[tuple(idx)]  # (B, G, …, G)
        for a in range(N):  # the twist, one axis of k·θw at a time
            block *= np.exp(-1j * shifts[:, a].reshape((-1,) + (1,) * N)
                            * grid.k_axis[idx[a]])
        acc += np.tensordot(c[start:stop], block, axes=1)
    out = np.fft.fftshift(_centered_fft(acc, +1, range(N))).reshape(-1) * pref
    return ComplexField(out, grid)


def star_integral_identity_check(phi: ComplexField, psi: ComplexField,
                                 theta: ThetaMatrix) -> float:
    """|Σ(φ⋆ψ) - Σ(φψ)| · Δx^N — the integral-of-a-star-product identity.

    The difference vanishes for antisymmetric θ because the only surviving
    phase is e^{(i/ħ) k·θk} ≡ 1; on the lattice the residual sits at
    quadrature scale.
    """
    _require_model(psi.grid, theta=theta, field=phi)
    star = star_apply_field(phi, theta, psi)
    lhs = np.sum(star.values) * phi.grid.cell_volume
    rhs = np.sum(phi.values * psi.values) * phi.grid.cell_volume
    return float(abs(lhs - rhs))


def potential_operator_kernel(V: Potential, theta: ThetaMatrix,
                              grid: PhaseSpaceGrid) -> OperatorKernel:
    """Position-space kernel ⟨y|V(X+θK)|y'⟩ on the lattice.

    The shifted potential is evaluated at the row point y, so this is the
    standard-ordered kernel of f(k, y) = V(y + θk) (`core._symbol_entries`):
    an entry is χ_y at the offset (n_y - n_y') mod G, with χ_y the centered
    transform of V(y + θk) over the momentum lattice.  For real V it is
    Hermitian when θ = 0 or V has degree ≤ 2; otherwise (quartic V, θ ≠ 0)
    its deviation from Hermiticity is of first order in θ.  θ = 0 gives
    diag(V(y))/Δx^N.  Grids of more than 4096 lattice points are refused.
    """
    _require_model(grid, V=V, theta=theta)
    _require_dense_size(grid)
    if theta.is_zero:
        return OperatorKernel(np.diag(V(grid.x_points) / grid.cell_volume).astype(complex), grid)
    return OperatorKernel(_symbol_entries(
        grid, lambda k, y: evaluate_potential_shifted(V, theta, y, k)), grid)
