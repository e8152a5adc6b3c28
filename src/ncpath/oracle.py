"""Independent ground truth for the sliced kernels: a dense spectral
propagator for H = K²/(2M) + V(X + θK) and a split-step integrator for the
corresponding wave equation

    -ħ²/(2M) ∇² Ψ + V(x) ⋆ Ψ = iħ ∂Ψ/∂t .

The spectral route diagonalizes the dense lattice Hamiltonian and
exponentiates exactly; the split-step route alternates exact kinetic steps
in momentum space with mixed-domain phase steps e^{-(i/ħ) δt V(x + θk)}.
Because the x- and k-dependence of the shifted potential do not commute,
the split-step scheme is first order in the coupling θ and second order
when θ = 0; step counts in the tests are chosen accordingly.
"""

from __future__ import annotations

import time

import numpy as np

from .core import (
    PhaseSpaceGrid,
    PhysicsParams,
    Potential,
    ThetaMatrix,
    _circulant_entries,
    _require_dense_size,
)
from .slicer import PropagatorKernel, SlicingConfig, propagate
from .star import ComplexField, OperatorKernel, potential_operator_kernel


def kinetic_operator_kernel(grid: PhaseSpaceGrid, params: PhysicsParams) -> OperatorKernel:
    """⟨y|K²/(2M)|y'⟩: diagonal in momentum, circulant in position."""
    norm = grid.momentum_cell_volume * (2.0 * np.pi * grid.hbar) ** (-grid.dim)
    k2 = np.sum(grid.k_points**2, axis=-1) / (2.0 * params.mass)
    return OperatorKernel(_circulant_entries(grid, k2, norm), grid)


def build_hamiltonian_matrix(V: Potential, theta: ThetaMatrix, grid: PhaseSpaceGrid,
                             params: PhysicsParams) -> OperatorKernel:
    """Dense lattice Hamiltonian kernel; guarded to G^N ≤ 4096."""
    _require_dense_size(grid)
    kinetic = kinetic_operator_kernel(grid, params)
    potential = potential_operator_kernel(V, theta, grid)
    return OperatorKernel(kinetic.entries + potential.entries, grid)


def spectral_propagator(H: OperatorKernel, T: float) -> PropagatorKernel:
    """e^{-(i/ħ) T H} by dense diagonalization; the reference kernel.

    Input must be Hermitian to tolerance; the Hermitian part is
    diagonalized, so the result is unitary to rounding.
    """
    grid = H.grid
    op = H.entries * grid.cell_volume
    scale = float(np.max(np.abs(op))) or 1.0
    dev = float(np.max(np.abs(op - op.conj().T)))
    if dev > 1e-8 * scale:
        raise ValueError(f"Hamiltonian not Hermitian (deviation {dev:.3e})")
    herm = 0.5 * (op + op.conj().T)
    evals, evecs = np.linalg.eigh(herm)
    phases = np.exp(-1j * evals * T / grid.hbar)
    entries = (evecs * phases[None, :]) @ evecs.conj().T / grid.cell_volume
    return PropagatorKernel(entries, grid, None)


def split_step_evolve(psi: ComplexField, V: Potential, theta: ThetaMatrix,
                      params: PhysicsParams, T: float, steps: int) -> ComplexField:
    """Strang-split evolution: half potential, full kinetic, half potential.

    The potential half-step applies the shifted-symbol phase in mixed
    domain:  ψ(x) ← (2πħ)^{-N/2} Σ_k Δk^N e^{(i/ħ)k·x} e^{-(i/ħ)(δt/2)V(x+θk)} ψ̂(k).
    V = 0 evolution is exact for any step count.
    """
    if steps < 1:
        raise ValueError("steps: must be at least 1")
    grid = psi.grid
    dt = T / steps
    hbar = grid.hbar
    k2 = np.sum(grid.k_points**2, axis=-1)
    kin_phase = np.exp(-1j * dt * k2 / (2.0 * params.mass * hbar))
    values = psi.values.copy()
    if V.is_zero:
        hat = grid.wave_to_momentum(values)
        hat *= kin_phase**steps
        return ComplexField(grid.momentum_to_wave(hat), grid)
    if theta.is_zero:
        half = np.exp(-0.5j * dt * V(grid.x_points) / hbar)
        for _ in range(steps):
            values *= half
            hat = grid.wave_to_momentum(values)
            values = grid.momentum_to_wave(hat * kin_phase)
            values *= half
        return ComplexField(values, grid)
    # mixed-domain half-step matrix: momentum rep -> position rep
    shifted = grid.x_points[:, None, :] + theta.shift(grid.k_points)[None, :, :]
    vvals = V(shifted)  # (x, k)
    pref = grid.momentum_cell_volume * (2.0 * np.pi * hbar) ** (-grid.dim / 2.0)
    phase_xk = np.exp(1j * (grid.x_points @ grid.k_points.T) / hbar)
    half_v = pref * phase_xk * np.exp(-0.5j * dt * vvals / hbar)
    for _ in range(steps):
        hat = grid.wave_to_momentum(values)
        values = half_v @ hat
        hat = grid.wave_to_momentum(values)
        values = half_v @ (hat * kin_phase)
    return ComplexField(values, grid)


def oracle_compare(V: Potential, theta: ThetaMatrix, grid: PhaseSpaceGrid,
                   params: PhysicsParams, total_time: float, m_values,
                   probe: ComplexField, alpha: float = 0.5, timings: dict | None = None):
    """Rows of (m, L2 error of the sliced propagation vs the spectral propagator).

    The sliced kernel uses α = +1/2 by default: there the slice point
    coincides with the outgoing argument, matching the construction of the
    reference Hamiltonian's potential kernel, so the comparison converges
    without an ordering-mismatch floor.  The reference is built and
    diagonalized once for all m.  A `timings` dict receives the seconds of
    that one-off build under "reference" and each m's propagation under m.
    """
    timings = {} if timings is None else timings
    t0 = time.perf_counter()
    H = build_hamiltonian_matrix(V, theta, grid, params)
    reference = spectral_propagator(H, total_time).apply(probe)
    ref_norm = reference.norm() or 1.0
    timings["reference"] = time.perf_counter() - t0
    rows = []
    for m in m_values:
        t0 = time.perf_counter()
        cfg = SlicingConfig(int(m), total_time, alpha, params)
        sliced = propagate(cfg, V, theta, grid, probe)
        err = ComplexField(sliced.values - reference.values, grid).norm() / ref_norm
        timings[int(m)] = time.perf_counter() - t0
        rows.append((int(m), err))
    return rows
