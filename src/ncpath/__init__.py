"""Phase-space path integral toolkit for quantum mechanics with noncommuting
coordinates: star products, ordering (α-index) transforms, time-sliced
propagators, an exact rational source-functional engine, and spectral
reference propagators.
"""

from .core import (
    ConfigError,
    GridMismatchError,
    PhaseSpaceGrid,
    PhysicsParams,
    Potential,
    RunConfig,
    ThetaMatrix,
    evaluate_potential_shifted,
    load_config,
    realize_hamiltonian_symbol,
)
from .oracle import (
    build_hamiltonian_matrix,
    chebyshev_evolve,
    kinetic_operator_kernel,
    oracle_compare,
    spectral_propagator,
    split_step_evolve,
)
from .slicer import (
    PropagatorKernel,
    SlicingConfig,
    SweepResult,
    alpha_sweep,
    compose,
    edge_phase_turns,
    free_kernel_closed_form,
    full_kernel,
    propagate,
    short_time_propagator,
)
from .star import (
    ComplexField,
    OperatorKernel,
    gaussian_packet,
    identity_kernel,
    potential_operator_kernel,
    star_apply,
    star_apply_field,
    star_integral_identity_check,
)
from .weyl import (
    AlphaIndex,
    PhaseSpaceSymbol,
    WashoutReport,
    delta_alpha_matrix_element,
    shifted_potential_symbol,
    symbol_of_operator,
    symbol_via_quantizer_trace,
    symmetrized_position_momentum_kernel,
    verify_alpha_washout,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaIndex",
    "ComplexField",
    "ConfigError",
    "GridMismatchError",
    "OperatorKernel",
    "PhaseSpaceGrid",
    "PhaseSpaceSymbol",
    "PhysicsParams",
    "Potential",
    "PropagatorKernel",
    "RunConfig",
    "SlicingConfig",
    "SweepResult",
    "ThetaMatrix",
    "WashoutReport",
    "alpha_sweep",
    "build_hamiltonian_matrix",
    "chebyshev_evolve",
    "compose",
    "delta_alpha_matrix_element",
    "edge_phase_turns",
    "evaluate_potential_shifted",
    "free_kernel_closed_form",
    "full_kernel",
    "gaussian_packet",
    "identity_kernel",
    "kinetic_operator_kernel",
    "load_config",
    "oracle_compare",
    "potential_operator_kernel",
    "propagate",
    "realize_hamiltonian_symbol",
    "shifted_potential_symbol",
    "short_time_propagator",
    "spectral_propagator",
    "split_step_evolve",
    "star_apply",
    "star_apply_field",
    "star_integral_identity_check",
    "symbol_of_operator",
    "symbol_via_quantizer_trace",
    "symmetrized_position_momentum_kernel",
    "verify_alpha_washout",
]
