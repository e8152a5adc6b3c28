"""Phase-space path integral toolkit for quantum mechanics with noncommuting
coordinates: star products, ordering (α-index) transforms, time-sliced
propagators, an exact rational source-functional engine, and spectral
reference propagators.

`import ncpath` loads none of the submodules.  A public name (or a submodule
name such as `ncpath.star`) imports its home module on first access, so a
script that uses only `load_config` and the exact engine never loads the
numerical layers.  `import ncpath.cli` loads `core` alone; each subcommand
imports the engine it runs when it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, under the submodule that defines it
_EXPORTS = {
    "core": ("ConfigError", "GridMismatchError", "PhaseSpaceGrid", "PhysicsParams",
             "Potential", "RunConfig", "ThetaMatrix", "evaluate_potential_shifted",
             "load_config", "realize_hamiltonian_symbol"),
    "oracle": ("build_hamiltonian_matrix", "chebyshev_evolve", "kinetic_operator_kernel",
               "oracle_compare", "spectral_propagator", "split_step_evolve"),
    "slicer": ("PropagatorKernel", "SlicingConfig", "SweepResult", "alpha_sweep", "compose",
               "edge_phase_turns", "free_kernel_closed_form", "full_kernel", "propagate",
               "short_time_propagator", "slice_row_blocks"),
    "star": ("ComplexField", "OperatorKernel", "gaussian_packet", "identity_kernel",
             "potential_operator_kernel", "star_apply", "star_apply_field",
             "star_integral_identity_check"),
    "weyl": ("PhaseSpaceSymbol", "WashoutReport", "delta_alpha_matrix_element",
             "shifted_potential_symbol", "symbol_of_operator", "symbol_via_quantizer_trace",
             "symmetrized_position_momentum_kernel", "verify_alpha_washout"),
}
_SUBMODULES = ("core", "star", "weyl", "slicer", "oracle", "phi_engine", "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import a public name's home module (or a submodule) on first access."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
