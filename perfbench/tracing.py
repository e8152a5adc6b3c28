"""Spans around the ncpath layers, recorded from outside the package.

`Tracer.install()` wraps every public function of the layer modules at every
module attribute that names it (so `ncpath.slicer.full_kernel`,
`ncpath.oracle.full_kernel` and `ncpath.full_kernel` all record the same
span), plus a few methods on their classes.  A span records its name, layer,
start, end, parent and the workload-run id.  Spans stay in memory until the
run ends; `layer_metrics()` turns them into the per-layer metrics and
`write()` dumps them as JSON lines.

Self time is a span's duration minus the time its direct child spans cover,
so the self times of all spans add up to the traced time without double
counting.
"""

from __future__ import annotations

import functools
import json
import time
import types

LAYERS = ("core", "star", "weyl", "slicer", "oracle", "phi_engine", "cli")

# Closed-form leaves called once per matrix entry (hundreds of thousands of
# times in the criterion-1 checks): a span each would cost more than the work.
UNWRAPPED = {"d_det", "d_inverse_entry"}

# Kernel applications get their own spans so that their matvecs are not
# counted in the self time of whichever caller (often `cli`) invoked them.
METHODS = (
    ("slicer", "PropagatorKernel", "apply"),
    ("star", "OperatorKernel", "apply"),
    ("core", "Potential", "__call__"),
    ("core", "PhaseSpaceGrid", "wave_to_momentum"),
    ("core", "PhaseSpaceGrid", "momentum_to_wave"),
)


def _alpha_class(cfg, V) -> str:
    """Which short-time-propagator path a slice takes (V=0, α=±½, α=0, other)."""
    if V.is_zero:
        return "free"
    if abs(cfg.alpha) == 0.5:
        return "half"
    if cfg.alpha == 0.0:
        return "zero"
    return "generic"


def _potential_points(u) -> int:
    shape = getattr(u, "shape", None)
    if not shape:
        return 1
    count = 1
    for n in shape[:-1]:
        count *= n
    return count


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # span: [name, layer, start, end, parent index or -1, attrs or None]
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, func, name: str, layer: str, attrs_of=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            attrs = attrs_of(args) if attrs_of is not None else None
            span = [name, layer, time.perf_counter(), None,
                    stack[-1] if stack else -1, attrs]
            spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap the layer functions and methods of the imported ncpath package."""
        import ncpath

        modules = {layer: getattr(ncpath, layer) for layer in LAYERS}
        namespaces = [ncpath] + list(modules.values())
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__ and attr not in UNWRAPPED):
                    attrs_of = None
                    if attr == "short_time_propagator":
                        attrs_of = lambda args: {"alpha_class": _alpha_class(args[0], args[1])}
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer, attrs_of)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            attrs_of = None
            if method == "__call__":
                attrs_of = lambda args: {"points": _potential_points(args[1])}
            self._restore.append((cls, method, original))
            setattr(cls, method,
                    self._wrap(original, f"{layer}.{cls_name}.{method}", layer, attrs_of))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def self_times(self) -> list:
        """Per-span self time: duration minus the time covered by direct children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def layer_metrics(self) -> dict:
        own = self.self_times()
        totals: dict = {}

        def add(key, value):
            totals[key] = totals.get(key, 0) + value

        for span, self_s in zip(self.spans, own):
            name, layer, start, end, _, attrs = span
            add(("self", name), self_s)
            add(("incl", name), end - start)
            add(("calls", name), 1)
            add(("layer_self", layer), self_s)
            if attrs and "alpha_class" in attrs:
                add(("slice_class", attrs["alpha_class"]), end - start)
            if attrs and "points" in attrs:
                add(("points",), attrs["points"])

        def get(*key):
            return totals.get(key, 0)

        return {
            "slicer.slice_s": get("self", "slicer.short_time_propagator"),
            "slicer.slice_calls": get("calls", "slicer.short_time_propagator"),
            "slicer.slice_s.half": get("slice_class", "half"),
            "slicer.slice_s.zero": get("slice_class", "zero"),
            "slicer.slice_s.generic": get("slice_class", "generic"),
            "slicer.slice_s.free": get("slice_class", "free"),
            "slicer.compose_s": get("self", "slicer.full_kernel") + get("self", "slicer.compose"),
            "slicer.apply_s": get("self", "slicer.PropagatorKernel.apply"),
            "slicer.sweep_self_s": get("self", "slicer.alpha_sweep"),
            "oracle.hamiltonian_s": get("incl", "oracle.build_hamiltonian_matrix"),
            "oracle.eigh_s": get("incl", "oracle.spectral_propagator"),
            "oracle.reference_builds": get("calls", "oracle.spectral_propagator"),
            "oracle.split_step_s": get("incl", "oracle.split_step_evolve"),
            "star.kernel_s": get("self", "star.potential_operator_kernel"),
            "star.apply_s": get("self", "star.star_apply"),
            "star.field_s": get("self", "star.star_apply_field"),
            "weyl.closed_form_s": get("self", "weyl.shifted_potential_symbol"),
            "weyl.symbol_s": get("self", "weyl.symbol_of_operator"),
            "weyl.quantizer_s": get("self", "weyl.symbol_via_quantizer_trace")
            + get("self", "weyl.delta_alpha_matrix_element"),
            "core.transform_s": get("self", "core.PhaseSpaceGrid.wave_to_momentum")
            + get("self", "core.PhaseSpaceGrid.momentum_to_wave"),
            "core.transform_calls": get("calls", "core.PhaseSpaceGrid.wave_to_momentum")
            + get("calls", "core.PhaseSpaceGrid.momentum_to_wave"),
            "core.potential_s": get("self", "core.Potential.__call__"),
            "core.potential_points": get("points"),
            "phi_engine.build_s": get("incl", "phi_engine.build_phi"),
            "phi_engine.builds": get("calls", "phi_engine.build_phi"),
            "phi_engine.report_s": get("incl", "phi_engine.first_derivative_report")
            + get("incl", "phi_engine.second_derivative_report"),
            "phi_engine.reports": get("calls", "phi_engine.first_derivative_report")
            + get("calls", "phi_engine.second_derivative_report"),
            "phi_engine.audit_self_s": get("self", "phi_engine.run_phi_audit")
            + get("self", "phi_engine.alpha_cancellation_audit"),
            "phi_engine.dense_check_s": get("self", "phi_engine.bareiss_determinant")
            + get("self", "phi_engine.dense_d_matrix"),
            "cli.self_s": get("layer_self", "cli"),
            "cli.commands": get("calls", "cli.main"),
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": index, "name": name, "layer": layer, "start": start,
                          "end": end, "parent": parent, "run": self.run_id}
                if attrs:
                    record.update(attrs)
                fh.write(json.dumps(record) + "\n")
