"""One benchmark campaign, run in a fresh process the way a CLI user runs it.

    python3 perfbench/campaign.py --workload dynamics --seed 1 --workdir DIR \
        --result OUT.json [--trace 0|1] [--scale full|smoke] [--setup-only]

The process imports ncpath from the checkout's `src/`, generates the seeded
inputs (setup), runs the campaign's steps one after another (a closed loop:
each call waits for the previous one), checks every result, and writes one
JSON record to --result.  `run.py` starts these processes and aggregates
them; this file is not the benchmark's entry point.

Workloads (why each was chosen is in README.md):
  dynamics   alpha-sweep and oracle-compare at their defaults, one split-step
             reference: dense kernel powering in `slicer`, dense eigh in
             `oracle`.
  exact      phi-audit, the criterion-3 table, a build_phi ladder with
             derivative queries, limit-check and the criterion-1 checks:
             pure-Python rational arithmetic in `phi_engine`.
  operators  criterion 5 (washout, direct route, control, quantizer trace),
             `ncpath symbol`, criterion 9, `ncpath star-check`, and one slice
             per ordering class: operator builds written out, no composition.

The seed moves only inputs that select no code path: probe and packet
centres and momenta, the rational boundary points of Φ, and the sampled
lattice points of the quantizer and slice-entry checks.  Sizes, ordering
indices and tolerances are the same for every seed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks as gates  # noqa: E402
from checks import Checks  # noqa: E402

WORKLOADS = ("dynamics", "exact", "operators")
EDGE_WARNING = "slice phase at the momentum edge"

# Sizes per scale.  "full" is the benchmark; "smoke" is the smallest size at
# which every step still runs, used by the harness tests only.
SCALES = {
    "full": {
        "grid": None,            # configs as committed: G=32 (harmonic), G=16 (quartic)
        "sweep_m": "4,8,16,32",  # alpha-sweep default
        "oracle_m": "16,32,64",  # oracle-compare default
        "split_steps": 256,
        "audit_m": 20,
        "table_m": 8,
        "ladder_m": (10, 20, 30, 40),
        "coupling_m": 64,
        "star_grid": 64,
        "slice_m": 4,
    },
    "smoke": {
        "grid": {"harmonic": (16, 6.0), "quartic": (8, 6.0)},
        "sweep_m": "4,8,16,32",
        "oracle_m": "16,32,64",
        "split_steps": 64,
        "audit_m": 3,
        "table_m": 2,
        "ladder_m": (2, 4),
        "coupling_m": 8,
        "star_grid": 16,
        "slice_m": 4,
    },
}

# criterion-3/-4 coupling and ordering indices (fixed; only boundary points vary)
THETA_Q = [[Fraction(0), Fraction(1, 10)], [Fraction(-1, 10), Fraction(0)]]
TABLE_ALPHAS = [Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4), Fraction(1, 2)]
LADDER_ALPHA = Fraction(2, 5)
WASHOUT_ALPHAS = [-0.4, 0.0, 0.4]
CRITERION7_WIDTH = 0.5 ** 0.5
SAMPLED_ENTRIES = 8


# -- setup ------------------------------------------------------------------


def _uniform_pair(rng, half_width):
    return [round(rng.uniform(-half_width, half_width), 6) for _ in range(2)]


def _rational_point(rng):
    return [Fraction(rng.randint(-19, 19), rng.randint(2, 9)) for _ in range(2)]


def _seeded_config(path, base, grid, probe):
    data = json.loads(base.read_text(encoding="utf-8"))
    if grid is not None:
        data["grid"] = {"points_per_axis": grid[0], "box_half_width": grid[1]}
    data["probe"] = probe
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return str(path)


def setup(workload, seed, scale, workdir):
    """Import the program, load its configs and make the seeded inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import ncpath  # noqa: F401
    import ncpath.cli  # noqa: F401

    sizes = SCALES[scale]
    rng = random.Random(f"{workload}:{seed}")
    workdir = Path(workdir)
    grids = sizes["grid"] or {}
    inputs = {"sizes": sizes, "workdir": workdir, "seed": seed}
    # probe centre within ±0.3 and momentum within ±0.2 per axis: well inside
    # the box (half-width 7), where every gate holds with margin
    harmonic = _seeded_config(
        workdir / "harmonic.json", ROOT / "configs" / "harmonic_shifted.json",
        grids.get("harmonic"),
        {"center": _uniform_pair(rng, 0.3), "momentum": _uniform_pair(rng, 0.2)})
    quartic = _seeded_config(
        workdir / "quartic.json", ROOT / "configs" / "quartic_washout.json",
        grids.get("quartic"), {"width": 1.0})
    inputs["harmonic_path"] = harmonic
    inputs["quartic_path"] = quartic
    inputs["harmonic"] = ncpath.load_config(harmonic)
    inputs["quartic"] = ncpath.load_config(quartic)
    if workload == "exact":
        inputs["x_f"] = _rational_point(rng)
        inputs["x_in"] = _rational_point(rng)
    elif workload == "operators":
        inputs["star_phi_centre"] = _uniform_pair(rng, 0.6)
        inputs["star_psi"] = (_uniform_pair(rng, 0.6), _uniform_pair(rng, 0.5))
        inputs["star_probe_momentum"] = _uniform_pair(rng, 0.3)
        n16 = inputs["quartic"].grid.size
        inputs["quantizer_points"] = [(rng.randrange(n16), rng.randrange(n16))
                                      for _ in range(4)]
        n = inputs["harmonic"].grid.size
        inputs["slice_entries"] = [(rng.randrange(n), rng.randrange(n))
                                   for _ in range(SAMPLED_ENTRIES)]
    return inputs


# -- running the CLI in process ----------------------------------------------


class Run:
    """State of one campaign: its gates, CLI artifact counts and accuracy figures."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.sizes = inputs["sizes"]
        self.workdir = inputs["workdir"]
        self.checks = Checks()
        self.artifact_bytes = 0
        self.accuracy = {}
        self._artifacts = 0

    def cli(self, command, *args, summary=True):
        """`ncpath.cli.main` with its outputs in the work directory.

        Returns (parsed --summary JSON or None, CSV path).
        """
        import ncpath.cli

        self._artifacts += 1
        out = self.workdir / f"{self._artifacts:02d}-{command}.csv"
        argv = [command, *args, "--out", str(out)]
        summary_path = self.workdir / f"{self._artifacts:02d}-{command}.json"
        if summary:
            argv += ["--summary", str(summary_path)]
        self.checks.equal(f"{command} exit code", ncpath.cli.main(argv), 0)
        parsed = None
        for path in (out, summary_path):
            if path.exists():
                self.artifact_bytes += path.stat().st_size
        if summary and summary_path.exists():
            parsed = json.loads(summary_path.read_text(encoding="utf-8"))
        return parsed, out


# -- dynamics -----------------------------------------------------------------


def _classical_centre(cfg, centre, momentum, total_time):
    """⟨x⟩(T) under H = k²/2M + ½Mω²(x + θk)²: the exact Ehrenfest flow."""
    import numpy as np

    mass = cfg.params.mass
    omega = cfg.potential.coeffs["omega"]
    theta = cfg.theta.entries
    eye = np.eye(2)
    c = mass * omega**2
    hess = np.block([[c * eye, c * theta], [c * theta.T, eye / mass + c * theta.T @ theta]])
    flow_gen = np.block([[np.zeros((2, 2)), eye], [-eye, np.zeros((2, 2))]]) @ hess
    w, v = np.linalg.eig(flow_gen * total_time)
    flow = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real
    return (flow @ np.concatenate([centre, momentum]))[:2]


def dynamics(run):
    import numpy as np
    import ncpath as nc

    cfg = run.inputs["harmonic"]
    chk = run.checks
    path = run.inputs["harmonic_path"]

    def sweep():
        t0 = time.perf_counter()
        summary, _ = run.cli("alpha-sweep", "--config", path, "--m-list", run.sizes["sweep_m"])
        elapsed = time.perf_counter() - t0
        slope = float(summary["slope"])
        d_values = {}
        for m, _, spread in summary["rows"]:
            d_values[int(m)] = max(d_values.get(int(m), 0.0), float(spread))
        ms = sorted(d_values)
        chk.within("criterion 6 slope", slope, *gates.SLOPE_RANGE)
        chk.below("criterion 6 residual", float(summary["residual"]), gates.SLOPE_RESIDUAL)
        chk.below(f"criterion 6 D({ms[-1]}) < D({ms[0]})/4", d_values[ms[-1]],
                  d_values[ms[0]] / gates.QUARTER_DROP)
        chk.below("criterion 6 time", elapsed, gates.SWEEP_SECONDS)
        run.accuracy["sweep_slope_dev"] = abs(slope + 1.0)

    def oracle():
        summary, _ = run.cli("oracle-compare", "--config", path, "--m-list",
                             run.sizes["oracle_m"], "--probe-width", repr(CRITERION7_WIDTH))
        errors = [float(row[1]) for row in summary["rows"]]
        chk.record("criterion 7 errors fall with m",
                   all(a > b for a, b in zip(errors, errors[1:])), repr(errors))
        chk.below("criterion 7 error at the largest m", errors[-1], gates.ORACLE_ERROR)
        run.accuracy["oracle_l2_err"] = errors[-1]

    def split_step():
        centre = np.asarray(cfg.probe.center)
        momentum = np.asarray(cfg.probe.momentum)
        probe = nc.gaussian_packet(cfg.grid, center=centre, width=CRITERION7_WIDTH,
                                   momentum=momentum)
        out = nc.split_step_evolve(probe, cfg.potential, cfg.theta, cfg.params, 1.0,
                                   run.sizes["split_steps"])
        density = np.abs(out.values) ** 2
        measured = density @ cfg.grid.x_points * cfg.grid.cell_volume / np.sum(
            density * cfg.grid.cell_volume)
        expected = _classical_centre(cfg, centre, momentum, 1.0)
        chk.below("split-step centre follows the classical flow",
                  float(np.max(np.abs(measured - expected))), gates.SPLIT_STEP_CENTRE)

    chk.step("alpha-sweep", sweep)
    chk.step("oracle-compare", oracle)
    chk.step("split-step reference", split_step)


# -- exact --------------------------------------------------------------------


def _mixed_sum(m, a, b):
    """Criterion-3 closed form of jz + zj for θ^{01} = 1/10 and T = 1."""
    from ncpath.phi_engine import GaussianRational

    if a == b:
        return GaussianRational(0)
    return GaussianRational(0, (1 if a < b else -1) * Fraction(1, 10)
                            * Fraction(m + 1 - abs(a - b), m + 1))


def _criterion3_table(run, x_f, x_in):
    from ncpath.phi_engine import GaussianRational, PhiContext, build_phi, \
        second_derivative_report

    t0 = time.perf_counter()
    zz_ok = sum_ok = True
    jz_varies = False
    for m in range(1, run.sizes["table_m"] + 1):
        forms = {al: build_phi(PhiContext(m, Fraction(1), al), THETA_Q, x_f, x_in)
                 for al in TABLE_ALPHAS}
        for a in range(m + 1):
            for b in range(m + 1):
                reps = {al: second_derivative_report(forms[al], a, b, 0, 1)
                        for al in TABLE_ALPHAS}
                for al in TABLE_ALPHAS:
                    diag = second_derivative_report(forms[al], a, b, 0, 0)
                    zz_ok = zz_ok and diag.zz == GaussianRational(0, -Fraction(1, 100))
                    zz_ok = zz_ok and reps[al].zz == GaussianRational(0)
                vals = list(reps.values())
                sum_ok = sum_ok and all(v.jz_plus_zj == _mixed_sum(m, a, b) for v in vals)
                jz_varies = jz_varies or any(vals[0].jz != v.jz for v in vals[1:])
    elapsed = time.perf_counter() - t0
    chk = run.checks
    chk.record("criterion 3 momentum-momentum entries", zz_ok)
    chk.record("criterion 3 mixed sum is alpha-free", sum_ok)
    chk.record("criterion 3 mixed parts vary with alpha", jz_varies)
    chk.below("criterion 3 time", elapsed, gates.TABLE_SECONDS)


def _phi_ladder(run, x_f, x_in):
    """build_phi up the ladder, then first- and second-derivative queries on each."""
    from ncpath.phi_engine import GaussianRational, PhiContext, build_phi, \
        first_derivative_report, second_derivative_report

    chk = run.checks
    theta_term = [GaussianRational(sum((THETA_Q[i][l] * (x_f[l] - x_in[l]) for l in range(2)),
                                       Fraction(0))) for i in range(2)]
    for m in run.sizes["ladder_m"]:
        phi = build_phi(PhiContext(m, Fraction(1), LADDER_ALPHA), THETA_Q, x_f, x_in)
        first_ok = True
        for a in range(m + 1):
            wf = (Fraction(2 * a + 1, 2) + LADDER_ALPHA) / (m + 1)
            wi = (Fraction(2 * (m - a) + 1, 2) - LADDER_ALPHA) / (m + 1)
            for i in range(2):
                rep = first_derivative_report(phi, a, i)
                first_ok = (first_ok
                            and rep.coordinate_route == GaussianRational(x_f[i] * wf + x_in[i] * wi)
                            and rep.momentum_route == theta_term[i])
        chk.record(f"criterion 4 first-derivative structure at m={m}", first_ok)
        second_ok = True
        for a in sorted({0, m // 2, m}):
            for b in range(m + 1):
                rep = second_derivative_report(phi, a, b, 0, 1)
                second_ok = second_ok and rep.jz_plus_zj == _mixed_sum(m, a, b)
        chk.record(f"criterion 3 mixed sum at m={m}", second_ok)


def _criterion1(run):
    from ncpath.phi_engine import bareiss_determinant, d_det, d_inverse_entry, dense_d_matrix

    t0 = time.perf_counter()
    det_ok = bareiss_ok = inverse_ok = True
    for m in range(1, run.sizes["coupling_m"] + 1):
        det_ok = det_ok and d_det(m) == m + 1
        bareiss_ok = bareiss_ok and bareiss_determinant(dense_d_matrix(m)) == m + 1

        def inv(a, b, m=m):
            return Fraction(0) if a < 1 or a > m else d_inverse_entry(m, a, b)

        for a in range(1, m + 1):
            for b in range(1, m + 1):
                entry = 2 * inv(a, b) - inv(a - 1, b) - inv(a + 1, b)
                inverse_ok = inverse_ok and entry == (1 if a == b else 0)
    elapsed = time.perf_counter() - t0
    chk = run.checks
    chk.record("criterion 1 determinant closed form", det_ok)
    chk.record("criterion 1 Bareiss determinant", bareiss_ok)
    chk.record("criterion 1 inverse closed form", inverse_ok)
    chk.below("criterion 1 time", elapsed, gates.COUPLING_SECONDS)


def exact(run):
    chk = run.checks
    x_f, x_in = run.inputs["x_f"], run.inputs["x_in"]

    def audit():
        summary, _ = run.cli("phi-audit", "--m", str(run.sizes["audit_m"]))
        for name, status, detail in summary["rows"]:
            chk.record(f"phi-audit {name}", status == "PASS", detail)
        chk.record("phi-audit ok", summary["ok"])

    def limit():
        summary, _ = run.cli("limit-check")
        chk.record("limit-check rows pass", all(row[-1] == "true" for row in summary["rows"]))

    chk.step("phi-audit", audit)
    chk.step("criterion 3 table", lambda: _criterion3_table(run, x_f, x_in))
    chk.step("build_phi ladder", lambda: _phi_ladder(run, x_f, x_in))
    chk.step("limit-check", limit)
    chk.step("criterion 1", lambda: _criterion1(run))


# -- operators ----------------------------------------------------------------


def _criterion5(run):
    import numpy as np
    import ncpath as nc

    chk = run.checks
    quartic = run.inputs["quartic"]
    grid, theta, V = quartic.grid, quartic.theta, quartic.potential
    t0 = time.perf_counter()
    washout = nc.verify_alpha_washout(V, theta, grid, WASHOUT_ALPHAS)
    ctrl_grid = nc.PhaseSpaceGrid(grid.points_per_axis, grid.box_half_width, 1)
    ctrl = nc.symmetrized_position_momentum_kernel(ctrl_grid, nc.PhysicsParams(dim=1))
    ctrl_spread = float(np.max(np.abs(nc.symbol_of_operator(ctrl, 0.5).values
                                      - nc.symbol_of_operator(ctrl, -0.5).values)))
    elapsed = time.perf_counter() - t0
    chk.below("criterion 5 closed-form washout", washout.max_pairwise_relative,
              gates.WASHOUT_RELATIVE)
    chk.at_least("criterion 5 control spread", ctrl_spread, gates.CONTROL_SPREAD)
    chk.below("criterion 5 time", elapsed, gates.WASHOUT_SECONDS)

    # direct route at G and G/2: spread within ten times the self-convergence error
    fine_g = grid.points_per_axis
    coarse_g = fine_g // 2
    symbols, kernels = {}, {}
    for G in (coarse_g, fine_g):
        g = nc.PhaseSpaceGrid(G, grid.box_half_width, 2)
        kernels[G] = nc.potential_operator_kernel(V, theta, g)
        symbols[G] = {a: nc.symbol_of_operator(kernels[G], a).values for a in WASHOUT_ALPHAS}
    xi = [2 * i for i in range(coarse_g)]
    ki = [i + coarse_g // 2 for i in range(coarse_g)]
    self_err = max(np.max(np.abs(symbols[coarse_g][a].reshape((coarse_g,) * 4)
                                 - symbols[fine_g][a].reshape((fine_g,) * 4)[np.ix_(ki, ki, xi, xi)]))
                   for a in WASHOUT_ALPHAS)
    spread = max(np.max(np.abs(symbols[coarse_g][a] - symbols[coarse_g][b]))
                 for a in WASHOUT_ALPHAS for b in WASHOUT_ALPHAS if a < b)
    chk.record("direct washout within the self-convergence budget",
               spread <= gates.DIRECT_SELF_CONVERGENCE * self_err, f"{spread!r} <= 10*{self_err!r}")

    # quantizer trace at sampled lattice points against the direct symbols
    kern = kernels[fine_g]
    worst = 0.0
    for a in WASHOUT_ALPHAS:
        values = symbols[fine_g][a]
        scale = max(1.0, float(np.max(np.abs(values))))
        for ik, ix in run.inputs["quantizer_points"]:
            trace = nc.symbol_via_quantizer_trace(kern, a, grid.k_points[ik], grid.x_points[ix])
            worst = max(worst, abs(trace - values[ik, ix]) / scale)
    chk.below("quantizer trace matches the direct symbol", worst, gates.QUANTIZER_AGREEMENT)


def _symbol_cli(run):
    _, out = run.cli("symbol", "--config", run.inputs["quartic_path"], summary=False)
    data = out.read_bytes()
    lines = data.rstrip(b"\n").split(b"\n")
    n = run.inputs["quartic"].grid.size
    run.checks.equal("symbol CSV rows", len(lines), 1 + len(WASHOUT_ALPHAS) * n * n + 2)
    footer = dict(line.decode().split(",")[:2] for line in lines[-2:])
    run.checks.below("symbol washout", float(footer["# max_pairwise_relative"]),
                     gates.WASHOUT_RELATIVE)


def _criterion9(run):
    import numpy as np
    import ncpath as nc

    chk = run.checks
    grid = nc.PhaseSpaceGrid(run.sizes["star_grid"], 8.0, 2)
    theta = nc.ThetaMatrix.single_block(2, 0.1)
    psi_c, psi_p = run.inputs["star_psi"]
    phi = nc.gaussian_packet(grid, center=run.inputs["star_phi_centre"], width=1.0)
    psi = nc.gaussian_packet(grid, center=psi_c, width=1.2, momentum=psi_p)
    chk.below("criterion 9 integral identity", nc.star_integral_identity_check(phi, psi, theta),
              gates.STAR_IDENTITY)
    chk.record("criterion 9 zero-theta identity exact",
               nc.star_integral_identity_check(phi, psi, nc.ThetaMatrix.zero(2)) == 0.0)
    quartic = nc.Potential.quartic(1.0, dim=2)
    packet = nc.gaussian_packet(grid, width=1.0)
    degen = nc.star_apply(quartic, nc.ThetaMatrix.zero(2), packet)
    chk.record("criterion 9 commutative degeneration exact",
               np.array_equal(degen.values, quartic(grid.x_points) * packet.values))

    cfg = run.inputs["harmonic"]
    probe = nc.gaussian_packet(cfg.grid, width=1.1, momentum=run.inputs["star_probe_momentum"])
    kern = nc.potential_operator_kernel(cfg.potential, cfg.theta, cfg.grid)
    direct = nc.star_apply(cfg.potential, cfg.theta, probe)
    chk.below("criterion 9 kernel vs star",
              float(np.max(np.abs(kern.apply(probe).values - direct.values))),
              gates.KERNEL_VS_STAR)


def _star_check_cli(run):
    summary, _ = run.cli("star-check", "--config", run.inputs["harmonic_path"])
    for name, value, threshold, passed in summary["rows"]:
        run.checks.record(f"star-check {name}", passed == "true", f"{value} <= {threshold}")


def _literal_slice_entry(cfg, scfg, V_is_zero, out_index, in_index):
    """One kernel entry as the literal trapezoid-folded momentum sum.

    The reference of tests/test_slicer.py::test_slice_matches_brute_force,
    vectorized over momenta and written against the harmonic potential's
    formula, so that it shares no code with the slicer.
    """
    import numpy as np

    grid, theta = cfg.grid, cfg.theta.entries
    G = grid.points_per_axis
    hbar, mass = scfg.params.hbar, scfg.params.mass
    eps = scfg.epsilon
    ext = (np.arange(G + 1) - G // 2)
    weight1 = np.where(np.abs(ext) == G // 2, 0.5, 1.0)
    k = np.stack(np.meshgrid(ext, ext, indexing="ij"), axis=-1).reshape(-1, 2) * grid.dk
    weight = np.outer(weight1, weight1).reshape(-1)
    xo, xi = grid.x_points[out_index], grid.x_points[in_index]
    phase = k @ (xo - xi) / hbar - eps * np.sum(k * k, axis=-1) / (2 * mass * hbar)
    if not V_is_zero:
        xbar = (0.5 + scfg.alpha) * xo + (0.5 - scfg.alpha) * xi
        shifted = xbar + k @ theta.T
        omega = cfg.potential.coeffs["omega"]
        phase = phase - eps * 0.5 * mass * omega**2 * np.sum(shifted * shifted, axis=-1) / hbar
    norm = grid.dk**2 / (2 * np.pi * hbar) ** 2
    return complex(np.sum(weight * np.exp(1j * phase)) * norm)


def _slices(run):
    """One G=32 slice per ordering class, sampled entries checked against the literal sum."""
    import numpy as np
    import ncpath as nc

    chk = run.checks
    cfg = run.inputs["harmonic"]
    entries = run.inputs["slice_entries"]
    m = run.sizes["slice_m"]

    def agree(name, kernel_entry, scfg, v_is_zero):
        worst = max(abs(kernel_entry(o, i) - _literal_slice_entry(cfg, scfg, v_is_zero, o, i))
                    for o, i in entries)
        # tests/test_slicer.py::test_slice_matches_brute_force
        chk.below(f"{name} slice matches the literal sum", worst, 1e-12)

    for alpha, name in ((0.5, "alpha=1/2"), (0.0, "alpha=0")):
        scfg = nc.SlicingConfig(m, 1.0, alpha, cfg.params)
        kern = nc.short_time_propagator(scfg, cfg.potential, cfg.theta, cfg.grid)
        agree(name, lambda o, i, e=kern.entries: e[o, i], scfg, False)

    zero = nc.Potential.zero(2)
    free_a = nc.short_time_propagator(nc.SlicingConfig(m, 1.0, 0.5, cfg.params), zero,
                                      cfg.theta, cfg.grid)
    free_b = nc.short_time_propagator(nc.SlicingConfig(m, 1.0, -0.3, cfg.params), zero,
                                      cfg.theta, cfg.grid)
    chk.record("criterion 8 free slice bitwise alpha-independent",
               np.array_equal(free_a.entries, free_b.entries))
    agree("V=0", lambda o, i: free_a.entries[o, i], free_a.config, True)

    # generic ordering index through `ncpath kernel`: the row-wise builder
    _, out = run.cli("kernel", "--config", run.inputs["harmonic_path"], "--m", str(m),
                        "--alpha", "0.3", summary=False)
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    n = cfg.grid.size
    header = lines[0].split(",")
    chk.record("kernel artifact header",
               header[:2] == ["2", str(cfg.grid.points_per_axis)]
               and header[3:5] == [str(m), "0.29999999999999999"], lines[0])
    chk.equal("kernel artifact rows", len(lines), n + 2)  # header, n rows, final newline

    def artifact_entry(o, i):
        re, im = lines[1 + o].split(" ")[i].split(",")
        return complex(float(re), float(im))

    agree("alpha=0.3", artifact_entry, nc.SlicingConfig(m, 1.0, 0.3, cfg.params), False)


def operators(run):
    chk = run.checks
    chk.step("criterion 5", lambda: _criterion5(run))
    chk.step("symbol", lambda: _symbol_cli(run))
    chk.step("criterion 9", lambda: _criterion9(run))
    chk.step("star-check", lambda: _star_check_cli(run))
    chk.step("slices", lambda: _slices(run))


CAMPAIGNS = {"dynamics": dynamics, "exact": exact, "operators": operators}


# -- process entry ------------------------------------------------------------


def machine_record(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ncpath_threads": os.environ.get("NCPATH_THREADS", "unset (one sweep worker)"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def run_campaign(workload, seed, scale, workdir, trace=False, started=None):
    """Set up and run one campaign in this process; returns the result record.

    setup_s counts from `started` (default: now) to the end of setup.
    """
    started = time.perf_counter() if started is None else started
    inputs = setup(workload, seed, scale, workdir)
    record = {"setup_s": time.perf_counter() - started}
    run = Run(inputs)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(f"{workload}:{seed}:{os.getpid()}")
        tracer.install()
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            CAMPAIGNS[workload](run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["campaign_s"] = time.perf_counter() - t0
    record.update({
        "checks_run": run.checks.run,
        "checks_failed": run.checks.failed,
        "failures": run.checks.failures(),
        "step_s": run.checks.step_seconds,
        "edge_warnings": sum(1 for w in caught if EDGE_WARNING in str(w.message)),
        "other_warnings": sorted({str(w.message) for w in caught
                                  if EDGE_WARNING not in str(w.message)}),
        "artifact_bytes": run.artifact_bytes,
        "accuracy": run.accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_record(seed),
    })
    if tracer is not None:
        record["layers"] = dict(tracer.layer_metrics(), **{
            "slicer.edge_warnings": record["edge_warnings"],
            "cli.artifact_bytes": run.artifact_bytes,
            "oracle_l2_err": run.accuracy.get("oracle_l2_err", 0.0),
            "sweep_slope_dev": run.accuracy.get("sweep_slope_dev", 0.0),
        })
        tracer.write(Path(workdir) / f"trace-{os.getpid()}.jsonl")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed, args.scale, args.workdir)
        record = {"setup_s": time.perf_counter() - _T0}
    else:
        record = run_campaign(args.workload, args.seed, args.scale, args.workdir,
                              trace=bool(args.trace), started=_T0)
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
