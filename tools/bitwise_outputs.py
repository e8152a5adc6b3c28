"""Dump the lattice outputs of one ncpath source tree, or compare two dumps bitwise.

    PYTHONPATH=<tree>/src python tools/bitwise_outputs.py dump <tree>.npz
    python tools/bitwise_outputs.py compare parent.npz change.npz

A refactor that promises bitwise-identical results dumps from both trees and
compares.  The dump holds `short_time_propagator` entries and `propagate`
results at α ∈ {±1/2, 0, 0.3} and m ∈ {0, 3}, `split_step_evolve`,
`star_apply`, and the `build_hamiltonian_matrix` and
`potential_operator_kernel` entries, on the shipped configs and on N = 2
(G = 7, 8) and N = 3 (G = 4, 5) with harmonic, linear, separable-polynomial,
zero and quartic V, each under θ = 0, one axis pair and (N = 3) a θ that
couples three axes.  Together these reach every slice route, both table
routes and the dense route of `propagate`, and all three split-step routes.  It also holds the
bytes of `ncpath kernel` artifacts on the shipped configs at G = 8: the
factorized route at α ∈ {0.3, 1/2}, V = 0, the quartic config's grouped
route and --compose; and of `ncpath symbol` CSVs on the quartic config at
G = 8, by the closed-form and the direct method.  For the spectral oracle
it holds `oracle_compare` errors with the series' terms, spectral bounds
and Hermiticity deviation, and `chebyshev_evolve`, on the dense route
(quartic and Gaussian-well V at θ = 0) and on the axis-factored route
(harmonic V, one θ pair), at N = 2 and G = 8, with `spectral_propagator`
at T = 1 and the `adjoint_deviation` pair of each of those models' dense
H.  For the exact engine it holds, as text bytes, the `run_phi_audit` rows
at m = 3 and 4 and the values of `apply_L`, `apply_L_to_exp` and both
derivative reports on one Φ.  For the table formatter it holds the
`float_text.BlockFormatter` bytes of one fixed table (the edge values of
its tests, integer-valued floats, and 10⁵ seeded random bit patterns and
10⁵ dyadic numbers, many of which tie at 17 digits) rendered 1, 6 and 2048
columns wide: the G = 8 artifacts above never reach its '%.17g' hand-off.
`compare` exits 1 if any array differs in shape or in a single byte; for a
numeric array of one shape it prints the largest difference and the first
dump's largest entry.
"""

import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def cases(nc):
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = nc.load_config(str(path))
        yield path.stem, cfg.params, cfg.potential, cfg.theta, cfg.grid
    three = nc.ThetaMatrix([[0.0, 0.1, 0.2], [-0.1, 0.0, 0.3], [-0.2, -0.3, 0.0]])
    for N, G in ((2, 8), (2, 7), (3, 4), (3, 5)):
        params, grid = nc.PhysicsParams(dim=N), nc.PhaseSpaceGrid(G, 3.0, N)
        potentials = {
            "harmonic": nc.Potential.harmonic(1.3, 1.0, dim=N),
            "linear": nc.Potential.linear(np.linspace(0.5, -0.3, N)),
            "poly": nc.Potential.polynomial([((3,) + (0,) * (N - 1), 0.2),
                                             ((0,) * (N - 1) + (2,), 0.7), ((0,) * N, 0.4)], N),
            "zero": nc.Potential.zero(N),
            "quartic": nc.Potential.quartic(0.2, dim=N),
        }
        thetas = {"theta0": nc.ThetaMatrix.zero(N), "pair": nc.ThetaMatrix.single_block(N, 0.15)}
        if N == 3:
            thetas["three_axis"] = three
        for vname, V in potentials.items():
            for tname, theta in thetas.items():
                yield f"N{N}G{G}-{vname}-{tname}", params, V, theta, grid


# (command, shipped config, potential override, flags): every route of
# `ncpath kernel` at m = 2 and both methods of `ncpath symbol`
CLI_RUNS = [
    ("kernel", "harmonic_shifted", None, ["--m", "2", "--alpha", "0.3"]),
    ("kernel", "harmonic_shifted", None, ["--m", "2", "--alpha", "0.5"]),
    ("kernel", "harmonic_shifted", {"form": "zero"}, ["--m", "2", "--alpha", "0.3"]),
    ("kernel", "quartic_washout", None, ["--m", "2", "--alpha", "-0.17"]),
    ("kernel", "harmonic_shifted", None, ["--m", "2", "--alpha", "0.3", "--compose"]),
    ("symbol", "quartic_washout", None, ["--method", "closed-form"]),
    ("symbol", "quartic_washout", None, ["--method", "direct"]),
]


def cli_artifacts(cli):
    """(name, artifact bytes) of each CLI_RUNS command on G = 8."""
    with tempfile.TemporaryDirectory() as work:
        config_path, out = Path(work) / "config.json", Path(work) / "artifact.txt"
        for command, stem, potential, flags in CLI_RUNS:
            config = json.loads((CONFIGS / f"{stem}.json").read_text())
            config["grid"]["points_per_axis"] = 8
            if potential is not None:
                config["potential"] = potential
            config_path.write_text(json.dumps(config))
            if cli.main([command, "--config", str(config_path), *flags, "--out", str(out)]):
                raise SystemExit(f"ncpath {command} failed on {stem} {flags}")
            name = f"{command}/{stem}{'-zero' if potential else ''}/{' '.join(flags)}"
            yield name, np.frombuffer(out.read_bytes(), dtype=np.uint8)


def oracle_arrays(nc):
    """(name, array) of `oracle_compare` and `chebyshev_evolve` on both reference routes,
    and `spectral_propagator` and the `adjoint_deviation` pair of each model's dense H."""
    params, grid = nc.PhysicsParams(dim=2), nc.PhaseSpaceGrid(8, 4.0, 2)
    probe = nc.gaussian_packet(grid)
    models = {
        "dense-quartic": (nc.Potential.quartic(0.1), nc.ThetaMatrix.zero(2)),
        "dense-gaussian_well": (nc.Potential.gaussian_well(1.0, 1.5), nc.ThetaMatrix.zero(2)),
        "factored-harmonic": (nc.Potential.harmonic(1.3, 1.0, dim=2),
                              nc.ThetaMatrix.single_block(2, 0.15)),
    }
    for name, (V, theta) in models.items():
        stats = {}
        rows = nc.oracle_compare(V, theta, grid, params, 1.0, [2, 4], probe, timings=stats)
        yield f"oracle_compare/{name}", np.array(
            [value for row in rows for value in row]
            + [stats["terms"], *stats["spectral_bounds"], stats["hermiticity_deviation"]])
        stats = {}
        H = nc.build_hamiltonian_matrix(V, theta, grid, params)
        yield f"chebyshev_evolve/{name}", nc.chebyshev_evolve(H, 1.0, probe, stats).values
        yield f"chebyshev_evolve/{name}/stats", np.array(
            [stats["terms"], *stats["spectral_bounds"], stats["hermiticity_deviation"]])
        yield f"spectral_propagator/{name}", nc.spectral_propagator(H, 1.0).entries
        yield f"adjoint_deviation/{name}", np.array(H.adjoint_deviation())


def phi_texts():
    """(name, text bytes) of the audit rows and the derivative values of one Φ."""
    from fractions import Fraction as F

    from ncpath import phi_engine as pe

    def text(lines):
        return np.frombuffer("\n".join(map(str, lines)).encode(), dtype=np.uint8)

    for m in (3, 4):
        report = pe.run_phi_audit(m, [F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 2)])
        yield f"phi_audit/{m}", text(f"{r.name}|{r.passed}|{r.detail}" for r in report.rows)
    theta = [[F(0), F(1, 10)], [F(-1, 10), F(0)]]
    phi = pe.build_phi(pe.PhiContext(3, F(3, 2), F(1, 4)), theta, [F(3), F(1)], [F(5), F(-2)])
    labels = [(a, i) for a in range(4) for i in range(2)]
    yield "phi_engine/first", text(
        (pe.first_derivative_report(phi, a, i), sorted(pe.apply_L(phi, [(a, i)]).terms.items()))
        for a, i in labels)
    yield "phi_engine/second", text(
        (pe.second_derivative_report(phi, a, b, i, j), pe.apply_L(phi, [(a, i), (b, j)]).at_zero())
        for a, i in labels for b, j in labels)
    yield "phi_engine/exp", text(
        pe.apply_L_to_exp(phi, labels[k:k + count]) for count in (1, 2, 3, 4)
        for k in range(0, len(labels) - count + 1, 2))


def formatter_texts():
    """(name, text bytes) of one fixed table rendered 1, 6 and 2048 columns wide."""
    from ncpath.float_text import BlockFormatter

    rng = np.random.default_rng(35)
    edges = [2.0 ** -25, 9.9999999999999998e-249, 1e16, 1e17, 1e-4, 1e-5, 1e-100, 1e100,
             5e-324, 1.7976931348623157e308, -0.0, 0.0, np.nan, np.inf, -np.inf, 0.1, -0.4,
             123456.78125, 1.5, 99999999999999999.0]
    integers = np.concatenate([np.arange(-1000, 1001), rng.integers(-10 ** 16, 10 ** 16, 5000),
                               10 ** np.arange(17), -(10 ** np.arange(17))])
    bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    dyadic = np.ldexp(rng.integers(1, 2 ** 24, 10 ** 5).astype(np.float64),
                      rng.integers(-90, 10, 10 ** 5))
    values = np.concatenate([edges, integers, bits, dyadic]).astype(np.float64)
    for separators in (b"\n", b", ;,,\n", b" " * 2047 + b"\n"):
        columns = len(separators)
        table = values[:len(values) // columns * columns].reshape(-1, columns)
        yield f"float_text/{columns}", np.frombuffer(
            b"".join(BlockFormatter(separators)(table)), dtype=np.uint8)


def dump(out):
    import ncpath as nc
    import ncpath.cli

    warnings.simplefilter("ignore")  # coarse slices warn about the momentum edge
    arrays = {}
    for name, params, V, theta, grid in cases(nc):
        probe = nc.gaussian_packet(grid)
        for alpha in (0.5, -0.5, 0.0, 0.3):
            for m in (0, 3):
                cfg = nc.SlicingConfig(m, 1.0, alpha, params)
                if grid.size <= 256 or m == 0:
                    arrays[f"slice/{name}/{alpha}/{m}"] = \
                        nc.short_time_propagator(cfg, V, theta, grid).entries
                arrays[f"propagate/{name}/{alpha}/{m}"] = \
                    nc.propagate(cfg, V, theta, grid, probe).values
        arrays[f"split_step/{name}"] = nc.split_step_evolve(probe, V, theta, params, 0.4, 5).values
        arrays[f"star_apply/{name}"] = nc.star_apply(V, theta, probe).values
        arrays[f"hamiltonian/{name}"] = nc.build_hamiltonian_matrix(V, theta, grid, params).entries
        arrays[f"potential_kernel/{name}"] = nc.potential_operator_kernel(V, theta, grid).entries
    arrays.update(cli_artifacts(ncpath.cli))
    arrays.update(oracle_arrays(nc))
    arrays.update(phi_texts())
    arrays.update(formatter_texts())
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays written to {out}")


def compare(first, second):
    a, b = np.load(first), np.load(second)
    if sorted(a.files) != sorted(b.files):
        print("the dumps hold different arrays:", sorted(set(a.files) ^ set(b.files)))
        return 1
    differ = [key for key in a.files
              if a[key].shape != b[key].shape or a[key].tobytes() != b[key].tobytes()]
    for key in differ:
        x, y = a[key], b[key]
        if x.shape == y.shape and x.dtype.kind in "fc" and x.size:
            gap, top = np.max(np.abs(x - y)), np.max(np.abs(x))
            print(f"differs: {key} (largest difference {gap:.2g}, largest entry {top:.2g})")
        else:
            print("differs:", key)
    print(f"{len(a.files)} arrays compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
