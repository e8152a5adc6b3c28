import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

CONFIG = {
    "dim": 2,
    "hbar": 1.0,
    "mass": 1.0,
    "theta": [[0.0, 0.1], [-0.1, 0.0]],
    "grid": {"points_per_axis": 8, "box_half_width": 5.0},
    "potential": {"form": "harmonic", "coefficients": {"omega": 1.0}},
    "probe": {"width": 0.9},
}


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "ncpath", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def test_phi_audit_passes_and_prints_table():
    result = run_cli("phi-audit", "--m", "3", "--alphas", "-0.5,0,0.5")
    assert result.returncode == 0
    assert "PASS" in result.stdout
    assert "FAIL" not in result.stdout


def test_limit_check_exact_rows():
    result = run_cli("limit-check", "--m-list", "2,10,100,1000")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "m,value,gap_to_T_squared,expected_gap,pass"
    assert lines[1].startswith("2,2/3,1/3,1/3,true")
    assert lines[-1].startswith("1000,1000/1001,1/1001")


def test_star_check_passes(tmp_path):
    # identity residuals are quadrature-limited: use a resolved grid
    cfg = dict(CONFIG)
    cfg["grid"] = {"points_per_axis": 16, "box_half_width": 5.0}
    path = tmp_path / "resolved.json"
    path.write_text(json.dumps(cfg))
    result = run_cli("star-check", "--config", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "check,value,threshold,pass"


def test_star_check_flags_unresolved_grid(config_path):
    # the same audit reports failure (exit 1) on an under-resolved grid
    result = run_cli("star-check", "--config", config_path)
    assert result.returncode == 1
    assert "false" in result.stdout


@pytest.mark.parametrize("key, value", [("probe", []), ("probe", 3), ("grid", None),
                                        ("hbar", "1"), ("dim", True)])
def test_malformed_config_section_names_it_and_exits_2(tmp_path, key, value):
    # a section of the wrong type, or a string or bool for a number, is a
    # configuration error (exit 2), not a crash (exit 1 is a failed check)
    broken = dict(CONFIG, **{key: value})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    result = run_cli("star-check", "--config", str(path))
    assert result.returncode == 2
    assert f"configuration error: {key}:" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_config_key_names_it_and_exits_2(tmp_path):
    broken = dict(CONFIG)
    del broken["theta"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    result = run_cli("star-check", "--config", str(path))
    assert result.returncode == 2
    assert "theta" in result.stderr


def test_unknown_subcommand_exits_2():
    result = run_cli("definitely-not-a-command")
    assert result.returncode == 2


def test_alpha_sweep_csv_shape_and_determinism(config_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        result = run_cli("alpha-sweep", "--config", config_path,
                         "--m-list", "2,4,8", "--alphas", "0.5,-0.5",
                         "--out", str(out))
        assert result.returncode == 0, result.stderr
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "m,alpha_pair,spread"
    assert lines[-1].startswith("# slope,")


def test_alpha_sweep_summary_reports_norm_ratios(config_path, tmp_path):
    # one row per (m, α); at α = 1/2 each ratio is the one `unitarity` reports
    sweep, unitarity = tmp_path / "sweep.json", tmp_path / "unitarity.json"
    assert _run_in_process("alpha-sweep", "--config", config_path, "--m-list", "2,4,8",
                           "--alphas", "0.5,-0.5", "--out", str(tmp_path / "s.csv"),
                           "--summary", str(sweep)) == 0
    assert _run_in_process("unitarity", "--config", config_path, "--m-list", "2,4,8",
                           "--alpha", "0.5", "--out", str(tmp_path / "u.csv"),
                           "--summary", str(unitarity)) == 0
    payload = json.loads(sweep.read_text())
    assert [row[:2] for row in payload["norm_ratios"]] == [
        [m, a] for m in ("2", "4", "8") for a in ("0.5", "-0.5")]
    assert all(abs(float(row[2]) - 1.0) < 0.05 for row in payload["norm_ratios"])
    half = [[m, ratio] for m, a, ratio in payload["norm_ratios"] if a == "0.5"]
    assert half == json.loads(unitarity.read_text())["rows"]
    assert set(payload) >= {"rows", "slope", "residual"}


def test_alpha_sweep_zero_potential_spreads_are_zero(config_path, tmp_path):
    cfg = dict(CONFIG)
    cfg["potential"] = {"form": "zero"}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    result = run_cli("alpha-sweep", "--config", str(path), "--m-list", "1,2,4")
    assert result.returncode == 0
    for line in result.stdout.strip().splitlines()[1:]:
        if line.startswith("#"):
            continue
        assert line.rsplit(",", 1)[1] == "0"


def test_kernel_file_format(config_path, tmp_path):
    out = tmp_path / "kernel.txt"
    result = run_cli("kernel", "--config", config_path, "--m", "1",
                     "--alpha", "0.5", "--total-time", "1.0", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    # N, G, L, m, alpha, T, hbar, mass, then N*N theta entries
    assert header[:2] == ["2", "8"]
    assert len(header) == 8 + 4
    assert len(lines) == 1 + 64
    first_entry = lines[1].split(" ")[0]
    assert "," in first_entry  # "re,im" pairs


def test_summary_json_written(config_path, tmp_path):
    summary = tmp_path / "summary.json"
    result = run_cli("unitarity", "--config", config_path, "--m-list", "2,4",
                     "--summary", str(summary), "--out", str(tmp_path / "u.csv"))
    assert result.returncode == 0, result.stderr
    payload = json.loads(summary.read_text())
    assert payload["command"] == "unitarity"
    assert payload["identity_set_version"] == 1
    assert len(payload["config_sha256"]) == 64
    assert payload["columns"] == ["m", "norm_ratio"]


@pytest.mark.parametrize("compose", [False, True])
def test_kernel_summary_written(config_path, tmp_path, compose):
    summary = tmp_path / "kernel.json"
    argv = ["kernel", "--config", config_path, "--m", "2", "--alpha", "-0.17",
            "--out", str(tmp_path / "k.txt"), "--summary", str(summary)]
    code = _run_in_process(*argv, *(["--compose"] if compose else []))
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["command"] == "kernel"
    assert len(payload["config_sha256"]) == 64
    assert payload["m"] == 2
    assert float(payload["alpha"]) == -0.17
    assert payload["compose"] is compose
    # G = 8 on a half-width 5 box: Δk = 2π/(8·1.25), corner k² = 2·(4Δk)², ε = 1/3
    dk = 2 * math.pi / (8 * 1.25)
    expected = (1.0 / 3) * 2 * (4 * dk) ** 2 / 2.0 / (2 * math.pi)
    assert float(payload["edge_phase_turns"]) == pytest.approx(expected, rel=1e-12)


def test_kernel_on_a_grid_too_big_for_a_dense_kernel_exits_2(tmp_path, capsys):
    # G = 128, N = 2: one kernel would take 4.3 GB
    config = json.loads(json.dumps(CONFIG))
    config["grid"]["points_per_axis"] = 128
    config_file = tmp_path / "big.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "k.txt"
    code = _run_in_process("kernel", "--config", str(config_file), "--out", str(out))
    assert code == 2
    assert "grid.points_per_axis" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_into_a_missing_directory_names_the_out_path(config_path, tmp_path, capsys):
    out = tmp_path / "nodir" / "x.txt"
    code = _run_in_process("kernel", "--config", config_path, "--m", "1", "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert str(out) in err
    assert ".tmp" not in err
    assert not out.parent.exists()


def test_symbol_on_a_grid_too_big_for_a_dense_table_exits_2(tmp_path, capsys, monkeypatch):
    import ncpath.core

    monkeypatch.setattr(ncpath.core, "_DENSE_POINTS", 64)  # G = 9, N = 2 has 81 points
    config = json.loads(json.dumps(CONFIG))
    config["grid"]["points_per_axis"] = 9
    config_file = tmp_path / "nine.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "symbol.csv"
    code = _run_in_process("symbol", "--config", str(config_file), "--out", str(out))
    assert code == 2
    assert "grid.points_per_axis" in capsys.readouterr().err
    assert not out.exists()


def test_symbol_at_alpha_minus_half_needs_the_direct_method(config_path, tmp_path, capsys,
                                                            monkeypatch):
    # the closed form divides by alpha + 1/2: refused by name before V(x + θk) is built
    import ncpath.weyl

    out = tmp_path / "symbol.csv"
    args = ["symbol", "--config", config_path, "--alphas", "-0.5,0", "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(ncpath.weyl, "evaluate_potential_shifted",
                      lambda *a: pytest.fail("V(x + θk) was built"))
        assert _run_in_process(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: alpha:") and "direct method" in err
    assert not out.exists()
    assert _run_in_process(*args, "--method", "direct") == 0


def test_symbol_csv_columns(config_path, tmp_path):
    out = tmp_path / "symbol.csv"
    result = run_cli("symbol", "--config", config_path, "--alphas", "-0.4,0.4",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,k_index,x_index,re,im,deviation"
    # two alphas over an 8x8 grid: 2 * 64 * 64 data rows plus two footer rows
    assert len(lines) == 1 + 2 * 64 * 64 + 2


# every subcommand that writes a header line and rows under it
_ROW_COMMANDS = {"symbol": ["--alphas", "-0.4,0.4"], "star-check": [],
                 "alpha-sweep": ["--m-list", "2,4,8"], "oracle-compare": ["--m-list", "2"],
                 "unitarity": ["--m-list", "2"], "phi-audit": ["--m", "4"], "limit-check": []}


@pytest.mark.parametrize("command", list(_ROW_COMMANDS))
def test_every_row_artifact_parses_to_its_header_width(config_path, tmp_path, command):
    # phi-audit's details hold commas, so its fields are quoted as RFC 4180
    # quotes them; footers such as alpha-sweep's '# slope' row count too
    import csv

    out = tmp_path / "out.csv"
    setup = [] if command in ("phi-audit", "limit-check") else ["--config", config_path]
    assert _run_in_process(command, *setup, *_ROW_COMMANDS[command], "--out", str(out)) in (0, 1)
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert rows
    assert {len(row) for row in rows} == {len(header)}, command


def test_phi_audit_quotes_only_fields_that_need_it(tmp_path):
    out = tmp_path / "audit.csv"
    assert _run_in_process("phi-audit", "--m", "4", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "identity,status,detail"
    quoted = [line for line in lines if '"' in line]
    assert quoted and all(line.count(",") > 2 for line in quoted)
    assert all(line.count(",") == 2 for line in lines if '"' not in line)


_PROBE_COMMANDS = {"star-check": [], "alpha-sweep": ["--m-list", "2,4,8"],
                   "oracle-compare": ["--m-list", "2"], "unitarity": ["--m-list", "2"]}


@pytest.mark.parametrize("command", list(_PROBE_COMMANDS))
def test_probe_width_flag_overrides_config(config_path, command):
    args = _PROBE_COMMANDS[command]
    base = run_cli(command, "--config", config_path, *args)
    overridden = run_cli(command, "--config", config_path, *args, "--probe-width", "0.6")
    expected = 1 if command == "star-check" else 0  # star-check fails on this coarse grid
    assert base.returncode == overridden.returncode == expected
    assert base.stdout != overridden.stdout


@pytest.mark.parametrize("command", ["kernel", "symbol"])
def test_probe_width_is_refused_where_no_probe_is_built(config_path, command):
    result = run_cli(command, "--config", config_path, "--probe-width", "0.6")
    assert result.returncode == 2
    assert "unrecognized arguments: --probe-width" in result.stderr
    assert result.stdout == ""


def _run_in_process(*args):
    import ncpath.cli

    return ncpath.cli.main(list(args))


def test_oracle_compare_builds_one_spectral_reference(config_path, tmp_path, monkeypatch):
    import ncpath.oracle

    calls = []
    original = ncpath.oracle._chebyshev_series

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ncpath.oracle, "_chebyshev_series", counted)
    summary = tmp_path / "oracle.json"
    code = _run_in_process("oracle-compare", "--config", config_path, "--m-list", "2,4,8",
                           "--out", str(tmp_path / "oracle.csv"), "--summary", str(summary))
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(summary.read_text())
    assert payload["columns"] == ["m", "l2_error_vs_spectral", "runtime_seconds"]
    assert [row[0] for row in payload["rows"]] == ["2", "4", "8"]
    assert float(payload["reference_seconds"]) > 0.0
    assert all(float(row[2]) > 0.0 for row in payload["rows"])
    assert payload["reference_terms"] > 1
    lo, hi = (float(b) for b in payload["spectral_bounds"])
    assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
    deviation = float(payload["hermiticity_deviation"])
    assert math.isfinite(deviation) and 0.0 <= deviation < 1e-8
    # harmonic V with one axis pair factors by axis: no dense H, exact bounds
    assert payload["reference_route"] == "axis-factored"
    assert deviation == 0.0


def test_oracle_compare_output_is_identical_but_for_its_wall_clock_fields(config_path, tmp_path):
    # the one exception to byte-identical artifacts: the runtime_seconds
    # column (the CSV's last, mirrored in the summary's rows) and the
    # summary's reference_seconds
    runs = []
    for run in ("first", "second"):
        out, summary = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
        assert _run_in_process("oracle-compare", "--config", config_path, "--m-list", "2,4",
                               "--out", str(out), "--summary", str(summary)) == 0
        csv = "\n".join(line.rsplit(",", 1)[0] for line in out.read_text().splitlines())
        payload = json.loads(summary.read_text())
        del payload["reference_seconds"]
        payload["rows"] = [row[:-1] for row in payload["rows"]]
        runs.append((csv, json.dumps(payload, sort_keys=True)))
    assert runs[0] == runs[1]


def test_oracle_compare_summary_names_the_dense_route(tmp_path):
    # quartic V does not factor by axis; at θ = 0 its dense H is Hermitian
    config = json.loads(json.dumps(CONFIG))
    config["theta"] = [[0.0, 0.0], [0.0, 0.0]]
    config["potential"] = {"form": "quartic", "coefficients": {"lambda": 0.1}}
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(config))
    summary = tmp_path / "oracle.json"
    assert _run_in_process("oracle-compare", "--config", str(path), "--m-list", "2",
                           "--out", str(tmp_path / "oracle.csv"), "--summary", str(summary)) == 0
    payload = json.loads(summary.read_text())
    assert payload["reference_route"] == "dense"
    assert 0.0 <= float(payload["hermiticity_deviation"]) < 1e-8


def test_oracle_compare_on_a_grid_too_big_for_its_slices_exits_2_before_the_reference(
        tmp_path, capsys, monkeypatch):
    import ncpath.oracle

    def refuse(*args):
        raise AssertionError("a reference Hamiltonian was built")

    monkeypatch.setattr(ncpath.oracle, "_factored_hamiltonian", refuse)
    monkeypatch.setattr(ncpath.oracle, "build_hamiltonian_matrix", refuse)
    config = json.loads(json.dumps(CONFIG))
    config["grid"]["points_per_axis"] = 65  # 4225 points, past the dense-kernel limit
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    assert _run_in_process("oracle-compare", "--config", str(path), "--m-list", "2") == 2
    assert "grid.points_per_axis" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("oracle-compare", "--total-time", "nan"),
    ("oracle-compare", "--total-time", "0"),
    ("oracle-compare", "--probe-width", "nan"),
    ("oracle-compare", "--probe-width", "0"),
    ("oracle-compare", "--probe-width", "-1"),
    ("unitarity", "--total-time", "inf"),
    ("unitarity", "--probe-width", "-inf"),
    ("alpha-sweep", "--total-time", "-1"),
    ("kernel", "--total-time", "nan"),
])
def test_non_finite_or_non_positive_time_and_width_exit_2(config_path, command, flag, value):
    result = run_cli(command, "--config", config_path, flag, value)
    assert result.returncode == 2
    assert flag in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("width", [0.0, -0.5])
def test_non_positive_config_probe_width_is_rejected(tmp_path, capsys, width):
    config = json.loads(json.dumps(CONFIG))
    config["probe"]["width"] = width
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    code = _run_in_process("unitarity", "--config", str(config_file), "--m-list", "1")
    assert code == 2
    assert "probe.width" in capsys.readouterr().err


@pytest.mark.parametrize("command, m_list", [("alpha-sweep", "8,2,4"),
                                             ("oracle-compare", "8,2,4"),
                                             ("unitarity", "8,2,4")])
def test_summary_reports_edge_phase_at_smallest_m(config_path, tmp_path, command, m_list):
    summary = tmp_path / "summary.json"
    code = _run_in_process(command, "--config", config_path, "--m-list", m_list,
                           "--out", str(tmp_path / "out.csv"), "--summary", str(summary))
    assert code == 0
    payload = json.loads(summary.read_text())
    # G = 8 on a half-width 5 box: Δk = 2π/(8·1.25), corner k² = 2·(4Δk)²
    dk = 2 * math.pi / (8 * 1.25)
    expected = (1.0 / 3) * 2 * (4 * dk) ** 2 / 2.0 / (2 * math.pi)
    assert float(payload["edge_phase_turns"]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("command, flag", [
    *(pytest.param(c, "--m-list", id=c)
      for c in ["limit-check", "alpha-sweep", "oracle-compare", "unitarity"]),
    *(pytest.param(c, "--alphas", id=f"{c}---alphas")
      for c in ["symbol", "alpha-sweep", "phi-audit"]),
])
def test_empty_m_list_is_rejected(config_path, command, flag):
    setup = {"phi-audit": ["--m", "3"], "limit-check": []}.get(command, ["--config", config_path])
    result = run_cli(command, *setup, flag, " , ")
    assert result.returncode == 2
    assert f"{flag}: needs at least one value" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command, values", [("phi-audit", "-1/2,0,1/2"),
                                             ("alpha-sweep", "0.5,-0.5")])
def test_blank_alphas_entries_are_skipped(config_path, command, values):
    setup = ["--m", "3"] if command == "phi-audit" else ["--config", config_path,
                                                         "--m-list", "2,4,8"]
    plain = run_cli(command, *setup, "--alphas", values)
    blank = run_cli(command, *setup, "--alphas", values.replace(",", ",,", 1))
    assert plain.returncode == blank.returncode == 0, blank.stderr
    assert blank.stdout == plain.stdout


@pytest.mark.parametrize("command, flag, value", [
    ("alpha-sweep", "--m-list", "4,x"),
    ("oracle-compare", "--m-list", "4.5"),
    ("alpha-sweep", "--alphas", "0.5,abc"),
    ("symbol", "--alphas", "abc"),
    ("phi-audit", "--alphas", "0,abc"),
    ("phi-audit", "--theta", "abc"),
    ("phi-audit", "--total-time", "1/0"),
    ("limit-check", "--total-time", "abc"),
])
def test_unreadable_flag_value_names_the_flag(config_path, capsys, command, flag, value):
    setup = {"phi-audit": ["--m", "3"], "limit-check": []}.get(command, ["--config", config_path])
    code = _run_in_process(command, *setup, flag, value)
    assert code == 2
    captured = capsys.readouterr()
    assert f"{flag}: cannot read" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("path, value", [
    (("hbar",), float("nan")),
    (("mass",), float("inf")),
    (("grid", "box_half_width"), float("nan")),
    (("potential", "coefficients", "omega"), float("nan")),
    (("probe", "center"), [float("nan"), 0.0]),
    (("theta",), [[0.0, float("inf")], [float("-inf"), 0.0]]),
    (("dim",), 2.7),
    (("grid", "points_per_axis"), 8.9),
    (("potential",), {"form": "polynomial",
                      "coefficients": {"terms": [{"powers": [1.5, 0], "c": 1.0}]}}),
])
def test_non_finite_or_fractional_config_is_rejected(tmp_path, capsys, path, value):
    config = json.loads(json.dumps(CONFIG))
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))  # NaN and Infinity as JSON literals
    code = _run_in_process("unitarity", "--config", str(config_file), "--m-list", "1")
    assert code == 2
    assert ".".join(path) in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["1", "0"])
def test_phi_audit_rejects_dimension_below_two(dim):
    result = run_cli("phi-audit", "--m", "3", "--dim", dim)
    assert result.returncode == 2
    assert "--dim" in result.stderr
    assert "PASS" not in result.stdout and "FAIL" not in result.stdout


def _literal(value):
    """The artifact spelling of one value: 17 significant digits, str() otherwise."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _literal_kernel_text(cfg, m, alpha, total_time, entries):
    grid = cfg.grid
    header = [grid.dim, grid.points_per_axis, grid.box_half_width, m, alpha, total_time,
              cfg.params.hbar, cfg.params.mass, *cfg.theta.entries.reshape(-1).tolist()]
    lines = [",".join(_literal(v) for v in header)]
    for row in entries:
        lines.append(" ".join(f"{_literal(float(v.real))},{_literal(float(v.imag))}"
                              for v in row))
    return "\n".join(lines) + "\n"


def test_kernel_artifact_bytes_match_literal_rendering(config_path, tmp_path, capsys):
    import ncpath
    from ncpath.slicer import SlicingConfig, short_time_propagator

    cfg = ncpath.load_config(config_path)
    kernel = short_time_propagator(SlicingConfig(2, 1.0, 0.3, cfg.params), cfg.potential,
                                   cfg.theta, cfg.grid)
    expected = _literal_kernel_text(cfg, 2, 0.3, 1.0, kernel.entries)
    out = tmp_path / "kernel.txt"
    args = ("kernel", "--config", config_path, "--m", "2", "--alpha", "0.3")
    assert _run_in_process(*args, "--out", str(out)) == 0
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    assert _run_in_process(*args) == 0
    assert capsys.readouterr().out == expected


def test_kernel_artifact_into_a_text_only_stdout(config_path):
    """Without --out the bytes go to stdout's byte stream; a stdout with none
    beneath it (io.StringIO) gets the same text."""
    import contextlib
    import io

    import ncpath
    from ncpath.slicer import SlicingConfig, short_time_propagator

    cfg = ncpath.load_config(config_path)
    kernel = short_time_propagator(SlicingConfig(2, 1.0, 0.3, cfg.params), cfg.potential,
                                   cfg.theta, cfg.grid)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert _run_in_process("kernel", "--config", config_path, "--m", "2", "--alpha", "0.3") == 0
    assert text.getvalue() == _literal_kernel_text(cfg, 2, 0.3, 1.0, kernel.entries)


def test_kernel_artifact_spells_special_values_like_the_literal(tmp_path, monkeypatch, capsys):
    import ncpath
    import ncpath.slicer

    config = {"dim": 1, "theta": [[0.0]],
              "grid": {"points_per_axis": 2, "box_half_width": 1.0},
              "potential": {"form": "zero"}}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(config))
    cfg = ncpath.load_config(str(path))
    special = np.array([-0.0, 5e-324, 1e300, 1.0, np.nan, np.inf, -np.inf, 0.1])
    entries = special.view(complex).reshape(2, 2)  # (re, im) pairs, -0.0 kept
    # the artifact's rows come from a held kernel of these values
    monkeypatch.setattr(ncpath.slicer, "slice_row_blocks",
                        lambda *args: ncpath.slicer._held_row_blocks(entries, cfg.grid))
    assert _run_in_process("kernel", "--config", str(path)) == 0
    text = capsys.readouterr().out
    assert text == _literal_kernel_text(cfg, 0, 0.0, 1.0, entries)
    assert text.splitlines()[1:] == ["-0,4.9406564584124654e-324 1.0000000000000001e+300,1",
                                     "nan,inf -inf,0.10000000000000001"]


def test_symbol_artifact_bytes_match_literal_rendering(config_path, tmp_path):
    import ncpath
    from ncpath.weyl import verify_alpha_washout

    cfg = ncpath.load_config(config_path)
    report = verify_alpha_washout(cfg.potential, cfg.theta, cfg.grid, [-0.4, 0.0, 0.4])
    target = cfg.potential(
        cfg.grid.x_points[None, :, :] + cfg.theta.shift(cfg.grid.k_points)[:, None, :])
    rows = []
    for a, sym in zip(report.alphas, report.symbols):
        for ki in range(cfg.grid.size):
            for xi in range(cfg.grid.size):
                v = sym.values[ki, xi]
                rows.append([_literal(a), str(ki), str(xi), _literal(float(v.real)),
                             _literal(float(v.imag)),
                             _literal(float(abs(v - target[ki, xi])))])
    footer = [["# max_pairwise_abs", _literal(report.max_pairwise_abs), "", "", "", ""],
              ["# max_pairwise_relative", _literal(report.max_pairwise_relative),
               "", "", "", ""]]
    expected = "".join(",".join(row) + "\n" for row in
                       [["alpha", "k_index", "x_index", "re", "im", "deviation"], *rows,
                        *footer])
    plain, with_summary, summary = (tmp_path / name for name in
                                    ("plain.csv", "summary.csv", "summary.json"))
    assert _run_in_process("symbol", "--config", config_path, "--out", str(plain)) == 0
    assert _run_in_process("symbol", "--config", config_path, "--out", str(with_summary),
                           "--summary", str(summary)) == 0
    assert plain.read_bytes() == expected.encode()
    assert with_summary.read_bytes() == expected.encode()
    payload = json.loads(summary.read_text())
    assert payload["rows"] == []
    assert [payload[key] for key in ("max_pairwise_abs", "max_pairwise_relative")] == \
        [_literal(report.max_pairwise_abs), _literal(report.max_pairwise_relative)]
    assert payload["method"] == report.method


@pytest.fixture
def forked_formatting(monkeypatch):
    """Put every table on the fork path of `_formatted_rows`: three row ranges,
    small render calls and small copy chunks that end mid-line.  Returns the child pids."""
    import ncpath.cli
    import ncpath.float_text

    children = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(ncpath.cli, "_MIN_RANGE_VALUES", 1)
    monkeypatch.setattr(ncpath.float_text, "_CALL_VALUES", 300)
    monkeypatch.setattr(ncpath.cli, "_COPY_BYTES", 1000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return children


def test_kernel_artifact_bytes_on_the_fork_path(config_path, tmp_path, capsys,
                                                 forked_formatting):
    test_kernel_artifact_bytes_match_literal_rendering(config_path, tmp_path, capsys)
    assert len(forked_formatting) == 4  # two children for --out, two for stdout


def test_kernel_special_values_on_the_fork_path(tmp_path, monkeypatch, capsys,
                                                forked_formatting):
    test_kernel_artifact_spells_special_values_like_the_literal(tmp_path, monkeypatch, capsys)
    assert len(forked_formatting) == 1  # two rows: one for this process, one for a child


def test_symbol_artifact_bytes_on_the_fork_path(config_path, tmp_path, forked_formatting):
    test_symbol_artifact_bytes_match_literal_rendering(config_path, tmp_path)
    assert len(forked_formatting) == 4  # two children for each of the two runs


@pytest.mark.parametrize("missing", ["one core", "os.fork", "os.sched_getaffinity"])
def test_formatting_stays_serial_without_a_second_core_or_fork(
        config_path, tmp_path, capsys, monkeypatch, missing):
    import ncpath.cli

    monkeypatch.setattr(ncpath.cli, "_MIN_RANGE_VALUES", 1)
    if missing == "one core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one core"))
    else:
        monkeypatch.delattr(missing, raising=False)
    test_kernel_artifact_bytes_match_literal_rendering(config_path, tmp_path, capsys)


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_failed_formatting_child_exits_non_zero(config_path, tmp_path, capsys, monkeypatch,
                                                forked_formatting, failure):
    import signal

    import ncpath.cli

    original = ncpath.cli._format_range

    def failing_in_children(fmt, block, start, stop):
        if start > 0:  # a later range: only children format those
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("formatting failed")
        return original(fmt, block, start, stop)

    monkeypatch.setattr(ncpath.cli, "_format_range", failing_in_children)
    out = tmp_path / "kernel.txt"
    args = ("kernel", "--config", config_path, "--m", "2", "--alpha", "0.3")
    assert _run_in_process(*args, "--out", str(out)) == 2
    assert "worker" in capsys.readouterr().err
    # the artifact is whole or absent, and its temporary file is gone
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    assert _run_in_process(*args) == 2
    captured = capsys.readouterr()
    assert "worker" in captured.err
    assert len(captured.out.splitlines()) < 1 + 64  # the rows stop at the failed range
    assert len(forked_formatting) == 4
    for pid in forked_formatting:  # every child was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _kernel_config(tmp_path, dim=2, points=8, form="harmonic", half_width=5.0):
    """CONFIG in dim dimensions (θ pairs axes 0 and 1) with the given grid and V."""
    theta = np.zeros((dim, dim))
    if dim > 1:
        theta[0, 1], theta[1, 0] = 0.1, -0.1
    coefficients = {"harmonic": {"omega": 1.0}, "quartic": {"lambda": 1.0}, "zero": {}}
    config = {**CONFIG, "dim": dim, "theta": theta.tolist(),
              "grid": {"points_per_axis": points, "box_half_width": half_width},
              "potential": {"form": form, "coefficients": coefficients[form]}}
    path = tmp_path / f"kernel-{dim}-{points}-{form}-{half_width}.json"
    path.write_text(json.dumps(config))
    return str(path)


# (config, --m, --alpha, --compose, whether V(x + θk) factors by axis); the
# factorized route at α = 0.3 is test_kernel_artifact_bytes_match_literal_rendering
KERNEL_ROUTES = {
    "factorized+1/2": ({}, 2, 0.5, False, True),
    "factorized-1/2": ({}, 2, -0.5, False, True),
    "zero": ({"form": "zero"}, 1, 0.3, False, True),
    "grouped-quartic": ({"form": "quartic"}, 2, -0.17, False, False),
    "compose": ({}, 2, 0.3, True, True),
    "N1-G7": ({"dim": 1, "points": 7}, 2, 0.3, False, True),
    "N3-G5": ({"dim": 3, "points": 5}, 2, -0.17, False, True),
}


@pytest.mark.parametrize("path", ["serial", "forked"])
@pytest.mark.parametrize("route", list(KERNEL_ROUTES))
def test_kernel_artifact_bytes_on_every_route(tmp_path, capsys, request, route, path):
    import ncpath
    from ncpath.core import _axis_factors
    from ncpath.slicer import SlicingConfig, full_kernel, short_time_propagator

    overrides, m, alpha, compose, factored = KERNEL_ROUTES[route]
    config_path = _kernel_config(tmp_path, **overrides)
    cfg = ncpath.load_config(config_path)
    assert (_axis_factors(cfg.potential, cfg.theta) is not None) == factored
    scfg = SlicingConfig(m, 1.0, alpha, cfg.params)
    build = full_kernel if compose else short_time_propagator
    expected = _literal_kernel_text(cfg, m, alpha, 1.0,
                                    build(scfg, cfg.potential, cfg.theta, cfg.grid).entries)
    children = request.getfixturevalue("forked_formatting") if path == "forked" else None
    args = ("kernel", "--config", config_path, "--m", str(m), "--alpha", str(alpha),
            *(["--compose"] if compose else []))
    out = tmp_path / "kernel.txt"
    assert _run_in_process(*args, "--out", str(out)) == 0
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    assert _run_in_process(*args) == 0
    assert capsys.readouterr().out == expected
    if children is not None:
        assert len(children) == 4  # two children for --out, two for stdout


def test_kernel_artifact_holds_no_slice_sized_array(tmp_path, monkeypatch):
    """On the factorized route the command holds the per-axis tables and one
    row block (n²/G entries), not the n×n slice: G = 32, N = 2 is traced
    formatting serially, so this one process builds every block."""
    import tracemalloc

    import ncpath.cli

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    out = tmp_path / "kernel.txt"
    args = ["--m", "8", "--alpha", "0.3", "--out", str(out)]
    small = _kernel_config(tmp_path, points=4)
    assert ncpath.cli.main(["kernel", "--config", small, *args]) == 0  # the imports
    config_path = _kernel_config(tmp_path, points=32, half_width=7.0)
    tracemalloc.start()
    try:
        code = ncpath.cli.main(["kernel", "--config", config_path, *args])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    kernel_bytes = (32 * 32) ** 2 * 16
    assert out.stat().st_size > 2 * kernel_bytes  # the whole text was written
    assert peak < 0.25 * kernel_bytes, f"peak {peak} B for a {kernel_bytes} B kernel"


@pytest.mark.parametrize("summary", [False, True], ids=["without-summary", "with-summary"])
def test_symbol_artifact_holds_no_row_table(tmp_path, monkeypatch, summary):
    """symbol builds its rows block by block from the α-symbols, so the
    α·n² × 6 table of its rows is never held, nor its text, with or without
    a summary: the shipped quartic config (G = 16, N = 2, three α) is traced
    formatting serially.  The peak, 5.3 MB, is mostly the three symbols and
    the target; the table alone is 9.4 MB."""
    import tracemalloc

    import ncpath.cli

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    out = tmp_path / "symbol.csv"
    flags = ["--out", str(out), *(["--summary", str(tmp_path / "symbol.json")] if summary else [])]
    small = _kernel_config(tmp_path, points=4, form="quartic")
    assert ncpath.cli.main(["symbol", "--config", small, *flags]) == 0  # the imports
    tracemalloc.start()
    try:
        code = ncpath.cli.main(["symbol", "--config", QUARTIC, *flags])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    table_bytes = 3 * (16 * 16) ** 2 * 6 * 8
    assert out.stat().st_size > table_bytes  # the whole text was written
    assert peak < 0.65 * table_bytes, f"peak {peak} B for a {table_bytes} B row table"


@pytest.mark.parametrize("route", ["factorized", "grouped", "compose"])
def test_kernel_warns_once_and_checks_before_forking(tmp_path, monkeypatch, route,
                                                     forked_formatting):
    import warnings

    import ncpath.cli
    import ncpath.core
    import ncpath.slicer

    # m = 0, T = 2 on G = 16 over a half-width 2 box: more than one turn at the edge
    config_path = _kernel_config(tmp_path, points=16, half_width=2.0,
                                 form="quartic" if route == "grouped" else "harmonic")
    args = ["kernel", "--config", config_path, "--total-time", "2",
            "--out", str(tmp_path / "k.txt"), *(["--compose"] if route == "compose" else [])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ncpath.cli.main(args) == 0
    assert len(caught) == 1 and "momentum edge" in str(caught[0].message)
    assert len(forked_formatting) == 2
    # past the point cap: refused before any table is built or any child forked
    monkeypatch.setattr(ncpath.core, "_DENSE_POINTS", 255)
    monkeypatch.setattr(ncpath.slicer, "_axis_transforms",
                        lambda *a: pytest.fail("a table was built past the point cap"))
    monkeypatch.setattr(ncpath.slicer, "_grouped_slice",
                        lambda *a: pytest.fail("a slice was built past the point cap"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert ncpath.cli.main(args) == 2
    assert caught == []
    assert len(forked_formatting) == 2


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_failed_block_build_in_a_child_exits_non_zero(config_path, tmp_path, capsys,
                                                       monkeypatch, forked_formatting, failure):
    import signal

    import ncpath.slicer

    parent = os.getpid()
    source = ncpath.slicer._factorized_blocks

    def failing_in_children(*args):
        fill = source(*args)

        def fill_or_fail(o, out):
            if os.getpid() != parent:  # a block a child builds
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("block build failed")
            return fill(o, out)

        return fill_or_fail

    monkeypatch.setattr(ncpath.slicer, "_factorized_blocks", failing_in_children)
    out = tmp_path / "kernel.txt"
    args = ("kernel", "--config", config_path, "--m", "2", "--alpha", "0.3")
    assert _run_in_process(*args, "--out", str(out)) == 2
    assert "worker" in capsys.readouterr().err
    # the artifact is whole or absent, and its temporary file is gone
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    assert _run_in_process(*args) == 2
    captured = capsys.readouterr()
    assert "worker" in captured.err
    assert len(captured.out.splitlines()) < 1 + 64  # the rows stop at the failed range
    assert len(forked_formatting) == 4
    for pid in forked_formatting:  # every child was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_artifact_writes_through_a_symlink_and_into_a_pipe(config_path, tmp_path):
    import threading

    args = ("kernel", "--config", config_path, "--m", "2", "--alpha", "0.3")
    plain = tmp_path / "plain.txt"
    assert _run_in_process(*args, "--out", str(plain)) == 0
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("stale\n")
    link.symlink_to(real)
    assert _run_in_process(*args, "--out", str(link)) == 0
    assert link.is_symlink() and real.read_bytes() == plain.read_bytes()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert _run_in_process(*args, "--out", str(fifo)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [plain.read_bytes()]


@pytest.mark.parametrize("flag, value, key", [("--alphas", "0.5,0.5", "alphas"),
                                              ("--m-list", "4,4,4", "m_values")])
def test_alpha_sweep_rejects_repeated_values(config_path, flag, value, key):
    result = run_cli("alpha-sweep", "--config", config_path, flag, value)
    assert result.returncode == 2
    assert f"{key}: " in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("total_time", ["0", "-1"])
def test_limit_check_rejects_non_positive_total_time(total_time):
    result = run_cli("limit-check", "--total-time", total_time)
    assert result.returncode == 2
    assert "total_time: must be positive" in result.stderr
    assert result.stdout == ""


def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys):
    config = json.loads(json.dumps(CONFIG))
    config["hBar"] = 0.5  # a typo of hbar would otherwise run at ħ = 1
    config_file = tmp_path / "typo.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "star.csv"
    assert _run_in_process("star-check", "--config", str(config_file), "--out", str(out)) == 2
    assert "hBar: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_failed_summary_rename_keeps_the_old_summary(tmp_path, capsys, monkeypatch):
    import ncpath.cli

    summary = tmp_path / "summary.json"
    summary.write_text("old\n")
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == summary.name:
            raise OSError(28, "No space left on device", dst)
        replace(src, dst)

    monkeypatch.setattr(ncpath.cli.os, "replace", failing_replace)
    code = _run_in_process("limit-check", "--out", str(tmp_path / "limit.csv"),
                           "--summary", str(summary))
    assert code == 2
    assert "No space left on device" in capsys.readouterr().err
    assert summary.read_text() == "old\n"
    assert (tmp_path / "limit.csv").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_star_check_reports_kernel_checks_it_skipped(tmp_path, monkeypatch):
    import ncpath.core

    monkeypatch.setattr(ncpath.core, "_DENSE_POINTS", 64)  # G = 9, N = 2 has 81 points
    config = json.loads(json.dumps(CONFIG))
    config["grid"]["points_per_axis"] = 9
    config_file = tmp_path / "nine.json"
    config_file.write_text(json.dumps(config))
    out, summary = tmp_path / "star.csv", tmp_path / "star.json"
    code = _run_in_process("star-check", "--config", str(config_file), "--out", str(out),
                           "--summary", str(summary))
    assert code == 1  # the one check that ran passed, but two were skipped
    lines = out.read_text().splitlines()
    assert lines[0] == "check,value,threshold,pass"
    assert lines[1].startswith("integral_identity,") and lines[1].endswith(",true")
    assert lines[2:] == ["kernel_vs_star,,,skipped", "kernel_hermiticity,,,skipped"]
    rows = json.loads(summary.read_text())["rows"]
    assert [row[0] for row in rows] == ["integral_identity", "kernel_vs_star",
                                        "kernel_hermiticity"]
    assert [row[3] for row in rows] == ["true", "skipped", "skipped"]


QUARTIC = os.path.join(os.path.dirname(__file__), "..", "configs", "quartic_washout.json")


def test_known_quartic_failure_star_check_kernel_is_not_hermitian(tmp_path):
    # the lattice kernel of the quartic potential operator is far from Hermitian
    # (deviation about 51 against a threshold of about 0.0093)
    out = tmp_path / "star.csv"
    assert _run_in_process("star-check", "--config", QUARTIC, "--out", str(out)) == 1
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in out.read_text().splitlines()[1:]}
    value, threshold, passed = rows["kernel_hermiticity"]
    assert passed == "false" and float(value) > 50 and float(threshold) < 0.01
    assert rows["integral_identity"][2] == rows["kernel_vs_star"][2] == "true"


def test_known_quartic_failure_oracle_compare_exits_2(capsys):
    # the dense Hamiltonian of the shipped quartic config is not Hermitian, so
    # the spectral reference refuses it
    assert _run_in_process("oracle-compare", "--config", QUARTIC) == 2
    assert "Hamiltonian not Hermitian (deviation 2.895e+01)" in capsys.readouterr().err


HARMONIC = os.path.join(os.path.dirname(__file__), "..", "configs", "harmonic_shifted.json")

# In a fresh interpreter: import the package and the CLI, load a config, run
# one subcommand in process, and print which ncpath modules (and whether
# hashlib or OpenSSL's _hashlib) were loaded after the imports and after the
# command.
_MODULE_PROBE = """
import json, sys
import ncpath, ncpath.cli

def loaded():
    return {"ncpath": sorted(m for m in sys.modules if m.split(".")[0] == "ncpath"),
            "hashlib": sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules)}

ncpath.load_config(sys.argv[1])
before = loaded()
code = ncpath.cli.main(sys.argv[2:])
print(json.dumps({"before": before, "after": loaded(), "code": code}))
"""


def _modules_loaded_by(tmp_path, *argv):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    summary = tmp_path / "summary.json"
    result = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, HARMONIC, *argv, "--out",
         str(tmp_path / "out.csv"), "--summary", str(summary)],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["code"] == 0, result.stderr
    return report["before"], report["after"], json.loads(summary.read_text())


def test_importing_the_cli_loads_core_alone_and_phi_audit_adds_only_its_engine(tmp_path):
    before, after, summary = _modules_loaded_by(tmp_path, "phi-audit", "--m", "3")
    assert before == {"ncpath": ["ncpath", "ncpath.cli", "ncpath.core"], "hashlib": []}
    assert after == {"ncpath": ["ncpath", "ncpath.cli", "ncpath.core", "ncpath.phi_engine"],
                     "hashlib": []}
    assert summary["config_sha256"] is None


def _hashlib_sha256_of_config(path):
    import hashlib  # this test process loads hashlib; the subcommands do not

    with open(path, encoding="utf-8") as fh:
        canonical = json.dumps(json.load(fh), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_alpha_sweep_loads_slicer_and_star_and_hashes_the_config(tmp_path):
    before, after, summary = _modules_loaded_by(tmp_path, "alpha-sweep", "--config", HARMONIC)
    assert before["ncpath"] == ["ncpath", "ncpath.cli", "ncpath.core"]
    assert after["ncpath"] == ["ncpath", "ncpath.cli", "ncpath.core", "ncpath.slicer",
                               "ncpath.star"]
    assert after["hashlib"] == []  # the built-in SHA-256: no hashlib, no OpenSSL
    assert summary["config_sha256"] == _hashlib_sha256_of_config(HARMONIC)


@pytest.mark.parametrize("command, engines", [
    ("oracle-compare", ["ncpath.oracle", "ncpath.slicer", "ncpath.star"]),
    ("star-check", ["ncpath.star"]),
    ("kernel", ["ncpath.float_text", "ncpath.slicer", "ncpath.star"]),
])
def test_a_summary_hashes_its_config_without_hashlib(tmp_path, command, engines):
    _, after, summary = _modules_loaded_by(tmp_path, command, "--config", HARMONIC)
    assert after == {"ncpath": ["ncpath", "ncpath.cli", "ncpath.core", *engines],
                     "hashlib": []}
    assert summary["config_sha256"] == _hashlib_sha256_of_config(HARMONIC)
