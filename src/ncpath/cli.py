"""Command-line orchestrator: run verification campaigns from a JSON config
and emit deterministic CSV/JSON artifacts.

Subcommands: symbol, star-check, kernel, alpha-sweep, phi-audit,
limit-check, oracle-compare, unitarity.  Exit codes: 2 usage/config error;
1 a failed check, which only star-check, phi-audit and limit-check gate
(star-check also exits 1 when it skipped a check past the dense-kernel
limit); 0 otherwise: symbol, kernel, alpha-sweep, oracle-compare and
unitarity exit 0 once their output is written, whatever it shows.
Identical config and flags produce byte-identical output, with one
exception: oracle-compare's `runtime_seconds` column (in the CSV and the
summary's rows) and its summary's `reference_seconds` are wall-clock times.
Floats are printed as `'%.17g'` prints them (17 significant digits), and a
field holding a comma, a double quote or a line break is quoted as RFC 4180
quotes it (only phi-audit's details hold one).  The
kernel and symbol tables, millions of values, come as row blocks: the
kernel's from `slicer.slice_row_blocks` (or views of the --compose kernel),
the symbol's built per block from the α-symbols.  `float_text.BlockFormatter`
renders each block in calls of a size it sets itself, with NumPy arithmetic
that yields the same bytes; the values it cannot decide exactly (possible
ties, |x| outside [1e-250, 1e250], NaN and ±inf) it hands to `'%.17g'`.

Importing this module loads `core` alone, and each subcommand imports the
engine modules it runs when it runs: phi-audit and limit-check load
`phi_engine` alone, and only kernel and symbol load `float_text`.  A
summary's `config_sha256` comes from CPython's built-in SHA-256, so no
subcommand loads `hashlib` or OpenSSL.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from itertools import chain

import numpy as np

from . import core
from .core import ConfigError, load_config

IDENTITY_SET_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _csv_field(value) -> str:
    """_fmt(value), quoted as RFC 4180 quotes a field holding a comma, a
    double quote or a line break (phi-audit's details hold commas)."""
    text = _fmt(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(row) -> str:
    return ",".join(_csv_field(v) for v in row) + "\n"


def _write_lines(path, chunks):
    """Stream bytes chunks to path, or to stdout's byte stream without a path;
    a regular file is written beside itself and renamed into place once whole."""
    if not path:
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text stream with no bytes beneath, such as io.StringIO
            sys.stdout.writelines(chunk.decode("ascii") for chunk in chunks)
            return
        sys.stdout.flush()
        out.writelines(chunks)
        out.flush()
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    target = os.path.realpath(path)  # through a symlink, as open() writes
    partial = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(partial, "xb")
    except OSError as exc:  # name the --out path, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(partial, target)
    except BaseException:
        os.remove(partial)
        raise


_MIN_RANGE_VALUES = 1 << 16   # a forked range below this costs more than it saves
_COPY_BYTES = 1 << 16         # spooled text copied through per read


def _format_range(render, block, start, stop):
    """Yield the text of block(start) … block(stop - 1); each block is a 2-D
    float table, which the formatter cuts into calls of its own size."""
    for index in range(start, stop):
        yield from render(block(index))


def _usable_cores() -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _spool_range(render, block, start, stop, spool):
    """In a forked child: build and render blocks start..stop into spool, then leave.

    os._exit skips every cleanup of the caller, so the child never flushes the
    buffers it inherited (stdout, the artifact file) and never returns.
    """
    status = 1
    try:
        spool.writelines(_format_range(render, block, start, stop))
        spool.flush()
        status = 0
    finally:
        os._exit(status)


def _formatted_rows(separators, block, count):
    """Yield the text of every row of the row blocks block(0) … block(count - 1),
    in order: 2-D float tables of the first block's size, each number printed
    as `'%.17g'` prints it and followed by its column's separator byte.

    The text is bytes from `float_text.BlockFormatter`, which sizes its own
    render calls.
    block(i) may build its table when called (`ncpath kernel` gathers a
    slice block from per-axis tables) and may reuse one buffer, since a
    block is rendered whole before the next is asked for.  The blocks are
    cut into one contiguous block range per usable core, and into fewer
    where a range would hold under `_MIN_RANGE_VALUES` values; one range
    is rendered here and forks nothing.  A forked child
    builds and renders each later range into a temporary file, from what it
    inherited, while this process renders and yields the first; each
    child's bytes are then copied through in order.
    The bytes are the same as the serial rendering's; chunks copied from a
    spool may end mid-line.  A child runs NumPy gathers and arithmetic,
    never BLAS, so the parent's idle BLAS threads cannot hold a lock the
    child needs.
    """
    from .float_text import BlockFormatter

    render = BlockFormatter(separators)
    workers = max(1, min(_usable_cores(), count * block(0).size // _MIN_RANGE_VALUES, count))
    cuts = [count * i // workers for i in range(workers + 1)]
    children = []  # (pid, spool) per later range, in block order
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            spool = tempfile.TemporaryFile("w+b")
            try:
                pid = os.fork()
            except BaseException:
                spool.close()
                raise
            if pid == 0:
                _spool_range(render, block, start, stop, spool)
            children.append((pid, spool))
        yield from _format_range(render, block, 0, cuts[1])
        while children:
            pid, spool = children.pop(0)
            with spool:
                status = os.waitpid(pid, 0)[1]
                if status:
                    raise OSError(f"artifact formatting: worker {pid} ended with "
                                  f"wait status {status}")
                spool.seek(0)
                while chunk := spool.read(_COPY_BYTES):
                    yield chunk
    finally:
        for pid, spool in children:  # left behind by an error: reap, then drop
            os.waitpid(pid, 0)
            spool.close()


def _write_artifact(path, header, rows, footer_rows=()):
    _write_lines(path, (_csv_line(row).encode() for row in chain([header], rows, footer_rows)))


def _config_hash(cfg) -> str:
    # CPython's built-in SHA-256 (`_sha2` from 3.12, `_sha256` before): the
    # digest of hashlib.sha256 without loading OpenSSL's libcrypto
    try:
        from _sha2 import sha256
    except ImportError:
        from _sha256 import sha256

    canonical = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def _write_summary(path, command, cfg, header=(), rows=(), extra=None):
    if not path:
        return
    payload = {
        "command": command,
        "identity_set_version": IDENTITY_SET_VERSION,
        "config_sha256": _config_hash(cfg) if cfg is not None else None,
        "columns": list(header),
        "rows": [[_fmt(v) for v in row] for row in rows],
    }
    if extra:
        payload.update(extra)
    _write_lines(path, [(json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()])


def _probe_width(cfg, args):
    """--probe-width if given, else probe.width (None: the packet's default)."""
    return cfg.probe.width if args.probe_width is None else args.probe_width


def _probe(cfg, args):
    from .star import gaussian_packet

    return gaussian_packet(cfg.grid, center=cfg.probe.center,
                           width=_probe_width(cfg, args), momentum=cfg.probe.momentum)


def _positive_float(text):
    """argparse type for a duration or width: a finite number above zero."""
    value = float(text)
    if not 0 < value < np.inf:  # NaN fails the comparison too
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _read(text, flag, kind):
    """kind(text), or a ConfigError that names the flag the text came from."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides by zero
        raise ConfigError(f"{flag}: cannot read {text!r} as {kind.__name__}") from None


def _read_list(text, flag, kind):
    """The comma-separated values of a list flag, each read as kind; blank
    entries are skipped, and a list with no value left names the flag."""
    values = [_read(v, flag, kind) for v in text.split(",") if v.strip()]
    if not values:
        raise ConfigError(f"{flag}: needs at least one value")
    return values


# -- subcommands --------------------------------------------------------------


def _symbol_blocks(report, grid):
    """The symbol CSV's data rows as row blocks, built when asked for: returns
    (block, count), where block(i) holds the rows α, k index, x index, re,
    im, deviation of one α and the k indices of one `core._row_blocks` slice
    (i = α·G + o), n²/G rows as in the kernel's blocks; one buffer serves
    every block."""
    n, slices = grid.size, core._row_blocks(grid)
    rows = np.empty((n // grid.points_per_axis, n, 6))
    rows[..., 2] = np.arange(n)

    def block(i):
        which, o = divmod(i, len(slices))
        k = slices[o]
        values = report.symbols[which].values[k]
        rows[..., 0] = report.alphas[which]
        rows[..., 1] = np.arange(k.start, k.stop)[:, None]
        rows[..., 3] = values.real
        rows[..., 4] = values.imag
        rows[..., 5] = np.abs(values - report.target[k])
        return rows.reshape(-1, 6)

    return block, len(report.alphas) * len(slices)


def cmd_symbol(args) -> int:
    from .weyl import verify_alpha_washout

    cfg = load_config(args.config)
    alphas = _read_list(args.alphas, "--alphas", float)
    method = args.method.replace("-", "_")
    report = verify_alpha_washout(cfg.potential, cfg.theta, cfg.grid, alphas,
                                  method=method)
    header = ["alpha", "k_index", "x_index", "re", "im", "deviation"]
    footer = [("# max_pairwise_abs", report.max_pairwise_abs, "", "", "", ""),
              ("# max_pairwise_relative", report.max_pairwise_relative, "", "", "", "")]
    block, count = _symbol_blocks(report, cfg.grid)
    # the index columns hold integers, which '%.17g' prints as '%d' does
    _write_lines(args.out, chain([_csv_line(header).encode()],
                                 _formatted_rows(b",,,,,\n", block, count),
                                 (_csv_line(row).encode() for row in footer)))
    _write_summary(args.summary, "symbol", cfg, header,
                   extra={"max_pairwise_abs": _fmt(report.max_pairwise_abs),
                          "max_pairwise_relative": _fmt(report.max_pairwise_relative),
                          "method": report.method})
    return EXIT_OK


def cmd_star_check(args) -> int:
    from .star import gaussian_packet, potential_operator_kernel, star_apply, \
        star_integral_identity_check

    cfg = load_config(args.config)
    grid, theta, V = cfg.grid, cfg.theta, cfg.potential
    width = _probe_width(cfg, args)
    phi = _probe(cfg, args)
    psi = gaussian_packet(grid, width=None if width is None else 0.9 * width)
    checks = []
    dev = star_integral_identity_check(phi, psi, theta)
    checks.append(("integral_identity", dev, 1e-8))
    dense = grid.size <= core._DENSE_POINTS  # read at call time, so a test can lower it
    if dense:
        applied = star_apply(V, theta, psi)
        kern = potential_operator_kernel(V, theta, grid)
        via_kernel = kern.apply(psi)
        checks.append(("kernel_vs_star", float(np.max(np.abs(
            via_kernel.values - applied.values))), 1e-8))
        deviation, top = kern.adjoint_deviation()  # max|K − K†| and max|K|, one pass
        checks.append(("kernel_hermiticity", deviation, 1e-6 * max(1.0, top)))
    header = ["check", "value", "threshold", "pass"]
    rows = [(name, value, thr, str(value <= thr).lower()) for name, value, thr in checks]
    if not dense:  # no n×n kernel past the limit: name the checks that did not run
        rows += [(name, "", "", "skipped") for name in ("kernel_vs_star", "kernel_hermiticity")]
    _write_artifact(args.out, header, rows)
    _write_summary(args.summary, "star-check", cfg, header, rows)
    # a skipped check is not a passed one
    return EXIT_OK if dense and all(v <= t for _, v, t in checks) else EXIT_FAIL


def cmd_kernel(args) -> int:
    """Write one slice (or with --compose the composed kernel) row by row.

    The slice comes from `slicer.slice_row_blocks`, whose checks run once,
    here, before any table is built or any process forked.  Where V(x + θk)
    factors by axis, this process and each formatting child hold the
    per-axis tables and one row block (n²/G entries) and no n×n array: every
    block is gathered from the tables into the block source's buffer and
    formatted from it.  The grouped route and --compose hold the n×n kernel
    and hand over views of its rows.
    """
    from .slicer import SlicingConfig, _held_row_blocks, edge_phase_turns, full_kernel, \
        slice_row_blocks

    cfg = load_config(args.config)
    grid = cfg.grid
    scfg = SlicingConfig(args.m, args.total_time, args.alpha, cfg.params)
    if args.compose:
        block = _held_row_blocks(full_kernel(scfg, cfg.potential, cfg.theta, grid).entries, grid)
    else:
        block = slice_row_blocks(scfg, cfg.potential, cfg.theta, grid)
    header = [grid.dim, grid.points_per_axis, grid.box_half_width, args.m, args.alpha,
              args.total_time, cfg.params.hbar, cfg.params.mass, *cfg.theta.entries.reshape(-1)]
    separators = (b", " * grid.size)[:-1] + b"\n"  # re,im pairs, a space between
    body = _formatted_rows(separators, lambda o: block(o).view(np.float64),  # re, im interleaved
                           grid.points_per_axis)
    _write_lines(args.out, chain([_csv_line(header).encode()], body))
    _write_summary(args.summary, "kernel", cfg,
                   extra={"m": args.m, "alpha": _fmt(args.alpha), "compose": args.compose,
                          "edge_phase_turns": _fmt(edge_phase_turns(scfg, grid))})
    return EXIT_OK


def _edge_phase(cfg, args, m_values, alpha):
    """Summary entry: the slice edge phase in turns at the smallest m (largest ε)."""
    from .slicer import SlicingConfig, edge_phase_turns

    scfg = SlicingConfig(min(m_values), args.total_time, alpha, cfg.params)
    return {"edge_phase_turns": _fmt(edge_phase_turns(scfg, cfg.grid))}


def cmd_alpha_sweep(args) -> int:
    from .slicer import alpha_sweep

    cfg = load_config(args.config)
    alphas = _read_list(args.alphas, "--alphas", float)
    m_values = _read_list(args.m_list, "--m-list", int)
    result = alpha_sweep(cfg.params, args.total_time, alphas, m_values,
                         cfg.potential, cfg.theta, cfg.grid, _probe(cfg, args))
    header = ["m", "alpha_pair", "spread"]
    rows = []
    for m in result.m_values:
        for (i, j), spread in sorted(result.spreads[m].items()):
            rows.append((m, f"{_fmt(alphas[i])}|{_fmt(alphas[j])}", spread))
    footer = [("# slope", result.slope, result.residual)]
    _write_artifact(args.out, header, rows, footer)
    _write_summary(args.summary, "alpha-sweep", cfg, header, rows,
                   {"slope": _fmt(result.slope), "intercept": _fmt(result.intercept),
                    "residual": _fmt(result.residual),
                    "norm_ratios": [[_fmt(m), _fmt(a), _fmt(ratio)]
                                    for m in result.m_values
                                    for a, ratio in zip(result.alphas, result.norm_ratios[m])],
                    **_edge_phase(cfg, args, m_values, alphas[0])})
    return EXIT_OK


def cmd_phi_audit(args) -> int:
    from .phi_engine import run_phi_audit

    if args.dim < 2:
        raise ConfigError("--dim: the audit needs at least two dimensions")
    alphas = _read_list(args.alphas, "--alphas", Fraction)
    report = run_phi_audit(args.m, alphas, dim=args.dim,
                           theta_value=_read(args.theta, "--theta", Fraction),
                           total_time=_read(args.total_time, "--total-time", Fraction))
    header = ["identity", "status", "detail"]
    rows = [(r.name, "PASS" if r.passed else "FAIL", r.detail) for r in report.rows]
    for r in report.rows:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    if args.out:
        _write_artifact(args.out, header, rows)
    _write_summary(args.summary, "phi-audit", None, header, rows,
                   {"m": args.m, "ok": report.ok})
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_limit_check(args) -> int:
    from .phi_engine import midslice_limit_check

    m_values = _read_list(args.m_list, "--m-list", int)
    T = _read(args.total_time, "--total-time", Fraction)
    header = ["m", "value", "gap_to_T_squared", "expected_gap", "pass"]
    rows = []
    ok = True
    for m in m_values:
        value, error = midslice_limit_check(m, T)
        expected = T * T / (m + 1)
        good = (value == T * T * Fraction(m, m + 1)) and (error == expected)
        ok = ok and good
        rows.append((m, str(value), str(error), str(expected), str(good).lower()))
    _write_artifact(args.out, header, rows)
    _write_summary(args.summary, "limit-check", None, header, rows, {"ok": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_oracle_compare(args) -> int:
    from .oracle import oracle_compare

    cfg = load_config(args.config)
    m_values = _read_list(args.m_list, "--m-list", int)
    timings = {}
    result = oracle_compare(cfg.potential, cfg.theta, cfg.grid, cfg.params,
                            args.total_time, m_values, _probe(cfg, args), alpha=args.alpha,
                            timings=timings)
    header = ["m", "l2_error_vs_spectral", "runtime_seconds"]
    rows = [(m, err, timings[m]) for m, err in result]
    _write_artifact(args.out, header, rows)
    _write_summary(args.summary, "oracle-compare", cfg, header, rows,
                   {"reference_seconds": _fmt(timings["reference"]),
                    "reference_route": timings["reference_route"],
                    "reference_terms": timings["terms"],
                    "spectral_bounds": [_fmt(b) for b in timings["spectral_bounds"]],
                    "hermiticity_deviation": _fmt(timings["hermiticity_deviation"]),
                    **_edge_phase(cfg, args, m_values, args.alpha)})
    return EXIT_OK


def cmd_unitarity(args) -> int:
    from .slicer import SlicingConfig, propagate

    cfg = load_config(args.config)
    m_values = _read_list(args.m_list, "--m-list", int)
    probe = _probe(cfg, args)
    header = ["m", "norm_ratio"]
    rows = []
    for m in m_values:
        scfg = SlicingConfig(m, args.total_time, args.alpha, cfg.params)
        evolved = propagate(scfg, cfg.potential, cfg.theta, cfg.grid, probe)
        rows.append((m, evolved.norm() / probe.norm()))
    _write_artifact(args.out, header, rows)
    _write_summary(args.summary, "unitarity", cfg, header, rows,
                   _edge_phase(cfg, args, m_values, args.alpha))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpath",
        description="Phase-space path integral toolkit for noncommuting coordinates",
    )
    sub = parser.add_subparsers(dest="command")

    # flags shared by several subcommands, declared once as parent parsers
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="CSV artifact path (default stdout)")
    output.add_argument("--summary", default=None, help="JSON summary path")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="JSON configuration file")
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--probe-width", type=_positive_float, default=None,
                       help="probe packet width; overrides the config key")
    slices = argparse.ArgumentParser(add_help=False)  # oracle-compare and unitarity
    slices.add_argument("--m-list", default="16,32,64")
    slices.add_argument("--total-time", type=_positive_float, default=1.0)
    slices.add_argument("--alpha", type=float, default=0.5)

    p = sub.add_parser("symbol", parents=[config, output],
                       help="ordering-index symbols and washout deviations")
    p.add_argument("--alphas", default="-0.4,0,0.4")
    p.add_argument("--method", default="closed-form", choices=["closed-form", "direct"])
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("star-check", parents=[config, probe, output],
                       help="star-product identity checks")
    p.set_defaults(func=cmd_star_check)

    p = sub.add_parser("kernel", parents=[config, output], help="emit one propagator kernel")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--total-time", type=_positive_float, default=1.0)
    p.add_argument("--compose", action="store_true",
                   help="emit the composed kernel instead of a single slice")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("alpha-sweep", parents=[config, probe, output],
                       help="ordering spread vs slice count")
    p.add_argument("--alphas", default="0.5,-0.5")
    p.add_argument("--m-list", default="4,8,16,32")
    p.add_argument("--total-time", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_alpha_sweep)

    p = sub.add_parser("phi-audit", parents=[output], help="exact source-functional identities")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alphas", default="-0.5,0,0.5")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--theta", default="1/10")
    p.add_argument("--total-time", default="1")
    p.set_defaults(func=cmd_phi_audit)

    p = sub.add_parser("limit-check", parents=[output],
                       help="surviving midslice coefficient vs T²")
    p.add_argument("--m-list", default="2,10,100,1000")
    p.add_argument("--total-time", default="1")
    p.set_defaults(func=cmd_limit_check)

    p = sub.add_parser("oracle-compare", parents=[config, probe, slices, output],
                       help="sliced kernel vs spectral propagator")
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("unitarity", parents=[config, probe, slices, output],
                       help="probe norm conservation vs slice count")
    p.set_defaults(func=cmd_unitarity)

    return parser


_VALUE_FLAGS = {"--alphas", "--theta", "--m-list", "--total-time", "--alpha", "--m",
                "--probe-width"}


def _merge_value_flags(argv):
    """Join '--alphas -0.5,0,0.5' into '--alphas=-0.5,0,0.5' so argparse does
    not mistake a leading minus sign for an option."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_value_flags(list(argv)))
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
