"""ncpath benchmark: run one workload's verification campaign and print its metrics.

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 10 --trace 0

Each campaign runs in a fresh Python process (`campaign.py`), the way a CLI
user runs it, so first-call costs count.  One process runs one campaign after
another, each call waiting for the previous one (a closed loop with a single
client); campaigns repeat until --seconds have passed, at least twice.
Set-up alone is also timed in a few extra processes.

--trace 0 prints the end-to-end metrics, medians over the campaigns of the
run.  --trace 1 runs each campaign twice, untraced and traced, and prints the
per-layer metrics from the traced process plus the tracing overhead (traced
minus untraced wall time).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count the verification gates.  The lines before it give the machine
record and every sample; the same record is written to
perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dynamics", "exact", "operators")
REQUIRED = ("src/ncpath/__init__.py", "src/ncpath/cli.py",
            "configs/harmonic_shifted.json", "configs/quartic_washout.json")

SETUP_SAMPLES = 6        # set-up-only processes per run, on top of each campaign's own
MIN_CAMPAIGNS = 2        # per run, traced ones included, so a median is never one sample
LAST_START_S = 120.0     # start no campaign expected to end later than this into the run
CHILD_TIMEOUT_S = 170.0
CORES = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, CORES)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "checks_run": "count"}
PER_LAYER = {
    "slicer.slice_s": "s", "slicer.slice_calls": "count",
    "slicer.slice_s.half": "s", "slicer.slice_s.zero": "s",
    "slicer.slice_s.generic": "s", "slicer.slice_s.free": "s",
    "slicer.compose_s": "s", "slicer.apply_s": "s", "slicer.sweep_self_s": "s",
    "slicer.edge_warnings": "count",
    "oracle.hamiltonian_s": "s", "oracle.eigh_s": "s", "oracle.reference_builds": "count",
    "oracle.split_step_s": "s",
    "star.kernel_s": "s", "star.apply_s": "s", "star.field_s": "s",
    "weyl.closed_form_s": "s", "weyl.symbol_s": "s", "weyl.quantizer_s": "s",
    "core.transform_s": "s", "core.transform_calls": "count",
    "core.potential_s": "s", "core.potential_points": "count",
    "phi_engine.build_s": "s", "phi_engine.builds": "count",
    "phi_engine.report_s": "s", "phi_engine.reports": "count",
    "phi_engine.audit_self_s": "s", "phi_engine.dense_check_s": "s",
    "cli.self_s": "s", "cli.artifact_bytes": "bytes", "cli.commands": "count",
    "oracle_l2_err": "1", "sweep_slope_dev": "1",
    "checks_failed": "count", "trace_overhead_s": "s",
}


class CampaignCrashed(RuntimeError):
    pass


def child_env() -> dict:
    """Single sweep worker; BLAS threads pinned explicitly (never above the cores)."""
    env = dict(os.environ)
    env.pop("NCPATH_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, workdir: Path, name: str, trace=False, setup_only=False):
    """One campaign.py process; returns (its record, its wall time in seconds)."""
    rundir = workdir / name
    rundir.mkdir()
    result = rundir / "result.json"
    cmd = [sys.executable, str(HERE / "campaign.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--trace", str(int(trace)),
           "--workdir", str(rundir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not result.exists():
        raise CampaignCrashed(f"{name} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(result.read_text(encoding="utf-8"))
    for trace_file in rundir.glob("trace-*.jsonl"):
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        shutil.copyfile(trace_file, results / f"trace-{args.workload}.jsonl")
    shutil.rmtree(rundir)
    return record, wall


def measure(args, workdir: Path) -> dict:
    setups = [run_child(args, workdir, f"setup{i}", setup_only=True)[0]["setup_s"]
              for i in range(SETUP_SAMPLES)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        rep = len(plain)
        plain.append(run_child(args, workdir, f"campaign{rep}"))
        if args.trace:
            traced.append(run_child(args, workdir, f"traced{rep}", trace=True))
        elapsed = time.perf_counter() - start
        if len(plain) + len(traced) < MIN_CAMPAIGNS:
            continue
        if elapsed >= args.seconds or elapsed + elapsed / len(plain) > LAST_START_S:
            break
    return {"setups": setups, "plain": plain, "traced": traced}


def summarize(args, samples: dict) -> dict:
    plain, traced = samples["plain"], samples["traced"]
    campaigns = [rec for rec, _ in plain + traced]
    attempted = sum(rec["checks_run"] for rec in campaigns)
    failed = sum(rec["checks_failed"] for rec in campaigns)
    median = statistics.median
    if args.trace:
        values = {
            "checks_failed": failed,
            "trace_overhead_s": median([w for _, w in traced]) - median([w for _, w in plain]),
        }
        for name in PER_LAYER:
            if name not in values:
                values[name] = median([rec["layers"][name] for rec, _ in traced])
        units = PER_LAYER
    else:
        values = {
            "wall_s": median([w for _, w in plain]),
            "setup_s": median(samples["setups"] + [rec["setup_s"] for rec, _ in plain]),
            "peak_rss_mb": median([rec["peak_rss_mb"] for rec, _ in plain]),
            "checks_run": median([rec["checks_run"] for rec, _ in plain]),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting campaigns until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: smallest sizes, for the harness tests")
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: the ncpath sources are missing ({', '.join(missing)}); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        samples = measure(args, workdir)
    except (CampaignCrashed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: campaign failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = summarize(args, samples)
    first = samples["plain"][0][0]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "machine": first["machine"],
        "setup_samples_s": samples["setups"],
        "campaigns": [dict(rec, wall_s=wall, traced=False) for rec, wall in samples["plain"]]
        + [dict(rec, wall_s=wall, traced=True) for rec, wall in samples["traced"]],
        "result": result,
    }
    for rec in record["campaigns"]:
        rec.pop("layers", None)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("machine " + json.dumps(first["machine"]))
    for rec in record["campaigns"]:
        kind = "traced" if rec["traced"] else "campaign"
        print(f"{kind} wall {rec['wall_s']:.3f} s, setup {rec['setup_s']:.3f} s, "
              f"checks {rec['checks_run'] - rec['checks_failed']}/{rec['checks_run']} passed, "
              f"edge warnings {rec['edge_warnings']}, peak RSS {rec['peak_rss_mb']:.1f} MB")
        for failure in rec["failures"]:
            print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
