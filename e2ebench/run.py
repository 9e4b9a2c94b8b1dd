#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of chibound.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Workloads: survey, chi_hard, patterns, catalog. BENCHMARK.json says why
each exists; e2ebench/README.md defines the ops and maps each per-layer
metric to the end-to-end metric and workload it should move.

--trace 0 prints the end-to-end metrics: setup_s, ops_per_s, op_p50_ms,
op_p90_ms and peak_rss_mib. --trace 1 prints the per-layer metrics from a
traced run instead. The last line of output is one JSON object with the keys
correct, attempted, failed and metrics. Every workload runs in fresh
interpreters (one closed loop, one client, workers = 1); chibound is imported
from src/ of the checkout, never built or installed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".e2ebench_out"
WORKLOADS = ("survey", "chi_hard", "patterns", "catalog")
SETUP_SAMPLES = 11  # setup-only interpreters, plus the measuring one
WORKER_TIMEOUT_S = 150


def p90(values):
    """Nearest-rank 90th percentile; callers guarantee at least 100
    samples, so at least 10 lie beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def worker(mode, args, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_env(env):
    print(f"backend={env['backend']} python={env['python']} nproc={env['nproc']} seed={env['seed']} workers=1")


def report_problems(res):
    for line in res["errors"][:20] + res["problems"]:
        print(f"FAILED {line}")


def end_to_end(args, out):
    setup_runs = [worker("setup", args, out) for _ in range(SETUP_SAMPLES)]
    res = worker("measure", args, out)
    setup_runs.append(res)
    setups = [r["setup_s"] for r in setup_runs]
    lat, raw = res["latencies"], res["raw_latencies"]
    failing, listed = res["known_defects"]
    report_env(res["env"])
    report_problems(res)
    failed = len(res["errors"])
    print(f"timed ops={len(lat)} (op_p90_ms over {len(lat)} samples) passes={res['passes']}; "
          f"checked ops={res['checked']} failed={failed} failed_ratio={failed / res['checked']:.6f}")
    print(f"uncorrected wall times: setup_s={statistics.median(r['raw_setup_s'] for r in setup_runs):.6g} "
          f"ops_per_s={len(raw) / sum(raw):.6g} op_p50_ms={statistics.median(raw) * 1e3:.6g} "
          f"op_p90_ms={p90(raw) * 1e3:.6g}")
    if listed:
        print(f"known defect: format_result raises ValueError (int-to-str limit) on {failing} of {listed} "
              f"listed catalog points; they run outside the timed ops")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90(lat) * 1e3,
        "peak_rss_mib": res["peak_rss_mib"],
    }
    correct = not res["errors"] and not res["problems"]
    return correct, res["checked"], failed, metrics


def per_layer(args, out):
    res = worker("trace", args, out)
    report_env(res["env"])
    report_problems(res)
    print(f"traced passes={res['passes']} checked ops={res['checked']}; spans written to {res['spans']}")
    correct = not res["errors"] and not res["problems"]
    return correct, res["checked"], len(res["errors"]), res["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chibound" / "__init__.py").is_file():
        raise SystemExit(f"no chibound sources under {ROOT / 'src'}; run from a full checkout")
    out = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = run(args, out)
    finally:
        shutil.rmtree(out / "work" if args.trace else out, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
