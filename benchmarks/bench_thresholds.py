#!/usr/bin/env python3
"""Time lemma_threshold over e2ebench's catalog grid, per lemma id, for two
checkouts in alternating rounds.

Each round runs one fresh interpreter per side, before and after in turn
(before first in odd rounds, after first in even ones). An interpreter
imports chibound from its side's PYTHONPATH, runs one untimed pass over
the 548 grid points of e2ebench's catalog workload, then --passes timed
passes. A pass times every lemma_threshold call and sums the times per
lemma id. The interpreter also digests every result with e2ebench's
threshold_digest (format_result text included), and the two sides must
agree on that digest for every point, or the script stops.

Usage, from the root of a checkout:

    python benchmarks/bench_thresholds.py --before <old>/src --after src \\
        --rounds 4 --passes 3 --out BENCH_thresholds.json

It prints one JSON object, and writes it to --out when given: per lemma id
and in total, the median and quartiles of the pass times in milliseconds
on each side and their ratio, with the machine and Python version.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def worker(passes):
    """One side: per-lemma pass times and the digest of every result."""
    sys.path.insert(0, str(ROOT / "e2ebench"))
    from workloads import catalog_grid, is_int_str_limit, threshold_digest

    from chibound import thresholds

    points = catalog_grid()
    digest = hashlib.sha256()
    for lemma_id, params in points:
        result = thresholds.lemma_threshold(lemma_id, params)
        try:
            text = thresholds.format_result(result)
        except ValueError as err:  # the probe's known defects: str() past the int digit limit
            if not is_int_str_limit(err):
                raise
            text = None
        digest.update(threshold_digest(result, text).encode())
    times = []
    for _ in range(passes):
        per_lemma = dict.fromkeys(thresholds.LEMMAS, 0.0)
        for lemma_id, params in points:
            start = time.perf_counter()
            thresholds.lemma_threshold(lemma_id, params)
            per_lemma[lemma_id] += time.perf_counter() - start
        times.append(per_lemma)
    return {"points": len(points), "digest": digest.hexdigest(), "times": times}


def run_side(path, passes):
    env = dict(os.environ, PYTHONPATH=str(Path(path).resolve()))
    out = subprocess.run([sys.executable, __file__, "--worker", "--passes", str(passes)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def spread(seconds):
    q1, median, q3 = statistics.quantiles([1000 * s for s in seconds], n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return f"{os.cpu_count()}-CPU {platform.machine()} {model}".strip()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--before", help="PYTHONPATH of the checkout to compare against")
    parser.add_argument("--after", help="PYTHONPATH of the checkout under test")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--out")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.passes)))
        return
    if not (args.before and args.after):
        parser.error("--before and --after are required")

    sides = {"before": args.before, "after": args.after}
    runs = {side: [] for side in sides}
    for r in range(args.rounds):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            runs[side].append(run_side(sides[side], args.passes))
    digests = {run["digest"] for side in runs for run in runs[side]}
    if len(digests) != 1:
        raise SystemExit(f"the two sides disagree on the catalog results: {sorted(digests)}")

    passes = {side: [t for run in runs[side] for t in run["times"]] for side in sides}
    lemmas = list(passes["before"][0])
    table = {}
    for name in [*lemmas, "total"]:
        row = {}
        for side in sides:
            values = [sum(t.values()) if name == "total" else t[name] for t in passes[side]]
            row[side] = spread(values)
        row["after_over_before"] = round(row["after"]["median"] / row["before"]["median"], 3)
        table[name] = row
    record = {
        "machine": machine(),
        "python": platform.python_version(),
        "command": "python benchmarks/bench_thresholds.py --before <checkout>/src --after <checkout>/src "
                   f"--rounds {args.rounds} --passes {args.passes}",
        "points": runs["before"][0]["points"],
        "results_digest": digests.pop(),
        "method": f"{args.rounds} alternating rounds, one fresh interpreter per side per round, "
                  f"one untimed pass then {args.passes} timed passes each; milliseconds per pass, "
                  "summed over the grid points of each lemma id",
        "pass_ms": table,
    }
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
