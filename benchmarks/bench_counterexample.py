#!/usr/bin/env python3
"""Time the split-pairs k = 4 counterexample build on one kernel backend.

Each run calls counterexamples.build_counterexample("split-pairs", 4) from
scratch (the chi memo lives on each Graph, so runs share nothing) and
checks the sha256 of the resulting graph's graph6 text against GRAPH_SHA256.
It prints one JSON object: the times, their median, the k_color calls
per build and the graph size. A k_color call is one k-sweep: a chromatic
number costs one call, however many k it tries.

Usage, from the root of a checkout; PYTHONPATH picks the chibound to time:

    PYTHONPATH=src python benchmarks/bench_counterexample.py --backend py --repeat 3

--backend c builds the tracked C kernels into a temporary directory with
bench_survey.load_built_c_kernels and loads them from there.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path

from bench_survey import count_kernel_calls, load_built_c_kernels

GRAPH_SHA256 = "5cffd1f6fa15ca3f4c9070cb65c9c523125410734daaf31804c2818f616057ac"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--backend", choices=("py", "c"), default="py")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        if args.backend == "c":
            load_built_c_kernels(Path(tmp) / "build")
        os.environ["CHIBOUND_KERNELS"] = args.backend
        import chibound
        from chibound import _kernels
        from chibound.counterexamples import build_counterexample
        from chibound.graphio import write_graph6

        calls = count_kernel_calls(_kernels, ("k_color",))
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            res = build_counterexample("split-pairs", 4)
            times.append(time.perf_counter() - start)
            digest = hashlib.sha256(write_graph6(res.graph).encode()).hexdigest()
            if digest != GRAPH_SHA256:
                raise SystemExit(f"split-pairs k=4 graph changed: sha256 {digest}")

    print(json.dumps({
        "backend": chibound.KERNEL_BACKEND,
        "package": str(Path(chibound.__file__).parent),
        "python": platform.python_version(),
        "n": res.graph.n,
        "gadgets": len(res.gadgets_added),
        "build_s": [round(t, 3) for t in times],
        "median_s": round(statistics.median(times), 3),
        "calls_per_build": {name: count // args.repeat for name, count in calls.items()},
    }))


if __name__ == "__main__":
    main()
