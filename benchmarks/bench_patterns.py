#!/usr/bin/env python3
"""Time e2ebench `patterns` passes in one interpreter, optionally A/B
against a second checkout.

A pass is the 23 ops of e2ebench's patterns workload (induced-embedding
finds, anchored finds, counts and starriness tests on freshly relabelled
hosts); only the time inside the ops is summed, and every answer is
checked against e2ebench/expected.json outside it. Each round runs
--passes passes.

Without --before it times --rounds rounds after one untimed warm-up pass
and prints one JSON object with the milliseconds per pass of each round.

With --before PATH it also loads PATH/src/chibound, a second checkout, as
the package chibound_before, so its embed.py, trees.py and
_kernels/pykernels.py run under other module names next to this one. Both
sides run each pass, on the same host objects, one after the other, in
alternating order (before first in even passes, after first in odd ones),
and the script prints each round's ratio, after over before, then their
median. Ratios taken this way cancel most of the machine's speed drift,
which moves separate runs by more than a few percent. Both sides must
select the same kernel backend.

Usage, from the root of a checkout; PYTHONPATH picks the chibound to time:

    PYTHONPATH=src python benchmarks/bench_patterns.py --before ../parent --rounds 20
"""

import argparse
import importlib
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_before(path):
    """The chibound package of the checkout at path, imported as
    chibound_before with its submodules under that name."""
    pkg = Path(path).resolve() / "src" / "chibound"
    spec = importlib.util.spec_from_file_location(
        "chibound_before", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def timed_pass(workloads, ops, embed, trees):
    """Seconds spent inside ops, run with workloads' embed and trees set to
    the given modules; a wrong answer raises AssertionError."""
    saved = workloads.embed, workloads.trees
    workloads.embed, workloads.trees = embed, trees
    try:
        total = 0.0
        for op in ops:
            start = time.perf_counter()
            result = op.run()
            total += time.perf_counter() - start
            reason = op.check(result)
            if reason is not None:
                raise AssertionError(f"{op.label}: {reason}")
        return total
    finally:
        workloads.embed, workloads.trees = saved


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--before", metavar="PATH", help="root of a second checkout to compare against")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    import chibound

    sys.path.insert(0, str(ROOT / "e2ebench"))
    import workloads

    sides = {"after": (workloads.embed, workloads.trees)}
    if args.before:
        before = load_before(args.before)
        if before.KERNEL_BACKEND != chibound.KERNEL_BACKEND:
            raise SystemExit(f"backends differ: before {before.KERNEL_BACKEND}, after {chibound.KERNEL_BACKEND}")
        sides["before"] = (importlib.import_module("chibound_before.embed"), importlib.import_module("chibound_before.trees"))

    workload = workloads.build("patterns", args.seed, None)
    for embed, trees in sides.values():
        timed_pass(workloads, workload.make_pass(0), embed, trees)

    ms = {name: [] for name in sides}
    ratios = []
    for r in range(args.rounds):
        seconds = dict.fromkeys(sides, 0.0)
        for i in range(args.passes):
            ops = workload.make_pass(1 + r * args.passes + i)
            for name in sorted(sides, reverse=i % 2 == 0):  # "before" first in even passes
                seconds[name] += timed_pass(workloads, ops, *sides[name])
        for name in sides:
            ms[name].append(round(seconds[name] / args.passes * 1000, 3))
        if args.before:
            ratios.append(ms["after"][-1] / ms["before"][-1])
            print(f"round {r + 1:3d}: before {ms['before'][-1]:8.3f} ms/pass  after {ms['after'][-1]:8.3f} ms/pass"
                  f"  x{ratios[-1]:.3f}", file=sys.stderr)

    out = {
        "backend": chibound.KERNEL_BACKEND,
        "package": str(Path(chibound.__file__).parent),
        "python": platform.python_version(),
        "seed": args.seed,
        "passes_per_round": args.passes,
        "ms_per_pass": ms,
    }
    if args.before:
        out["before"] = str(Path(args.before).resolve())
        out["ratio_per_round"] = [round(x, 4) for x in ratios]
        out["median_ratio"] = round(statistics.median(ratios), 4)
        out["rounds_faster"] = sum(x < 1 for x in ratios)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
