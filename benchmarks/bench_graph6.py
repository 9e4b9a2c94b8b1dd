#!/usr/bin/env python3
"""Time the graph6 codec against a baseline codec.

The baseline is tests/oracles.py's reference_parse_graph6 and
reference_write_graph6, one big-int shift per vertex pair, or with
--baseline SRC the parse_graph6 and write_graph6 of the chibound package
under SRC, such as the src directory of another checkout, loaded under
another name. The codec is chibound.graphio's. Both run in this
interpreter, alternating which goes first in each round, on the same
inputs; every input is first checked to give the same line and the same
graph on both.

Cases: parse and write of random(n, 0.1) for n = 20, 50, 310 and 800, and
one "survey pass": writing the graph6 line of every survey graph of
e2ebench (its 54 corpus graphs and the 3 counterexample graphs), as the
harness writes one line per instance. A case's per-call time is the
median over --rounds rounds. It prints one JSON object.

Usage, from the root of a checkout; PYTHONPATH picks the chibound to time:

    PYTHONPATH=src python benchmarks/bench_graph6.py --rounds 10
    PYTHONPATH=src python benchmarks/bench_graph6.py --baseline ../parent/src
"""

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def per_call(fn, arg, number):
    start = time.perf_counter()
    for _ in range(number):
        fn(arg)
    return (time.perf_counter() - start) / number


def ab(base, new, arg, number, rounds):
    """Seconds per call of base and of new over rounds alternating rounds."""
    base_s, new_s = [], []
    for r in range(rounds):
        pair = [(base, base_s), (new, new_s)]
        for fn, out in pair if r % 2 == 0 else pair[::-1]:
            out.append(per_call(fn, arg, number))
    return base_s, new_s


def baseline_codec(src):
    """(parse_graph6, write_graph6) of the chibound package under src,
    imported as chibound_baseline so that it does not shadow chibound."""
    init = Path(src).resolve() / "chibound" / "__init__.py"
    spec = importlib.util.spec_from_file_location("chibound_baseline", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    from chibound_baseline import graphio

    return graphio.parse_graph6, graphio.write_graph6


def summary(base_s, new_s):
    base, new = statistics.median(base_s), statistics.median(new_s)
    return {
        "baseline_median_s": float(f"{base:.4g}"),
        "new_median_s": float(f"{new:.4g}"),
        "baseline_range_s": [float(f"{min(base_s):.4g}"), float(f"{max(base_s):.4g}")],
        "new_range_s": [float(f"{min(new_s):.4g}"), float(f"{max(new_s):.4g}")],
        "speedup": round(base / new, 2),
        "new_faster_rounds": f"{sum(n < b for b, n in zip(base_s, new_s))} of {len(base_s)}",
    }


def survey_graphs():
    from chibound import harness
    from chibound.counterexamples import build_counterexample

    sys.path.insert(0, str(ROOT / "e2ebench"))
    from workloads import SURVEY_COUNTEREXAMPLES, SURVEY_FIXED, SURVEY_POOL

    graphs = [harness._graph_of(entry)[0] for entry in SURVEY_FIXED + SURVEY_POOL]
    graphs += [build_counterexample(c["variant"], c["k"]).graph for c in SURVEY_COUNTEREXAMPLES]
    return graphs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--survey-rounds", type=int, default=40)
    parser.add_argument("--baseline", metavar="SRC", help="time the codec of the chibound under SRC, not the reference")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "tests"))
    import chibound
    from chibound.generators import random_graph
    from chibound.graphio import parse_graph6, write_graph6

    if args.baseline:
        base_parse, base_write = baseline_codec(args.baseline)
    else:
        from oracles import reference_parse_graph6 as base_parse, reference_write_graph6 as base_write

    cases = {}
    for n in (20, 50, 310, 800):
        g = random_graph(n, "0.1", n)
        line = write_graph6(g)
        # graphs of two packages compare by their edges
        assert line == base_write(g) and parse_graph6(line).edges() == base_parse(line).edges()
        number = max(1, 20000 // (n * n))
        cases[f"parse random({n}, 0.1)"] = summary(*ab(base_parse, parse_graph6, line, number, args.rounds))
        cases[f"write random({n}, 0.1)"] = summary(*ab(base_write, write_graph6, g, number, args.rounds))

    graphs = survey_graphs()
    assert all(write_graph6(g) == base_write(g) for g in graphs)
    cases[f"write the {len(graphs)} survey graphs (one pass)"] = summary(*ab(
        lambda gs: [base_write(g) for g in gs], lambda gs: [write_graph6(g) for g in gs],
        graphs, 1, args.survey_rounds,
    ))

    print(json.dumps({
        "package": str(Path(chibound.__file__).parent),
        "baseline": args.baseline or "tests/oracles.py reference codec",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": args.rounds,
        "survey_rounds": args.survey_rounds,
        "cases": cases,
    }, indent=1))


if __name__ == "__main__":
    main()
