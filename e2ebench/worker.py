"""One workload in one fresh interpreter; run.py starts it and reads the
JSON object it prints as its last line.

Modes:
  setup    import chibound and build the workload's inputs, report the time;
  measure  setup, a few warm-up ops, then timed passes for --seconds (and
           at least MIN_SAMPLES ops), every answer checked; tracing off;
           times are corrected for the speed of the shared CPU (see
           speed_corrected);
  trace    setup, a few warm-up ops, then pairs of (untraced, traced) passes
           on the same inputs for --seconds; per-layer numbers come from
           the traced passes, trace.overhead from the pairs.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 100  # p90 needs at least 10 samples beyond it
WARMUP_OPS = 10  # run untimed first, so first-call costs stay out of the timings
# The reference loop is timed before every op. Its nominal time is what it
# takes on a quiet core of the machine where the bounds were set (Python
# 3.11.7); corrected times read as milliseconds on such a core.
REF_NOMINAL_S = 0.00013
REF_WINDOW = 10  # references on each side of an op that give its CPU speed
SETUP_REFS = 40  # references on each side of the set-up


def reference():
    """Fixed pure-Python work outside chibound: calls with keywords, tuple
    and dict traffic, f-strings and a big-int product, the mix the
    package's ops run. Only its time matters."""

    def leaf(a, b=1):
        return (a * 31 + b) & 0xFFFF

    acc, table, parts = 0, {}, []
    for i in range(300):
        key = (i, i + 1)
        table[key] = leaf(i, b=key[1])
        acc += table.get((i - 1, i), 0)
        if i % 10 == 0:
            parts.append(f"{i}:{acc:x}")
    return acc + len("".join(parts)) + 3**400 * 7**300 % 1000003


def time_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def speed_corrected(latencies, refs):
    """Each op's time scaled to the nominal CPU speed.

    On a shared 2-vCPU host, other tenants' load moved the CPU speed by up
    to 2x within seconds, for every op alike. An op's speed is the median
    time of the references run around it, so a corrected latency is
    ``latency * REF_NOMINAL_S / that median``. A change to chibound leaves
    the references alone and shows in full."""
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        out.append(latency * REF_NOMINAL_S / local)
    return out


def setup(args):
    """Import chibound and build the inputs; returns (workload, seconds,
    seconds corrected for the CPU speed measured around it)."""
    refs = [time_reference() for _ in range(SETUP_REFS)]
    t0 = time.perf_counter()
    import chibound
    import workloads

    if Path(chibound.__file__).resolve().parent != ROOT / "src" / "chibound":
        raise SystemExit(f"imported chibound from {chibound.__file__}, not from {ROOT / 'src'}")
    workload = workloads.build(args.workload, args.seed, Path(args.out) / "work")
    seconds = time.perf_counter() - t0
    refs += [time_reference() for _ in range(SETUP_REFS)]
    return workload, seconds, seconds * REF_NOMINAL_S / statistics.median(refs)


def run_pass(ops, errors, run=lambda op: op.run(), stop=lambda latencies: False, refs=None):
    """Run ops back to back until ``stop(latencies)``; returns per-op
    latencies. Each answer is checked after its op, outside the timed
    interval. With ``refs``, the reference loop is timed before each op,
    also outside it."""
    latencies = []
    for op in ops:
        if stop(latencies):
            break
        if refs is not None:
            refs.append(time_reference())
        start = time.perf_counter()
        try:
            result = run(op)
        except Exception:
            latencies.append(time.perf_counter() - start)
            errors.append(f"{op.label}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}")
            continue
        latencies.append(time.perf_counter() - start)
        reason = op.check(result)
        if reason is not None:
            errors.append(f"{op.label}: {reason}")
    return latencies


def known_defects(workload):
    probe = getattr(workload, "known_defect_probe", None)
    if probe is None:
        return 0, 0, []
    failing, problems = probe()
    return failing, len(workload.defects), problems


def environment(args):
    import chibound

    return {
        "backend": chibound.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
    }


def measure(args):
    workload, raw_setup_s, setup_s = setup(args)
    errors, refs = [], []
    checked = len(run_pass(workload.make_pass(0)[:WARMUP_OPS], errors, refs=[]))
    latencies, index = [], 1
    deadline = time.perf_counter() + args.seconds

    def done(current):
        return time.perf_counter() >= deadline and len(latencies) + len(current) >= MIN_SAMPLES

    while not done([]):
        latencies += run_pass(workload.make_pass(index), errors, stop=done, refs=refs)
        index += 1
    failing, listed, problems = known_defects(workload)
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "latencies": speed_corrected(latencies, refs),
        "raw_latencies": latencies,
        "checked": checked + len(latencies),
        "passes": index - 1,
        "errors": errors,
        "problems": problems,
        "known_defects": [failing, listed],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(args),
    }


def trace(args):
    from tracer import Tracer

    workload = setup(args)[0]
    distinct = set()
    blocked = [0]

    def saw_graph(call_args, result):
        distinct.add(call_args[0])

    def saw_threshold(call_args, result):
        blocked[0] += result.blocked_at is not None

    tracer = Tracer({"coloring.chromatic_number": saw_graph, "thresholds.lemma_threshold": saw_threshold})
    errors = []
    checked = len(run_pass(workload.make_pass(0)[:WARMUP_OPS], errors))
    per_pass, untraced_wall, traced_wall = [], 0.0, 0.0
    op_ids = itertools.count()
    deadline = time.perf_counter() + args.seconds
    index = 1
    while time.perf_counter() < deadline or not per_pass:
        untraced = run_pass(workload.make_pass(index), errors)
        untraced_wall += sum(untraced)
        tracer.reset()
        distinct.clear()
        blocked[0] = 0
        if hasattr(workload, "bytes_written"):
            workload.bytes_written = 0
        ops = workload.make_pass(index)
        tracer.install()
        try:
            traced = run_pass(ops, errors, run=lambda op: tracer.run_op(next(op_ids), op.run))
        finally:
            tracer.uninstall()
        wall = sum(traced)
        traced_wall += wall
        checked += len(untraced) + len(traced)
        tracer.keep_spans = False
        per_pass.append(layer_metrics(tracer, wall, len(distinct), blocked[0], getattr(workload, "bytes_written", 0)))
        index += 1
    failing, listed, problems = known_defects(workload)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead"] = traced_wall / untraced_wall
    metrics["thresholds.format_result.int_str_errors"] = failing
    out = Path(args.out) / f"spans-{args.workload}-{args.seed}.tsv"
    tracer.write_spans(out)
    return {"metrics": metrics, "passes": len(per_pass), "checked": checked, "errors": errors, "problems": problems, "spans": str(out), "env": environment(args)}


def layer_metrics(tracer, wall, distinct_graphs, blocked, bytes_written):
    """Per-layer numbers of one traced pass."""
    m = {}
    for k in ("k_color", "greedy_clique", "max_clique", "find_embedding", "count_embeddings"):
        m[f"kernels.{k}.calls"] = tracer.calls[f"kernels.{k}"]
        m[f"kernels.{k}.busy_s"] = tracer.busy[f"kernels.{k}"]
    m["kernels.share"] = tracer.layer_self("kernels") / wall
    chi_calls = tracer.calls["coloring.chromatic_number"]
    m["coloring.chromatic_number.calls"] = chi_calls
    m["coloring.chromatic_number.distinct_ratio"] = distinct_graphs / chi_calls if chi_calls else 0.0
    m["coloring.chi_local.calls"] = tracer.calls["coloring.chi_local"]
    m["graphs.induced_subgraph.calls"] = tracer.calls["graphs.induced_subgraph"]
    m["graphs.Graph.calls"] = tracer.calls["graphs.Graph"]
    m["embed.calls"] = tracer.layer_calls("embed")
    m["machinery.calls"] = tracer.layer_calls("machinery")
    m["certificates.validate.calls"] = tracer.layer_calls("certificates", "validate_")
    lt_calls = tracer.calls["thresholds.lemma_threshold"]
    m["thresholds.lemma_threshold.calls"] = lt_calls
    m["thresholds.blocked_ratio"] = blocked / lt_calls if lt_calls else 0.0
    m["thresholds.format_result.busy_s"] = tracer.busy["thresholds.format_result"]
    for layer in ("coloring", "graphs", "embed", "trees", "machinery", "certificates", "counterexamples",
                  "thresholds", "graphio", "generators", "harness"):
        m[f"{layer}.self_s"] = tracer.layer_self(layer)
    m["harness.bytes_written"] = bytes_written
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--out", required=True, help="scratch directory for outputs and spans")
    args = parser.parse_args()
    if args.mode == "setup":
        _, raw_setup_s, setup_s = setup(args)
        result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s}
    elif args.mode == "measure":
        result = measure(args)
    else:
        result = trace(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
