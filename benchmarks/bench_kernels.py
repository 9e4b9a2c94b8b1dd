#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Runs identical workloads through both backends and prints a small table
with the speedup. Results are asserted equal along the way, so this also
doubles as an equivalence spot check. When the compiled module is not
importable, the tracked C is built with setup.py into a temporary
directory, as benchmarks/bench_survey.py does; without a C compiler only
the fallback is timed.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import subprocess
import tempfile
import time
from pathlib import Path

from bench_survey import load_built_c_kernels
from chibound._kernels import pykernels
from chibound.coloring import chromatic_number
from chibound.embed import _search_plan
from chibound.generators import complete_graph, kneser, mycielski_tower, random_graph, shift_graph
from chibound.trees import binary_star, bristle, bristled_star, broom, double_broom, path_tree, superstar


def embedding_args(host, pattern, anchor=None, count=False):
    """The embedding kernel arguments of a search plan: host adjacency,
    pattern rows, above and candidates. count=True gives the plan that
    count_induced_embeddings runs, else find_induced_embedding's. A count
    row times the constrained count, which the plan's factor scales to the
    full one."""
    _, *plan, _ = _search_plan(host, pattern, anchor, count)
    return (host.adjacency_masks(), *plan)


def workloads():
    tower = mycielski_tower(3)
    dense = random_graph(42, "0.5", 99)
    dense40 = random_graph(40, "0.5", 7919 * 40 + 22)  # a chi_hard pool graph
    chi40 = chromatic_number(dense40)[0]
    sparse = random_graph(70, "0.12", 7)
    host = kneser(6, 2)
    pat = bristled_star(1, 2)
    wide = random_graph(80, "0.3", 11)  # past one 64-bit word, and no K7 in it
    cliques = [random_graph(70, "0.5", seed) for seed in range(100)]
    yield (
        "chi(tower23) = 5",
        lambda m: m.k_color(tower.adjacency_masks(), 5),
    )
    yield (
        "refute 4-coloring tower23",
        lambda m: m.k_color(tower.adjacency_masks(), 4),
    )
    yield (
        f"chi(random(40, .5)) = {chi40}",
        lambda m: m.k_color(dense40.adjacency_masks(), chi40),
    )
    yield (
        f"refute {chi40 - 1}-coloring random(40, .5)",
        lambda m: m.k_color(dense40.adjacency_masks(), chi40 - 1),
    )
    # whole chi sweeps from k = 1, as chromatic_number makes them
    yield (
        "chi sweep tower23",
        lambda m: m.k_color(tower.adjacency_masks(), 1, 0, tower.n),
    )
    yield (
        "chi sweep random(40, .5)",
        lambda m: m.k_color(dense40.adjacency_masks(), 1, 0, dense40.n),
    )
    yield (
        "refute 3-coloring random(70, .12)",
        lambda m: m.k_color(sparse.adjacency_masks(), 3),
    )
    yield (
        "max clique random(42, .5)",
        lambda m: m.max_clique(dense.adjacency_masks()),
    )
    yield (
        "max clique random(40, .5)",
        lambda m: m.max_clique(dense40.adjacency_masks()),
    )
    yield (
        "greedy clique x100 random(70, .5)",
        lambda m: [m.greedy_clique(g.adjacency_masks()) for g in cliques],
    )
    args = embedding_args(host, pat, count=True)
    yield ("count star in kneser(6,2)", lambda m: m.count_embeddings(*args))
    wide_args = embedding_args(wide, complete_graph(7))
    yield ("refute K7 in random(80, .3)", lambda m: m.find_embedding(*wide_args))
    # the heaviest ops of the e2ebench patterns menu; random(30, .15) is
    # the first host of its random pool
    k72, s7, r30 = kneser(7, 2), shift_graph(7), random_graph(30, "0.15", 4099)
    for name, pattern, host, host_name in [
        ("bristle(1,2)", bristle(1, 2).graph, k72, "kneser(7,2)"),
        ("broom(2,2)", broom(2, 2).graph, k72, "kneser(7,2)"),
        ("superstar(2)", superstar(2).graph, k72, "kneser(7,2)"),
        ("superstar(3)", superstar(3).graph, s7, "shift(7)"),
        ("path(5)", path_tree(5).graph, r30, "random(30, .15)"),
        ("double_broom(2,2,2)", double_broom(2, 2, 2), r30, "random(30, .15)"),
    ]:
        menu_args = embedding_args(host, pattern, count=True)
        yield (f"count {name} in {host_name}", lambda m, a=menu_args: m.count_embeddings(*a))
    absent_args = embedding_args(k72, superstar(3).graph)
    yield ("refute superstar(3) in kneser(7,2)", lambda m: m.find_embedding(*absent_args))
    refute_args = embedding_args(kneser(6, 2), binary_star(1, 2))
    yield ("refute binary_star(1,2) in kneser(6,2)", lambda m: m.find_embedding(*refute_args))
    # found only after about 3,000 nodes, past many dead ends
    deep_args = embedding_args(mycielski_tower(4), superstar(3).graph)
    yield ("find superstar(3) in tower24", lambda m: m.find_embedding(*deep_args))
    # early hits, under 0.1 ms: the fit rows a search builds must cost
    # little next to the few nodes it visits
    for name, pattern, early_host, host_name, anchor in [
        ("superstar(3)", superstar(3).graph, random_graph(30, "0.15", 4099), "random(30, .15)", None),
        ("superstar(2)", superstar(2).graph, k72, "kneser(7,2)", None),
        ("bristle(1,2) at (0, 5)", bristle(1, 2).graph, k72, "kneser(7,2)", (0, 5)),
    ]:
        early_args = embedding_args(early_host, pattern, anchor)
        yield (f"find {name} in {host_name}", lambda m, a=early_args: m.find_embedding(*a))


def compiled_module(build_dir):
    """The compiled kernels: the importable module, else one built from the
    tracked C into build_dir, else None."""
    try:
        from chibound._kernels import _ckernels

        return _ckernels
    except ImportError:
        pass
    try:
        return load_built_c_kernels(build_dir)
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        ckernels = compiled_module(Path(tmp))
        if ckernels is None:
            print("compiled kernels unavailable; timing the fallback only\n")
        rows = []
        for name, call in workloads():
            t0 = time.perf_counter()
            for _ in range(args.repeat):
                expected = call(pykernels)
            py_time = (time.perf_counter() - t0) / args.repeat
            if ckernels is not None:
                t0 = time.perf_counter()
                for _ in range(args.repeat):
                    got = call(ckernels)
                c_time = (time.perf_counter() - t0) / args.repeat
                assert got == expected, f"backend mismatch on {name}"
                rows.append((name, py_time, c_time))
            else:
                rows.append((name, py_time, None))

    width = max(len(r[0]) for r in rows)
    print(f"{'workload':<{width}}  {'python':>11}  {'compiled':>11}  {'speedup':>8}")
    for name, py_time, c_time in rows:
        if c_time is None:
            print(f"{name:<{width}}  {py_time * 1e3:>9.4f}ms  {'n/a':>11}  {'':>8}")
        else:
            print(
                f"{name:<{width}}  {py_time * 1e3:>9.4f}ms  {c_time * 1e3:>9.4f}ms  {py_time / c_time:>7.1f}x"
            )


if __name__ == "__main__":
    main()
