"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live). Sample sizes and time budgets are
pinned here; nothing is deferred to later calibration.
"""

import random
import time
from itertools import product

from oracles import all_graphs, brute_chromatic, brute_components, brute_count_induced, has_stable_set, has_triangle

from chibound.certificates import validate_gyarfas, validate_spire, validate_starry, validate_x_split
from chibound.coloring import chi_local, chromatic_number, clique_number
from chibound.counterexamples import build_counterexample
from chibound.embed import count_induced_embeddings, find_induced_embedding, is_kd_starry
from chibound.generators import (
    cycle_graph,
    grotzsch,
    kneser,
    mycielski_tower,
    path_graph,
    petersen,
    random_graph,
    shift_graph,
    star_graph,
)
from chibound.graphs import Graph, induced_subgraph, vertex_mask
from chibound.harness import ExperimentConfig, run_experiment
from chibound.machinery import (
    d_equipment,
    find_spire,
    find_x_split,
    gyarfas_path,
    induced_path_centered,
    properly_d_equipped,
)
from chibound.thresholds import lemma_threshold, ramsey_bound


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def chi_of(g, s):
    sub, _ = induced_subgraph(g, s)
    return chromatic_number(sub)[0]


def test_criterion_01_chi_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for n in range(6):
        for g in all_graphs(n):
            assert chromatic_number(g)[0] == brute_chromatic(g)
            checked += 1
    ps = ("0.15", "0.3", "0.5", "0.7", "0.85")
    for i in range(2000):
        g = random_graph(1 + i % 7, ps[(i // 7) % 5], 100_000 + i)
        assert chromatic_number(g)[0] == brute_chromatic(g)
        checked += 1
    elapsed = time.monotonic() - t0
    report(1, "chi oracle equivalence", elapsed < 60, f"{checked} graphs, {elapsed:.1f}s")


def test_criterion_02_generator_sanity():
    t0 = time.monotonic()
    ok = True
    details = []
    for t in range(1, 4):
        g = mycielski_tower(t)
        chi = chromatic_number(g)[0]
        omega = clique_number(g)[0]
        details.append(f"t={t}: chi={chi} omega={omega}")
        ok = ok and chi == t + 2 and omega == 2
    elapsed = time.monotonic() - t0
    report(2, "tower generator sanity", ok and elapsed < 120, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_03_local_chromatic_convention():
    for k in range(1, 6):
        assert chi_local(Graph(0), k) == 0
    corpus = [
        path_graph(6),
        star_graph(4),
        cycle_graph(5),
        cycle_graph(9),
        petersen(),
        grotzsch(),
        mycielski_tower(3),
        kneser(7, 3),
        shift_graph(5),
    ]
    ok = True
    for g in corpus:
        assert not has_triangle(g) and g.edge_count > 0
        ok = ok and chi_local(g, 1) == 2
    report(3, "local chromatic convention", ok, f"null for k=1..5 and {len(corpus)} triangle-free hosts")


def test_criterion_04_stable_removal_degree_property():
    t0 = time.monotonic()
    instances = 0
    violations = 0
    seed = 0
    ps = ("0.2", "0.35", "0.5", "0.65", "0.8")
    while instances < 10_000:
        n = 5 + seed % 5
        g = random_graph(n, ps[(seed // 5) % 5], 200_000 + seed)
        seed += 1
        chi, witness = chromatic_number(g)
        if chi < 1:
            continue
        candidates = []
        for color in range(1, chi + 1):
            candidates.append(frozenset(v for v in range(g.n) if witness.colors[v] == color))
        rng = random.Random(300_000 + seed)
        order = list(range(g.n))
        rng.shuffle(order)
        stable = []
        for v in order:
            if all(not g.has_edge(v, u) for u in stable):
                stable.append(v)
        candidates.append(frozenset(stable))
        for x_set in candidates:
            # hypotheses, verified exactly
            if any(g.has_edge(u, v) for u in x_set for v in x_set if u < v):
                continue
            if chi_of(g, frozenset(range(g.n)) - x_set) >= chi:
                continue
            outside = vertex_mask(g, frozenset(range(g.n)) - x_set)
            best = max((g.adjacency_mask(v) & outside).bit_count() for v in x_set)
            for d in range(chi):
                instances += 1
                if best < d:
                    violations += 1
    elapsed = time.monotonic() - t0
    report(
        4,
        "stable removal degree property",
        violations == 0 and elapsed < 600,
        f"{instances} instances, {violations} violations, {elapsed:.1f}s",
    )


def _gyarfas_instances():
    yield grotzsch()
    yield petersen()
    yield kneser(6, 2)
    yield Graph(12, grotzsch().edges() + [(11, 0)])
    i = 0
    while True:
        n = 10 + i % 11
        p = ("0.12", "0.2", "0.3")[i % 3]
        yield random_graph(n, p, 400_000 + i)
        i += 1


def test_criterion_05_gyarfas_closed_loop():
    t0 = time.monotonic()
    instances = 0
    graphs = 0
    gen = _gyarfas_instances()
    while instances < 1000 and graphs < 600:
        g = next(gen)
        graphs += 1
        if g.n == 0:
            continue
        chi1 = chi_local(g, 1)
        for x0 in range(min(5, g.n)):
            region = frozenset(range(g.n)) - {x0}
            comps = [
                c for c in brute_components(g, region) if g.adjacency_mask(x0) & vertex_mask(g, c)
            ]
            if not comps:
                continue
            best = max(comps, key=lambda c: (chi_of(g, c), -min(c)))
            best_chi = chi_of(g, best)
            for k in range(0, 4):
                if best_chi <= k * chi1:
                    break
                res = gyarfas_path(g, best, x0, k)
                ok, clause = validate_gyarfas(g, frozenset(best), res)
                assert ok, f"gyarfas postcondition {clause} failed"
                instances += 1
    elapsed = time.monotonic() - t0
    report(
        5,
        "gyarfas path closed loop",
        instances >= 1000,
        f"{instances} instances over {graphs} graphs, {elapsed:.1f}s",
    )


def test_criterion_06_embedding_oracle_equivalence():
    t0 = time.monotonic()
    disagreements = 0
    pairs = 0
    for i in range(1000):
        pattern = random_graph(2 + i % 5, ("0.3", "0.5", "0.7")[i % 3], 500_000 + i)
        host = random_graph(6 + i % 5, ("0.25", "0.45", "0.65")[(i // 3) % 3], 600_000 + i)
        emb = find_induced_embedding(host, pattern)
        cnt = count_induced_embeddings(host, pattern)
        if (emb is not None) != (cnt > 0):
            disagreements += 1
        pairs += 1
        if i % 97 == 0 and host.n <= 8 and pattern.n <= 4:
            assert cnt == brute_count_induced(host, pattern)
    elapsed = time.monotonic() - t0
    report(
        6,
        "embedding oracle equivalence",
        disagreements == 0,
        f"{pairs} pairs, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_07_counterexample_k2():
    t0 = time.monotonic()
    res = build_counterexample("split-pairs", 2)
    v = res.special_vertex
    rest = [u for u in range(res.graph.n) if u != v]
    ok = (
        res.chi_after == 3
        and chromatic_number(res.graph)[0] == 3
        and chi_of(res.graph, rest) == 2
        and induced_path_centered(res.graph, v, 2) is None
    )
    elapsed = time.monotonic() - t0
    report(7, "counterexample k=2", ok and elapsed < 10, f"n={res.graph.n}, {elapsed:.1f}s")


def test_criterion_08_counterexample_k3():
    t0 = time.monotonic()
    res = build_counterexample("split-pairs", 3)
    v = res.special_vertex
    rest = [u for u in range(res.graph.n) if u != v]
    ok = (
        res.chi_after == 4
        and chromatic_number(res.graph)[0] == 4
        and chi_of(res.graph, rest) == 3
        and induced_path_centered(res.graph, v, 2) is None
    )
    elapsed = time.monotonic() - t0
    report(8, "counterexample k=3", ok and elapsed < 600, f"n={res.graph.n}, {elapsed:.1f}s")


def test_criterion_09_counterexample_single_row():
    t0 = time.monotonic()
    res = build_counterexample("single-row", 3)
    v = res.special_vertex
    ground = frozenset(range(res.graph.n)) - {v}
    proper = properly_d_equipped(res.graph, v, ground, 2)
    plain = d_equipment(res.graph, v, ground, 2)
    elapsed = time.monotonic() - t0
    report(
        9,
        "counterexample single-row",
        proper is None and elapsed < 600,
        f"n={res.graph.n}, proper absent, plain {'present' if plain else 'absent'}, {elapsed:.1f}s",
    )


def test_criterion_10_threshold_formulas():
    ok = (
        lemma_threshold("T2.2", {"c": 0, "tau": 1}).value == 6
        and lemma_threshold("T5.1", {"c": 1, "d": 1, "tau": 1}).value == 4
        and lemma_threshold("T3.2", {"c": 0, "tau": 0, "d": 2, "k": 3}).value == 0
        and ramsey_bound(3, 3) == 6
    )
    # monotone over a sampled grid; k of the T4 family only selects the
    # case and is swept within the uniform regime
    grids = {
        "T2.2": {"c": range(3), "tau": range(3)},
        "T2.5": {"d": range(1, 4), "tau": range(3)},
        "T2.7": {"a": range(2), "b": range(2), "d": range(1, 3), "tau": range(2)},
        "T3.2": {"c": range(2), "tau": range(2), "d": range(1, 3), "k": range(1, 3)},
        "T4.1": {"k": range(2, 4), "d": range(1, 3), "tau": range(2)},
        "T5.1": {"c": range(3), "d": range(2), "tau": range(3)},
        "T5.2": {"n": range(3), "c": range(2), "d": range(2), "tau": range(2)},
        "T6.1": {"c": range(2), "d": range(1, 3), "tau": range(2)},
    }
    for lemma, grid in grids.items():
        names = list(grid)
        for point in product(*(grid[n] for n in names)):
            base = dict(zip(names, point))
            v0 = lemma_threshold(lemma, base).value
            for bump in names:
                nxt = {**base, bump: base[bump] + 1}
                v1 = lemma_threshold(lemma, nxt).value
                ok = ok and v1 is not None and v1 >= v0
    # ramsey sharpness: five vertices fail via the five-cycle, six always work
    c5 = cycle_graph(5)
    ok = ok and not has_triangle(c5) and not has_stable_set(c5, 3)
    sampled = 0
    for i in range(1500):
        g = random_graph(6, ("0.2", "0.4", "0.6", "0.8")[i % 4], 700_000 + i)
        ok = ok and (has_triangle(g) or has_stable_set(g, 3))
        sampled += 1
    report(10, "threshold formulas", ok, f"spot values, sweeps, ramsey sample {sampled}")


def test_criterion_11_searcher_validator_closed_loop():
    t0 = time.monotonic()
    corpus = [
        cycle_graph(5),
        path_graph(7),
        petersen(),
        grotzsch(),
        kneser(6, 2),
        mycielski_tower(3),
    ] + [random_graph(10 + i % 16, ("0.2", "0.35", "0.5")[i % 3], 800_000 + i) for i in range(40)]
    spires = splits = starries = 0
    for g in corpus:
        got = find_spire(g, 1, 0)
        if got is not None:
            spire, dom = got
            ok, clause = validate_spire(g, spire, dom)
            assert ok, f"spire revalidation failed: {clause}"
            spires += 1
        chi, witness = chromatic_number(g)
        if chi:
            x_ground = frozenset(v for v in range(g.n) if witness.colors[v] == 1)
            split = find_x_split(g, x_ground, 0)
            if split is not None:
                ok, clause = validate_x_split(g, x_ground, split)
                assert ok, f"split revalidation failed: {clause}"
                splits += 1
        if g.n <= 20:
            cert = is_kd_starry(g, 1, 1)
            if cert is not None:
                ok, clause = validate_starry(g, cert)
                assert ok, f"starry revalidation failed: {clause}"
                starries += 1
    got = find_spire(grotzsch(), 1, 1)
    assert got is not None
    spire, dom = got
    ok, clause = validate_spire(grotzsch(), spire, dom)
    assert ok and chi_of(grotzsch(), dom) >= 2
    elapsed = time.monotonic() - t0
    report(
        11,
        "searcher validator closed loop",
        spires > 10 and splits > 10 and starries > 5,
        f"{spires} spires, {splits} splits, {starries} starry certs, {elapsed:.1f}s",
    )


def test_criterion_12_determinism(tmp_path):
    config = ExperimentConfig.from_dict(
        {
            "corpus": [
                {"generator": "cycle", "n": 5},
                {"generator": "petersen"},
                {"generator": "grotzsch"},
                {"generator": "random", "n": 9, "p": "0.4", "seed": 23},
                {"generator": "random", "n": 12, "p": "0.25", "seed": 24},
            ],
            "checks": [
                {"check": "invariants"},
                {"check": "stable_removal_degree"},
                {"check": "gyarfas", "k_max": 2, "starts": 3},
                {"check": "x_split", "min_chi": 0},
                {"check": "spire", "d": 1, "min_chi": 0},
                {"check": "starry", "k": 1, "d": 1},
                {"check": "counterexample", "variant": "split-pairs", "k": 2},
            ],
        }
    )
    import os

    def tree(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for name in files:
                if name == "timings.csv":
                    continue
                with open(os.path.join(dirpath, name), "rb") as fh:
                    out[os.path.relpath(os.path.join(dirpath, name), root)] = fh.read()
        return out

    r1 = run_experiment(config, output_dir=str(tmp_path / "one"))
    r2 = run_experiment(config, output_dir=str(tmp_path / "two"))
    t1, t2 = tree(tmp_path / "one"), tree(tmp_path / "two")
    identical = t1.keys() == t2.keys() and all(t1[k] == t2[k] for k in t1)
    report(
        12,
        "experiment determinism",
        identical and r1.summary == r2.summary and r1.summary["violations"] == 0,
        f"{len(t1)} files byte-identical, {r1.summary['rows']} rows",
    )
