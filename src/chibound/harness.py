"""Experiment runner: seeded corpora, per-instance checks, CSV report,
and a re-validatable certificate store.

Reports are byte-identical across runs for a fixed config: every check is
a pure function of the instance, rows are assembled in corpus order, and
wall-clock timings go to a separate non-normative file.
"""

import csv
import hashlib
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .certificates import certificate_to_json, verify_certificate
from .coloring import chi_local, chromatic_number, clique_number
from .counterexamples import build_counterexample, check_counterexample_params
from .embed import is_kd_starry
from .errors import BudgetExceeded, ConstructionRefuted, _check_positive_int
from .generators import make_graph
from .graphio import parse_graph6, write_graph6
from .graphs import _component_masks, mask_to_set, set_to_mask
from .machinery import best_by_chi, find_spire, find_x_split, gyarfas_path, induced_path_centered

REPORT_VERSION = "chibound report v1"
COLUMNS = (
    "index",
    "generator",
    "graph_sha256",
    "n",
    "m",
    "omega",
    "chi",
    "chi1",
    "chi2",
    "check",
    "params",
    "outcome",
    "detail",
    "certificate",
)

GLOBAL_CHECKS = {"counterexample"}

# outcomes that count against the run
VIOLATION = "violation"


@dataclass
class ExperimentConfig:
    corpus: list
    checks: list
    budgets: dict = field(default_factory=dict)
    workers: int = 1

    @staticmethod
    def from_dict(obj):
        from .generators import GENERATORS

        corpus = obj.get("corpus", [])
        checks = obj.get("checks", [])
        for entry in corpus:
            if "graph6" in entry:
                continue
            name = entry.get("generator")
            if name is None:
                raise ValueError(f"corpus entry needs a generator or graph6: {entry}")
            if name not in GENERATORS:
                raise ValueError(f"unknown generator {name!r}")
            wanted = GENERATORS[name][1]
            missing = [w for w in wanted if w not in entry]
            if missing:
                raise ValueError(f"generator {name} needs {missing}: {entry}")
            if name == "random" and "seed" not in entry:
                raise ValueError(f"random corpus entries need an explicit seed: {entry}")
        for chk in checks:
            name = chk.get("check")
            if name not in KNOWN_CHECKS | GLOBAL_CHECKS:
                raise ValueError(f"unknown check {name!r}")
            _check_positive_int(chk.get("node_budget"), f"node_budget of check {name!r}")
            if name == "counterexample":
                check_counterexample_params(*_counterexample_args(chk))
        budgets = dict(obj.get("budgets", {}))
        _check_positive_int(budgets.get("search_nodes"), "budgets.search_nodes")
        workers = obj.get("workers", 1)
        _check_positive_int(workers, "workers", null_ok=False)
        return ExperimentConfig(
            corpus=list(corpus),
            checks=list(checks),
            budgets=budgets,
            workers=workers,
        )


@dataclass
class Report:
    rows: list
    summary: dict

    def to_csv(self):
        buf = io.StringIO()
        buf.write(f"# {REPORT_VERSION}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in self.rows:
            writer.writerow([row[c] for c in COLUMNS])
        return buf.getvalue()


def _graph_of(entry):
    if "graph6" in entry:
        return parse_graph6(entry["graph6"]), "graph6"
    params = {k: v for k, v in entry.items() if k != "generator"}
    return make_graph(entry["generator"], params), entry["generator"]


def _graph_id(g):
    return hashlib.sha256(write_graph6(g).encode()).hexdigest()


def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _check_invariants(g, base, params):
    ok = base["omega"] <= base["chi"] and base["chi1"] <= base["chi2"] <= base["chi"]
    detail = []
    want_chi = base.get("_expect_chi")
    want_omega = base.get("_expect_omega")
    if want_chi is not None and base["chi"] != want_chi:
        ok = False
        detail.append(f"chi={base['chi']} expected {want_chi}")
    if want_omega is not None and base["omega"] != want_omega:
        ok = False
        detail.append(f"omega={base['omega']} expected {want_omega}")
    return ("pass" if ok else VIOLATION), "; ".join(detail), None


def _check_stable_removal_degree(g, base, params):
    """Every stable X whose removal lowers chi must contain a vertex with
    at least d outside neighbors, for every d below chi. Instances are the
    color classes of the canonical optimal coloring."""
    chi, witness = base["chi"], base["_coloring"]
    if chi == 0:
        return "pass", "instances=0", None
    checked = 0
    for color in range(1, chi + 1):
        x_set = frozenset(v for v in range(g.n) if witness.colors[v] == color)
        outside = frozenset(range(g.n)) - x_set
        omask = set_to_mask(outside)
        best = max((g.adjacency_mask(v) & omask).bit_count() for v in x_set)
        for d in range(chi):
            checked += 1
            if best < d:
                return VIOLATION, f"class={color} d={d}", None
    return "pass", f"instances={checked}", None


def _check_gyarfas(g, base, params):
    k_max = params.get("k_max", 3)
    starts = params.get("starts", 3)
    budget = params.get("node_budget")
    chi1 = base["chi1"]
    checked = 0
    for x0 in range(min(starts, g.n)):
        region = ((1 << g.n) - 1) & ~(1 << x0)
        best, best_chi = best_by_chi(g, _component_masks(g, region, g.adjacency_mask(x0)), budget)
        if best is None:
            continue
        best_set = mask_to_set(best)
        for k in range(k_max + 1):
            if best_chi <= k * chi1:
                break
            try:
                gyarfas_path(g, best_set, x0, k)
            except AssertionError as e:
                return VIOLATION, f"x0={x0} k={k}: {e}", None
            checked += 1
    return "pass", f"instances={checked}", None


def _found(g, found, detail, **context):
    """Row for a found certificate, re-validated through its JSON form."""
    cert = certificate_to_json(found, **context)
    ok, clause = verify_certificate(g, cert)
    if not ok:
        return VIOLATION, f"revalidation failed: {clause}", None
    return "found", detail, cert


def _check_x_split(g, base, params):
    min_chi = params.get("min_chi", 0)
    chi, witness = base["chi"], base["_coloring"]
    if chi == 0:
        return "absent", "null graph", None
    x_set = frozenset(v for v in range(g.n) if witness.colors[v] == 1)
    cand = find_x_split(g, x_set, min_chi, node_budget=params.get("node_budget"))
    if cand is None:
        return "absent", f"x_ground=color-class-1 size {len(x_set)}", None
    return _found(g, cand, f"chi_z>{min_chi}", x_ground=x_set)


def _check_spire(g, base, params):
    d = params.get("d", 1)
    min_chi = params.get("min_chi", 0)
    got = find_spire(g, d, min_chi, node_budget=params.get("node_budget"))
    if got is None:
        return "absent", "", None
    spire, dominated = got
    return _found(g, spire, f"dominated_size={len(dominated)}", dominated=dominated)


def _check_starry(g, base, params):
    k = params.get("k", 1)
    d = params.get("d", 1)
    budget = params.get("node_budget")
    try:
        got = is_kd_starry(g, k, d, node_budget=budget)
    except BudgetExceeded:
        return "indeterminate", "budget exhausted", None
    if got is None:
        return "absent", "", None
    return _found(g, got, "")


_CHECK_FUNCS = {
    "invariants": _check_invariants,
    "stable_removal_degree": _check_stable_removal_degree,
    "gyarfas": _check_gyarfas,
    "x_split": _check_x_split,
    "spire": _check_spire,
    "starry": _check_starry,
}
KNOWN_CHECKS = set(_CHECK_FUNCS)


def _process_instance(task):
    index, entry, checks, budgets = task
    g, generator = _graph_of(entry)
    gid = _graph_id(g)
    t0 = time.monotonic()
    chi, coloring = chromatic_number(g)
    omega, _ = clique_number(g)
    metrics = {
        "n": g.n,
        "m": g.edge_count,
        "omega": omega,
        "chi": chi,
        "chi1": chi_local(g, 1) if g.n else 0,
        "chi2": chi_local(g, 2) if g.n else 0,
    }
    # keys that start with "_" feed the checks and stay out of the rows
    base = {**metrics, "_coloring": coloring}
    for key in ("expect_chi", "expect_omega"):
        if key in entry:
            base["_" + key] = entry[key]
    rows = []
    certs = []
    for chk in checks:
        name = chk["check"]
        if name in GLOBAL_CHECKS:
            continue
        params = {k: v for k, v in chk.items() if k != "check"}
        if "node_budget" not in params and budgets.get("search_nodes"):
            params["node_budget"] = budgets["search_nodes"]
        try:
            outcome, detail, cert = _CHECK_FUNCS[name](g, base, params)
        except BudgetExceeded:
            outcome, detail, cert = "indeterminate", "budget exhausted", None
        cert_name = ""
        if cert is not None:
            cert = {"graph_sha256": gid, **cert}
            cert_name = f"{index:04d}_{name}.json"
            certs.append((cert_name, cert))
        rows.append(
            {
                "index": index,
                "generator": generator,
                "graph_sha256": gid,
                **metrics,
                "check": name,
                "params": json.dumps(params, sort_keys=True, separators=(",", ":")),
                "outcome": outcome,
                "detail": detail,
                "certificate": cert_name,
            }
        )
    elapsed = time.monotonic() - t0
    return index, write_graph6(g), generator, rows, certs, elapsed


def _counterexample_args(chk):
    """(variant, k, cross_range) of a counterexample check, with defaults."""
    return chk.get("variant", "split-pairs"), chk.get("k", 2), chk.get("cross_range")


def _run_counterexample_check(chk):
    params = {k: v for k, v in chk.items() if k != "check"}
    variant, k, cross = _counterexample_args(chk)
    t0 = time.monotonic()
    try:
        res = build_counterexample(variant, k, cross_range=cross)
    except ConstructionRefuted as e:
        return (
            {
                "outcome": "refuted",
                "detail": f"gadgets={len(e.log)}",
                "cert": None,
                "params": params,
            },
            time.monotonic() - t0,
        )
    claims = {"chi": res.verification}
    v = res.special_vertex
    if variant == "split-pairs":
        claims["no_centered_five_path"] = induced_path_centered(res.graph, v, 2) is None
    else:
        from .machinery import d_equipment, properly_d_equipped

        ground = frozenset(range(res.graph.n)) - {v}
        claims["not_properly_2_equipped"] = properly_d_equipped(res.graph, v, ground, 2) is None
        claims["plain_2_equipped"] = d_equipment(res.graph, v, ground, 2) is not None
    flat_ok = all(
        all(inner.values()) if isinstance(inner, dict) else inner for inner in claims.values()
    )
    outcome = "pass" if flat_ok else VIOLATION
    detail = json.dumps(claims, sort_keys=True, separators=(",", ":"))
    return (
        {
            "outcome": outcome,
            "detail": detail,
            "cert": res.to_json_dict(),
            "params": params,
        },
        time.monotonic() - t0,
    )


def run_experiment(config, output_dir=None):
    """Run all checks over the corpus; optionally write report.csv, the
    corpus, certificates, and timings under output_dir."""
    tasks = [(i, entry, config.checks, config.budgets) for i, entry in enumerate(config.corpus)]
    if config.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_process_instance, tasks))
    else:
        results = [_process_instance(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    rows = []
    cert_files = {}
    corpus_files = {}
    timings = []
    for index, g6, generator, inst_rows, certs, elapsed in results:
        rows.extend(inst_rows)
        for name, obj in certs:
            cert_files[name] = obj
        corpus_files[f"{index:04d}_{generator}.g6"] = g6 + "\n"
        timings.append((index, generator, elapsed))

    next_global = len(config.corpus)
    for chk in config.checks:
        if chk["check"] not in GLOBAL_CHECKS:
            continue
        outcome, elapsed = _run_counterexample_check(chk)
        cert_name = ""
        if outcome["cert"] is not None:
            cert_name = f"{next_global:04d}_counterexample.json"
            cert_files[cert_name] = outcome["cert"]
        rows.append(
            {
                "index": next_global,
                "generator": "(construction)",
                "graph_sha256": "",
                "n": "",
                "m": "",
                "omega": "",
                "chi": "",
                "chi1": "",
                "chi2": "",
                "check": chk["check"],
                "params": json.dumps(outcome["params"], sort_keys=True, separators=(",", ":")),
                "outcome": outcome["outcome"],
                "detail": outcome["detail"],
                "certificate": cert_name,
            }
        )
        timings.append((next_global, "(construction)", elapsed))
        next_global += 1

    violations = sum(1 for r in rows if r["outcome"] == VIOLATION)
    indeterminate = sum(1 for r in rows if r["outcome"] == "indeterminate")
    report = Report(
        rows=rows,
        summary={
            "instances": len(config.corpus),
            "rows": len(rows),
            "violations": violations,
            "indeterminate": indeterminate,
        },
    )

    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        with open(os.path.join(output_dir, "report.csv"), "wb") as fh:
            fh.write(report.to_csv().encode())
        cdir = os.path.join(output_dir, "certificates")
        os.makedirs(cdir, exist_ok=True)
        for name, obj in sorted(cert_files.items()):
            with open(os.path.join(cdir, name), "wb") as fh:
                fh.write(_json_bytes(obj))
        gdir = os.path.join(output_dir, "corpus")
        os.makedirs(gdir, exist_ok=True)
        for name, text in sorted(corpus_files.items()):
            with open(os.path.join(gdir, name), "wb") as fh:
                fh.write(text.encode())
        with open(os.path.join(output_dir, "timings.csv"), "w") as fh:
            fh.write("# wall-clock seconds; excluded from the determinism contract\n")
            for index, generator, elapsed in timings:
                fh.write(f"{index},{generator},{elapsed:.3f}\n")
    return report


def verify_lemma(lemma_id, g, cert_obj):
    """Route a certificate to its validator; lemma_id must match the tag.
    Returns (ok, first_failed_clause)."""
    if lemma_id is not None and isinstance(cert_obj, dict) and cert_obj.get("type") != lemma_id:
        raise ValueError(f"certificate is tagged {cert_obj.get('type')!r}, not {lemma_id!r}")
    return verify_certificate(g, cert_obj)
