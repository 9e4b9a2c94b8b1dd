"""Experiment runner: seeded corpora, per-instance checks, CSV report,
and a re-validatable certificate store.

A run is a list of tasks, each indexed: one per corpus entry, which builds
the graph and runs every per-graph check on it, then one per counterexample
check, which builds its own construction. Every task returns its rows and
certificates the same way, whether it runs in the calling process or in
the worker pool.

Reports are byte-identical across runs for a fixed config: every check is
a pure function of its task, rows are assembled in task order, and
wall-clock timings go to a separate non-normative file.
"""

import csv
import hashlib
import io
import json
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field

from .certificates import certificate_to_json, verify_certificate
from .coloring import chi_local, chromatic_number, clique_number
from .counterexamples import build_counterexample, check_counterexample_params
from .embed import is_kd_starry
from .errors import BudgetExceeded, ConstructionRefuted, _check_int, _check_keys, _keyword_args, _parameters
from .generators import generator_args, make_graph
from .graphio import parse_graph6, write_graph6
from .graphs import bits
from .machinery import (
    _best_touching,
    _gyarfas_path_of_mask,
    d_equipment,
    find_spire,
    find_x_split,
    induced_path_centered,
    properly_d_equipped,
)
from .trees import _check_kd

REPORT_VERSION = "chibound report v1"
# the columns a counterexample row leaves empty
GRAPH_COLUMNS = ("graph_sha256", "n", "m", "omega", "chi", "chi1", "chi2")
COLUMNS = ("index", "generator", *GRAPH_COLUMNS, "check", "params", "outcome", "detail", "certificate")

# outcomes that count against the run
VIOLATION = "violation"

# the keys a corpus entry may carry besides its graph: the invariants
# check compares them with the computed values
_EXPECT_KEYS = ("expect_chi", "expect_omega")
# the files a run writes under certificates/ and corpus/, named by task index
_OWN_FILES = {"certificates": re.compile(r"\d{4,}_.+\.json"), "corpus": re.compile(r"\d{4,}_.+\.g6")}


@dataclass
class ExperimentConfig:
    corpus: list
    checks: list
    budgets: dict = field(default_factory=dict)
    workers: int = 1

    @staticmethod
    def from_dict(obj):
        if not isinstance(obj, dict):
            raise ValueError(f"a config must be a JSON object, got {obj!r}")
        _check_keys(obj, ("corpus", "checks", "budgets", "workers"), "config")
        corpus = _objects(obj, "corpus")
        checks = _objects(obj, "checks")
        for entry in corpus:
            for key in _EXPECT_KEYS:
                if key in entry:
                    _check_int(entry[key], f"{key} of corpus entry")
            if "graph6" in entry:
                _check_keys(entry, ("graph6", *_EXPECT_KEYS), "graph6 corpus entry")
                if not isinstance(entry["graph6"], str):
                    raise ValueError(f"graph6 must be a string, got {entry['graph6']!r}")
                continue
            if "generator" not in entry:
                raise ValueError(f"corpus entry needs a generator or graph6: {entry}")
            generator_args(entry["generator"], _generator_params(entry))
        for chk in checks:
            name = chk.get("check")
            if not isinstance(name, str) or name not in _CHECK_FUNCS:
                raise ValueError(f"unknown check {name!r}")
            fn = _CHECK_FUNCS[name]
            params = {k: v for k, v in chk.items() if k != "check"}
            args = _keyword_args(fn, params, f"{name} check", skip=2)
            defaults = _parameters(fn, 2)
            for key, value in params.items():
                if key == "node_budget":
                    _check_int(value, f"node_budget of check {name!r}", 1, null_ok=True)
                elif isinstance(defaults[key], int):
                    _check_int(value, f"{key} of check {name!r}")
            # the searchers' own rules, so that no instance runs into them
            if name == "counterexample":
                check_counterexample_params(**args)
            elif name == "starry":
                _check_kd(args["k"], args["d"])
            elif name == "spire":
                _check_int(args["d"], "d of check 'spire'", 1)
        budgets = obj.get("budgets", {})
        if not isinstance(budgets, dict):
            raise ValueError(f"budgets must be an object, got {budgets!r}")
        _check_keys(budgets, ("search_nodes",), "budgets")
        _check_int(budgets.get("search_nodes"), "budgets.search_nodes", 1, null_ok=True)
        workers = obj.get("workers", 1)
        _check_int(workers, "workers", 1)
        return ExperimentConfig(
            corpus=list(corpus),
            checks=list(checks),
            budgets=dict(budgets),
            workers=workers,
        )


def _objects(obj, key):
    """obj[key], default empty, which must be a list of objects."""
    items = obj.get(key, [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError(f"{key} must be a list of objects, got {items!r}")
    return items


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


def _generator_params(entry):
    """The generator parameters of a corpus entry."""
    return {k: v for k, v in entry.items() if k != "generator" and k not in _EXPECT_KEYS}


def _graph_of(entry):
    if "graph6" in entry:
        return parse_graph6(entry["graph6"]), "graph6"
    return make_graph(entry["generator"], _generator_params(entry)), entry["generator"]


def _compact(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# A check is called as fn(g, base, **params), and each key a config may
# give it is one of its keyword parameters, with the default it runs with.
# invariants and stable_removal_degree search nothing, yet take node_budget:
# _process passes budgets.search_nodes to every per-graph check, and the
# params column of the report shows it.


def _check_invariants(g, base, node_budget=None):
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


def _check_stable_removal_degree(g, base, node_budget=None):
    """Every stable X whose removal lowers chi must contain a vertex with
    at least d outside neighbors, for every d below chi. Instances are the
    color classes of the canonical optimal coloring."""
    chi, witness = base["chi"], base["_coloring"]
    if chi == 0:
        return "pass", "instances=0", None
    checked = 0
    adj = g.adjacency_masks()
    for color in range(1, chi + 1):
        x_mask = sum(1 << v for v, c in enumerate(witness.colors) if c == color)
        best = max((adj[v] & ~x_mask).bit_count() for v in bits(x_mask))
        for d in range(chi):
            checked += 1
            if best < d:
                return VIOLATION, f"class={color} d={d}", None
    return "pass", f"instances={checked}", None


def _check_gyarfas(g, base, k_max=3, starts=3, node_budget=None):
    chi1 = base["chi1"]
    checked = 0
    for x0 in range(min(starts, g.n)):
        best, best_chi = _best_touching(g, x0, node_budget)
        if best is None:
            continue
        for k in range(k_max + 1):
            if best_chi <= k * chi1:
                break
            _gyarfas_path_of_mask(g, best, x0, k)
            checked += 1
    return "pass", f"instances={checked}", None


def _found(g, found, detail, **context):
    """Row for a found certificate, re-validated through its JSON form."""
    cert = certificate_to_json(found, **context)
    ok, clause = verify_certificate(g, cert)
    if not ok:
        return VIOLATION, f"revalidation failed: {clause}", None
    return "found", detail, cert


def _check_x_split(g, base, min_chi=0, node_budget=None):
    chi, witness = base["chi"], base["_coloring"]
    if chi == 0:
        return "absent", "null graph", None
    x_set = frozenset(v for v in range(g.n) if witness.colors[v] == 1)
    cand = find_x_split(g, x_set, min_chi, node_budget=node_budget)
    if cand is None:
        return "absent", f"x_ground=color-class-1 size {len(x_set)}", None
    return _found(g, cand, f"chi_z>{min_chi}", x_ground=x_set)


def _check_spire(g, base, d=1, min_chi=0, node_budget=None):
    got = find_spire(g, d, min_chi, node_budget=node_budget)
    if got is None:
        return "absent", "", None
    spire, dominated = got
    return _found(g, spire, f"dominated_size={len(dominated)}", dominated=dominated)


def _check_starry(g, base, k=1, d=1, node_budget=None):
    got = is_kd_starry(g, k, d, node_budget=node_budget)
    if got is None:
        return "absent", "", None
    return _found(g, got, "")


def _check_counterexample(g, base, variant="split-pairs", k=2, cross_range=None):
    """Build a gadget construction and confirm the property it limits; g
    and base are None, since the check builds its own graph."""
    try:
        res = build_counterexample(variant, k, cross_range=cross_range)
    except ConstructionRefuted as e:
        return "refuted", f"gadgets={len(e.log)}", None
    claims = {"chi": res.verification}
    v = res.special_vertex
    if variant == "split-pairs":
        claims["no_centered_five_path"] = induced_path_centered(res.graph, v, 2) is None
    else:
        ground = [u for u in range(res.graph.n) if u != v]
        claims["not_properly_2_equipped"] = properly_d_equipped(res.graph, v, ground, 2) is None
        claims["plain_2_equipped"] = d_equipment(res.graph, v, ground, 2) is not None
    ok = all(all(c.values()) if isinstance(c, dict) else c for c in claims.values())
    return ("pass" if ok else VIOLATION), _compact(claims), res.to_json_dict()


_CHECK_FUNCS = {
    "invariants": _check_invariants,
    "stable_removal_degree": _check_stable_removal_degree,
    "gyarfas": _check_gyarfas,
    "x_split": _check_x_split,
    "spire": _check_spire,
    "starry": _check_starry,
    "counterexample": _check_counterexample,
}


def _process(task):
    """Run one task: a corpus entry (a dict) with the per-graph checks, or,
    with entry None, one counterexample check. A counterexample gets no
    graph metrics, no injected node budget, no graph_sha256 in its
    certificate and no corpus file. checks holds (position in the config,
    check) pairs. A certificate is named by task index and check kind, plus
    the check's position when its kind appears more than once in the task.
    This is where a check's outcome is decided when it raises: a spent
    budget (BudgetExceeded) gives an indeterminate row, and a failed
    guarantee (AssertionError) a violation row with the message as detail.
    Returns (index, generator, graph6 or None, rows, certs, elapsed)."""
    index, entry, checks, budgets = task
    t0 = time.monotonic()
    g = base = g6 = None
    generator, metrics = "(construction)", dict.fromkeys(GRAPH_COLUMNS, "")
    if entry is not None:
        g, generator = _graph_of(entry)
        g6 = write_graph6(g)
        chi, coloring = chromatic_number(g)
        metrics = {
            "graph_sha256": hashlib.sha256(g6.encode()).hexdigest(),
            "n": g.n,
            "m": g.edge_count,
            "omega": clique_number(g)[0],
            "chi": chi,
            "chi1": chi_local(g, 1),
            "chi2": chi_local(g, 2),
        }
        # keys that start with "_" feed the checks and stay out of the rows
        base = {**metrics, "_coloring": coloring}
        for key in _EXPECT_KEYS:
            if key in entry:
                base["_" + key] = entry[key]
    rows = []
    certs = []
    kinds = Counter(chk["check"] for _, chk in checks)
    for position, chk in checks:
        name = chk["check"]
        params = {k: v for k, v in chk.items() if k != "check"}
        if g is not None and "node_budget" not in params and budgets.get("search_nodes"):
            params["node_budget"] = budgets["search_nodes"]
        try:
            outcome, detail, cert = _CHECK_FUNCS[name](g, base, **params)
        except BudgetExceeded:
            outcome, detail, cert = "indeterminate", "budget exhausted", None
        except AssertionError as e:
            outcome, detail, cert = VIOLATION, str(e), None
        cert_name = ""
        if cert is not None:
            if g is not None:
                cert = {"graph_sha256": metrics["graph_sha256"], **cert}
            suffix = "" if kinds[name] == 1 else f"_{position}"
            cert_name = f"{index:04d}_{name}{suffix}.json"
            certs.append((cert_name, cert))
        rows.append(
            {
                "index": index,
                "generator": generator,
                **metrics,
                "check": name,
                "params": _compact(params),
                "outcome": outcome,
                "detail": detail,
                "certificate": cert_name,
            }
        )
    return index, generator, g6, rows, certs, time.monotonic() - t0


def run_experiment(config, output_dir=None):
    """Run all checks over the corpus and the counterexample checks after
    it; optionally write report.csv, the corpus, certificates, and timings
    under output_dir. Certificate and corpus files of an earlier run there
    that this run does not write are removed."""
    numbered = list(enumerate(config.checks))
    per_graph = [(pos, chk) for pos, chk in numbered if chk["check"] != "counterexample"]
    jobs = [(entry, per_graph) for entry in config.corpus]
    jobs += [(None, [(pos, chk)]) for pos, chk in numbered if chk["check"] == "counterexample"]
    tasks = [(i, entry, checks, config.budgets) for i, (entry, checks) in enumerate(jobs)]
    if config.workers > 1 and len(tasks) > 1:
        # imported only here: multiprocessing adds about 2 MiB of memory and
        # import time that a serial run does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_process, tasks))
    else:
        results = [_process(t) for t in tasks]

    rows = [row for result in results for row in result[3]]
    report = Report(
        rows=rows,
        summary={
            "instances": len(config.corpus),
            "rows": len(rows),
            "violations": sum(1 for r in rows if r["outcome"] == VIOLATION),
            "indeterminate": sum(1 for r in rows if r["outcome"] == "indeterminate"),
        },
    )

    if output_dir is not None:
        files = {"report.csv": report.to_csv()}
        timings = ["# wall-clock seconds; excluded from the determinism contract\n"]
        for index, generator, g6, _, certs, elapsed in results:
            for name, obj in certs:
                files[os.path.join("certificates", name)] = _compact(obj) + "\n"
            if g6 is not None:
                files[os.path.join("corpus", f"{index:04d}_{generator}.g6")] = g6 + "\n"
            timings.append(f"{index},{generator},{elapsed:.3f}\n")
        files["timings.csv"] = "".join(timings)
        for sub, own in _OWN_FILES.items():
            os.makedirs(os.path.join(output_dir, sub), exist_ok=True)
            for name in os.listdir(os.path.join(output_dir, sub)):
                path = os.path.join(output_dir, sub, name)
                if own.fullmatch(name) and os.path.join(sub, name) not in files and os.path.isfile(path):
                    os.remove(path)
        for name, text in files.items():
            with open(os.path.join(output_dir, name), "wb") as fh:
                fh.write(text.encode())
    return report


def verify_lemma(lemma_id, g, cert_obj):
    """Route a certificate to its validator; lemma_id must match the tag.
    Returns (ok, first_failed_clause)."""
    if lemma_id is not None and isinstance(cert_obj, dict) and cert_obj.get("type") != lemma_id:
        raise ValueError(f"certificate is tagged {cert_obj.get('type')!r}, not {lemma_id!r}")
    return verify_certificate(g, cert_obj)
