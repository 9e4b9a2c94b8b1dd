"""Inputs, operations and correctness checks of the four workloads.

Each workload is a closed loop with one client: the benchmark asks it for a
pass of operations, runs them one after another, and checks every answer
against the values recorded in expected.json (written by record.py). The
run seed picks inputs out of recorded pools and relabels graphs; the package
only ever receives the generated graphs, configs and parameters.

Operations call chibound through module attributes (``coloring.chromatic_number``,
not a name imported from it), so the tracer's swapped functions are the ones
that run.
"""

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from chibound import certificates, coloring, embed, generators, graphio, harness, thresholds, trees
from chibound.graphs import Graph

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check(result)`` is not and returns
    None when the answer is right, else a one-line reason."""

    label: str
    run: Callable
    check: Callable


def _sha(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def _key(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def relabel(g, rng):
    """The same graph under a seeded vertex permutation: isomorphism
    invariants (chi, omega, embedding counts) keep their recorded values
    while the labelled graph is new."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), perm


# --------------------------------------------------------------------- survey

SURVEY_CHECKS = [
    {"check": "invariants"},
    {"check": "stable_removal_degree"},
    {"check": "gyarfas", "k_max": 2, "starts": 3},
    {"check": "x_split", "min_chi": 0},
    {"check": "spire", "d": 1, "min_chi": 0},
    {"check": "starry", "k": 1, "d": 1},
]
SURVEY_FIXED = [
    {"generator": "cycle", "n": 7},
    {"generator": "petersen"},
    {"generator": "grotzsch"},
    {"generator": "kneser", "n": 7, "k": 2},
    {"generator": "mycielski_tower", "t": 3},
    {"generator": "shift", "n": 8},
]
SURVEY_COUNTEREXAMPLES = [
    {"check": "counterexample", "variant": "split-pairs", "k": 2},
    {"check": "counterexample", "variant": "single-row", "k": 2},
    {"check": "counterexample", "variant": "split-pairs", "k": 3},
]
SURVEY_SIZES = (20, 26, 32, 38, 44, 50)
SURVEY_POOL = [
    {"generator": "random", "n": n, "p": ("0.1", "0.15")[i % 2], "seed": 1000 * n + i}
    for n in SURVEY_SIZES
    for i in range(8)
]


def survey_configs(entries):
    configs = [{"corpus": [entry], "checks": SURVEY_CHECKS} for entry in entries]
    configs += [{"corpus": [], "checks": [chk]} for chk in SURVEY_COUNTEREXAMPLES]
    return configs


class Survey:
    """``chibound run`` one config at a time: each op is a single-instance
    config with all six per-graph checks, or one counterexample check.
    Every pass runs the whole recorded pool in a seeded order: with a
    seeded subset per pass, op_p50_ms moved by 8-12% between seeds."""

    def __init__(self, seed, expected, workdir):
        self.seed = seed
        self.expected = expected["survey"]
        self.workdir = Path(workdir)
        self.bytes_written = 0

    def make_pass(self, index):
        configs = survey_configs(SURVEY_FIXED + SURVEY_POOL)
        random.Random(f"survey:{self.seed}:{index}").shuffle(configs)
        shutil.rmtree(self.workdir, ignore_errors=True)
        outs = [self.workdir / f"op{i:02d}" for i in range(len(configs))]
        return [Op(_key(cfg), self._runner(cfg, out), self._checker(cfg, out)) for cfg, out in zip(configs, outs)]

    @staticmethod
    def _runner(cfg, out):
        return lambda: harness.run_experiment(harness.ExperimentConfig.from_dict(cfg), output_dir=str(out))

    def _checker(self, cfg, out):
        def check(report):
            if report.summary["violations"]:
                return f"{report.summary['violations']} violation rows"
            self.bytes_written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            digest = _sha((out / "report.csv").read_bytes())
            if digest != self.expected[_key(cfg)]:
                return "report.csv digest differs from the recorded one"
            for path in sorted((out / "certificates").glob("*.json")):
                obj = json.loads(path.read_text())
                if "type" not in obj:
                    continue  # counterexample record, checked through its report row
                (g6,) = (out / "corpus").glob("*.g6")
                ok, clause = certificates.verify_certificate(graphio.parse_graph6(g6.read_text().strip()), obj)
                if not ok:
                    return f"{path.name} does not re-verify: {clause}"
            return None

        return check

    @staticmethod
    def record(workdir):
        out = Path(workdir) / "record"
        digests = {}
        for cfg in survey_configs(SURVEY_FIXED + SURVEY_POOL):
            shutil.rmtree(out, ignore_errors=True)
            report = harness.run_experiment(harness.ExperimentConfig.from_dict(cfg), output_dir=str(out))
            if report.summary["violations"] or report.summary["indeterminate"]:
                raise RuntimeError(f"survey config is not clean: {cfg}")
            digests[_key(cfg)] = _sha((out / "report.csv").read_bytes())
        shutil.rmtree(out, ignore_errors=True)
        return digests


# ------------------------------------------------------------------- chi_hard

CHI_SIZES = (38, 39, 40, 41)
CHI_POOL_SEEDS = range(24)
CHI_TOWER_T = 3
CHI_TOWERS_PER_4_RANDOM = 1  # towers are 20% of the ops, see ChiHard


def chi_pool():
    """(key, graph) for every recorded chi_hard graph: the random pool, then
    the tower."""
    pool = [(f"random({n},0.5,{s})", generators.random_graph(n, "0.5", 7919 * n + s)) for n in CHI_SIZES for s in CHI_POOL_SEEDS]
    return pool + [(f"mycielski_tower({CHI_TOWER_T})", generators.mycielski_tower(CHI_TOWER_T))]


class ChiHard:
    """Exact chi and omega on distinct dense graphs. A pass covers the whole
    recorded pool, each graph under a fresh seeded relabelling, so no
    labelled graph repeats within a run while the cost of a pass stays
    close across seeds (single graphs differ in cost by 20x, and one graph
    under two relabellings by up to 5x)."""

    def __init__(self, seed, expected, workdir):
        self.seed = seed
        self.expected = expected["chi_hard"]
        *self.bases, tower = chi_pool()
        self.bases += [tower] * (len(self.bases) * CHI_TOWERS_PER_4_RANDOM // 4)

    def make_pass(self, index):
        rng = random.Random(f"chi_hard:{self.seed}:{index}")
        picks = list(self.bases)
        rng.shuffle(picks)
        ops = []
        for key, base in picks:
            g, _ = relabel(base, rng)
            ops.append(Op(key, self._runner(g), self._checker(g, *self.expected[key])))
        return ops

    @staticmethod
    def _runner(g):
        def run():
            chi, witness = coloring.chromatic_number(g)
            omega, clique = coloring.clique_number(g)
            return chi, witness, omega, clique

        return run

    @staticmethod
    def _checker(g, want_chi, want_omega):
        def check(result):
            chi, witness, omega, clique = result
            if (chi, omega) != (want_chi, want_omega):
                return f"chi, omega = {chi}, {omega}; recorded {want_chi}, {want_omega}"
            if not witness.check(g) or witness.color_count != chi:
                return "colouring witness is not a proper chi-colouring"
            if len(set(clique)) != omega or any(not g.has_edge(u, v) for u in clique for v in clique if u < v):
                return "clique witness is not a clique of size omega"
            return None

        return check

    @staticmethod
    def record():
        return {key: [coloring.chromatic_number(g)[0], coloring.clique_number(g)[0]] for key, g in chi_pool()}


# ------------------------------------------------------------------- patterns

PATTERN_HOSTS = {
    "kneser(6,2)": lambda: generators.kneser(6, 2),
    "kneser(7,2)": lambda: generators.kneser(7, 2),
    "shift(7)": lambda: generators.shift_graph(7),
    "shift(8)": lambda: generators.shift_graph(8),
}
PATTERN_RANDOM_POOL = [f"random(30,0.15,{s})" for s in range(16)]
PATTERNS = {
    "broom(2,2)": lambda: trees.broom(2, 2).graph,
    "broom(3,2)": lambda: trees.broom(3, 2).graph,
    "bristle(1,2)": lambda: trees.bristle(1, 2).graph,
    "superstar(2)": lambda: trees.superstar(2).graph,
    "superstar(3)": lambda: trees.superstar(3).graph,
    "binary_star(1,1)": lambda: trees.binary_star(1, 1),
    "binary_star(1,2)": lambda: trees.binary_star(1, 2),
    "bristled_star(1,2)": lambda: trees.bristled_star(1, 2),
    "double_broom(2,2,2)": lambda: trees.double_broom(2, 2, 2),
    "path(5)": lambda: trees.path_tree(5).graph,
    "path(6)": lambda: trees.path_tree(6).graph,
}
# (kind, host, pattern or (k, d), anchor as (pattern vertex, host vertex)).
# "rand0"/"rand1" stand for the two random hosts each pass draws from the
# pool. The absent rows force exhaustive refutations. No count is above a
# few thousand: counts explode on denser hosts (bristled_star(1,2) has 21.8M
# embeddings in kneser(8,3)).
#
# The rows are grouped by cost on the pure-Python backend. Ten ops sit below
# a tight group of three exhaustive refutations on kneser(6,2) (about 9 ms)
# and ten sit above it, so p50 falls in the middle of that group; p90 falls
# among the heaviest ops (27-31 ms). Ops whose cost depends on the random
# host are kept away from both.
PATTERN_MENU = [
    # under 0.3 ms
    ("find", "shift(8)", "bristled_star(1,2)", None),
    ("find", "rand0", "superstar(3)", None),
    ("find", "rand1", "double_broom(2,2,2)", None),
    ("find", "kneser(7,2)", "bristle(1,2)", (0, 5)),
    ("find", "rand0", "broom(3,2)", (0, 3)),
    ("starry", "shift(8)", (1, 1), None),
    ("starry", "rand1", (1, 1), None),
    # 1.5-7 ms
    ("find", "kneser(7,2)", "path(6)", (0, 11)),
    ("count", "kneser(6,2)", "superstar(2)", None),
    ("count", "shift(7)", "double_broom(2,2,2)", None),
    # about 9 ms
    ("find", "kneser(6,2)", "binary_star(1,2)", None),
    ("starry", "kneser(6,2)", (1, 2), None),
    ("find", "kneser(6,2)", "bristled_star(1,2)", None),
    # 11 ms and up
    ("count", "shift(7)", "superstar(3)", None),
    ("count", "rand0", "path(5)", None),
    ("count", "rand1", "path(5)", None),
    ("count", "kneser(7,2)", "bristle(1,2)", None),
    ("count", "kneser(7,2)", "broom(2,2)", None),
    ("count", "kneser(7,2)", "superstar(2)", None),
    ("find", "kneser(7,2)", "path(5)", None),
    ("count", "rand0", "double_broom(2,2,2)", None),
    ("count", "rand1", "double_broom(2,2,2)", None),
    ("find", "kneser(7,2)", "superstar(3)", None),
]


def pattern_host(name):
    if name in PATTERN_HOSTS:
        return PATTERN_HOSTS[name]()
    s = int(name.rsplit(",", 1)[1].rstrip(")"))
    return generators.random_graph(30, "0.15", 4099 + s)


def pattern_key(kind, host, target, anchor):
    return _key([kind, host, list(target) if isinstance(target, tuple) else target, anchor])


class Patterns:
    """Induced-embedding searches, counts and starriness tests on hosts that
    are freshly relabelled every pass."""

    def __init__(self, seed, expected, workdir):
        self.seed = seed
        self.hosts = {name: pattern_host(name) for name in list(PATTERN_HOSTS) + PATTERN_RANDOM_POOL}
        self.patterns = {name: make() for name, make in PATTERNS.items()}
        self.expected = expected["patterns"]

    def make_pass(self, index):
        rng = random.Random(f"patterns:{self.seed}:{index}")
        slots = dict(zip(("rand0", "rand1"), rng.sample(PATTERN_RANDOM_POOL, 2)))
        relabelled = {}
        ops = []
        for kind, slot, target, anchor in PATTERN_MENU:
            name = slots.get(slot, slot)
            if name not in relabelled:
                relabelled[name] = relabel(self.hosts[name], rng)
            host, perm = relabelled[name]
            key = pattern_key(kind, name, target, anchor)
            if anchor is not None:
                anchor = (anchor[0], perm[anchor[1]])
            ops.append(Op(key, self._runner(kind, host, target, anchor), self._checker(kind, host, target, anchor, self.expected[key])))
        return ops

    def _runner(self, kind, host, target, anchor):
        if kind == "find":
            pattern = self.patterns[target]
            return lambda: embed.find_induced_embedding(host, pattern, anchor=anchor)
        if kind == "count":
            pattern = self.patterns[target]
            return lambda: embed.count_induced_embeddings(host, pattern)
        k, d = target
        return lambda: embed.is_kd_starry(host, k, d)

    def _checker(self, kind, host, target, anchor, want):
        def check(result):
            if kind == "count":
                return None if result == want else f"count {result}, recorded {want}"
            if (result is not None) != want:
                return f"found={result is not None}, recorded {want}"
            if result is None:
                return None
            if kind == "find":
                if not embed.verify_embedding(host, self.patterns[target], result):
                    return "embedding does not re-verify"
                if anchor is not None and result.mapping[anchor[0]] != anchor[1]:
                    return "embedding ignores its anchor"
                return None
            k, d = target
            if not (
                embed.verify_embedding(host, trees.binary_star(k, d), result.binary_embedding)
                and embed.verify_embedding(host, trees.bristled_star(k, d), result.bristled_embedding)
            ):
                return "starry certificate embeddings do not re-verify"
            return None

        return check

    @staticmethod
    def record():
        patterns = {name: make() for name, make in PATTERNS.items()}
        values = {}
        for rand in PATTERN_RANDOM_POOL:
            slots = {"rand0": rand, "rand1": rand}
            for kind, slot, target, anchor in PATTERN_MENU:
                name = slots.get(slot, slot)
                key = pattern_key(kind, name, target, anchor)
                if key in values:
                    continue
                host = pattern_host(name)
                if kind == "find":
                    values[key] = embed.find_induced_embedding(host, patterns[target], anchor=anchor) is not None
                elif kind == "count":
                    values[key] = embed.count_induced_embeddings(host, patterns[target])
                else:
                    values[key] = embed.is_kd_starry(host, *target) is not None
        return values


# -------------------------------------------------------------------- catalog

def catalog_grid():
    """Parameter grid over every lemma id. ``main`` and ``T6.2`` are the
    expensive entries (blocked evaluations plus magnitude estimates), so
    their grids are kept small."""
    small = (0, 1, 3)
    pos = (1, 2, 3)
    domains = {"c": small, "a": small, "b": small, "n": (0, 1, 2, 3), "k": pos, "d": pos, "tau": pos}
    points = []
    for lemma_id, (names, _, _) in thresholds.LEMMAS.items():
        if lemma_id == "T3.3":
            for r in (1, 2):
                for s in (1, 2):
                    for d in (1, 2):
                        for tau in pos:
                            for k in (r, r + 1):
                                points.append((lemma_id, {"r": r, "s": s, "d": d, "ks": [k] * s, "tau": tau}))
            continue
        if lemma_id == "T6.2":
            grids = [{"d": d, "tau": tau} for d in (1, 2) for tau in pos]
        elif lemma_id == "main":
            grids = [{"kappa": kappa, "k": k, "d": d} for kappa in (1, 2) for k in (1, 2) for d in (1, 2)]
        else:
            grids = [{}]
            for name in names:
                grids = [dict(g, **{name: v}) for g in grids for v in domains[name]]
        points += [(lemma_id, g) for g in grids]
    return points


def _hex(v):
    if isinstance(v, list):
        return [_hex(x) for x in v]
    return None if v is None else format(v, "x")


def threshold_digest(result, text):
    """Digest of value, intermediates, blocked_at, magnitude and the printed
    text. Integers go in as hex, which has no int-to-str digit limit."""
    core = [
        result.lemma_id,
        result.params,
        _hex(result.value),
        {k: _hex(v) for k, v in result.intermediates.items()},
        result.blocked_at,
        result.magnitude,
        text,
    ]
    return _sha(_key(core))


def is_int_str_limit(err):
    return "integer string conversion" in str(err)


class Catalog:
    """What ``chibound threshold`` does: lemma_threshold then format_result,
    over the whole grid in a seeded order.

    Grid points where format_result hits CPython's int-to-str limit are a
    known defect; they are listed in expected.json and run by
    ``known_defect_probe`` on every run instead of as timed ops."""

    def __init__(self, seed, expected, workdir):
        self.expected = expected["catalog"]
        self.defects = self.expected["known_defects"]
        skip = {_key([d["lemma"], d["params"]]) for d in self.defects}
        self.points = [(lid, p) for lid, p in catalog_grid() if _key([lid, p]) not in skip]
        random.Random(seed).shuffle(self.points)

    def make_pass(self, index):
        digests = self.expected["digests"]
        return [Op(_key([lid, p]), self._runner(lid, p), self._checker(digests[_key([lid, p])])) for lid, p in self.points]

    @staticmethod
    def _runner(lemma_id, params):
        def run():
            result = thresholds.lemma_threshold(lemma_id, params)
            return result, thresholds.format_result(result)

        return run

    @staticmethod
    def _checker(want):
        def check(out):
            return None if threshold_digest(*out) == want else "threshold result differs from the recorded digest"

        return check

    def known_defect_probe(self):
        """Returns (still_failing, problems): how many listed points still
        make format_result raise the int-to-str ValueError, and any point
        whose exact result moved away from its recorded digest."""
        failing, problems = 0, []
        for point in self.defects:
            result = thresholds.lemma_threshold(point["lemma"], point["params"])
            if threshold_digest(result, None) != point["digest"]:
                problems.append(f"{point['lemma']} {point['params']}: result differs from the recorded digest")
            try:
                thresholds.format_result(result)
            except ValueError as err:
                if not is_int_str_limit(err):
                    raise
                failing += 1
        return failing, problems

    @staticmethod
    def record():
        digests, defects = {}, []
        for lemma_id, params in catalog_grid():
            result = thresholds.lemma_threshold(lemma_id, params)
            try:
                text = thresholds.format_result(result)
            except ValueError as err:
                if not is_int_str_limit(err):
                    raise
                defects.append({"lemma": lemma_id, "params": params, "digest": threshold_digest(result, None)})
                continue
            digests[_key([lemma_id, params])] = threshold_digest(result, text)
        return {"digests": digests, "known_defects": defects}


WORKLOADS = {"survey": Survey, "chi_hard": ChiHard, "patterns": Patterns, "catalog": Catalog}


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def build(name, seed, workdir):
    return WORKLOADS[name](seed, load_expected(), workdir)
