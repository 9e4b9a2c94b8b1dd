import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from chibound import certificates, counterexamples, harness, machinery
from chibound.cli import main as cli_main
from chibound.graphio import parse_graph6
from chibound.errors import _parameters
from chibound.harness import _CHECK_FUNCS, ExperimentConfig, run_experiment, verify_lemma

SMALL_CONFIG = {
    "corpus": [
        {"generator": "cycle", "n": 5, "expect_chi": 3, "expect_omega": 2},
        {"generator": "petersen", "expect_chi": 3, "expect_omega": 2},
        {"generator": "grotzsch", "expect_chi": 4, "expect_omega": 2},
        {"generator": "random", "n": 8, "p": "0.4", "seed": 11},
    ],
    "checks": [
        {"check": "invariants"},
        {"check": "stable_removal_degree"},
        {"check": "gyarfas", "k_max": 2, "starts": 2},
        {"check": "x_split", "min_chi": 0},
        {"check": "spire", "d": 1, "min_chi": 0},
        {"check": "starry", "k": 1, "d": 1},
    ],
}


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "timings.csv":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_empty_corpus():
    config = ExperimentConfig.from_dict({"corpus": [], "checks": []})
    report = run_experiment(config)
    assert report.rows == [] and report.summary["violations"] == 0


def test_known_values_corpus(tmp_path):
    config = ExperimentConfig.from_dict(SMALL_CONFIG)
    report = run_experiment(config, output_dir=str(tmp_path / "out"))
    assert report.summary["violations"] == 0
    by_check = {}
    for row in report.rows:
        by_check.setdefault(row["check"], []).append(row)
    assert [r["chi"] for r in by_check["invariants"]] == [3, 3, 4, by_check["invariants"][3]["chi"]]
    assert all(r["outcome"] == "pass" for r in by_check["stable_removal_degree"])
    assert all(r["outcome"] == "pass" for r in by_check["gyarfas"])


def test_certificates_revalidate_in_isolation(tmp_path):
    out = tmp_path / "out"
    config = ExperimentConfig.from_dict(SMALL_CONFIG)
    run_experiment(config, output_dir=str(out))
    cert_dir = out / "certificates"
    corpus_dir = out / "corpus"
    corpus = {}
    for name in os.listdir(corpus_dir):
        index = int(name.split("_")[0])
        corpus[index] = parse_graph6((corpus_dir / name).read_text())
    checked = 0
    for name in sorted(os.listdir(cert_dir)):
        obj = json.loads((cert_dir / name).read_text())
        index = int(name.split("_")[0])
        ok, clause = verify_lemma(None, corpus[index], obj)
        assert ok, (name, clause)
        checked += 1
    assert checked >= 4


def test_repeated_checks_name_their_own_certificates(tmp_path):
    """A check kind that appears once keeps the plain name; each repeated
    one adds its position in the config, so no row points at another's."""
    config = {
        "corpus": [{"generator": "grotzsch"}],
        "checks": [{"check": "spire", "d": 1}, {"check": "x_split"}, {"check": "spire", "d": 2}],
    }
    out = tmp_path / "out"
    rows = run_experiment(ExperimentConfig.from_dict(config), output_dir=str(out)).rows
    names = [row["certificate"] for row in rows]
    assert names == ["0000_spire_0.json", "0000_x_split.json", "0000_spire_2.json"]
    assert sorted(os.listdir(out / "certificates")) == sorted(names)
    g = parse_graph6((out / "corpus" / "0000_grotzsch.g6").read_text())
    for row in rows:
        cert = json.loads((out / "certificates" / row["certificate"]).read_text())
        assert cert["type"] == row["check"]
        assert verify_lemma(row["check"], g, cert) == (True, None), row


def test_reused_output_directory_drops_earlier_files(tmp_path):
    out = tmp_path / "out"
    petersen = {"corpus": [{"generator": "petersen"}], "checks": [{"check": "x_split"}]}
    run_experiment(ExperimentConfig.from_dict(petersen), output_dir=str(out))
    assert os.listdir(out / "certificates") == ["0000_x_split.json"]
    # files the harness does not name are left alone
    for other in ("certificates/notes.txt", "certificates/x_0000.json", "corpus/mine.g6", "corpus/12_a.g6"):
        (out / other).write_text("kept\n")
    run_experiment(ExperimentConfig.from_dict({"corpus": [], "checks": []}), output_dir=str(out))
    assert sorted(os.listdir(out / "certificates")) == ["notes.txt", "x_0000.json"]
    assert sorted(os.listdir(out / "corpus")) == ["12_a.g6", "mine.g6"]
    run_experiment(ExperimentConfig.from_dict(petersen), output_dir=str(out))
    assert sorted(os.listdir(out / "certificates")) == ["0000_x_split.json", "notes.txt", "x_0000.json"]


def test_reports_are_byte_identical(tmp_path):
    config = ExperimentConfig.from_dict(SMALL_CONFIG)
    run_experiment(config, output_dir=str(tmp_path / "a"))
    run_experiment(config, output_dir=str(tmp_path / "b"))
    ta, tb = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert ta.keys() == tb.keys()
    assert all(ta[k] == tb[k] for k in ta)


def test_worker_pool_matches_serial(tmp_path):
    config = ExperimentConfig.from_dict(SMALL_CONFIG)
    run_experiment(config, output_dir=str(tmp_path / "serial"))
    config2 = ExperimentConfig.from_dict({**SMALL_CONFIG, "workers": 2})
    run_experiment(config2, output_dir=str(tmp_path / "pool"))
    ta, tb = read_tree(tmp_path / "serial"), read_tree(tmp_path / "pool")
    assert ta == tb


MALFORMED_CONFIGS = [
    [],
    "config",
    {"corpus": {"generator": "petersen"}, "checks": []},
    {"corpus": [], "checks": {"check": "invariants"}},
    {"corpus": None, "checks": []},
    {"corpus": ["graph6"], "checks": []},
    {"corpus": [], "checks": ["invariants"]},
    {"corpus": [], "checks": [], "budgets": 5},
    {"corpus": [], "checks": [], "budgets": None},
    # values of the wrong type inside an entry or a check
    {"corpus": [{"graph6": 5}], "checks": []},
    {"corpus": [{"graph6": ["Ehfw"]}], "checks": []},
    {"corpus": [{"generator": ["cycle"], "n": 7}], "checks": []},
    {"corpus": [{"generator": "cycle", "n": "7"}], "checks": []},
    {"corpus": [{"generator": "cycle", "n": 7.0}], "checks": []},
    {"corpus": [{"generator": "cycle", "n": True}], "checks": []},
    {"corpus": [{"generator": "cycle", "n": -1}], "checks": []},
    {"corpus": [{"generator": "kneser", "n": 5, "k": None}], "checks": []},
    {"corpus": [{"generator": "random", "n": 5, "p": 0.5, "seed": 1}], "checks": []},
    {"corpus": [{"generator": "random", "n": 5, "p": True, "seed": 1}], "checks": []},
    {"corpus": [{"generator": "random", "n": 5, "p": "0.5", "seed": "1"}], "checks": []},
    {"corpus": [], "checks": [{"check": ["invariants"]}]},
    {"corpus": [], "checks": [{"check": "x_split", "min_chi": "1"}]},
    {"corpus": [], "checks": [{"check": "gyarfas", "k_max": 2.0}]},
    {"corpus": [], "checks": [{"check": "gyarfas", "starts": -1}]},
    {"corpus": [], "checks": [{"check": "spire", "d": False}]},
    {"corpus": [], "checks": [{"check": "starry", "k": "1"}]},
    # misspelt keys, which would otherwise be ignored
    {"corpus": [], "checks": [], "budgets": {"search_node": 5}},
    {"corpus": [], "checks": [], "worker": 2},
    {"corpus": [], "check": [{"check": "invariants"}]},
]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"corpus": [{"generator": "random", "n": 5, "p": "0.5"}], "checks": []})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"corpus": [{"generator": "wat"}], "checks": []})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"corpus": [], "checks": [{"check": "wat"}]})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"corpus": [{"n": 5}], "checks": []})
    # malformed shapes are ValueErrors too, before anything runs
    for bad in MALFORMED_CONFIGS:
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(bad)


def test_verify_lemma_type_mismatch():
    from chibound.generators import star_graph

    with pytest.raises(ValueError):
        verify_lemma("spire", star_graph(3), {"type": "x_split", "x": 0, "y": 1, "z_set": [2], "x_ground": [0]})


def test_malformed_certificates_are_errors(tmp_path, capsys):
    """Malformed outside input is a ValueError (CLI exit 2), never a
    traceback and never a verdict."""
    from chibound.certificates import verify_certificate
    from chibound.generators import star_graph
    from chibound.graphio import write_graph6

    g = star_graph(3)
    emb = [[0, 0], [1, 1], [2, 2], [3, 3]]
    starry = {"type": "starry", "k": 1, "d": 1, "binary_embedding": emb, "bristled_embedding": emb}
    spire = {"type": "spire", "path": [1, 0], "a_set": [0], "b_set": [2]}
    equipment = {"type": "equipment", "center": 0, "independent_neighbors": [1], "path": [0, 1],
                 "witness": 2, "proper": False, "ground": [1, 2]}
    malformed = [
        {k: v for k, v in spire.items() if k != "a_set"},
        {k: v for k, v in starry.items() if k != "binary_embedding"},
        {"type": "x_split", "x": 0, "y": 1, "z_set": [2]},
        [spire],
        "spire",
        {"type": ["spire"]},
        {**spire, "path": "01"},
        {**spire, "a_set": [1, "2"]},
        {**spire, "b_set": [2.0]},
        {**spire, "path": [True, 1]},
        {"type": "x_split", "x": True, "y": 1, "z_set": [2], "x_ground": [0]},
        {**equipment, "witness": "2"},
        {**equipment, "proper": 1},
        # unknown types
        {"type": "cathedral", "spires": [{"path": [0, 1], "a_set": [1], "b_set": []}]},
        {"type": "band", "d": 1, "embedding": [[0, 0], [1, 1]], "center": 0, "b_set": [2]},
        {**spire, "dominated": 3},
        {**starry, "binary_embedding": [[-1, 1], [0, 0]]},
        {**starry, "binary_embedding": [[0, 0], [0, 1]]},
        {**starry, "binary_embedding": [[0, 0], [2, 1]]},
        {**starry, "binary_embedding": [[0, 0], [1]]},
        {**starry, "binary_embedding": [[0, 0], [1, True]]},
    ]
    graph_file = tmp_path / "star.g6"
    graph_file.write_text(write_graph6(g) + "\n")
    cert_file = tmp_path / "cert.json"
    for obj in malformed:
        with pytest.raises(ValueError):
            verify_certificate(g, obj)
        cert_file.write_text(json.dumps(obj))
        assert cli_main(["verify", "--graph", str(graph_file), "--certificate", str(cert_file)]) == 2, obj
        assert capsys.readouterr().err.startswith("error: "), obj
    for lemma in (None, "starry"):
        with pytest.raises(ValueError):
            verify_lemma(lemma, g, [starry])
    # the well-formed originals are verdicts, not errors
    assert verify_certificate(g, starry) == (False, "binary_star_embedding")
    assert verify_certificate(g, spire) == (True, None)
    assert verify_certificate(g, equipment) == (True, None)


# well-formed certificates on the path 0-1-2, each a verdict of (True, None)
P3_SPIRE = {"type": "spire", "path": [0, 1], "a_set": [1], "b_set": [2]}
P3_GYARFAS = {"type": "gyarfas", "path": [0, 1], "residue": [2], "c_set": [1, 2]}
P3_EQUIPMENT = {"type": "equipment", "center": 1, "independent_neighbors": [0], "path": [1, 0],
                "witness": 2, "proper": False, "ground": [0, 2]}


OUT_OF_RANGE = {
    "spire_path_99": {**P3_SPIRE, "path": [99]},
    "spire_path_1_99": {**P3_SPIRE, "path": [1, 99]},
    "spire_dominated_5": {**P3_SPIRE, "path": [2], "dominated": [5]},  # fails a clause before domination
    "gyarfas_path_1_-1": {**P3_GYARFAS, "path": [1, -1]},
    "gyarfas_path_-1": {**P3_GYARFAS, "path": [-1]},
    "equipment_path_1_-1": {**P3_EQUIPMENT, "path": [1, -1]},
    "equipment_witness_99": {**P3_EQUIPMENT, "witness": 99},
    "equipment_witness_-1": {**P3_EQUIPMENT, "witness": -1},
    "proper_equipment_witness_3": {**P3_EQUIPMENT, "witness": 3, "proper": True},
}


@pytest.mark.parametrize("obj", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_out_of_range_ids_are_malformed(tmp_path, capsys, obj):
    """A path or witness id outside the graph is malformed input wherever it
    sits, not a failed clause."""
    from chibound.certificates import verify_certificate
    from chibound.generators import path_graph
    from chibound.graphio import write_graph6

    g = path_graph(3)
    for good in (P3_SPIRE, P3_GYARFAS, P3_EQUIPMENT):
        assert verify_certificate(g, good) == (True, None)
    with pytest.raises(ValueError, match="out of range"):
        verify_certificate(g, obj)
    (tmp_path / "p3.g6").write_text(write_graph6(g) + "\n")
    (tmp_path / "cert.json").write_text(json.dumps(obj))
    assert cli_main(["verify", "--graph", str(tmp_path / "p3.g6"), "--certificate", str(tmp_path / "cert.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_gyarfas_honours_node_budget():
    def gyarfas_row(generator, budget):
        config = {"corpus": [generator], "checks": [{"check": "gyarfas", "node_budget": budget}]}
        (row,) = run_experiment(ExperimentConfig.from_dict(config)).rows
        return row["outcome"], row["detail"]

    assert gyarfas_row({"generator": "mycielski_tower", "t": 3}, 1) == ("indeterminate", "budget exhausted")
    assert gyarfas_row({"generator": "petersen"}, 10) == ("pass", "instances=6")


def test_verdict_rows_of_the_edge_cases():
    """The null graph, a missed expectation and an x_split ground that
    leaves nothing to split each give their own row."""
    config = {
        "corpus": [{"graph6": "?"}, {"generator": "petersen", "expect_chi": 4, "expect_omega": 3},
                   {"generator": "complete", "n": 3}],
        "checks": [{"check": "invariants"}, {"check": "stable_removal_degree"}, {"check": "x_split"}],
    }
    rows = run_experiment(ExperimentConfig.from_dict(config)).rows
    assert [(row["check"], row["outcome"], row["detail"]) for row in rows] == [
        ("invariants", "pass", ""),
        ("stable_removal_degree", "pass", "instances=0"),
        ("x_split", "absent", "null graph"),
        ("invariants", "violation", "chi=3 expected 4; omega=2 expected 3"),
        ("stable_removal_degree", "pass", "instances=9"),
        ("x_split", "found", "chi_z>0"),
        ("invariants", "pass", ""),
        ("stable_removal_degree", "pass", "instances=9"),
        ("x_split", "absent", "x_ground=color-class-1 size 1"),
    ]


def _injected(*args):
    return "injected clause"


_GYARFAS_CORE = machinery._gyarfas_core


def _walk_one_short(g, cmask, x0, k):
    return _GYARFAS_CORE(g, cmask, x0, k - 1)


PETERSEN = [{"generator": "petersen"}]
# fault -> (module, attribute, stand-in, corpus, check, text the detail names)
FAULTS = {
    "x_split": (machinery, "_x_split_clause", _injected, PETERSEN, {"check": "x_split"},
                "searcher produced invalid split: injected clause"),
    "spire": (machinery, "_spire_clause", _injected, PETERSEN, {"check": "spire"},
              "construction produced an invalid spire: injected clause"),
    "spire-height": (machinery, "_gyarfas_core", _walk_one_short, PETERSEN, {"check": "spire"},
                     "construction produced a spire of height 0, not 1"),
    "gyarfas": (machinery, "_gyarfas_clause", _injected, PETERSEN, {"check": "gyarfas"},
                "x0=0 k=0: walk produced an invalid result: injected clause"),
    "gyarfas-walk": (machinery, "_gyarfas_core", lambda *args: None, PETERSEN, {"check": "gyarfas"},
                     "x0=0 k=0: walk ran out of room although the chromatic precondition holds"),
    "equipment": (machinery, "_equipment_clause", _injected, [],
                  {"check": "counterexample", "variant": "single-row", "k": 2},
                  "searcher produced invalid equipment: injected clause"),
    "stopping-rule": (counterexamples, "chi_of", lambda *args: -1, [],
                      {"check": "counterexample", "variant": "split-pairs", "k": 2},
                      '"chi_drops_without_special":false'),
    # a certificate that passed its searcher's check but fails re-validation
    # from its JSON form, as a codec fault would make it
    "revalidation": (harness, "verify_certificate", lambda g, obj: (False, "injected clause"), PETERSEN,
                     {"check": "starry"}, "revalidation failed: injected clause"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_failed_guarantee_is_a_violation_row(tmp_path, monkeypatch, capsys, fault):
    """A searcher or builder whose result fails its own check gives a
    violation row naming the failed clause; the run completes, and
    chibound run exits 1."""
    module, attr, stand_in, corpus, check, clause = FAULTS[fault]
    monkeypatch.setattr(module, attr, stand_in)
    config = {"corpus": corpus, "checks": [check]}
    (row,) = run_experiment(ExperimentConfig.from_dict(config)).rows
    assert row["outcome"] == "violation" and clause in row["detail"], row
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == 1
    assert "violation" in (tmp_path / "out" / "report.csv").read_text()


BAD_BUDGETS = [0, -3, 2.5, True, "50"]
TOWER = {"generator": "mycielski_tower", "t": 3}


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=repr)
def test_config_rejects_bad_check_budget(budget):
    config = {"corpus": [TOWER], "checks": [{"check": "x_split", "node_budget": budget}]}
    with pytest.raises(ValueError, match="node_budget of check 'x_split'"):
        ExperimentConfig.from_dict(config)


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=repr)
def test_config_rejects_bad_search_nodes(budget):
    config = {"corpus": [TOWER], "checks": [{"check": "x_split"}], "budgets": {"search_nodes": budget}}
    with pytest.raises(ValueError, match="budgets.search_nodes"):
        ExperimentConfig.from_dict(config)


@pytest.mark.parametrize("workers", [0, -1, "2", 2.7, True, None], ids=repr)
def test_config_rejects_bad_workers(workers):
    with pytest.raises(ValueError, match="workers must be a positive integer, got"):
        ExperimentConfig.from_dict({"corpus": [TOWER], "checks": [], "workers": workers})


@pytest.mark.parametrize(
    "bad", [{"k": "2"}, {"k": 2.0}, {"k": 1}, {"variant": "spiral"}, {"cross_range": 7}], ids=repr
)
def test_config_rejects_bad_counterexample_params(bad):
    """Refused when the config loads, before any instance runs."""
    check = {"check": "counterexample", "variant": "split-pairs", "k": 2, **bad}
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"corpus": [TOWER], "checks": [check]})


@pytest.mark.parametrize(
    "check, name", [({"check": "starry", "k": 0}, "k"), ({"check": "starry", "d": 0}, "d"),
                    ({"check": "spire", "d": 0}, "d")], ids=repr
)
def test_config_runs_the_searchers_own_parameter_rules(check, name):
    """A starry k or d of 0 and a spire d of 0 are refused when the config
    loads, not at the first instance, after the ones before it have run."""
    with pytest.raises(ValueError, match=f"{name}( of check 'spire')? must be a positive integer, got 0"):
        ExperimentConfig.from_dict({"corpus": [TOWER], "checks": [check]})


PETERSEN = {"generator": "petersen"}
# (config, the key its error must name); each key is misspelt, belongs to
# another check or generator, or has the wrong type
MISSPELT_KEYS = {
    "spire-hieght": ({"corpus": [PETERSEN], "checks": [{"check": "spire", "hieght": 3, "min_chi": 1}]}, "hieght"),
    "gyarfas-kmax": ({"corpus": [PETERSEN], "checks": [{"check": "gyarfas", "kmax": 2}]}, "kmax"),
    "counterexample-min_chi": ({"corpus": [], "checks": [{"check": "counterexample", "min_chi": 3}]}, "min_chi"),
    "counterexample-node_budget": (
        {"corpus": [], "checks": [{"check": "counterexample", "node_budget": 5}]},
        "node_budget",
    ),
    "corpus-expect_chii": ({"corpus": [{**PETERSEN, "expect_chii": 9}], "checks": []}, "expect_chii"),
    "cycle-seed": ({"corpus": [{"generator": "cycle", "n": 5, "seed": 1}], "checks": []}, "seed"),
    "graph6-generator": ({"corpus": [{"graph6": "Dhc", "generator": "cycle"}], "checks": []}, "generator"),
    "string-expect_chi": ({"corpus": [{**PETERSEN, "expect_chi": "3"}], "checks": []}, "expect_chi"),
}


@pytest.mark.parametrize("config, key", MISSPELT_KEYS.values(), ids=MISSPELT_KEYS.keys())
def test_config_refuses_keys_no_function_reads(tmp_path, capsys, config, key):
    """Every key a config may set is a parameter of the function that reads
    it; any other key is bad input that names the key (exit 2)."""
    with pytest.raises(ValueError, match=re.escape(key)):
        ExperimentConfig.from_dict(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_readme_check_table_is_the_signatures():
    """README lists each check's keys and defaults; they must stay those of
    the check's function."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.+) \|$", readme, re.M))
    for name, fn in _CHECK_FUNCS.items():
        listed = ", ".join(f"`{key}={json.dumps(value)}`" for key, value in _parameters(fn, 2).items())
        assert rows[name].replace(" (unused)", "") == listed, name


def test_readme_certificate_types_are_the_tags():
    """README's Certificates section and the certificates module docstring
    list the certificate types; they must stay the tags verify_certificate
    knows, in sorted order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Certificates\n", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r'tagged with `"type"`, one of (.*?);', section, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == sorted(certificates._TAGS)
    listed = re.search(r'"type" in \{(.*?)\}', certificates.__doc__, re.S).group(1)
    assert re.split(r",\s*", listed) == sorted(certificates._TAGS)


def test_config_accepts_null_and_positive_budgets():
    for check_budget, search_nodes in ((None, None), (1, None), (None, 1), (10**6, 5)):
        config = {
            "corpus": [TOWER],
            "checks": [{"check": "x_split", "node_budget": check_budget}],
            "budgets": {"search_nodes": search_nodes},
        }
        assert ExperimentConfig.from_dict(config).budgets == {"search_nodes": search_nodes}


# ----------------------------------------------------------------- CLI

def test_cli_gen_chi_roundtrip(tmp_path, capsys):
    out = tmp_path / "c5.g6"
    assert cli_main(["gen", "--generator", "cycle", "--set", "n=5", "--out", str(out)]) == 0
    assert cli_main(["chi", "--graph", str(out), "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["chi"] == 3 and len(payload["coloring"]) == 5


def test_cli_threshold(capsys):
    assert cli_main(["threshold", "--lemma", "T2.2", "--set", "c=0", "--set", "tau=1"]) == 0
    assert "value: 6" in capsys.readouterr().out


def test_cli_verify_and_run(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SMALL_CONFIG))
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    cert = next(p for p in sorted((out_dir / "certificates").iterdir()) if "spire" in p.name)
    index = int(cert.name.split("_")[0])
    graph_file = next(p for p in (out_dir / "corpus").iterdir() if p.name.startswith(f"{index:04d}_"))
    rc = cli_main(["verify", "--graph", str(graph_file), "--certificate", str(cert)])
    payload = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and payload["accepted"] is True


def test_cli_counterexample(capsys):
    rc = cli_main(["counterexample", "--variant", "split-pairs", "--k", "2"])
    payload = json.loads(capsys.readouterr().out.strip())
    assert rc == 0 and payload["chi_after"] == 3


def test_cli_counterexample_false_flag_exits_one(monkeypatch, capsys):
    """A false verification flag is a violation (exit 1), reported with the
    construction, not bad input (exit 2)."""
    monkeypatch.setattr(counterexamples, "chi_of", lambda *args: -1)
    rc = cli_main(["counterexample", "--variant", "split-pairs", "--k", "2"])
    payload = json.loads(capsys.readouterr().out.strip())
    assert rc == 1 and payload["verification"]["chi_drops_without_special"] is False


@pytest.mark.parametrize(
    "argv",
    [["find-tree", "--tree", "superstar", "--set", "d=3", "--node-budget", "5"],
     ["starry", "--k", "1", "--d", "2", "--node-budget", "3"]],
    ids=["find-tree", "starry"],
)
def test_cli_spent_budget_is_indeterminate(tmp_path, capsys, argv):
    """A spent node budget is neither an answer nor a violation: one JSON
    object on stdout, exit 3, no traceback."""
    graph = tmp_path / "k72.g6"
    assert cli_main(["gen", "--generator", "kneser", "--set", "n=7", "--set", "k=2", "--out", str(graph)]) == 0
    assert cli_main([*argv, "--graph", str(graph)]) == 3
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["indeterminate"] is True and "budget" in payload["reason"]
    assert err == ""


def test_cli_counterexample_rejects_unusable_base(tmp_path, capsys):
    """A base failing a construction requirement is bad input (exit 2), not
    a refuted construction (exit 1)."""
    tri = tmp_path / "tri.txt"
    tri.write_text("3\n0 1\n1 2\n0 2\n")
    rc = cli_main(["counterexample", "--variant", "split-pairs", "--k", "2", "--base", str(tri)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: construction requirement failed: triangle-free")


def test_cli_find_tree_and_starry(tmp_path, capsys):
    out = tmp_path / "pg.g6"
    cli_main(["gen", "--generator", "petersen", "--out", str(out)])
    capsys.readouterr()
    assert cli_main(["find-tree", "--graph", str(out), "--tree", "broom",
                     "--set", "k=1", "--set", "d=2", "--anchor-host", "0"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["found"] and payload["embedding"]
    assert cli_main(["starry", "--graph", str(out), "--k", "1", "--d", "1"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["starry"] is True
    # the star builders are cached; their keys still come from their signatures
    for _ in range(2):
        assert cli_main(["find-tree", "--graph", str(out), "--tree", "binary-star", "--set", "k=1", "--set", "d=1"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload == {"tree": "binary-star", "params": {"k": 1, "d": 1}, "found": True,
                           "embedding": [[0, 0], [1, 7], [2, 8], [3, 2]]}


def test_cli_omega_and_chik(tmp_path, capsys):
    graph = tmp_path / "pg.g6"
    assert cli_main(["gen", "--generator", "petersen", "--out", str(graph)]) == 0
    assert cli_main(["omega", "--graph", str(graph)]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 10, "omega": 2}
    assert cli_main(["omega", "--graph", str(graph), "--witness"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["clique", "n", "omega"] and len(payload["clique"]) == 2
    assert cli_main(["chik", "--graph", str(graph), "--radius", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"chi_local": 2, "n": 10, "radius": 1}


def test_cli_spire_found_and_absent(tmp_path, capsys):
    pg, p3 = tmp_path / "pg.g6", tmp_path / "p3.g6"
    assert cli_main(["gen", "--generator", "petersen", "--out", str(pg)]) == 0
    assert cli_main(["gen", "--generator", "path", "--set", "n=3", "--out", str(p3)]) == 0
    assert cli_main(["spire", "--graph", str(pg), "--height", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["a_set", "b_set", "dominated", "found", "path", "type"]
    assert payload["found"] is True and payload["type"] == "spire"
    assert cli_main(["spire", "--graph", str(p3), "--height", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": False, "height": 1, "min_chi": 0}


def test_cli_counterexample_writes_out(tmp_path, capsys):
    out = tmp_path / "ce.json"
    assert cli_main(["counterexample", "--variant", "single-row", "--k", "2", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == payload
    assert sorted(payload) == ["base_vertex_count", "chi_after", "chi_before", "gadgets_added", "graph6",
                               "special_vertex", "verification"]
    assert all(payload["verification"].values())


def test_cli_run_workers_overrides_the_config(tmp_path, monkeypatch, capsys):
    """--workers replaces the config's worker count, and the report is the
    one a serial run writes."""
    from chibound import cli

    seen = []

    def spy(config, output_dir=None):
        seen.append(config.workers)
        return run_experiment(config, output_dir)

    monkeypatch.setattr(cli, "run_experiment", spy)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": SMALL_CONFIG["corpus"][:2], "checks": [{"check": "invariants"}]}))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "serial")]) == 0
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "pool"), "--workers", "2"]) == 0
    assert seen == [1, 2]
    serial, pool = capsys.readouterr().out.splitlines()
    assert serial == pool and sorted(json.loads(pool)) == ["indeterminate", "instances", "rows", "violations"]
    assert read_tree(tmp_path / "serial") == read_tree(tmp_path / "pool")


@pytest.mark.parametrize("budget", ["0", "-3", "2.5", "fifty"])
def test_cli_rejects_node_budget_below_one(tmp_path, capsys, budget):
    out = tmp_path / "pg.g6"
    cli_main(["gen", "--generator", "petersen", "--out", str(out)])
    for argv in (["starry", "--k", "1", "--d", "1"], ["find-tree", "--tree", "broom", "--set", "k=1", "--set", "d=2"]):
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--graph", str(out), "--node-budget", budget])
        assert exc.value.code == 2
        assert "--node-budget: must be an integer of at least 1" in capsys.readouterr().err


def test_cli_rejects_workers_below_one(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": [TOWER], "checks": [{"check": "invariants"}]}))
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--workers", "0"])
    assert exc.value.code == 2
    assert "--workers: must be an integer of at least 1" in capsys.readouterr().err


def test_cli_run_rejects_malformed_config(tmp_path, capsys):
    """A config of the wrong shape is bad input (exit 2), not violations (exit 1)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": ["graph6"], "checks": [{"check": "invariants"}]}))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: corpus must be a list of objects")
    config.write_text(json.dumps({"corpus": [{"graph6": 5}], "checks": [{"check": "invariants"}]}))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: graph6 must be a string, got 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--generator", "cycle", "--set", "n=abc"],
        ["gen", "--generator", "kneser", "--set", "n=5", "--set", "k=x"],
        ["find-tree", "--tree", "superstar", "--set", "d=abc"],
        ["find-tree", "--tree", "superstar", "--set", "d=1,2"],
        ["gen", "--generator", "cycle", "--set", "n=5", "--set", "seed=1"],
        ["find-tree", "--tree", "superstar", "--set", "d=2", "--set", "k=1"],
        ["gen", "--generator", "cycle", "--set", "n"],
        ["find-tree", "--tree", "broom", "--set", "k=1"],
        ["find-tree", "--tree", "binary-star", "--set", "k=1", "--set", "d=1", "--anchor-host", "0"],
        ["threshold", "--lemma", "T2.2", "--set", "c=0", "--set", "tau=1", "--set", "tua=5"],
        ["threshold", "--lemma", "T3.3", "--set", "r=1", "--set", "s=1", "--set", "d=1", "--set", "ks=1",
         "--set", "tau=1"],
        ["threshold", "--lemma", "T2.2", "--set", "c=0", "--set", "tau=1", "--digit-limit", "-5"],
        ["threshold", "--lemma", "T2.2", "--set", "c=1,x", "--set", "tau=1"],
        ["spire", "--height", "1", "--min-chi", "-3"],
    ],
    ids=["gen-cycle-n", "gen-kneser-k", "find-tree-d", "find-tree-d-list", "gen-extra-set", "find-tree-extra-set",
         "set-without-equals", "find-tree-missing-d", "find-tree-anchor-unrooted", "threshold-extra-set",
         "threshold-bare-ks", "threshold-digit-limit", "threshold-bad-list", "spire-negative-min-chi"],
)
def test_cli_rejects_bad_parameters(tmp_path, capsys, argv):
    """A generator, tree or lemma parameter that is not a non-negative
    integer, a --set that is not a parameter or not name=value, a missing
    parameter, an anchor on an unrooted tree, a digit limit below one or a
    negative min_chi is bad input (exit 2), not a traceback or exit 1."""
    graph = tmp_path / "petersen.g6"
    assert cli_main(["gen", "--generator", "petersen", "--out", str(graph)]) == 0
    if argv[0] in ("find-tree", "spire"):
        argv = [*argv, "--graph", str(graph)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "c=1,x" in argv:  # a bad list value names its key
        assert err == "error: --set c expects comma-separated integers, got '1,x'\n"


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("D")
    assert cli_main(["chi", "--graph", str(bad)]) == 2
    bad.write_text("Aé\n", encoding="utf-8")  # K2 with a non-ASCII data byte
    assert cli_main(["chi", "--graph", str(bad)]) == 2


# ------------------------------------------------------- harness snapshot

SNAPSHOT = Path(__file__).with_name("harness_snapshot.json")
# Every per-graph check on graphs whose gyarfas, x_split and spire runs
# take the best-component and subset-chi paths (chi up to 5, n up to 30).
SNAPSHOT_CONFIG = {
    "corpus": [
        {"generator": "cycle", "n": 7},
        {"generator": "petersen"},
        {"generator": "grotzsch"},
        {"generator": "mycielski_tower", "t": 3},
        {"generator": "random", "n": 24, "p": "0.2", "seed": 5},
        {"generator": "random", "n": 30, "p": "0.15", "seed": 17},
    ],
    "checks": [
        {"check": "invariants"},
        {"check": "stable_removal_degree"},
        {"check": "gyarfas", "k_max": 2, "starts": 3},
        {"check": "x_split", "min_chi": 1},
        {"check": "spire", "d": 2, "min_chi": 1},
        {"check": "starry", "k": 1, "d": 1},
    ],
}


# Per-graph checks interleaved with counterexample checks, under a search
# budget: its rows are found, absent, indeterminate, pass and refuted.
MIXED_CONFIG = {
    "corpus": [
        {"generator": "cycle", "n": 7},
        {"generator": "petersen"},
        {"generator": "grotzsch"},
        {"graph6": "Ehfw"},  # the wheel: a 5-cycle and a hub
        {"generator": "random", "n": 24, "p": "0.2", "seed": 5},
    ],
    "checks": [
        {"check": "invariants"},
        {"check": "counterexample", "variant": "split-pairs", "k": 2},
        {"check": "stable_removal_degree"},
        {"check": "gyarfas", "k_max": 2, "starts": 3},
        {"check": "counterexample", "variant": "single-row", "k": 2},
        {"check": "x_split", "min_chi": 1, "node_budget": 3},
        {"check": "spire", "d": 2, "min_chi": 1},
        {"check": "counterexample", "variant": "split-pairs", "k": 2, "cross_range": 1},
        {"check": "starry", "k": 1, "d": 1},
    ],
    "budgets": {"search_nodes": 50},
}
# golden file -> (config, output files it covers, by path prefix)
SNAPSHOTS = {
    SNAPSHOT: (SNAPSHOT_CONFIG, ("report.csv", "certificates")),
    SNAPSHOT.with_name("harness_mixed_snapshot.json"): (MIXED_CONFIG, ("report.csv", "certificates", "corpus")),
}


def harness_snapshot(golden, out_dir, workers=1):
    """Output file path -> sha256 of each output file the golden file covers."""
    config, covered = SNAPSHOTS[golden]
    run_experiment(ExperimentConfig.from_dict({**config, "workers": workers}), output_dir=str(out_dir))
    tree = read_tree(out_dir)
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(tree.items())
        if name.startswith(covered)
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("golden", list(SNAPSHOTS), ids=lambda p: p.stem)
def test_harness_snapshot(tmp_path, golden, workers):
    assert harness_snapshot(golden, tmp_path / "out", workers) == json.loads(golden.read_text())


@pytest.mark.parametrize("golden", list(SNAPSHOTS), ids=lambda p: p.stem)
def test_harness_snapshot_on_compiled_kernels(tmp_path, monkeypatch, ckernels, golden):
    """The golden files hold on the compiled kernels too, whichever backend
    is active: report bytes do not depend on the backend."""
    from chibound import _kernels

    for name in ("greedy_clique", "k_color", "max_clique", "find_embedding", "count_embeddings"):
        monkeypatch.setattr(_kernels, name, getattr(ckernels, name))
    assert harness_snapshot(golden, tmp_path / "out") == json.loads(golden.read_text())


def test_each_instance_colours_each_vertex_set_once(monkeypatch):
    """The chi memo is alive: coloring._chromatic makes one k_color sweep
    per colouring, so an instance makes no more k_color calls than it has
    distinct vertex sets coloured, although its checks ask for many sets
    again."""
    from chibound import _kernels, coloring, machinery

    k_color, colour = _kernels.k_color, coloring._chi_of_mask
    calls, asked, graphs = [], [], []

    def counted_k_color(adj, k, node_budget=0, k_max=None):
        calls.append(len(adj))
        return k_color(adj, k, node_budget, k_max)

    def spy(g, smask, node_budget=None):
        assert node_budget is None  # the config sets no budget
        graphs.append(g)  # keeps every id below unique
        asked.append((id(g), smask))
        return colour(g, smask, node_budget)

    monkeypatch.setattr(_kernels, "k_color", counted_k_color)
    monkeypatch.setattr(coloring, "_chi_of_mask", spy)
    monkeypatch.setattr(machinery, "_chi_of_mask", spy)  # it colours component masks directly
    for entry in SNAPSHOT_CONFIG["corpus"]:
        del calls[:], asked[:], graphs[:]
        config = {"corpus": [entry], "checks": SNAPSHOT_CONFIG["checks"]}
        assert run_experiment(ExperimentConfig.from_dict(config)).summary["violations"] == 0
        distinct = len(set(asked))
        assert len(asked) > distinct, entry  # repeats exist, so a dead memo shows
        assert len(calls) <= distinct, entry


def test_scans_colour_only_sets_that_can_win(spy_k_color):
    """The bounds that spare colourings fire on a survey instance,
    random(50, 0.15), under all six per-graph checks: the run tries 9 k in
    7 k_color calls. Skipping in best_by_chi only the sets of at most b
    vertices instead of those with an empty b-core tries 18 k; colouring
    the sets that hold a set of chi(g) tries 12; doing both tried 21 k in
    19 calls."""
    tried = []
    spy_k_color(lambda adj, k: tried.append(k))
    config = {
        "corpus": [{"generator": "random", "n": 50, "p": "0.15", "seed": 50001}],
        "checks": [
            {"check": "invariants"},
            {"check": "stable_removal_degree"},
            {"check": "gyarfas", "k_max": 2, "starts": 3},
            {"check": "x_split", "min_chi": 0},
            {"check": "spire", "d": 1, "min_chi": 0},
            {"check": "starry", "k": 1, "d": 1},
        ],
    }
    assert run_experiment(ExperimentConfig.from_dict(config)).summary["violations"] == 0
    assert len(tried) <= 9


if __name__ == "__main__":
    # Rewrites the golden files; only for an intended change of results.
    import tempfile

    for golden in SNAPSHOTS:
        with tempfile.TemporaryDirectory() as tmp:
            golden.write_text(json.dumps(harness_snapshot(golden, Path(tmp) / "out"), indent=1) + "\n")
