"""Command-line front end.

Subcommands: gen, chi, omega, chik, find-tree, starry, spire, threshold,
counterexample, verify, run. Flags are long-form only; machine-readable
output is JSON on stdout.
"""

import argparse
import json
import sys

from .coloring import chi_local, chromatic_number, clique_number
from .counterexamples import build_counterexample
from .embed import find_induced_embedding, is_kd_starry
from .errors import BudgetExceeded, ConstructionRefuted, GraphParseError, _keyword_args
from .generators import GENERATORS, make_graph
from .graphio import parse_graph, write_graph
from .harness import ExperimentConfig, run_experiment, verify_lemma
from .machinery import find_spire
from .thresholds import format_result, lemma_threshold
from .trees import (
    RootedTree,
    binary_star,
    bristle,
    bristled_star,
    broom,
    double_broom,
    superstar,
    two_legged_caterpillar,
)
from .certificates import certificate_to_json

TREES = {
    "superstar": superstar,
    "broom": broom,
    "bristle": bristle,
    "binary-star": binary_star,
    "bristled-star": bristled_star,
    "caterpillar": two_legged_caterpillar,
    "double-broom": double_broom,
}


def _parse_sets(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--set expects name=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        raw = raw.strip()
        if "," in raw:
            try:
                out[key] = [int(x) for x in raw.split(",") if x.strip()]
            except ValueError:
                raise ValueError(f"--set {key} expects comma-separated integers, got {raw!r}") from None
        else:
            try:
                out[key] = int(raw)
            except ValueError:
                out[key] = raw
        # decimals for probabilities stay strings and are parsed exactly
    return out


def _positive_int(raw):
    """argparse type of --node-budget and --workers: an int of at least 1."""
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {raw!r}")


def _load_graph(path, fmt):
    with open(path) as fh:
        text = fh.read()
    if fmt == "auto":
        fmt = "graph6" if path.endswith(".g6") else "edge-list"
    return parse_graph(text, fmt)


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ": ")))


def cmd_gen(args):
    params = _parse_sets(args.set)
    g = make_graph(args.generator, params)
    text = write_graph(g, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_chi(args):
    g = _load_graph(args.graph, args.format)
    chi, witness = chromatic_number(g)
    out = {"n": g.n, "chi": chi}
    if args.witness and witness is not None:
        out["coloring"] = witness.to_json_dict()
    _emit(out)
    return 0


def cmd_omega(args):
    g = _load_graph(args.graph, args.format)
    omega, clique = clique_number(g)
    out = {"n": g.n, "omega": omega}
    if args.witness:
        out["clique"] = list(clique)
    _emit(out)
    return 0


def cmd_chik(args):
    g = _load_graph(args.graph, args.format)
    _emit({"n": g.n, "radius": args.radius, "chi_local": chi_local(g, args.radius)})
    return 0


def cmd_find_tree(args):
    g = _load_graph(args.graph, args.format)
    params = _parse_sets(args.set)
    fn = TREES[args.tree]
    built = fn(**_keyword_args(fn, params, f"{args.tree} tree"))
    pattern, root = (built.graph, built.root) if isinstance(built, RootedTree) else (built, None)
    anchor = None
    if args.anchor_host is not None:
        if root is None:
            raise ValueError(f"tree {args.tree} is unrooted; anchoring needs a rooted tree")
        anchor = (root, args.anchor_host)
    emb = find_induced_embedding(g, pattern, anchor=anchor, node_budget=args.node_budget)
    if emb is None:
        _emit({"tree": args.tree, "params": params, "found": False})
        return 0
    _emit({"tree": args.tree, "params": params, "found": True, "embedding": emb.to_json_list()})
    return 0


def cmd_starry(args):
    g = _load_graph(args.graph, args.format)
    cert = is_kd_starry(g, args.k, args.d, node_budget=args.node_budget)
    if cert is None:
        _emit({"k": args.k, "d": args.d, "starry": False})
    else:
        _emit({"starry": True, **certificate_to_json(cert)})
    return 0


def cmd_spire(args):
    g = _load_graph(args.graph, args.format)
    got = find_spire(g, args.height, args.min_chi)
    if got is None:
        _emit({"height": args.height, "min_chi": args.min_chi, "found": False})
        return 0
    spire, dominated = got
    _emit({"found": True, **certificate_to_json(spire, dominated=dominated)})
    return 0


def cmd_threshold(args):
    params = _parse_sets(args.set)
    result = lemma_threshold(args.lemma, params, digit_limit=args.digit_limit)
    print(format_result(result))
    return 0


def cmd_counterexample(args):
    base = _load_graph(args.base, args.format) if args.base else None
    cross = None
    if args.cross_range is not None:
        cross = args.k - 1 if args.cross_range == "k-1" else args.k
    try:
        res = build_counterexample(args.variant, args.k, base=base, cross_range=cross)
    except ConstructionRefuted as e:
        _emit({"refuted": True, "gadgets_attached": len(e.log)})
        return 1
    out = res.to_json_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, sort_keys=True, indent=2)
            fh.write("\n")
    _emit(out)
    return 0 if all(res.verification.values()) else 1


def cmd_verify(args):
    g = _load_graph(args.graph, args.format)
    with open(args.certificate) as fh:
        cert = json.load(fh)
    ok, clause = verify_lemma(args.lemma, g, cert)
    _emit({"type": cert.get("type"), "accepted": ok, "failed_clause": clause})
    return 0 if ok else 1


def cmd_run(args):
    with open(args.config) as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    if args.workers is not None:
        config.workers = args.workers
    report = run_experiment(config, output_dir=args.out)
    _emit(report.summary)
    return 1 if report.summary["violations"] else 0


def build_parser():
    p = argparse.ArgumentParser(prog="chibound", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_graph_arg(sp):
        sp.add_argument("--graph", required=True, help="path to a graph file")
        sp.add_argument(
            "--format",
            choices=("auto", "edge-list", "graph6"),
            default="auto",
            help="input format; auto picks graph6 for .g6 files",
        )

    sp = sub.add_parser("gen", help="emit a generated graph")
    sp.add_argument("--generator", required=True, choices=sorted(GENERATORS))
    sp.add_argument("--set", action="append", metavar="NAME=VALUE")
    sp.add_argument("--format", choices=("edge-list", "graph6"), default="graph6")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("chi", help="exact chromatic number")
    add_graph_arg(sp)
    sp.add_argument("--witness", action="store_true")
    sp.set_defaults(func=cmd_chi)

    sp = sub.add_parser("omega", help="exact clique number")
    add_graph_arg(sp)
    sp.add_argument("--witness", action="store_true")
    sp.set_defaults(func=cmd_omega)

    sp = sub.add_parser("chik", help="largest chromatic number over radius-k balls")
    add_graph_arg(sp)
    sp.add_argument("--radius", type=int, required=True)
    sp.set_defaults(func=cmd_chik)

    sp = sub.add_parser("find-tree", help="anchored induced tree search")
    add_graph_arg(sp)
    sp.add_argument("--tree", required=True, choices=sorted(TREES))
    sp.add_argument("--set", action="append", metavar="NAME=VALUE")
    sp.add_argument("--anchor-host", type=int, help="host vertex carrying the tree root")
    sp.add_argument("--node-budget", type=_positive_int)
    sp.set_defaults(func=cmd_find_tree)

    sp = sub.add_parser("starry", help="test for both star patterns")
    add_graph_arg(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--node-budget", type=_positive_int)
    sp.set_defaults(func=cmd_starry)

    sp = sub.add_parser("spire", help="search for a dominating spire")
    add_graph_arg(sp)
    sp.add_argument("--height", type=int, required=True)
    sp.add_argument("--min-chi", type=int, default=0)
    sp.set_defaults(func=cmd_spire)

    sp = sub.add_parser("threshold", help="evaluate a threshold formula")
    sp.add_argument("--lemma", required=True)
    sp.add_argument("--set", action="append", metavar="NAME=VALUE")
    sp.add_argument("--digit-limit", type=int, default=100_000)
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("counterexample", help="build and verify a gadget construction")
    sp.add_argument("--variant", choices=("split-pairs", "single-row"), required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--cross-range", choices=("k-1", "k"))
    sp.add_argument("--base", help="optional base graph file")
    sp.add_argument("--format", choices=("auto", "edge-list", "graph6"), default="auto")
    sp.add_argument("--out", help="write the full result JSON here")
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("verify", help="validate a stored certificate")
    add_graph_arg(sp)
    sp.add_argument("--certificate", required=True)
    sp.add_argument("--lemma", help="assert the certificate type")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("run", help="run an experiment config")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", help="output directory for report and certificates")
    sp.add_argument("--workers", type=_positive_int)
    sp.set_defaults(func=cmd_run)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # exit codes: 0 an answer; 1 a violation, a refuted construction, a
    # rejected certificate or a false verification flag (returned by the
    # subcommand); 2 bad input; 3 indeterminate, a node budget ran out
    try:
        return args.func(args)
    except BudgetExceeded as e:
        _emit({"indeterminate": True, "reason": str(e)})
        return 3
    except GraphParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
