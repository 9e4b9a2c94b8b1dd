import dataclasses
import hashlib
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ref_validate_equipment,
    ref_validate_gyarfas,
    ref_validate_spire,
    ref_validate_starry,
    ref_validate_x_split,
)

from chibound.certificates import (
    Equipment,
    GyarfasResult,
    Spire,
    XSplit,
    certificate_to_json,
    validate_equipment,
    validate_gyarfas,
    validate_spire,
    validate_starry,
    validate_x_split,
    verify_certificate,
)
from chibound.coloring import best_by_chi, chi_local, chromatic_number
from chibound.embed import Embedding, StarryCertificate, is_kd_starry
from chibound.generators import grotzsch, path_graph, petersen
from chibound.graphs import Graph, _component_masks, mask_to_set
from chibound.machinery import d_equipment, find_spire, find_x_split, gyarfas_path, properly_d_equipped

SNAPSHOT = Path(__file__).with_name("certificate_snapshot.json")

EQUIPMENT_HOST = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (0, 5)])
EQUIPMENT_GROUND = frozenset({1, 2, 3, 4, 5})
GYARFAS_C = frozenset(range(1, 11))
SPIRE = Spire(path=(0, 1), a_set=frozenset({1, 2}), b_set=frozenset({3}))
# the path 0-1-2-3-4 plus the edge (2, 4): vertex 4 touches A of SPIRE, so
# it cannot be dominated
SPIRE_HOST_A_TO_C = Graph(5, path_graph(5).edges() + [(2, 4)])


def fixtures():
    """name -> (host, certificate, encoding context, direct validator call).

    One hand-built certificate per type and context variant, each accepted,
    plus two rejected ones: an equipment whose witness lies on its path
    and a spire whose dominated vertex touches A."""
    return {
        "x_split": (
            grotzsch(),
            XSplit(x=0, y=4, z_set=frozenset({6, 7, 9, 10})),
            {"x_ground": {0, 1, 2}},
            lambda g, c: validate_x_split(g, {0, 1, 2}, c),
        ),
        "equipment": (
            EQUIPMENT_HOST,
            Equipment(center=0, independent_neighbors=frozenset({1, 3}), path=(0, 3, 4), witness=5),
            {"ground": EQUIPMENT_GROUND},
            lambda g, c: validate_equipment(g, EQUIPMENT_GROUND, c),
        ),
        "equipment_proper": (
            EQUIPMENT_HOST,
            Equipment(center=0, independent_neighbors=frozenset({1, 2}), path=(0, 3, 4), proper=True),
            {"ground": EQUIPMENT_GROUND},
            lambda g, c: validate_equipment(g, EQUIPMENT_GROUND, c),
        ),
        "equipment_witness_on_path": (
            EQUIPMENT_HOST,
            Equipment(center=0, independent_neighbors=frozenset({1, 3}), path=(0, 3, 4), witness=3),
            {"ground": EQUIPMENT_GROUND},
            lambda g, c: validate_equipment(g, EQUIPMENT_GROUND, c),
        ),
        "gyarfas": (
            grotzsch(),
            GyarfasResult(path=(0, 1), residue=frozenset({2, 3, 5, 7, 8, 10})),
            {"c_set": GYARFAS_C},
            lambda g, c: validate_gyarfas(g, GYARFAS_C, c),
        ),
        "spire": (path_graph(5), SPIRE, {}, lambda g, c: validate_spire(g, c)),
        "spire_dominated_none": (
            path_graph(5),
            SPIRE,
            {"dominated": None},
            lambda g, c: validate_spire(g, c, None),
        ),
        "spire_dominated": (
            path_graph(5),
            SPIRE,
            {"dominated": frozenset({4})},
            lambda g, c: validate_spire(g, c, frozenset({4})),
        ),
        "spire_dominated_touching_a": (
            SPIRE_HOST_A_TO_C,
            SPIRE,
            {"dominated": frozenset({4})},
            lambda g, c: validate_spire(g, c, frozenset({4})),
        ),
        "starry": (
            petersen(),
            StarryCertificate(
                k=1,
                d=1,
                binary_embedding=Embedding(mapping=(0, 7, 8, 2)),
                bristled_embedding=Embedding(mapping=(7, 3, 8, 0, 9)),
            ),
            {},
            lambda g, c: validate_starry(g, c),
        ),
    }


def canonical_bytes(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def certificate_snapshot():
    """Fixture name -> sha256 of its canonical JSON and its verify result."""
    out = {}
    for name, (g, cert, context, _) in fixtures().items():
        obj = certificate_to_json(cert, **context)
        digest = hashlib.sha256(canonical_bytes(obj)).hexdigest()
        out[name] = {"sha256": digest, "verify": list(verify_certificate(g, obj))}
    return out


def test_certificate_snapshot():
    assert certificate_snapshot() == json.loads(SNAPSHOT.read_text())


def test_verify_matches_direct_validation():
    results = set()
    for name, (g, cert, context, validate) in fixtures().items():
        obj = json.loads(canonical_bytes(certificate_to_json(cert, **context)))
        got = verify_certificate(g, obj)
        assert got == validate(g, cert), name
        results.add(got)
    assert (True, None) in results and len(results) > 2


def test_huge_d_is_rejected_by_size():
    """A certificate's own d never makes a validator build a pattern of
    that size: the embedding's length is compared with the pattern's
    vertex count first."""
    starry = {**certificate_to_json(fixtures()["starry"][1]), "d": 10**4}
    start = time.perf_counter()
    assert verify_certificate(petersen(), starry) == (False, "binary_star_embedding")
    assert time.perf_counter() - start < 0.2
    # a right-sized binary embedding gets as far as the bristled one
    small = StarryCertificate(k=1, d=1, binary_embedding=Embedding(mapping=(0, 7, 8, 2)),
                              bristled_embedding=Embedding(mapping=(7, 3)))
    assert validate_starry(petersen(), small) == (False, "bristled_star_embedding")
    for bad in ({**starry, "d": 0}, {**starry, "k": 0}):
        with pytest.raises(ValueError):
            verify_certificate(petersen(), bad)


# ------------------------------------------ validators against the reference

# tag -> the reference validator, called as ref(g, cert, **context) like the
# package validator behind verify_certificate
REFERENCE = {
    "x_split": lambda g, c, x_ground: ref_validate_x_split(g, x_ground, c),
    "equipment": lambda g, c, ground: ref_validate_equipment(g, ground, c),
    "gyarfas": lambda g, c, c_set: ref_validate_gyarfas(g, c_set, c),
    "spire": ref_validate_spire,
    "starry": ref_validate_starry,
}


@st.composite
def small_hosts(draw):
    """A graph on 2..8 vertices with a start vertex."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    return Graph(n, edges), draw(st.integers(0, n - 1))


def searcher_certificates(g, v):
    """(certificate, context) for every certificate the searchers and
    is_kd_starry give on g around the vertex v."""
    n, everything = g.n, (1 << g.n) - 1
    out = []
    colors = chromatic_number(g)[1].colors
    x_ground = frozenset(u for u in range(n) if colors[u] == colors[v])
    split = find_x_split(g, x_ground, 0)
    if split is not None:
        out.append((split, {"x_ground": x_ground}))
    ground = frozenset(range(n)) - {v}
    for d in (1, 2):
        for search in (d_equipment, properly_d_equipped):
            got = search(g, v, ground, d)
            if got is not None:
                out.append((got, {"ground": ground}))
    comps = _component_masks(g, everything & ~(1 << v), g.adjacency_mask(v))
    best, best_chi = best_by_chi(g, comps)
    for k in range(3):
        if best is not None and best_chi > k * chi_local(g, 1):
            c_set = mask_to_set(best)
            out.append((gyarfas_path(g, c_set, v, k), {"c_set": c_set}))
    got = find_spire(g, 1, 0)
    if got is not None:
        spire, dominated = got
        out.append((spire, {}))
        out.append((spire, {"dominated": dominated}))
    starry = is_kd_starry(g, 1, 1)
    if starry is not None:
        out.append((starry, {}))
    return out


def vertex_mutants(value, n):
    """Every in-range value one vertex away from a set, path or vertex field:
    one member dropped, added or replaced. Paths also get a vertex inserted
    anywhere, repeats included, so (c, c) and the like are drawn."""
    if isinstance(value, frozenset):
        for u in value:
            yield value - {u}
        for w in range(n):
            if w not in value:
                yield value | {w}
                for u in value:
                    yield value - {u} | {w}
    elif isinstance(value, tuple):
        for i in range(len(value)):
            yield value[:i] + value[i + 1:]
        for w in range(n):
            for i in range(len(value) + 1):
                yield value[:i] + (w,) + value[i:]
            for i in range(len(value)):
                if value[i] != w:
                    yield value[:i] + (w,) + value[i + 1:]
    elif isinstance(value, Embedding):
        for mapping in vertex_mutants(value.mapping, n):
            yield Embedding(mapping=mapping)
    elif isinstance(value, int) and not isinstance(value, bool):
        yield from (w for w in range(n) if w != value)


def certificate_mutants(cert, n):
    for f in dataclasses.fields(cert):
        if f.name not in ("d", "k", "proper"):
            for value in vertex_mutants(getattr(cert, f.name), n):
                yield dataclasses.replace(cert, **{f.name: value})


def assert_matches_reference(g, cert, context):
    """verify_certificate gives the reference's (ok, clause) on cert and on
    every certificate one vertex away from it, in any set, path or vertex
    field of the certificate or its context."""
    tag = certificate_to_json(cert, **context)["type"]
    trials = [(cert, context)]
    trials += [(changed, context) for changed in certificate_mutants(cert, g.n)]
    for key, value in context.items():
        trials += [(cert, {**context, key: changed}) for changed in vertex_mutants(value, g.n)]
    for changed, ctx in trials:
        want = REFERENCE[tag](g, changed, **ctx)
        assert verify_certificate(g, certificate_to_json(changed, **ctx)) == want, (tag, changed, ctx)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_hosts())
def test_validators_match_the_reference(case):
    g, _ = case
    for cert, context in searcher_certificates(*case):
        assert verify_certificate(g, certificate_to_json(cert, **context)) == (True, None), cert
        assert_matches_reference(g, cert, context)


@pytest.mark.parametrize("name", list(fixtures()))
def test_validators_match_the_reference_on_fixtures(name):
    """The hand-built certificates reach clauses that small random hosts
    rarely do, such as a Gyarfas path of length 1 with an earlier path
    vertex next to the residue."""
    g, cert, context, _ = fixtures()[name]
    assert_matches_reference(g, cert, context)


if __name__ == "__main__":
    # Rewrites the golden file; only for an intended change of wire bytes.
    SNAPSHOT.write_text(json.dumps(certificate_snapshot(), indent=1) + "\n")
