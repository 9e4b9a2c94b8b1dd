import dataclasses
import hashlib
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ref_validate_band,
    ref_validate_cathedral,
    ref_validate_equipment,
    ref_validate_gyarfas,
    ref_validate_spire,
    ref_validate_starry,
    ref_validate_x_split,
)

from chibound.certificates import (
    Band,
    Cathedral,
    Equipment,
    GyarfasResult,
    Spire,
    XSplit,
    certificate_to_json,
    validate_band,
    validate_cathedral,
    validate_equipment,
    validate_gyarfas,
    validate_spire,
    validate_starry,
    validate_x_split,
    verify_certificate,
)
from chibound.coloring import best_by_chi, chi_local, chromatic_number
from chibound.embed import Embedding, StarryCertificate, find_induced_embedding, is_kd_starry
from chibound.generators import grotzsch, path_graph, petersen, star_graph
from chibound.graphs import Graph, _component_masks, bits, mask_to_set
from chibound.machinery import d_equipment, find_spire, find_x_split, gyarfas_path, properly_d_equipped
from chibound.trees import superstar

SNAPSHOT = Path(__file__).with_name("certificate_snapshot.json")

EQUIPMENT_HOST = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (0, 5)])
EQUIPMENT_GROUND = frozenset({1, 2, 3, 4, 5})
GYARFAS_C = frozenset(range(1, 11))
SPIRE = Spire(path=(0, 1), a_set=frozenset({1, 2}), b_set=frozenset({3}))
# two path4 towers and one dominated vertex 4 adjacent to both tips; the
# edge (3, 6) joins B of the first spire to A of the second
CATHEDRAL_HOST = Graph(9, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 8), (3, 4), (8, 4)])
CATHEDRAL_HOST_B_TO_A = Graph(9, CATHEDRAL_HOST.edges() + [(3, 6)])
CATHEDRAL = Cathedral(
    spires=(SPIRE, Spire(path=(5, 6), a_set=frozenset({6, 7}), b_set=frozenset({8})))
)
BAND = Band(d=1, embedding=Embedding(mapping=(0, 1)), center=0, b_set=frozenset({2}))
# vertex 3 is adjacent to the superstar leaf 1, so it cannot be dominated
BAND_HOST = Graph(4, [(0, 1), (0, 2), (2, 3), (1, 3)])


def fixtures():
    """name -> (host, certificate, encoding context, direct validator call).

    One hand-built certificate per type and context variant; the cathedral
    with free=True and the band with a dominated set fail a clause."""
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
        "cathedral": (CATHEDRAL_HOST_B_TO_A, CATHEDRAL, {}, lambda g, c: validate_cathedral(g, c)),
        "cathedral_free_dominated": (
            CATHEDRAL_HOST_B_TO_A,
            CATHEDRAL,
            {"free": True, "dominated": frozenset({4})},
            lambda g, c: validate_cathedral(g, c, free=True, dominated=frozenset({4})),
        ),
        "band": (star_graph(3), BAND, {}, lambda g, c: validate_band(g, c)),
        "band_dominated": (
            BAND_HOST,
            BAND,
            {"dominated": frozenset({3})},
            lambda g, c: validate_band(g, c, frozenset({3})),
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
    big = 10**4
    band = {**certificate_to_json(BAND), "d": big}
    starry = {**certificate_to_json(fixtures()["starry"][1]), "d": big}
    start = time.perf_counter()
    assert verify_certificate(star_graph(3), band) == (False, "superstar_embedding_valid")
    assert verify_certificate(petersen(), starry) == (False, "binary_star_embedding")
    assert time.perf_counter() - start < 0.2
    # a right-sized binary embedding gets as far as the bristled one
    small = StarryCertificate(k=1, d=1, binary_embedding=Embedding(mapping=(0, 7, 8, 2)),
                              bristled_embedding=Embedding(mapping=(7, 3)))
    assert validate_starry(petersen(), small) == (False, "bristled_star_embedding")
    for bad in ({**band, "d": 0}, {**starry, "d": 0}, {**starry, "k": 0}):
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
    "cathedral": ref_validate_cathedral,
    "band": ref_validate_band,
    "starry": ref_validate_starry,
}


@st.composite
def small_hosts(draw):
    """A graph on 2..8 vertices with a start vertex, and a second graph on
    the same vertices whose edges join a disjoint copy of the first."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    cross = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
    return Graph(n, edges), cross, draw(st.integers(0, n - 1))


def searcher_certificates(g, cross, v):
    """(tag, host, certificate, context) for every certificate the searchers
    and the embedding search give on g around the vertex v. The cathedral
    lives on two copies of g joined by the cross edges (u, n + w), so it
    may fail a clause."""
    n, everything = g.n, (1 << g.n) - 1
    out = []
    colors = chromatic_number(g)[1].colors
    x_ground = frozenset(u for u in range(n) if colors[u] == colors[v])
    split = find_x_split(g, x_ground, 0)
    if split is not None:
        out.append(("x_split", g, split, {"x_ground": x_ground}))
    ground = frozenset(range(n)) - {v}
    for d in (1, 2):
        for search in (d_equipment, properly_d_equipped):
            got = search(g, v, ground, d)
            if got is not None:
                out.append(("equipment", g, got, {"ground": ground}))
    comps = _component_masks(g, everything & ~(1 << v), g.adjacency_mask(v))
    best, best_chi = best_by_chi(g, comps)
    for k in range(3):
        if best is not None and best_chi > k * chi_local(g, 1):
            c_set = mask_to_set(best)
            out.append(("gyarfas", g, gyarfas_path(g, c_set, v, k), {"c_set": c_set}))
    got = find_spire(g, 1, 0)
    if got is not None:
        spire, dominated = got
        out.append(("spire", g, spire, {}))
        out.append(("spire", g, spire, {"dominated": dominated}))
        twice = Graph(2 * n, g.edges() + [(a + n, b + n) for a, b in g.edges()] + [(a, b + n) for a, b in cross])
        shift = lambda s: frozenset(u + n for u in s)
        copy = Spire(path=tuple(u + n for u in spire.path), a_set=shift(spire.a_set), b_set=shift(spire.b_set))
        cath = Cathedral(spires=(spire, copy))
        for context in ({}, {"free": True}, {"dominated": dominated | shift(dominated)}):
            out.append(("cathedral", twice, cath, context))
    for d in (1, 2):
        emb = find_induced_embedding(g, superstar(d).graph)
        if emb is not None:
            center, star = emb.mapping[0], sum(1 << u for u in emb.mapping)
            rest = star & ~(1 << center)
            b_set = frozenset(u for u in bits(g.adjacency_mask(center) & ~star) if not g.adjacency_mask(u) & rest)
            band = Band(d=d, embedding=emb, center=center, b_set=b_set)
            out.append(("band", g, band, {}))
            outside = everything & ~star & ~sum(1 << b for b in b_set)
            dominated = frozenset(
                u for u in bits(outside)
                if g.adjacency_mask(u) & sum(1 << b for b in b_set) and not g.adjacency_mask(u) & star
            )
            out.append(("band", g, band, {"dominated": dominated}))
    starry = is_kd_starry(g, 1, 1)
    if starry is not None:
        out.append(("starry", g, starry, {}))
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
    elif isinstance(value, tuple) and all(isinstance(u, int) for u in value):
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
    elif isinstance(value, tuple):  # spires
        for i, spire in enumerate(value):
            for changed in certificate_mutants(spire, n):
                yield value[:i] + (changed,) + value[i + 1:]


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
    for tag, g, cert, context in searcher_certificates(*case):
        if tag != "cathedral":
            assert verify_certificate(g, certificate_to_json(cert, **context)) == (True, None), tag
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
