import hashlib
import json
import time
from pathlib import Path

import pytest

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
from chibound.embed import Embedding, StarryCertificate
from chibound.generators import grotzsch, path_graph, petersen, star_graph
from chibound.graphs import Graph

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


if __name__ == "__main__":
    # Rewrites the golden file; only for an intended change of wire bytes.
    SNAPSHOT.write_text(json.dumps(certificate_snapshot(), indent=1) + "\n")
