"""Certificate types for structured witnesses, their validators, and the
JSON wire format.

Every validator re-checks its object from scratch against the host graph
and reports the first failed clause by definitional order, which keeps
test failures actionable. Searchers elsewhere must only emit certificates
that pass these checks (the closed-loop property).

JSON objects are tagged with "type" in {x_split, equipment, gyarfas,
spire, cathedral, band} plus "starry" for the two-pattern certificate.
Context needed for standalone validation (ground sets, the dominated set)
travels inside the object.
"""

from dataclasses import MISSING, dataclass, fields
from functools import cache

from .coloring import chi_local, chi_of
from .embed import Embedding, StarryCertificate, verify_embedding
from .graphs import bits, check_vertex_set, is_connected_set, set_to_mask
from .trees import (
    binary_star,
    binary_star_order,
    bristled_star,
    bristled_star_order,
    superstar,
    superstar_order,
)


@dataclass(frozen=True)
class XSplit:
    x: int
    y: int
    z_set: frozenset


@dataclass(frozen=True)
class Equipment:
    """Parts of the equipment of a vertex: d pairwise nonadjacent neighbors,
    an induced path of length d out of the center, and (in the plain form)
    a witness neighbor touching the path only at the center."""

    center: int
    independent_neighbors: frozenset
    path: tuple
    witness: int | None = None
    proper: bool = False


@dataclass(frozen=True)
class GyarfasResult:
    path: tuple
    residue: frozenset


@dataclass(frozen=True)
class Spire:
    path: tuple
    a_set: frozenset
    b_set: frozenset

    def vertex_set(self):
        return self.a_set | self.b_set | set(self.path)


@dataclass(frozen=True)
class Cathedral:
    spires: tuple[Spire, ...]


@dataclass(frozen=True)
class Band:
    d: int
    embedding: Embedding
    center: int
    b_set: frozenset

    def superstar_vertices(self):
        return frozenset(self.embedding.mapping)


def _is_induced_path(g, seq):
    if len(seq) != len(set(seq)):
        return False
    for i, u in enumerate(seq):
        for j in range(i + 1, len(seq)):
            if g.has_edge(u, seq[j]) != (j == i + 1):
                return False
    return True


def validate_x_split(g, x_ground, cand):
    """All four definitional requirements of a split relative to x_ground.
    Returns (ok, first_failed_clause)."""
    x_ground = check_vertex_set(g, x_ground)
    z = check_vertex_set(g, cand.z_set)
    g._check(cand.x)
    g._check(cand.y)
    zmask = set_to_mask(z)
    if cand.x not in x_ground:
        return False, "x_in_x_ground"
    if cand.y in x_ground:
        return False, "y_outside_x_ground"
    if z & (x_ground | {cand.y}):
        return False, "z_avoids_x_ground_and_y"
    if not g.has_edge(cand.x, cand.y):
        return False, "x_adjacent_y"
    if not g.adjacency_mask(cand.x) & zmask:
        return False, "x_has_neighbor_in_z"
    if g.adjacency_mask(cand.y) & zmask:
        return False, "y_no_neighbors_in_z"
    if not is_connected_set(g, z):
        return False, "z_connected"
    return True, None


def validate_equipment(g, y_ground, cert):
    """Equipment clauses relative to the ground set. Handles both the plain
    form (witness required) and the proper form (neighbors must avoid the
    path entirely)."""
    y = check_vertex_set(g, y_ground)
    g._check(cert.center)
    nbrs = check_vertex_set(g, cert.independent_neighbors)
    path = tuple(cert.path)
    d = len(nbrs)
    if cert.center in y:
        return False, "center_outside_ground"
    if len(path) != d + 1:
        return False, "path_length_matches_d"
    if not nbrs <= y:
        return False, "neighbors_in_ground"
    if any(not g.has_edge(cert.center, v) for v in nbrs):
        return False, "neighbors_adjacent_center"
    ns = sorted(nbrs)
    for i, u in enumerate(ns):
        for v in ns[i + 1:]:
            if g.has_edge(u, v):
                return False, "neighbors_pairwise_nonadjacent"
    if not path or path[0] != cert.center:
        return False, "path_starts_at_center"
    if not set(path[1:]) <= y:
        return False, "path_vertices_in_ground"
    if not _is_induced_path(g, path):
        return False, "path_induced"
    interior = set(path) - {cert.center}
    imask = set_to_mask(interior)
    if cert.proper:
        if nbrs & set(path):
            return False, "neighbors_off_path"
        if any(g.adjacency_mask(v) & imask for v in nbrs):
            return False, "neighbors_detached_from_path"
        return True, None
    w = cert.witness
    if w is None or not 0 <= w < g.n or w not in y:
        return False, "witness_in_ground"
    if w in path:
        return False, "witness_off_path"
    if not g.has_edge(cert.center, w):
        return False, "witness_adjacent_center"
    if g.adjacency_mask(w) & imask:
        return False, "witness_no_other_path_neighbors"
    return True, None


def validate_gyarfas(g, c_set, cert):
    """The four conclusion clauses plus the chromatic lower bound. The path
    length determines k."""
    c = check_vertex_set(g, c_set)
    path = tuple(cert.path)
    residue = check_vertex_set(g, cert.residue)
    if not path:
        return False, "path_nonempty"
    k = len(path) - 1
    if path[0] in c:
        return False, "start_outside_c"
    if not set(path[1:]) <= c:
        return False, "path_inside_c"
    if not _is_induced_path(g, path):
        return False, "path_induced"
    if not residue <= c:
        return False, "residue_inside_c"
    if residue & set(path):
        return False, "residue_avoids_path"
    if not residue or not is_connected_set(g, residue):
        return False, "residue_connected"
    rmask = set_to_mask(residue)
    if not g.adjacency_mask(path[-1]) & rmask:
        return False, "endpoint_adjacent_residue"
    if any(g.adjacency_mask(v) & rmask for v in path[:-1]):
        return False, "earlier_path_detached"
    if chi_of(g, residue) < chi_of(g, c) - k * chi_local(g, 1):
        return False, "residue_chromatic_bound"
    return True, None


def validate_spire(g, spire, dominated=None):
    """The five spire clauses, plus the three domination clauses when a
    dominated set is supplied."""
    path = tuple(spire.path)
    a = check_vertex_set(g, spire.a_set)
    b = check_vertex_set(g, spire.b_set)
    if not path or not _is_induced_path(g, path):
        return False, "path_induced"
    if not a or not is_connected_set(g, a):
        return False, "a_connected"
    if a & b:
        return False, "a_b_disjoint"
    amask = set_to_mask(a)
    if any(not g.adjacency_mask(v) & amask for v in b):
        return False, "a_covers_b"
    if set(path) & b:
        return False, "path_avoids_b"
    ends_in_a = [v for v in (path[0], path[-1]) if v in a]
    if not ends_in_a or set(path) & a != {ends_in_a[0]}:
        return False, "path_meets_a_only_at_anchor"
    z = ends_in_a[0]
    ab_rest = set_to_mask((a | b) - {z})
    if any(g.adjacency_mask(v) & ab_rest for v in path if v != z):
        return False, "path_detached_from_a_b"
    if dominated is None:
        return True, None
    c = check_vertex_set(g, dominated)
    if c & spire.vertex_set():
        return False, "dominated_disjoint"
    cmask = set_to_mask(c)
    if any(g.adjacency_mask(v) & cmask for v in a | set(path)):
        return False, "no_edges_a_path_to_dominated"
    bmask = set_to_mask(b)
    if any(not g.adjacency_mask(v) & bmask for v in c):
        return False, "b_covers_dominated"
    return True, None


def validate_cathedral(g, cath, free=False, dominated=None):
    """Per-spire validity, pairwise disjointness, the cross-edge rule
    (free variant: only B-to-B allowed), and per-spire domination."""
    spires = tuple(cath.spires)
    if not spires:
        return False, "nonempty"
    for i, s in enumerate(spires):
        ok, clause = validate_spire(g, s, dominated)
        if not ok:
            return False, f"spire_{i}_{clause}"
    for i in range(len(spires)):
        for j in range(i + 1, len(spires)):
            vi, vj = spires[i].vertex_set(), spires[j].vertex_set()
            if vi & vj:
                return False, f"disjoint_{i}_{j}"
            allowed_j = spires[j].b_set if free else (spires[j].a_set | spires[j].b_set)
            for u in vi:
                for v in bits(g.adjacency_mask(u) & set_to_mask(vj)):
                    if u not in spires[i].b_set or v not in allowed_j:
                        return False, f"cross_edges_{i}_{j}"
    return True, None


def validate_band(g, band, dominated=None):
    """Band clauses: an induced superstar rooted at the center, B fully
    adjacent to the center and untouched by the rest of the star."""
    b = check_vertex_set(g, band.b_set)
    g._check(band.center)
    # sizes first: a huge d from the certificate is rejected before any
    # pattern of that size is built
    emb = band.embedding
    if len(emb.mapping) != superstar_order(band.d) or not verify_embedding(g, superstar(band.d).graph, emb):
        return False, "superstar_embedding_valid"
    if band.embedding.mapping[0] != band.center:
        return False, "root_maps_to_center"
    hverts = band.superstar_vertices()
    if b & hverts:
        return False, "b_avoids_superstar"
    bmask = set_to_mask(b)
    if any(not g.has_edge(band.center, v) for v in b):
        return False, "center_adjacent_b"
    if any(g.adjacency_mask(v) & bmask for v in hverts - {band.center}):
        return False, "superstar_detached_from_b"
    if dominated is None:
        return True, None
    c = check_vertex_set(g, dominated)
    if c & hverts:
        return False, "dominated_avoids_superstar"
    if c & b:
        return False, "dominated_avoids_b"
    cmask = set_to_mask(c)
    if any(g.adjacency_mask(v) & cmask for v in hverts):
        return False, "no_edges_superstar_to_dominated"
    if any(not g.adjacency_mask(v) & bmask for v in c):
        return False, "b_covers_dominated"
    return True, None


def validate_starry(g, cert):
    k, d = cert.k, cert.d
    binary, bristled = cert.binary_embedding, cert.bristled_embedding
    if len(binary.mapping) != binary_star_order(k, d) or not verify_embedding(g, binary_star(k, d), binary):
        return False, "binary_star_embedding"
    if (len(bristled.mapping) != bristled_star_order(k, d)
            or not verify_embedding(g, bristled_star(k, d), bristled)):
        return False, "bristled_star_embedding"
    return True, None


# ------------------------------------------------------------ wire format
#
# A certificate's JSON object is {"type": tag}, its dataclass fields, then
# the context keys its validator takes. Each value is coded by its declared
# type. Fields are always written; a context key is left out when None.


def _json_int(value):
    # bool is an int subclass; JSON true and false are not ints here
    if type(value) is not int:
        raise ValueError(f"expected an int, got {value!r}")
    return value


def _json_bool(value):
    if type(value) is not bool:
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _json_list(value):
    if type(value) is not list:
        raise ValueError(f"expected a list, got {value!r}")
    return value


def _json_ints(value):
    if not set(map(type, _json_list(value))) <= {int}:
        raise ValueError(f"expected a list of ints, got {value!r}")
    return value


def _read(obj, layout):
    """The (key, declared type, default) entries of layout, read from a JSON
    object. A missing key takes its default; MISSING marks a required key."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {obj!r}")
    out = {}
    for key, kind, default in layout:
        value = obj.get(key, default)
        if value is MISSING:
            raise ValueError(f"missing key {key!r}")
        try:
            out[key] = value if value is default else _CODECS[kind][1](value)
        except ValueError as e:
            raise ValueError(f"key {key!r}: {e}") from None
    return out


@cache
def _layout(cls):
    return [(f.name, f.type, f.default) for f in fields(cls)]


def _to_json(obj):
    return {key: _CODECS[kind][0](getattr(obj, key)) for key, kind, _ in _layout(type(obj))}


def _from_json(cls, obj):
    return cls(**_read(obj, _layout(cls)))


# declared type -> (to JSON, from JSON)
_CODECS = {
    int: (lambda v: v, _json_int),
    int | None: (lambda v: v, _json_int),
    bool: (bool, _json_bool),
    frozenset: (sorted, lambda v: frozenset(_json_ints(v))),
    tuple: (list, lambda v: tuple(_json_ints(v))),
    Embedding: (Embedding.to_json_list, Embedding.from_json_list),
    tuple[Spire, ...]: (
        lambda spires: [_to_json(s) for s in spires],
        lambda v: tuple(_from_json(Spire, s) for s in _json_list(v)),
    ),
}

# context key -> (declared type, default)
_CONTEXT = {
    "x_ground": (frozenset, MISSING),
    "ground": (frozenset, MISSING),
    "c_set": (frozenset, MISSING),
    "dominated": (frozenset, None),
    "free": (bool, False),
}

# tag -> (class, context keys, validator called as validate(g, cert, **context))
_TAGS = {
    "x_split": (XSplit, ("x_ground",), lambda g, c, x_ground: validate_x_split(g, x_ground, c)),
    "equipment": (Equipment, ("ground",), lambda g, c, ground: validate_equipment(g, ground, c)),
    "gyarfas": (GyarfasResult, ("c_set",), lambda g, c, c_set: validate_gyarfas(g, c_set, c)),
    "spire": (Spire, ("dominated",), validate_spire),
    "cathedral": (Cathedral, ("free", "dominated"), validate_cathedral),
    "band": (Band, ("dominated",), validate_band),
    "starry": (StarryCertificate, (), validate_starry),
}
_TAG_OF = {cls: tag for tag, (cls, _, _) in _TAGS.items()}


def certificate_to_json(cert, **context):
    """Serialize a certificate plus its validation context."""
    tag = _TAG_OF.get(type(cert))
    if tag is None:
        raise TypeError(f"not a certificate: {cert!r}")
    out = {"type": tag, **_to_json(cert)}
    for key in _TAGS[tag][1]:
        kind, default = _CONTEXT[key]
        value = context[key] if default is MISSING else context.get(key, default)
        if value is not None:
            out[key] = _CODECS[kind][0](value)
    return out


def verify_certificate(g, obj):
    """Validate a JSON certificate object against its host graph.
    Returns (ok, first_failed_clause); malformed input raises ValueError."""
    if type(obj) is not dict:
        raise ValueError(f"a certificate is a JSON object, got {obj!r}")
    tag = obj.get("type")
    if not isinstance(tag, str) or tag not in _TAGS:
        raise ValueError(f"unknown certificate type {tag!r}")
    cls, keys, validate = _TAGS[tag]
    cert = _from_json(cls, obj)
    return validate(g, cert, **_read(obj, [(key, *_CONTEXT[key]) for key in keys]))
