"""Certificate types for structured witnesses, their validators, and the
JSON wire format.

Every validator re-checks its object from scratch against the host graph
and reports the first failed clause by definitional order, which keeps
test failures actionable. Searchers elsewhere must only emit certificates
that pass these checks (the closed-loop property).

JSON objects are tagged with "type" in {equipment, gyarfas, spire,
starry, x_split}; starry is the two-pattern certificate. Context needed
for standalone validation (ground sets, the dominated set) travels inside
the object.
"""

from dataclasses import MISSING, dataclass, fields
from functools import cache

from .coloring import _chi_of_mask, chi_local
from .embed import Embedding, StarryCertificate, verify_embedding
from .graphs import bits, is_connected, vertex_mask
from .trees import binary_star, binary_star_order, bristled_star, bristled_star_order


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


def _is_induced_path(adj, path, pmask):
    """True iff path has distinct vertices, pmask is their mask, and each
    vertex's neighbors on the path are exactly its predecessor and its
    successor."""
    if pmask.bit_count() != len(path):
        return False
    before = 0
    for i, v in enumerate(path):
        after = 1 << path[i + 1] if i + 1 < len(path) else 0
        if adj[v] & pmask != before | after:
            return False
        before = 1 << v
    return True


def validate_x_split(g, x_ground, cand):
    """All four definitional requirements of a split relative to x_ground.
    Returns (ok, first_failed_clause)."""
    xmask = vertex_mask(g, x_ground)
    zmask = vertex_mask(g, cand.z_set)
    x, y = g._check(cand.x), g._check(cand.y)
    adj = g.adjacency_masks()
    if not (xmask >> x) & 1:
        return False, "x_in_x_ground"
    if (xmask >> y) & 1:
        return False, "y_outside_x_ground"
    if zmask & (xmask | 1 << y):
        return False, "z_avoids_x_ground_and_y"
    if not (adj[x] >> y) & 1:
        return False, "x_adjacent_y"
    if not adj[x] & zmask:
        return False, "x_has_neighbor_in_z"
    if adj[y] & zmask:
        return False, "y_no_neighbors_in_z"
    if not is_connected(g, zmask):
        return False, "z_connected"
    return True, None


def validate_equipment(g, y_ground, cert):
    """Equipment clauses relative to the ground set. Handles both the plain
    form (witness required) and the proper form (neighbors must avoid the
    path entirely)."""
    ymask = vertex_mask(g, y_ground)
    c = g._check(cert.center)
    nmask = vertex_mask(g, cert.independent_neighbors)
    path = tuple(cert.path)
    tail = vertex_mask(g, path[1:])
    pmask = tail | vertex_mask(g, path[:1])
    w = cert.witness
    if w is not None:
        g._check(w)
    adj = g.adjacency_masks()
    if (ymask >> c) & 1:
        return False, "center_outside_ground"
    if len(path) != nmask.bit_count() + 1:
        return False, "path_length_matches_d"
    if nmask & ~ymask:
        return False, "neighbors_in_ground"
    if nmask & ~adj[c]:
        return False, "neighbors_adjacent_center"
    if any(adj[v] & nmask for v in bits(nmask)):
        return False, "neighbors_pairwise_nonadjacent"
    if not path or path[0] != c:
        return False, "path_starts_at_center"
    if tail & ~ymask:
        return False, "path_vertices_in_ground"
    if not _is_induced_path(adj, path, pmask):
        return False, "path_induced"
    # tail lies in the ground and the center does not, so tail is the path
    # without its center
    if cert.proper:
        if nmask & pmask:
            return False, "neighbors_off_path"
        if any(adj[v] & tail for v in bits(nmask)):
            return False, "neighbors_detached_from_path"
        return True, None
    if w is None or not (ymask >> w) & 1:
        return False, "witness_in_ground"
    if (pmask >> w) & 1:
        return False, "witness_off_path"
    if not (adj[c] >> w) & 1:
        return False, "witness_adjacent_center"
    if adj[w] & tail:
        return False, "witness_no_other_path_neighbors"
    return True, None


def validate_gyarfas(g, c_set, cert):
    """The four conclusion clauses plus the chromatic lower bound. The path
    length determines k."""
    cmask = vertex_mask(g, c_set)
    path = tuple(cert.path)
    tail = vertex_mask(g, path[1:])
    pmask = tail | vertex_mask(g, path[:1])
    rmask = vertex_mask(g, cert.residue)
    adj = g.adjacency_masks()
    if not path:
        return False, "path_nonempty"
    k = len(path) - 1
    if (cmask >> path[0]) & 1:
        return False, "start_outside_c"
    if tail & ~cmask:
        return False, "path_inside_c"
    if not _is_induced_path(adj, path, pmask):
        return False, "path_induced"
    if rmask & ~cmask:
        return False, "residue_inside_c"
    if rmask & pmask:
        return False, "residue_avoids_path"
    if not rmask or not is_connected(g, rmask):
        return False, "residue_connected"
    if not adj[path[-1]] & rmask:
        return False, "endpoint_adjacent_residue"
    if any(adj[v] & rmask for v in path[:-1]):
        return False, "earlier_path_detached"
    if _chi_of_mask(g, rmask)[0] < _chi_of_mask(g, cmask)[0] - k * chi_local(g, 1):
        return False, "residue_chromatic_bound"
    return True, None


def _spire_clause(g, path, pmask, amask, bmask, cmask):
    """First failed spire clause on masks, or None. The domination clauses
    are tested when cmask, the dominated set's mask, is not None."""
    adj = g.adjacency_masks()
    if not path or not _is_induced_path(adj, path, pmask):
        return "path_induced"
    if not amask or not is_connected(g, amask):
        return "a_connected"
    if amask & bmask:
        return "a_b_disjoint"
    if any(not adj[v] & amask for v in bits(bmask)):
        return "a_covers_b"
    if pmask & bmask:
        return "path_avoids_b"
    ends_in_a = [v for v in (path[0], path[-1]) if (amask >> v) & 1]
    if not ends_in_a or pmask & amask != 1 << ends_in_a[0]:
        return "path_meets_a_only_at_anchor"
    z = 1 << ends_in_a[0]
    if any(adj[v] & (amask | bmask) & ~z for v in bits(pmask & ~z)):
        return "path_detached_from_a_b"
    if cmask is None:
        return None
    if cmask & (amask | bmask | pmask):
        return "dominated_disjoint"
    if any(adj[v] & cmask for v in bits(amask | pmask)):
        return "no_edges_a_path_to_dominated"
    if any(not adj[v] & bmask for v in bits(cmask)):
        return "b_covers_dominated"
    return None


def validate_spire(g, spire, dominated=None):
    """The five spire clauses, plus the three domination clauses when a
    dominated set is supplied."""
    path = tuple(spire.path)
    cmask = None if dominated is None else vertex_mask(g, dominated)
    clause = _spire_clause(
        g, path, vertex_mask(g, path), vertex_mask(g, spire.a_set), vertex_mask(g, spire.b_set), cmask
    )
    return clause is None, clause


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
    if any(type(v) is not int for v in _json_list(value)):
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
}

# context key -> (declared type, default)
_CONTEXT = {
    "x_ground": (frozenset, MISSING),
    "ground": (frozenset, MISSING),
    "c_set": (frozenset, MISSING),
    "dominated": (frozenset, None),
}

# tag -> (class, context keys, validator called as validate(g, cert, **context))
_TAGS = {
    "x_split": (XSplit, ("x_ground",), lambda g, c, x_ground: validate_x_split(g, x_ground, c)),
    "equipment": (Equipment, ("ground",), lambda g, c, ground: validate_equipment(g, ground, c)),
    "gyarfas": (GyarfasResult, ("c_set",), lambda g, c, c_set: validate_gyarfas(g, c_set, c)),
    "spire": (Spire, ("dominated",), validate_spire),
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
