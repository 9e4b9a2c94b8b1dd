"""Certificate types for structured witnesses, their validators, and the
JSON wire format.

Every validator re-checks its object from scratch against the host graph
and reports the first failed clause by definitional order, which keeps
test failures actionable. Each type's clause function (_x_split_clause and
the like) does this on vertex masks; validate_* checks ids and converts
sets once, then calls it. Searchers call the clause functions on the masks
they hold, so they only emit certificates that pass (the closed loop).

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
from .trees import _binary_star, _bristled_star, binary_star_order


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
    successor: ends[i] and ends[i + 2], with 0 past either end."""
    ends = [0, *(1 << v for v in path), 0]
    return pmask.bit_count() == len(path) and all(adj[v] & pmask == ends[i] | ends[i + 2] for i, v in enumerate(path))


def _x_split_clause(g, xmask, x, y, zmask):
    """First failed split clause on masks, or None."""
    adj = g.adjacency_masks()
    if not (xmask >> x) & 1:
        return "x_in_x_ground"
    if (xmask >> y) & 1:
        return "y_outside_x_ground"
    if zmask & (xmask | 1 << y):
        return "z_avoids_x_ground_and_y"
    if not (adj[x] >> y) & 1:
        return "x_adjacent_y"
    if not adj[x] & zmask:
        return "x_has_neighbor_in_z"
    if adj[y] & zmask:
        return "y_no_neighbors_in_z"
    if not is_connected(g, zmask):
        return "z_connected"
    return None


def validate_x_split(g, x_ground, cand):
    """All four definitional requirements of a split relative to x_ground.
    Returns (ok, first_failed_clause)."""
    xmask, zmask = vertex_mask(g, x_ground), vertex_mask(g, cand.z_set)
    clause = _x_split_clause(g, xmask, g._check(cand.x), g._check(cand.y), zmask)
    return clause is None, clause


def _equipment_clause(g, ymask, c, nmask, path, tail, w, proper):
    """First failed equipment clause on masks, or None; tail is path[1:]'s."""
    adj = g.adjacency_masks()
    if (ymask >> c) & 1:
        return "center_outside_ground"
    if len(path) != nmask.bit_count() + 1:
        return "path_length_matches_d"
    if nmask & ~ymask:
        return "neighbors_in_ground"
    if nmask & ~adj[c]:
        return "neighbors_adjacent_center"
    if any(adj[v] & nmask for v in bits(nmask)):
        return "neighbors_pairwise_nonadjacent"
    if not path or path[0] != c:
        return "path_starts_at_center"
    if tail & ~ymask:
        return "path_vertices_in_ground"
    pmask = tail | 1 << c
    if not _is_induced_path(adj, path, pmask):
        return "path_induced"
    # tail lies in the ground and the center does not, so tail is the path
    # without its center
    if proper:
        if nmask & pmask:
            return "neighbors_off_path"
        if any(adj[v] & tail for v in bits(nmask)):
            return "neighbors_detached_from_path"
        return None
    if w is None or not (ymask >> w) & 1:
        return "witness_in_ground"
    if (pmask >> w) & 1:
        return "witness_off_path"
    if not (adj[c] >> w) & 1:
        return "witness_adjacent_center"
    if adj[w] & tail:
        return "witness_no_other_path_neighbors"
    return None


def validate_equipment(g, y_ground, cert):
    """Equipment clauses relative to the ground set. Handles both the plain
    form (witness required) and the proper form (neighbors must avoid the
    path entirely)."""
    ymask = vertex_mask(g, y_ground)
    c = g._check(cert.center)
    nmask = vertex_mask(g, cert.independent_neighbors)
    path = tuple(cert.path)
    tail = vertex_mask(g, path[1:])
    vertex_mask(g, path[:1])  # range-checks the start
    w = cert.witness if cert.witness is None else g._check(cert.witness)
    clause = _equipment_clause(g, ymask, c, nmask, path, tail, w, cert.proper)
    return clause is None, clause


def _gyarfas_clause(g, cmask, path, tail, rmask):
    """First failed Gyarfas clause on masks, or None; tail is path[1:]'s."""
    adj = g.adjacency_masks()
    if not path:
        return "path_nonempty"
    k = len(path) - 1
    if (cmask >> path[0]) & 1:
        return "start_outside_c"
    if tail & ~cmask:
        return "path_inside_c"
    pmask = tail | 1 << path[0]
    if not _is_induced_path(adj, path, pmask):
        return "path_induced"
    if rmask & ~cmask:
        return "residue_inside_c"
    if rmask & pmask:
        return "residue_avoids_path"
    if not rmask or not is_connected(g, rmask):
        return "residue_connected"
    if not adj[path[-1]] & rmask:
        return "endpoint_adjacent_residue"
    if any(adj[v] & rmask for v in path[:-1]):
        return "earlier_path_detached"
    if _chi_of_mask(g, rmask)[0] < _chi_of_mask(g, cmask)[0] - k * chi_local(g, 1):
        return "residue_chromatic_bound"
    return None


def validate_gyarfas(g, c_set, cert):
    """The four conclusion clauses plus the chromatic lower bound. The path
    length determines k."""
    cmask = vertex_mask(g, c_set)
    path = tuple(cert.path)
    tail = vertex_mask(g, path[1:])
    vertex_mask(g, path[:1])  # range-checks the start
    clause = _gyarfas_clause(g, cmask, path, tail, vertex_mask(g, cert.residue))
    return clause is None, clause


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
    pmask, amask = vertex_mask(g, path), vertex_mask(g, spire.a_set)
    clause = _spire_clause(g, path, pmask, amask, vertex_mask(g, spire.b_set), cmask)
    return clause is None, clause


def validate_starry(g, cert):
    k, d = cert.k, cert.d
    binary, bristled = cert.binary_embedding, cert.bristled_embedding
    # the one check of k and d, which also keeps a huge pattern unbuilt;
    # verify_embedding refuses a bristled mapping of the wrong length
    if len(binary.mapping) != binary_star_order(k, d) or not verify_embedding(g, _binary_star(k, d), binary):
        return False, "binary_star_embedding"
    if not verify_embedding(g, _bristled_star(k, d), bristled):
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
