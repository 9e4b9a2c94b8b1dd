"""Bounded searchers for the certificate types.

Every searcher is deterministic: iteration is ascending by vertex id,
components are ranked by exact chromatic number with ties to the smallest
member, and each positive result is re-checked before being returned: the
searcher passes the masks it holds to its certificate type's clause
function, the core of that type's validator in certificates.py, and builds
the frozenset certificate only when no clause fails. Every searcher but
find_spire is exhaustive at desk scale, so its None means that no such
object exists. find_spire is a construction: its None means only that the
construction found none.

A searcher returns its result or raises: AssertionError when a guarantee
fails, such as a result its clause function refuses, and BudgetExceeded
when a node budget runs out. harness._process and cli.main turn these into
outcomes.
"""

from .certificates import (
    Equipment,
    GyarfasResult,
    Spire,
    XSplit,
    _equipment_clause,
    _gyarfas_clause,
    _spire_clause,
    _x_split_clause,
)
from .coloring import _chi_of_mask, best_by_chi, chi_local
from .embed import find_induced_embedding
from .errors import SearchBudgetExceeded, _check_non_negative_int, _check_positive_int
from .graphs import _component_masks, bits, is_connected, layers, mask_to_set, vertex_mask
from .trees import path_tree


def find_x_split(g, x_ground, min_chi, node_budget=None):
    """First split with chromatic number above min_chi, scanning x then y
    ascending and candidate components by smallest member. Z is always a
    full component, which is maximal and loses no chromatic number.
    Absence means no split above the bound exists. A budget exhaustion
    inside the chromatic subcalls propagates as indeterminate.

    Unbudgeted, a min_chi of at most 1 is decided by vertex count: the
    components are connected, so chi(Z) > 0 iff Z is nonempty and
    chi(Z) > 1 iff Z has at least two vertices. A budgeted call colours every
    candidate, so its budget outcomes stay those of the colouring."""
    _check_non_negative_int(min_chi, "min_chi")
    _check_positive_int(node_budget, "node_budget")
    xmask = vertex_mask(g, x_ground)
    outside_x = ((1 << g.n) - 1) & ~xmask
    by_size = node_budget is None and min_chi <= 1
    for x in bits(xmask):
        x_nbrs = g.adjacency_mask(x)
        for y in bits(x_nbrs & ~xmask):
            region = outside_x & ~(1 << y) & ~g.adjacency_mask(y)
            for comp in _component_masks(g, region, x_nbrs):
                if by_size:
                    above = comp.bit_count() > min_chi
                else:
                    above = _chi_of_mask(g, comp, node_budget)[0] > min_chi
                if above:
                    clause = _x_split_clause(g, xmask, x, y, comp)
                    if clause is not None:
                        raise AssertionError(f"searcher produced invalid split: {clause}")
                    return XSplit(x=x, y=y, z_set=mask_to_set(comp))
    return None


def _best_touching(g, x0, node_budget=None):
    """best_by_chi over the components of g - x0 that meet N(x0)."""
    touching = _component_masks(g, ((1 << g.n) - 1) & ~(1 << x0), g.adjacency_mask(x0))
    return best_by_chi(g, touching, node_budget)


def _gyarfas_core(g, cmask, x0, k):
    """Walk k steps from x0 into the vertex mask cmask: drop the endpoint's
    neighborhood, descend into the best component, step to the lowest
    neighbor touching it. Returns (path, residue mask) or None when some
    step has nowhere to go."""
    working = cmask
    path = [x0]
    for _ in range(k):
        nbrs = working & g.adjacency_mask(path[-1])
        if not nbrs:
            return None
        comp, _ = best_by_chi(g, _component_masks(g, working & ~nbrs))
        if comp is None:
            return None
        steps = [v for v in bits(nbrs) if g.adjacency_mask(v) & comp]
        if not steps:
            return None
        path.append(steps[0])
        working = comp
    return tuple(path), working


def gyarfas_path(g, c_set, x0, k):
    """Induced path of length k from x0 into the set, leaving a connected
    residue adjacent only to the far end.

    The chromatic precondition chi(C) > k * chi_1 is verified exactly
    before the walk; a failed precondition is a ValueError. Under it the
    lemma guarantees the walk, so a walk that stops short or a result that
    fails its clause check raises AssertionError naming x0 and k.
    """
    return _gyarfas_path_of_mask(g, vertex_mask(g, c_set), x0, k)


def _gyarfas_path_of_mask(g, cmask, x0, k):
    """gyarfas_path on the set given as a mask of g's vertices, checked by
    the caller; every other precondition is checked here."""
    g._check(x0)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if (cmask >> x0) & 1:
        raise ValueError("the start vertex must lie outside the set")
    if not cmask:
        raise ValueError("the set must be nonempty")
    if not is_connected(g, cmask):
        raise ValueError("the set must induce a connected subgraph")
    if not g.adjacency_mask(x0) & cmask:
        raise ValueError("the start vertex needs a neighbor in the set")
    if _chi_of_mask(g, cmask)[0] <= k * chi_local(g, 1):
        raise ValueError("chromatic precondition fails: chi(C) must exceed k * chi_1")
    got = _gyarfas_core(g, cmask, x0, k)
    if got is None:
        raise AssertionError(f"x0={x0} k={k}: walk ran out of room although the chromatic precondition holds")
    path, residue = got
    clause = _gyarfas_clause(g, cmask, path, vertex_mask(g, path[1:]), residue)
    if clause is not None:
        raise AssertionError(f"x0={x0} k={k}: walk produced an invalid result: {clause}")
    return GyarfasResult(path=path, residue=mask_to_set(residue))


def _lex_independent_subset(g, cand_mask, d):
    """Mask of the lexicographically first pairwise-nonadjacent d-subset of
    the candidate mask, by backtracking, or None."""
    adj = g.adjacency_masks()
    cands = list(bits(cand_mask))

    def rec(start, chosen, blocked):
        if chosen.bit_count() == d:
            return chosen
        for i in range(start, len(cands)):
            v = cands[i]
            if not (blocked >> v) & 1:
                got = rec(i + 1, chosen | 1 << v, blocked | adj[v])
                if got is not None:
                    return got
        return None

    return rec(0, 0, 0)


def _induced_paths_from(g, start, allowed_mask, length, node_budget=0):
    """Yield induced paths (as tuples) of exactly the given length starting
    at start, every later vertex drawn from allowed_mask, in lexicographic
    order. Each vertex added to a path is one node; a nonzero node_budget
    raises SearchBudgetExceeded on the node past it.

    A vertex w extends the path iff it is a neighbour of the last vertex in
    allowed_mask, off the path and adjacent to no earlier path vertex: one
    mask per step holds exactly those."""
    adj = g.adjacency_masks()
    path = [start]
    nodes = 0

    def extend(path_mask, earlier_nbrs):
        nonlocal nodes
        if len(path) == length + 1:
            yield tuple(path)
            return
        last = path[-1]
        for w in bits(adj[last] & allowed_mask & ~path_mask & ~earlier_nbrs):
            nodes += 1
            if node_budget and nodes > node_budget:
                raise SearchBudgetExceeded("equipment path enumeration")
            path.append(w)
            yield from extend(path_mask | 1 << w, earlier_nbrs | adj[last])
            path.pop()

    yield from extend(1 << start, 0)


def _equipment_ground(g, center, y_ground, d, node_budget):
    """Mask of the checked ground set and of the center's neighbors in it,
    after checking d and the node budget."""
    _check_positive_int(node_budget, "node_budget")
    ymask = vertex_mask(g, y_ground)
    g._check(center)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if (ymask >> center) & 1:
        raise ValueError("center must lie outside the ground set")
    return ymask, g.adjacency_mask(center) & ymask


def d_equipment(g, center, y_ground, d, node_budget=None):
    """Equipment of the center within the ground set, or None.

    The independent neighbor set does not depend on the path, so it is
    found once; then paths are enumerated lexicographically until one
    admits a witness neighbor."""
    ymask, nbrs = _equipment_ground(g, center, y_ground, d, node_budget)
    indep = _lex_independent_subset(g, nbrs, d)
    if indep is None:
        return None
    for path in _induced_paths_from(g, center, ymask, d, node_budget or 0):
        interior = vertex_mask(g, path[1:])
        for w in bits(nbrs & ~interior):
            if g.adjacency_mask(w) & interior:
                continue
            clause = _equipment_clause(g, ymask, center, indep, path, interior, w, False)
            if clause is not None:
                raise AssertionError(f"searcher produced invalid equipment: {clause}")
            return Equipment(center=center, independent_neighbors=mask_to_set(indep), path=path, witness=w)
    return None


def properly_d_equipped(g, center, y_ground, d, node_budget=None):
    """Strengthened equipment: the d pairwise-nonadjacent neighbors must
    avoid the path and have no neighbors on it beyond the center. The
    neighbor set now depends on the path, so both are searched together."""
    ymask, nbrs = _equipment_ground(g, center, y_ground, d, node_budget)
    for path in _induced_paths_from(g, center, ymask, d, node_budget or 0):
        interior = vertex_mask(g, path[1:])
        allowed = sum(1 << v for v in bits(nbrs & ~interior) if not g.adjacency_mask(v) & interior)
        indep = _lex_independent_subset(g, allowed, d)
        if indep is None:
            continue
        clause = _equipment_clause(g, ymask, center, indep, path, interior, None, True)
        if clause is not None:
            raise AssertionError(f"searcher produced invalid proper equipment: {clause}")
        return Equipment(center=center, independent_neighbors=mask_to_set(indep), path=path, proper=True)
    return None


def find_spire(g, d, min_chi, node_budget=None):
    """Spire of height d dominating a set with chromatic number above
    min_chi, with that set, or None.

    A construction, not an exhaustive search: from a start vertex, walk a
    d-step path into the best component, level-decompose what remains from
    the far end, and cut the levels at the best deep level. Start vertices
    are tried by descending degree, then ascending id. None means only that
    no start vertex gave a spire; a spire may still exist."""
    if d < 1:
        raise ValueError(f"height must be positive, got {d}")
    _check_non_negative_int(min_chi, "min_chi")
    _check_positive_int(node_budget, "node_budget")
    adj = g.adjacency_masks()
    for x0 in sorted(range(g.n), key=lambda v: (-adj[v].bit_count(), v)):
        best, _ = _best_touching(g, x0, node_budget)
        if best is None:
            continue
        got = _gyarfas_core(g, best, x0, d)
        if got is None:
            continue
        path, residue = got
        tip = path[-1]
        levels = list(layers(g, tip, residue | 1 << tip))
        if len(levels) < 3:
            continue
        best_level, best_level_chi = best_by_chi(g, levels[2:], node_budget)
        if best_level_chi <= min_chi:
            continue
        best_i = levels.index(best_level)
        amask, bmask = sum(levels[: best_i - 1]), levels[best_i - 1]
        clause = _spire_clause(g, path, vertex_mask(g, path), amask, bmask, best_level)
        if clause is not None:
            raise AssertionError(f"construction produced an invalid spire: {clause}")
        if len(path) != d + 1:
            raise AssertionError(f"construction produced a spire of height {len(path) - 1}, not {d}")
        return Spire(path=path, a_set=mask_to_set(amask), b_set=mask_to_set(bmask)), mask_to_set(best_level)
    return None


def induced_path_centered(g, v, r, node_budget=None):
    """Induced path on 2r+1 vertices with v exactly in the middle, or None.
    Exhaustive via anchored embedding search."""
    if r < 1:
        raise ValueError(f"radius must be positive, got {r}")
    g._check(v)
    pattern = path_tree(2 * r).graph
    emb = find_induced_embedding(g, pattern, anchor=(r, v), node_budget=node_budget)
    if emb is None:
        return None
    return tuple(emb.mapping)
