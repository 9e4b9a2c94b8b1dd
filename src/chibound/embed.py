"""Induced subgraph search: anchored embedding, counting, and the
two-pattern starriness test.

Embeddings are labeled injective maps preserving both adjacency and
non-adjacency. The backtracking order is canonical, with host candidates
ascending. A find runs a DFS from the anchor or from a highest-degree
pattern vertex, so the first witness is deterministic across runs and
kernel backends. A find may be kept inside a host vertex mask, within,
as the equipment searchers keep their spiders inside the ground set. A
count of a forest pattern runs breadth-first from the centre of each
tree. For a forest pattern the search places isomorphic sibling subtrees
in ascending host order (the symmetry breaking of Grochow and Kellis,
RECOMB 2007). That keeps a find's first witness. In a count, rooted at
the centre, it leaves one representative per orbit of the pattern's
whole automorphism group, and the count is multiplied back.

Only the candidate masks of a search plan depend on the host. The rest,
the order, the pattern rows in order, the sibling links and the factor,
is built once per (pattern, anchor pattern vertex, count) by
_pattern_plan, a bounded lru_cache keyed on the pattern's content, and
handed out as tuples, so no caller can change a cached plan.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from . import _kernels
from .errors import SearchBudgetExceeded, _check_int
from .graphs import _component_masks, bits, layers
from .trees import _binary_star, _bristled_star, binary_star_order


@dataclass(frozen=True)
class Embedding:
    """mapping[p] is the host vertex carrying pattern vertex p."""

    mapping: tuple

    def to_json_list(self):
        return [[p, h] for p, h in enumerate(self.mapping)]

    @staticmethod
    def from_json_list(pairs):
        """Inverse of to_json_list. Raises ValueError unless pairs is a list
        of [pattern, host] int pairs whose pattern indices are exactly
        0..len(pairs)-1."""
        if type(pairs) is not list:
            raise ValueError(f"expected a list of [pattern, host] pairs, got {pairs!r}")
        mapping = [None] * len(pairs)
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                raise ValueError(f"expected a [pattern, host] pair, got {pair!r}")
            p, h = pair
            if type(p) is not int or type(h) is not int:
                raise ValueError(f"expected a [pattern, host] int pair, got {pair!r}")
            if not 0 <= p < len(pairs) or mapping[p] is not None:
                raise ValueError(f"pattern indices must be exactly 0..{len(pairs) - 1}, got {pairs!r}")
            mapping[p] = h
        return Embedding(mapping=tuple(mapping))


@dataclass(frozen=True)
class StarryCertificate:
    k: int
    d: int
    binary_embedding: Embedding
    bristled_embedding: Embedding


def verify_embedding(host, pattern, emb):
    """Re-check an embedding edge by edge and non-edge by non-edge."""
    m = emb.mapping
    if len(m) != pattern.n:
        return False
    if any(type(h) is not int or not 0 <= h < host.n for h in m):
        return False
    if len(set(m)) != len(m):
        return False
    # every id is an int in range now, so the masks are read unchecked
    pat, adj = pattern.adjacency_masks(), host.adjacency_masks()
    for u in range(pattern.n):
        row = adj[m[u]]
        for v in range(u + 1, pattern.n):
            if pat[u] >> v & 1 != row >> m[v] & 1:
                return False
    return True


def _bfs_dist(g, start):
    dist = [-1] * g.n
    for d, layer in enumerate(layers(g, start)):
        for v in bits(layer):
            dist[v] = d
    return dist


def _dfs_order(adj, root):
    """Preorder (vertex, parent) pairs over root's component of the graph
    with adjacency masks adj, neighbors ascending."""
    out = []
    visited = 0

    def visit(v, par):
        nonlocal visited
        visited |= 1 << v
        out.append((v, par))
        for w in bits(adj[v]):
            if not (visited >> w) & 1:
                visit(w, v)

    visit(root, -1)
    return out


def _bfs_order(adj, root):
    """Breadth-first (vertex, parent) pairs over root's component of the
    graph with adjacency masks adj, each vertex's unvisited neighbours
    ascending, so the children of a vertex sit side by side."""
    out = [(root, -1)]
    seen = 1 << root
    i = 0
    while i < len(out):
        v = out[i][0]
        i += 1
        out.extend((w, v) for w in bits(adj[v] & ~seen))
        seen |= adj[v]
    return out


def _centre(adj, comp):
    """The centre of the tree on the vertex mask comp: the one vertex or
    the two adjacent ones left when its leaves are peeled off round by
    round (Jordan 1869)."""
    while comp.bit_count() > 2:
        comp &= ~sum(1 << v for v in bits(comp) if (adj[v] & comp).bit_count() < 2)
    return list(bits(comp))


def _rooted_code(adj, v, away, codes):
    """AHU code of the subtree at v of a tree, cut off from its neighbour
    away: one small int per distinct sorted tuple of child codes, kept in
    codes."""
    kids = sorted(_rooted_code(adj, w, v, codes) for w in bits(adj[v] & ~(1 << away)))
    return codes.setdefault(tuple(kids), len(codes))


def _count_roots(adj, comps):
    """(root, twin) for each tree of a forest, the vertex masks comps.
    root is the tree's centre. Of the two centres of a bicentral tree it is
    the one whose half, its side of the central edge, has the smaller AHU
    code, so isomorphic trees get isomorphic rooted trees; twin is the
    other centre when the two halves are isomorphic, else -1."""
    codes = {}
    out = []
    for comp in comps:
        centre = _centre(adj, comp)
        if len(centre) == 1:
            out.append((centre[0], -1))
            continue
        c1, c2 = centre
        h1, h2 = _rooted_code(adj, c1, c2, codes), _rooted_code(adj, c2, c1, codes)
        out.append((c2, -1) if h2 < h1 else (c1, c2 if h1 == h2 else -1))
    return out


def _sibling_classes(parents, anchored):
    """above and factor of _search_plan for a forest's tree parents, in one
    pass from the last position back. A position's children come after it
    in the plan's order, DFS or BFS, so its AHU code, one small int per
    distinct sorted tuple of child codes, is complete when the pass reaches
    it, and the sibling of its class met just before it in the pass is the
    next one in order. anchored keeps position 0, the anchored root, out of
    every class."""
    m = len(parents)
    codes = {}
    kids = [[] for _ in range(m)]
    above = [-1] * m
    factor = 1
    later = {}  # (parent, code) -> (the class's earliest position so far, its size)
    for t in range(m - 1, -1, -1):
        mine = kids[t]
        mine.sort()
        code = codes.setdefault(tuple(mine), len(codes))
        p = parents[t]
        if p >= 0:
            kids[p].append(code)
        elif anchored and t == 0:
            break
        nxt, size = later.get((p, code), (-1, 0))
        if nxt >= 0:
            above[nxt] = t
        size += 1
        factor *= size
        later[p, code] = (t, size)
    return above, factor


def _search_plan(host, pattern, anchor, count=False, within=-1):
    """Order pattern vertices and build static candidate masks.

    Returns (order, pat_adj_o, above, cands, factor) in search-order
    space: pat_adj_o[t] has bit s set iff the pattern vertices at
    positions t and s are adjacent. order, pat_adj_o, above and factor
    depend on the pattern alone and come from _pattern_plan, built once
    per (pattern, anchor pattern vertex, count) and shared as tuples.
    cands, a fresh list, holds the static filters of the host: hosts in
    within (-1 is all) of at least the pattern degree, the anchor pinned
    to a single host vertex, and, within the anchor's pattern component,
    host distance from the anchor host no larger than pattern distance
    from the anchor vertex.
    """
    order, pat_adj_o, above, factor, deg_o, dist_o = _pattern_plan(
        pattern, None if anchor is None else anchor[0], count
    )
    # deg_ok[d]: the hosts of degree at least d, for d up to the largest
    # pattern degree, from one pass over the hosts
    top = max(deg_o)
    deg_ok = [0] * (top + 1)
    b = 1
    for d in map(int.bit_count, host.adjacency_masks()):
        deg_ok[d if d < top else top] |= b
        b <<= 1
    for d in range(top - 1, -1, -1):
        deg_ok[d] |= deg_ok[d + 1]

    cands = [deg_ok[d] & within for d in deg_o]
    if anchor is not None:
        # balls[r]: host vertices within distance r of the anchor host;
        # the frontiers are disjoint, so a ball is their sum. balls[0]
        # pins the anchor vertex, the one at pattern distance 0
        balls = list(accumulate(layers(host, anchor[1])))
        last = len(balls) - 1
        for t, r in enumerate(dist_o):
            if r >= 0:  # a vertex of another component has no constraint
                cands[t] &= balls[r if r < last else last]
    return order, pat_adj_o, above, cands, factor


@lru_cache(maxsize=256)
def _pattern_plan(pattern, anchor_p, count):
    """The half of _search_plan that depends on the pattern alone: (order,
    pat_adj_o, above, factor, deg_o, dist_o), all tuples but factor, so no
    caller can change a cached plan. anchor_p is the anchor's pattern
    vertex or None. deg_o[t] is the degree of the pattern vertex at
    position t and dist_o[t] its distance from anchor_p, -1 in another
    component; dist_o is empty without an anchor. The cache is keyed on
    the pattern's content (Graph hashes by it) and holds 256 plans.

    The find plan, the default, orders each component by a DFS preorder
    from the anchor or from a highest-degree vertex, lowest id first, so
    the kernels' parent of a position, its latest earlier neighbour, is
    its DFS parent. count=True asks for the count plan, which takes no
    anchor: it roots each tree of a forest pattern at its centre (see
    _count_roots) and orders it breadth-first from there, so each class of
    isomorphic siblings sits near the root, where its order prunes first,
    and the leaves come last, where the kernels take the last position's
    hosts in one step; a tree's only earlier neighbour is then its BFS
    parent. A pattern that is not a forest gets the find plan's order.

    When the pattern is a forest, above[t] is the position of the previous
    sibling subtree isomorphic to position t's: the same parent in the
    plan's tree, or both the roots of unanchored components, and the same
    rooted (AHU) code. The kernels place t's host above that sibling's.
    In the count plan, the second centre of a tree whose two halves are
    isomorphic also has the first centre as above. Otherwise, and for a
    first sibling, above[t] is -1. factor is the number of automorphisms
    those constraints break, the product of (class size)! over the classes
    of isomorphic siblings, times 2 per linked centre; it is 1 when above
    is all -1. In the count plan it is the order of the pattern's
    automorphism group: the automorphisms of a tree fix its centre, and
    those of a rooted tree are the relabellings of isomorphic siblings.
    The anchored component's root sits apart from the other roots, as its
    host is pinned.
    """
    pn = pattern.n
    pat = pattern.adjacency_masks()
    pat_deg = [row.bit_count() for row in pat]
    comps = list(_component_masks(pattern, (1 << pn) - 1))
    forest = sum(pat_deg) == 2 * (pn - len(comps))  # one edge fewer than vertices per tree
    pairs = []
    twins = []
    if count and forest:
        for root, twin in sorted(_count_roots(pat, comps)):
            pairs += _bfs_order(pat, root)
            if twin >= 0:
                twins.append((root, twin))
    else:
        keyed = []
        for comp in comps:
            if anchor_p is not None and (comp >> anchor_p) & 1:
                keyed.append((0, anchor_p))
            else:
                keyed.append((1, max(bits(comp), key=lambda v: (pat_deg[v], -v))))
        keyed.sort()
        for _, root in keyed:
            pairs += _dfs_order(pat, root)

    order = tuple(v for v, _ in pairs)
    pos_of = {v: t for t, v in enumerate(order)}
    pat_adj_o = tuple(sum(1 << pos_of[w] for w in bits(pat[v])) for v in order)

    above, factor = [-1] * pn, 1
    if forest:
        parents = [-1 if par < 0 else pos_of[par] for _, par in pairs]
        above, factor = _sibling_classes(parents, anchor_p is not None)
        # a centre's half never matches another child of the root, being
        # the only one as tall as the other half, so its above is still -1
        for c1, c2 in twins:
            above[pos_of[c2]] = pos_of[c1]
        factor <<= len(twins)

    dist_o = ()
    if anchor_p is not None:
        pdist = _bfs_dist(pattern, anchor_p)
        dist_o = tuple(pdist[v] for v in order)
    return order, pat_adj_o, tuple(above), factor, tuple(pat_deg[v] for v in order), dist_o


def find_induced_embedding(host, pattern, anchor=None, node_budget=None, within=-1):
    """First induced embedding of pattern in host, or None.

    anchor, when given, is a (pattern_vertex, host_vertex) pair that the
    embedding must respect, and within a mask of the hosts it may use, all
    by default. Raises SearchBudgetExceeded when a node budget is given
    and exhausted; that outcome is indeterminate, not absence.

    The witness is the first embedding in the search's lexicographic order
    (hosts compared position by position in search order), and the
    symmetry constraints of the plan (see _search_plan) do not change it.
    Say the first embedding f placed a sibling subtree B below its earlier
    isomorphic sibling A, so f(root of B) < f(root of A). Swapping A and B
    by an isomorphism is an automorphism of the pattern that fixes every
    other vertex, the anchor and the DFS root included, so f composed with
    it is an embedding with the same degrees and anchor distances at every
    position and the same host set, hence in every candidate pool, as
    within cuts every pool alike. It agrees with f before A's
    root, whose host it lowers to f(root of B): an earlier embedding, which
    contradicts the choice of f. So f meets every constraint, and as the
    constrained search visits a subset of the same order, it finds f.
    A budget stop may therefore turn into this answer, never into another.
    """
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    if anchor is not None:
        ap, ah = anchor
        pattern._check(ap)
        host._check(ah)
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return Embedding(mapping=())
    order, *plan, _ = _search_plan(host, pattern, anchor, within=within)
    status, assign = _kernels.find_embedding(host.adjacency_masks(), *plan, node_budget or 0)
    if status == 2:
        raise SearchBudgetExceeded("induced embedding")
    if status == 1:
        return None
    mapping = [-1] * pattern.n
    for t, v in enumerate(order):
        mapping[v] = assign[t]
    return Embedding(mapping=tuple(mapping))


def count_induced_embeddings(host, pattern, node_budget=None):
    """Exact number of labeled induced embeddings. Automorphic images
    count separately.

    For a forest the count plan (see _search_plan) roots each tree at its
    centre, and the kernel counts only the embeddings that place each
    sibling subtree above its earlier isomorphic siblings and, in a tree
    with isomorphic halves, the second centre above the first. The total
    is that count times the plan's factor, the size of the group G those
    constraints break, every automorphism of the forest. G acts freely on
    embeddings, as they are injective, and each orbit holds exactly one
    constrained embedding: swapping the halves of each such tree so that
    its first centre has the lower host, then sorting the siblings of each
    class by host, from the roots down, picks it. A budget is charged only
    for the constrained search, so it counts the nodes of the count plan,
    not those of find_induced_embedding's plan."""
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    if pattern.n > host.n:
        return 0
    if pattern.n == 0:
        return 1
    _, *plan, factor = _search_plan(host, pattern, None, count=True)
    status, total = _kernels.count_embeddings(host.adjacency_masks(), *plan, node_budget or 0)
    if status == 2:
        raise SearchBudgetExceeded("embedding count")
    return total * factor


def is_kd_starry(host, k, d, node_budget=None):
    """Both star patterns with parameters (k, d) as induced subgraphs.

    Returns a StarryCertificate carrying one embedding of each pattern, or
    None when either is missing; a binary star larger than the host is not
    built. A budget exhaustion propagates as SearchBudgetExceeded
    (indeterminate)."""
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    if binary_star_order(k, d) > host.n:  # the one check of k and d
        return None
    emb_binary = find_induced_embedding(host, _binary_star(k, d), node_budget=node_budget)
    if emb_binary is None:
        return None
    # one vertex more than the binary star: None when larger than the host
    emb_bristled = find_induced_embedding(host, _bristled_star(k, d), node_budget=node_budget)
    if emb_bristled is None:
        return None
    return StarryCertificate(
        k=k, d=d, binary_embedding=emb_binary, bristled_embedding=emb_bristled
    )
