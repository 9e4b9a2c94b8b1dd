"""Induced subgraph search: anchored embedding, counting, and the
two-pattern starriness test.

Embeddings are labeled injective maps preserving both adjacency and
non-adjacency. The backtracking order is canonical (DFS from the anchor or
from a highest-degree pattern vertex, host candidates ascending), so the
first witness is deterministic across runs and kernel backends. For a
forest pattern the search places isomorphic sibling subtrees in
ascending host order (the symmetry breaking of Grochow and Kellis, RECOMB
2007), which keeps the first witness and makes a count one orbit
representative per relabelling of those subtrees, multiplied back.
"""

from dataclasses import dataclass
from itertools import accumulate

from . import _kernels
from .errors import SearchBudgetExceeded, _check_positive_int
from .graphs import _component_masks, bits, layers
from .trees import _check_kd, binary_star, binary_star_order, bristled_star, bristled_star_order


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
    if len(set(m)) != len(m):
        return False
    if any(not 0 <= h < host.n for h in m):
        return False
    for u in range(pattern.n):
        for v in range(u + 1, pattern.n):
            if pattern.has_edge(u, v) != host.has_edge(m[u], m[v]):
                return False
    return True


def _bfs_dist(g, start):
    dist = [-1] * g.n
    for d, layer in enumerate(layers(g, start)):
        for v in bits(layer):
            dist[v] = d
    return dist


def _dfs_order(pattern, root):
    """Preorder (vertex, parent) pairs over root's component, neighbors
    ascending."""
    out = []
    visited = 0

    def visit(v, par):
        nonlocal visited
        visited |= 1 << v
        out.append((v, par))
        for w in bits(pattern.adjacency_mask(v)):
            if not (visited >> w) & 1:
                visit(w, v)

    visit(root, -1)
    return out


def _sibling_classes(parents, anchored):
    """above and factor of _search_plan for a forest's DFS parents, in one
    pass from the last position back. A position's children come after it
    in preorder, so its AHU code, one small int per distinct sorted tuple
    of child codes, is complete when the pass reaches it, and the sibling
    of its class met just before it in the pass is the next one in order.
    anchored keeps position 0, the anchored root, out of every class."""
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


def _search_plan(host, pattern, anchor):
    """Order pattern vertices and build static candidate masks.

    Returns (order, pat_adj_o, above, cands, factor) in search-order
    space: pat_adj_o[t] has bit s set iff the pattern vertices at
    positions t and s are adjacent. The order is a DFS preorder of each
    component, so the kernels' parent of a position, its latest earlier
    neighbour, is its DFS parent. Static filters:
    host degree at least pattern degree everywhere, the anchor pinned to a
    single host vertex, and, within the anchor's pattern component, host
    distance from the anchor host no larger than pattern distance from the
    anchor vertex.

    When the pattern is a forest, above[t] is the position of the previous
    sibling subtree isomorphic to position t's: the same parent in the DFS
    tree, or both the roots of unanchored components, and the same rooted
    (AHU) code. The kernels place t's host above that sibling's. Otherwise,
    and for a first sibling, above[t] is -1. factor is the number of
    automorphisms those constraints break, the product of (class size)!
    over the classes of isomorphic siblings; it is 1 when above is all -1.
    The anchored component's root sits apart from the other roots, as its
    host is pinned.
    """
    pn = pattern.n
    pat_deg = [row.bit_count() for row in pattern.adjacency_masks()]
    # deg_ok[d]: the hosts of degree at least d, for d up to the largest
    # pattern degree, from one pass over the hosts
    top = max(pat_deg)
    deg_ok = [0] * (top + 1)
    b = 1
    for d in map(int.bit_count, host.adjacency_masks()):
        deg_ok[d if d < top else top] |= b
        b <<= 1
    for d in range(top - 1, -1, -1):
        deg_ok[d] |= deg_ok[d + 1]

    anchor_p = anchor[0] if anchor is not None else None

    keyed = []
    for comp in _component_masks(pattern, (1 << pn) - 1):
        if anchor_p is not None and (comp >> anchor_p) & 1:
            keyed.append((0, anchor_p))
        else:
            keyed.append((1, max(bits(comp), key=lambda v: (pat_deg[v], -v))))
    keyed.sort()

    pairs = []
    for _, root in keyed:
        pairs.extend(_dfs_order(pattern, root))

    order = [v for v, _ in pairs]
    pos_of = {v: t for t, v in enumerate(order)}
    pat_adj_o = [sum(1 << pos_of[w] for w in bits(pattern.adjacency_mask(v))) for v in order]

    above, factor = [-1] * pn, 1
    if sum(pat_deg) == 2 * (pn - len(keyed)):  # a forest: one edge fewer than vertices per tree
        parents = [-1 if par < 0 else pos_of[par] for _, par in pairs]
        above, factor = _sibling_classes(parents, anchor is not None)

    cands = [deg_ok[pat_deg[v]] for v in order]
    if anchor is not None:
        ap, ah = anchor
        cands[pos_of[ap]] &= 1 << ah
        # balls[r]: host vertices within distance r of ah; the frontiers
        # are disjoint, so a ball is their sum
        balls = list(accumulate(layers(host, ah)))
        pdist = _bfs_dist(pattern, ap)
        for t, v in enumerate(order):
            if pdist[v] >= 0:  # a vertex of another component has no constraint
                cands[t] &= balls[min(pdist[v], len(balls) - 1)]
    return order, pat_adj_o, above, cands, factor


def find_induced_embedding(host, pattern, anchor=None, node_budget=None):
    """First induced embedding of pattern in host, or None.

    anchor, when given, is a (pattern_vertex, host_vertex) pair that the
    embedding must respect. Raises SearchBudgetExceeded when a node budget
    is given and exhausted; that outcome is indeterminate, not absence.

    The witness is the first embedding in the search's lexicographic order
    (hosts compared position by position in search order), and the
    symmetry constraints of the plan (see _search_plan) do not change it.
    Say the first embedding f placed a sibling subtree B below its earlier
    isomorphic sibling A, so f(root of B) < f(root of A). Swapping A and B
    by an isomorphism is an automorphism of the pattern that fixes every
    other vertex, the anchor and the DFS root included, so f composed with
    it is an embedding with the same degrees and anchor distances at every
    position, hence in every candidate pool. It agrees with f before A's
    root, whose host it lowers to f(root of B): an earlier embedding, which
    contradicts the choice of f. So f meets every constraint, and as the
    constrained search visits a subset of the same order, it finds f.
    A budget stop may therefore turn into this answer, never into another.
    """
    _check_positive_int(node_budget, "node_budget")
    if anchor is not None:
        ap, ah = anchor
        if not (0 <= ap < pattern.n):
            raise ValueError(f"anchor pattern vertex {ap} out of range")
        host._check(ah)
    if pattern.n > host.n:
        return None
    if pattern.n == 0:
        return Embedding(mapping=())
    order, *plan, _ = _search_plan(host, pattern, anchor)
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

    For a forest the kernel counts only the embeddings that place each
    sibling subtree above its earlier isomorphic siblings (see
    _search_plan), and the total is that count times the plan's factor,
    the size of the group G that permutes isomorphic sibling subtrees. G
    acts freely on embeddings, as they are injective, and each orbit holds
    exactly one constrained embedding: sorting the siblings of each class
    by host, from the DFS roots down, picks it. A budget is charged only
    for the constrained search."""
    _check_positive_int(node_budget, "node_budget")
    if pattern.n > host.n:
        return 0
    if pattern.n == 0:
        return 1
    _, *plan, factor = _search_plan(host, pattern, None)
    status, total = _kernels.count_embeddings(host.adjacency_masks(), *plan, node_budget or 0)
    if status == 2:
        raise SearchBudgetExceeded("embedding count")
    return total * factor


def is_kd_starry(host, k, d, node_budget=None):
    """Both star patterns with parameters (k, d) as induced subgraphs.

    Returns a StarryCertificate carrying one embedding of each pattern, or
    None when either is missing; one larger than the host is not built. A
    budget exhaustion propagates as SearchBudgetExceeded (indeterminate)."""
    _check_kd(k, d)
    _check_positive_int(node_budget, "node_budget")
    if binary_star_order(k, d) > host.n:
        return None
    emb_binary = find_induced_embedding(host, binary_star(k, d), node_budget=node_budget)
    if emb_binary is None or bristled_star_order(k, d) > host.n:
        return None
    emb_bristled = find_induced_embedding(host, bristled_star(k, d), node_budget=node_budget)
    if emb_bristled is None:
        return None
    return StarryCertificate(
        k=k, d=d, binary_embedding=emb_binary, bristled_embedding=emb_bristled
    )
