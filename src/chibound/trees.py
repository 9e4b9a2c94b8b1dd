"""Constructors for the tree families used as search patterns.

Vertex numbering follows construction order (centers first, then legs and
path vertices in order) so fixtures and anchors are reproducible.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import _check_int
from .graphs import Graph, components


@dataclass(frozen=True)
class RootedTree:
    graph: Graph
    root: int

    def __post_init__(self):
        g = self.graph
        g._check(self.root)
        if g.edge_count != g.n - 1 or len(components(g)) != 1:
            raise ValueError("not a tree: need connected with n-1 edges")


def _path_edges(ids):
    return list(zip(ids, ids[1:]))


def _check_kd(k, d):
    _check_int(k, "k", 1)
    _check_int(d, "d", 1)


def superstar_order(d):
    """Vertex count of superstar(d): 1 + d*d."""
    _check_int(d, "d", 1)
    return 1 + d * d


def superstar(d):
    """Star with d legs, every leg a path of length d. Rooted at the center.
    1 + d*d vertices."""
    superstar_order(d)
    return RootedTree(_spider((d,) * d), 0)


@lru_cache(maxsize=64)
def _spider(legs):
    """Subdivided star: center 0 with a path of each length in legs hung from
    it, each numbered outward, one leg after another."""
    edges = []
    nxt = 1
    for length in legs:
        edges.extend(_path_edges([0, *range(nxt, nxt + length)]))
        nxt += length
    return Graph(nxt, edges)


def broom(k, d):
    """Path of length k with d extra leaves on the far end, rooted at the
    near end. k+1+d vertices."""
    _check_kd(k, d)
    edges = _path_edges(list(range(k + 1)))
    edges.extend((k, k + 1 + i) for i in range(d))
    return RootedTree(Graph(k + 1 + d, edges), root=0)


def bristle(k, d):
    """Path of length k+d with one extra leaf at position k, rooted at
    position 0. k+d+2 vertices."""
    _check_kd(k, d)
    edges = _path_edges(list(range(k + d + 1)))
    edges.append((k, k + d + 1))
    return RootedTree(Graph(k + d + 2, edges), root=0)


def binary_star_order(k, d):
    """Vertex count of binary_star(k, d): d*d + d + k + 1."""
    _check_kd(k, d)
    return d * d + d + k + 1


def bristled_star_order(k, d):
    """Vertex count of bristled_star(k, d): d*d + d + k + 2."""
    _check_kd(k, d)
    return d * d + d + k + 2


def binary_star(k, d):
    """A d-superstar and a d-star with their centers joined by a path of
    length k. Unrooted; d*d + d + k + 1 vertices.

    Layout: superstar occupies 0..d*d (center 0), star center is d*d+1
    with leaves d*d+2..d*d+d+1, then the k-1 interior path vertices.
    Built once per (k, d), like bristled_star: the starriness test and
    its validator share the one immutable Graph.
    """
    _check_kd(k, d)
    return _binary_star(k, d)


@lru_cache(maxsize=64)
def _binary_star(k, d):
    n = binary_star_order(k, d)
    ss = superstar(d).graph
    edges = ss.edges()
    star_center = ss.n
    leaves = list(range(star_center + 1, star_center + 1 + d))
    edges.extend((star_center, leaf) for leaf in leaves)
    interior = list(range(star_center + 1 + d, star_center + 1 + d + (k - 1)))
    edges.extend(_path_edges([0] + interior + [star_center]))
    return Graph(n, edges)


def bristled_star(k, d):
    """A d-superstar and a path of length d+1, with the superstar center
    joined to the second path vertex by a path of length k. Unrooted;
    d*d + d + k + 2 vertices, built once per (k, d).

    Layout: superstar occupies 0..d*d (center 0), the long path is
    d*d+1..d*d+d+2 in order, then the k-1 interior join vertices.
    """
    _check_kd(k, d)
    return _bristled_star(k, d)


@lru_cache(maxsize=64)
def _bristled_star(k, d):
    n = bristled_star_order(k, d)
    ss = superstar(d).graph
    edges = ss.edges()
    tail = list(range(ss.n, ss.n + d + 2))
    edges.extend(_path_edges(tail))
    second = tail[1]
    interior = list(range(ss.n + d + 2, ss.n + d + 2 + (k - 1)))
    edges.extend(_path_edges([0] + interior + [second]))
    return Graph(n, edges)


def two_legged_caterpillar(path_len, p1, p2):
    """Path on path_len+1 vertices plus two extra leaves attached at
    positions p1 and p2 (equal positions allowed)."""
    _check_int(path_len, "path_len", 1)
    if max(_check_int(p1, "p1"), _check_int(p2, "p2")) > path_len:
        raise ValueError(f"leg positions {p1},{p2} out of range 0..{path_len}")
    edges = _path_edges(list(range(path_len + 1)))
    edges.append((p1, path_len + 1))
    edges.append((p2, path_len + 2))
    return Graph(path_len + 3, edges)


def double_broom(a, k, b):
    """Two stars with a and b leaves, centers joined by a path of length k.
    a+b+k+1 vertices."""
    for name, value in (("a", a), ("k", k), ("b", b)):
        _check_int(value, name, 1)
    c1 = 0
    leaves1 = list(range(1, 1 + a))
    c2 = 1 + a
    leaves2 = list(range(c2 + 1, c2 + 1 + b))
    edges = [(c1, leaf) for leaf in leaves1]
    edges += [(c2, leaf) for leaf in leaves2]
    interior = list(range(c2 + 1 + b, c2 + 1 + b + (k - 1)))
    edges.extend(_path_edges([c1] + interior + [c2]))
    return Graph(a + b + k + 1, edges)


def rooted_sum(trees):
    """Disjoint union of rooted trees with all roots identified. The merged
    root becomes vertex 0."""
    trees = list(trees)
    if not trees:
        raise ValueError("rooted_sum needs at least one tree")
    edges = []
    offset = 1
    for t in trees:
        g, r = t.graph, t.root
        relabel = {}
        for v in range(g.n):
            if v == r:
                relabel[v] = 0
            else:
                relabel[v] = offset
                offset += 1
        edges.extend((relabel[u], relabel[v]) for u, v in g.edges())
    return RootedTree(Graph(offset, edges), root=0)


def path_tree(length):
    """Plain path of the given length, rooted at one end."""
    _check_int(length, "length")
    return RootedTree(_spider((length,)), 0)
