"""Simple undirected graphs on dense integer vertex ids.

Vertices are 0..n-1. Adjacency is stored as one Python int bitmask per
vertex, which the search kernels consume directly. Graphs are immutable:
every operation returns new values.

Inside the package a vertex set is a mask: bit v set iff v is a member.
Searchers and validator clauses work on masks throughout. Frozensets
appear only in certificate fields and in public arguments and return
values. vertex_mask is the one checked way in, used at public entry points
such as the validators: it checks each member with Graph._check, the one
vertex rule, and returns the set's mask.

Every traversal is one masked BFS, `layers`: neighborhoods, distances,
components and connectivity are all built on it.
"""

from .errors import _check_int


class Graph:
    """Finite simple graph. No loops, no multi-edges, symmetric adjacency.

    Each graph carries a chi memo, filled and read only by coloring.py: the
    chromatic number and witness of every vertex set coloured by an
    unbudgeted call (chi(g) and no witness for a set that holds "top"),
    chi_local per radius, under ("lower", mask) the bound chi >= k + 1
    that an unbudgeted refuted k-colouring proved, and under "top" the
    smallest set coloured with chi(g) colours.
    Since a graph never changes, the memo lives exactly as long as the
    graph and never goes stale. Calls with a node budget neither read nor
    write it, so budget outcomes are those of a cold graph.
    """

    __slots__ = ("n", "_adj", "_chi_memo")

    def __init__(self, n, edges=()):
        _check_int(n, "vertex count")
        adj = [0] * n
        for e in edges:
            u, v = e
            # Graph._check's test, inline: every graph is built through here
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge endpoint must be an integer: {(u, v)!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: {(u, v)} with n={n}")
            if u == v:
                raise ValueError(f"self-loop not allowed: {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._chi_memo = {}

    def adjacency_mask(self, v):
        """Neighbors of v as a bitmask (bit u set iff u adjacent to v)."""
        return self._adj[self._check(v)]

    def adjacency_masks(self):
        return self._adj

    def degree(self, v):
        return self._adj[self._check(v)].bit_count()

    def has_edge(self, u, v):
        self._check(u)
        self._check(v)
        return (self._adj[u] >> v) & 1 == 1

    def edges(self):
        """Edges as (u, v) pairs with u < v, lexicographic order."""
        out = []
        for u in range(self.n):
            m = self._adj[u] >> (u + 1)
            for off in bits(m):
                out.append((u, u + 1 + off))
        return out

    @property
    def edge_count(self):
        return sum(m.bit_count() for m in self._adj) // 2

    def _check(self, v):
        """v if it is a vertex of this graph: the one vertex rule. A bool, a
        float or anything else but a plain int is refused rather than read
        as a vertex, as _check_int refuses a bool or a float for an integer
        argument."""
        if type(v) is not int:
            raise ValueError(f"vertex must be an integer, got {v!r}")
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return v

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def bits(mask):
    """Iterate set bit positions of a mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_to_set(mask):
    return frozenset(bits(mask))


def vertex_mask(g, s):
    """The mask of the vertex set s; a member that is not an int in
    0..n-1 of g raises ValueError."""
    m = 0
    for v in s:
        m |= 1 << g._check(v)
    return m


def layers(g, v, within=-1):
    """BFS frontiers from v as bitmasks: {v} first, then the vertices at
    distance 1, 2, ... from v in the subgraph induced on the mask within
    (every vertex by default). The frontiers are disjoint, so their sum is
    the mask of everything v reaches. The caller checks that v is a vertex
    of g."""
    adj = g.adjacency_masks()
    seen = frontier = 1 << v
    while frontier:
        yield frontier
        nxt = 0
        rest = frontier
        while rest:  # bits inlined: every traversal runs this loop
            low = rest & -rest
            nxt |= adj[low.bit_length() - 1]
            rest ^= low
        frontier = nxt & within & ~seen
        seen |= frontier


def neighborhood(g, v, r, mode="exact"):
    """N^r(v) when mode is "exact", N^r[v] when mode is "ball"."""
    g._check(v)
    _check_int(r, "radius")
    if mode not in ("exact", "ball"):
        raise ValueError(f"unknown mode {mode!r}")
    ball = 0
    for i, layer in enumerate(layers(g, v)):
        ball |= layer
        if i == r:
            return mask_to_set(ball if mode == "ball" else layer)
    return mask_to_set(ball if mode == "ball" else 0)


def distance(g, u, v):
    """Length of a shortest u-v path, or None when unreachable."""
    g._check(u)
    g._check(v)
    for d, layer in enumerate(layers(g, u)):
        if (layer >> v) & 1:
            return d
    return None


def components(g):
    """Connected components as vertex sets, ordered by smallest member."""
    return [mask_to_set(comp) for comp in _component_masks(g, (1 << g.n) - 1)]


def is_connected(g, smask):
    """True iff the subgraph induced on the vertex mask smask is connected.
    The empty mask counts as connected; callers needing nonemptiness check
    it first."""
    return next(_component_masks(g, smask), 0) == smask


def _component_masks(g, smask, meeting=-1):
    """Masks of the components of the subgraph induced on smask that meet
    the mask meeting (every component by default), by smallest member."""
    rest = smask
    while rest:
        comp = sum(layers(g, (rest & -rest).bit_length() - 1, smask))
        if comp & meeting:
            yield comp
        rest &= ~comp


def _induced_masks(g, smask):
    """Adjacency masks of the subgraph induced on the vertex mask smask,
    its vertices renumbered in ascending order of their ids in g."""
    host = g._adj
    # new_bit maps each vertex's bit in g to its bit in the subgraph; the
    # loops are bits inlined, since every cold subset colouring runs them
    new_bit = {}
    rest = smask
    while rest:
        low = rest & -rest
        new_bit[low] = 1 << len(new_bit)
        rest ^= low
    adj = []
    for low in new_bit:
        m = 0
        rest = host[low.bit_length() - 1] & smask
        while rest:
            u = rest & -rest
            m |= new_bit[u]
            rest ^= u
        adj.append(m)
    return adj


def induced_subgraph(g, s):
    """Subgraph induced on s plus the relabeling.

    Returns (h, old_ids) where old_ids[i] is the original id of vertex i of
    h. Old ids are taken in ascending order, so the relabeling is canonical.
    """
    smask = vertex_mask(g, s)
    adj = _induced_masks(g, smask)
    edges = [(i, j) for i, m in enumerate(adj) for j in bits(m) if i < j]
    return Graph(len(adj), edges), tuple(bits(smask))


def covers(g, a, b):
    """True iff every vertex of b has a neighbor in a. The sets must be
    disjoint; overlap is a precondition error, not False."""
    amask = vertex_mask(g, a)
    bmask = vertex_mask(g, b)
    if amask & bmask:
        raise ValueError(f"covers() requires disjoint sets; common vertices {list(bits(amask & bmask))}")
    return all(g._adj[v] & amask for v in bits(bmask))
