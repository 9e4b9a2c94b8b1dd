"""Independent brute-force oracles for the test suite.

Nothing here shares code with the package search kernels: chromatic
numbers come from enumerating color assignments, embedding counts from
enumerating injections, cliques from enumerating subsets. Two exceptions
keep plain copies of package code so tests can pin it: reference_embed, the
embedding kernels' candidate-by-candidate search and its node accounting,
reference_k_color, the single-k DSATUR kernel with its saturation as one
mask per level and per colour, before the k-sweep, the renumbering and the
packed state, reference_max_clique, the maximum clique kernel with a call
on every candidate, before the bound moved ahead of the call, ReferenceMag
with ReferenceEstimate, the magnitude arithmetic of the threshold
estimates before its fast paths, the ref_validate_* functions, the
certificate validators as they were over frozensets, before they moved to
vertex masks, and reference_write_graph6 and reference_parse_graph6, the
graph6 writer and reader that shift one bit per vertex pair.
"""

import math
from itertools import combinations, permutations


def brute_chromatic(g):
    """Minimum classes over all proper color assignments, enumerated as
    canonical (first-use-ordered) assignments."""
    n = g.n
    if n == 0:
        return 0
    edges = g.edges()
    best = n

    def rec(i, assignment, used):
        nonlocal best
        if used >= best:
            return
        if i == n:
            best = min(best, used)
            return
        for c in range(used + 1):
            ok = True
            for u, v in edges:
                if v == i and assignment[u] == c:
                    ok = False
                    break
            if ok:
                assignment.append(c)
                rec(i + 1, assignment, max(used, c + 1))
                assignment.pop()

    rec(0, [], 0)
    return best


def brute_extensions(g, fixed, free, k):
    """Every proper coloring with colors 1..k that agrees with the partial
    coloring fixed (a dict) and colors the vertices of free, as a dict per
    coloring. Backtracks over free in order, testing edges with has_edge;
    color classes are labeled, so permutations count separately."""
    free = list(free)
    colors = dict(fixed)

    def rec(i):
        if i == len(free):
            yield dict(colors)
            return
        v = free[i]
        taken = {c for u, c in colors.items() if g.has_edge(u, v)}
        for c in range(1, k + 1):
            if c not in taken:
                colors[v] = c
                yield from rec(i + 1)
                del colors[v]

    yield from rec(0)


def brute_is_k_colorable(g, k):
    return brute_chromatic(g) <= k


def brute_clique_number(g):
    return max(map(len, brute_cliques(g)))


def brute_cliques(g):
    """Every clique of g, the empty one included, as a sorted tuple, found
    by testing every vertex subset."""
    adj = g.adjacency_masks()
    out = []
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if all((adj[v] | 1 << v) & mask == mask for v in members):
            out.append(tuple(members))
    return out


def brute_count_induced(host, pattern):
    """Count induced embeddings by enumerating all injections."""
    hp = list(range(host.n))
    count = 0
    for image in permutations(hp, pattern.n):
        ok = True
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                if pattern.has_edge(u, v) != host.has_edge(image[u], image[v]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def reference_parents(pat_adj_o):
    """The parent the embedding kernels take for each position: the latest
    earlier position adjacent to it, or -1 when there is none."""
    parents = []
    for t, row in enumerate(pat_adj_o):
        parent = -1
        for s in range(t):
            if row >> s & 1:
                parent = s
        parents.append(parent)
    return parents


def reference_embed(host_adj, pat_adj_o, parents, above, cands, budget, count):
    """The induced-embedding kernels' search (see pykernels.find_embedding
    for the arguments), one candidate at a time at every position, the
    last included, with one node per host placed, charged before it is
    placed. Returns (status, payload, nodes): the kernels' (status,
    payload) for find_embedding, or with count for count_embeddings, and
    the nodes charged before the search ended."""
    m = len(parents)
    assign = [0] * m
    earlier = [[s for s in range(t) if (pat_adj_o[t] >> s) & 1] for t in range(m)]
    used = 0
    nodes = 0
    total = 0

    def rec(t):
        nonlocal used, nodes, total
        if t == m:
            total += 1
            return 0 if count else 3
        want = 0
        for s in earlier[t]:
            want |= 1 << assign[s]
        pool = cands[t] & ~used
        if parents[t] >= 0:
            pool &= host_adj[assign[parents[t]]]
        if above[t] >= 0:
            pool &= ~((1 << assign[above[t]] + 1) - 1)
        while pool:
            b = pool & -pool
            pool ^= b
            h = b.bit_length() - 1
            if host_adj[h] & used != want:
                continue
            nodes += 1
            if budget and nodes > budget:
                return 2
            assign[t] = h
            used |= b
            r = rec(t + 1)
            used ^= b
            if r:
                return r
        return 0

    status = rec(0)
    if status == 2:
        return (2, None, nodes)
    if count:
        return (0, total, nodes)
    return (0, assign.copy(), nodes) if status == 3 else (1, None, nodes)


def _ref_degrees(adj, n):
    """Popcount of each of the first n adjacency masks, after the checks
    the kernels make: each mask non-negative, below 1 << n and without its
    own vertex's bit."""
    if len(adj) < n:
        raise ValueError(f"adj has {len(adj)} masks, need {n}")
    out = []
    for i in range(n):
        m = adj[i]
        if m >> n or m < 0 or m >> i & 1:
            raise ValueError(f"adj[{i}] is not a loopless mask below {n} bits")
        out.append(m.bit_count())
    return out


def _ref_greedy(adj, degs):
    """The kernels' greedy clique: the highest-degree vertex, then the
    candidate with the most candidate neighbours, ties to the lowest id."""
    if not degs:
        return []
    best_v = degs.index(max(degs))
    clique = [best_v]
    cand = adj[best_v]
    while cand:
        pick, pick_count = -1, -1
        m = cand
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            count = (adj[v] & cand).bit_count()
            if count > pick_count:
                pick_count, pick = count, v
        clique.append(pick)
        cand &= adj[pick]
    return clique


def reference_greedy_clique(n, adj):
    return _ref_greedy(adj, _ref_degrees(adj, n))


def reference_max_clique(n, adj, node_budget=0):
    """The maximum clique kernel (see pykernels.max_clique) as a plain loop:
    the sorted greedy clique is the first best, candidates are taken in
    ascending id order, the bound is tested at the top of the loop, one
    node is charged per vertex taken, and every vertex taken gets a call,
    whose first bound test charges nothing. The best clique changes only
    on strict improvement. Returns (status, clique, nodes), the clique
    being the best found when a budget stops the search."""
    best = sorted(_ref_greedy(adj, _ref_degrees(adj, n)))
    cur = []
    nodes = 0

    def expand(cand):
        nonlocal best, nodes
        if not cand:
            if len(cur) > len(best):
                best = list(cur)
            return 0
        while cand:
            if len(cur) + cand.bit_count() <= len(best):
                return 0
            nodes += 1
            if node_budget and nodes > node_budget:
                return 2
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            cur.append(v)
            r = expand(cand & adj[v])
            cur.pop()
            if r:
                return r
        return 0

    status = expand((1 << n) - 1)
    return status, sorted(best), nodes


def reference_k_color(n, adj, k, node_budget=0):
    """The single-k DSATUR kernel (see pykernels.k_color): the uncoloured
    vertex with the most distinct neighbour colours next, ties to the
    higher degree and then the lower id, colours ascending, at most one
    colour past the largest in use, after precolouring the greedy clique.
    seen[c] holds the vertices with a neighbour coloured c and lev[s] the
    vertices of saturation at least s; painting moves the new neighbours
    up one level from the top down, and unpainting restores the saved
    masks. Returns (status, payload, nodes): the kernel's (status,
    payload) for a single k, with None as the payload of a budget stop,
    and the nodes charged before the search ended."""
    degs = _ref_degrees(adj, n)
    if n == 0:
        return (0, [], 0)
    if k <= 0:
        return (1, None, 0)
    clique = _ref_greedy(adj, degs)
    if len(clique) > k:
        return (1, None, 0)

    b = n.bit_length()
    low = (1 << b) - 1
    keys = [(d << b) | (n - 1 - v) for v, d in enumerate(degs)]
    colors = [0] * n
    seen = [0] * (min(k, n) + 1)
    lev = [0] * (min(k, n) + 1)
    lev[0] = uncol = (1 << n) - 1

    for c, v in enumerate(clique, 1):
        colors[v] = c
        uncol ^= 1 << v
        new = adj[v] & uncol
        seen[c] = adj[v]
        for s in range(c, 0, -1):
            lev[s] |= lev[s - 1] & new

    nodes = 0

    def rec(uncol, max_used):
        nonlocal nodes
        if not uncol:
            return 0
        s = max_used
        while not (cand := lev[s] & uncol):
            s -= 1
        if cand & (cand - 1):
            best = -1
            while cand:
                u = cand.bit_length() - 1
                cand ^= 1 << u
                key = keys[u]
                if key > best:
                    best = key
            v = n - 1 - (best & low)
            bit = 1 << v
        else:
            bit = cand
            v = bit.bit_length() - 1
        row = adj[v]
        rest = uncol ^ bit
        limit = max_used + 1 if max_used < k else k
        for c in range(1, limit + 1):
            was = seen[c]
            if was & bit:
                continue
            nodes += 1
            if node_budget and nodes > node_budget:
                return 2
            top = max_used if c <= max_used else c
            colors[v] = c
            seen[c] = was | row
            new = row & ~was & rest
            if new:
                saved = lev[1 : top + 1]
                s = top
                while True:
                    below = lev[s - 1] & new
                    lev[s] |= below
                    if below == new:
                        break
                    s -= 1
            r = rec(rest, top)
            if r != 1:
                return r
            seen[c] = was
            if new:
                lev[1 : top + 1] = saved
        return 1

    status = rec(uncol, len(clique))
    return (status, colors.copy() if status == 0 else None, nodes)


def reference_k_sweep(n, adj, k, node_budget, k_max):
    """The k-sweep as a loop of single-k reference calls: every k' from
    the larger of k and the greedy clique size up to k_max, each with a
    fresh budget. Returns (status, payload, nodes): (0, colours) for the
    first k' that colours, (1, None) when none does, (2, k') for the k'
    that ran out of budget, and the most nodes any k' charged. The null
    graph is coloured by the empty colouring whatever k and k_max are."""
    if n == 0:
        return (0, [], 0)
    most = 0
    for kk in range(max(k, len(reference_greedy_clique(n, adj))), k_max + 1):
        status, colors, nodes = reference_k_color(n, adj, kk, node_budget)
        most = max(most, nodes)
        if status == 0:
            return (0, colors, most)
        if status == 2:
            return (2, kk, most)
    return (1, None, most)


def brute_induced_paths(g, start, allowed, length):
    """Induced paths with length edges from start, later vertices drawn from
    allowed, sorted: every sequence of distinct vertices is checked pair by
    pair, adjacent exactly when consecutive."""
    out = []
    for tail in permutations(sorted(set(allowed) - {start}), length):
        path = (start, *tail)
        if all(
            g.has_edge(path[i], path[j]) == (j == i + 1)
            for i in range(len(path))
            for j in range(i + 1, len(path))
        ):
            out.append(path)
    return sorted(out)


def brute_equipment(g, center, ground, d, proper):
    """(independent neighbours, path, witness) of the first equipment of
    center within ground, witness None when proper, or None: the first path
    of brute_induced_paths that admits a witness, or d leaves when proper,
    with the lowest witness and the first independent set in
    itertools.combinations order. Plain equipment takes its set from all
    the centre's neighbours in ground; proper equipment only from those
    off the path and with no neighbour on it."""
    nbrs = sorted(v for v in ground if g.has_edge(center, v))

    def first_independent(vs):
        return next(
            (s for s in combinations(vs, d) if not any(g.has_edge(u, v) for u, v in combinations(s, 2))),
            None,
        )

    indep = None if proper else first_independent(nbrs)
    if not proper and indep is None:
        return None
    for path in brute_induced_paths(g, center, ground, d):
        free = [v for v in nbrs if v not in path and not any(g.has_edge(v, u) for u in path[1:])]
        if proper:
            indep = first_independent(free)
            if indep is not None:
                return indep, path, None
        elif free:
            return indep, path, free[0]
    return None


def has_triangle(g):
    return any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in combinations(range(g.n), 3)
    )


def has_stable_set(g, size):
    return any(
        all(not g.has_edge(u, v) for u, v in combinations(sub, 2))
        for sub in combinations(range(g.n), size)
    )


def all_graphs(n):
    """Every labeled graph on n vertices."""
    from chibound.graphs import Graph

    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph(n, [slots[i] for i in range(len(slots)) if (mask >> i) & 1])


def brute_distances(g, within=None):
    """All-pairs shortest path lengths in the subgraph induced on within
    (every vertex when None), by Floyd-Warshall over g.edges(). dist[u][v]
    is None when v is unreachable from u; vertices outside within reach
    only themselves."""
    n = g.n
    keep = set(range(n)) if within is None else set(within)
    inf = n + 1
    dist = [[0 if u == v else inf for v in range(n)] for u in range(n)]
    for u, v in g.edges():
        if u in keep and v in keep:
            dist[u][v] = dist[v][u] = 1
    for w in range(n):
        for u in range(n):
            for v in range(n):
                if dist[u][w] + dist[w][v] < dist[u][v]:
                    dist[u][v] = dist[u][w] + dist[w][v]
    return [[None if d == inf else d for d in row] for row in dist]


def brute_components(g, s):
    """Components of the subgraph induced on s by union-find over
    g.edges(), as frozensets ordered by smallest member."""
    parent = {v: v for v in s}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges():
        if u in parent and v in parent:
            parent[root(u)] = root(v)
    groups = {}
    for v in s:
        groups.setdefault(root(v), set()).add(v)
    return sorted((frozenset(c) for c in groups.values()), key=min)


def brute_subset_chi(g, s):
    """Chromatic number of the subgraph induced on s, by brute_chromatic on
    a graph built from g.edges()."""
    from chibound.graphs import Graph

    index = {v: i for i, v in enumerate(sorted(s))}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return brute_chromatic(Graph(len(index), edges))


def brute_chi_local(g, k):
    """Largest chromatic number over every closed ball of radius k, with
    balls from brute_distances: all of them, no early stop; 0 for the null
    graph."""
    dist = brute_distances(g)
    balls = ({u for u in range(g.n) if dist[v][u] is not None and dist[v][u] <= k} for v in range(g.n))
    return max((brute_subset_chi(g, ball) for ball in balls), default=0)


def first_argmax(items, key):
    """First item of largest key and that key, or (None, -1) when there
    are no items: a plain scan over every item."""
    best, best_key = None, -1
    for item in items:
        value = key(item)
        if value > best_key:
            best, best_key = item, value
    return best, best_key


def reference_best_by_chi(g, masks):
    """first_argmax over the masks by chromatic number, each mask coloured
    by reference_k_sweep on its induced subgraph, with no memo and no
    skipped mask."""
    from chibound.graphs import induced_subgraph, mask_to_set

    def chi(mask):
        h, _ = induced_subgraph(g, mask_to_set(mask))
        status, colors, _ = reference_k_sweep(h.n, h.adjacency_masks(), 1, 0, h.n)
        assert status == 0
        return max(colors, default=0)

    return first_argmax(masks, chi)


def reference_write_graph6(g):
    """graphio.write_graph6 as it was: one shift per vertex pair, in
    column order, then 6-bit groups read off the top."""
    from chibound.graphio import _g6_size_prefix

    n = g.n
    out = bytearray(_g6_size_prefix(n))
    bitbuf = 0
    nbits = 0
    for j in range(1, n):
        col = g.adjacency_mask(j)
        for i in range(j):
            bitbuf = (bitbuf << 1) | ((col >> i) & 1)
            nbits += 1
    pad = (-nbits) % 6
    bitbuf <<= pad
    nbits += pad
    while nbits:
        nbits -= 6
        out.append(((bitbuf >> nbits) & 63) + 63)
    return out.decode("ascii")


def reference_parse_graph6(text):
    """graphio.parse_graph6 as it was: the list of every vertex pair, then
    one big-int shift per pair."""
    from chibound.errors import GraphParseError
    from chibound.graphio import _g6_parse_size
    from chibound.graphs import Graph

    line = text.strip()
    if "\n" in line:
        raise GraphParseError("expected a single graph6 line", line=2)
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as e:
        raise GraphParseError(f"non-ASCII character {line[e.start]!r} in graph6 text", line=1, offset=e.start) from None
    n, pos = _g6_parse_size(data)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nchars:
        raise GraphParseError(
            f"non-canonical graph6 length: expected {nchars} data bytes for n={n}, got {len(body)}",
            line=1,
            offset=pos,
        )
    bitbuf = 0
    edges = []
    for idx, byte in enumerate(body):
        val = byte - 63
        if not 0 <= val <= 63:
            raise GraphParseError(f"invalid graph6 data byte {byte}", line=1, offset=pos + idx)
        bitbuf = (bitbuf << 6) | val
    pad = nchars * 6 - nbits
    if pad and bitbuf & ((1 << pad) - 1):
        raise GraphParseError("nonzero graph6 padding bits", line=1, offset=pos)
    bitbuf >>= pad
    # bits come out highest-first: walk pairs in reverse column order
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for k, (i, j) in enumerate(reversed(pairs)):
        if (bitbuf >> k) & 1:
            edges.append((i, j))
    return Graph(n, edges)


# ------------------------------------------ reference magnitude arithmetic
#
# thresholds.Mag and thresholds._Estimate as they were before the fast
# paths in Mag.add, Mag.mul and the comparisons: every product goes through
# log10, add and exp10, and every comparison through key().

_REF_LOG10_2 = math.log10(2.0)
_REF_FLOAT_CAP = 1e15


def _ref_log10_binom(n, k):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(10.0)


class ReferenceMag:
    __slots__ = ("h", "x")

    def __init__(self, h, x):
        while x >= _REF_FLOAT_CAP:
            x = math.log10(x)
            h += 1
        while h > 0 and x < 15.0:
            nx = 10.0 ** x
            if nx >= _REF_FLOAT_CAP:
                break
            x = nx
            h -= 1
        self.h = h
        self.x = x

    @staticmethod
    def of(value):
        if isinstance(value, ReferenceMag):
            return value
        v = int(value)
        if v < 0:
            raise ValueError("magnitudes are non-negative")
        bl = v.bit_length()
        if bl <= 50:
            return ReferenceMag(0, float(v))
        return ReferenceMag(1, bl * _REF_LOG10_2)

    def key(self):
        return (self.h, self.x)

    def log10(self):
        if self.h >= 1:
            return ReferenceMag(self.h - 1, self.x)
        return ReferenceMag(0, math.log10(self.x) if self.x > 1 else 0.0)

    def exp10(self):
        return ReferenceMag(self.h + 1, self.x)

    def add(self, other):
        other = ReferenceMag.of(other)
        if self.h == 0 and other.h == 0:
            return ReferenceMag(0, self.x + other.x)
        return self if self.key() >= other.key() else other

    def mul(self, other):
        other = ReferenceMag.of(other)
        if self.h == 0 and other.h == 0 and self.x * other.x < _REF_FLOAT_CAP:
            return ReferenceMag(0, self.x * other.x)
        return self.log10().add(other.log10()).exp10()

    def mul_const(self, c):
        if c <= 0:
            raise ValueError("constants here are positive")
        if self.h == 0:
            return ReferenceMag(0, self.x * c)
        if self.h == 1:
            return ReferenceMag(1, self.x + math.log10(c))
        return self

    __add__ = __radd__ = add
    __mul__ = mul
    __rmul__ = mul_const

    def __lt__(self, other):
        return self.key() < ReferenceMag.of(other).key()

    def __gt__(self, other):
        return self.key() > ReferenceMag.of(other).key()


class ReferenceEstimate:
    @staticmethod
    def mul(a, b, where):
        return ReferenceMag.of(a).mul(b)

    @staticmethod
    def pow2(e, where):
        return ReferenceMag.of(e).mul_const(_REF_LOG10_2).exp10()

    @staticmethod
    def ramsey(s, t, where):
        s, t = ReferenceMag.of(s), ReferenceMag.of(t)
        if s.h == 0 and t.h == 0 and s.x + t.x < 1e12:
            n = max(s.x + t.x - 2.0, 0.0)
            k = min(max(s.x - 1.0, 0.0), n)
            if n <= 1:
                return ReferenceMag(0, 1.0)
            return ReferenceMag(1, _ref_log10_binom(n, k))
        return ReferenceEstimate.pow2(s.add(t), where)


# ------------------------------------------------- reference validators
#
# certificates.validate_* as they were when every set field was checked and
# kept as a frozenset, with the graphs helpers they called copied beside
# them. Connectivity comes from brute_components; chromatic numbers and
# embeddings from the package, which these validators called too. The
# verdicts are pinned only on certificates whose ids are all vertices.


def _ref_set_to_mask(s):
    m = 0
    for v in s:
        m |= 1 << v
    return m


def _ref_check_vertex_set(g, s):
    out = frozenset(s)
    for v in out:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return out


def _ref_is_connected_set(g, s):
    return len(brute_components(g, s)) <= 1


def _ref_spire_vertices(spire):
    return spire.a_set | spire.b_set | set(spire.path)


def _ref_is_induced_path(g, seq):
    if len(seq) != len(set(seq)):
        return False
    for i, u in enumerate(seq):
        for j in range(i + 1, len(seq)):
            if g.has_edge(u, seq[j]) != (j == i + 1):
                return False
    return True


def ref_validate_x_split(g, x_ground, cand):
    x_ground = _ref_check_vertex_set(g, x_ground)
    z = _ref_check_vertex_set(g, cand.z_set)
    g._check(cand.x)
    g._check(cand.y)
    zmask = _ref_set_to_mask(z)
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
    if not _ref_is_connected_set(g, z):
        return False, "z_connected"
    return True, None


def ref_validate_equipment(g, y_ground, cert):
    y = _ref_check_vertex_set(g, y_ground)
    g._check(cert.center)
    nbrs = _ref_check_vertex_set(g, cert.independent_neighbors)
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
    if not _ref_is_induced_path(g, path):
        return False, "path_induced"
    interior = set(path) - {cert.center}
    imask = _ref_set_to_mask(interior)
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


def ref_validate_gyarfas(g, c_set, cert):
    from chibound.coloring import chi_local, chi_of

    c = _ref_check_vertex_set(g, c_set)
    path = tuple(cert.path)
    residue = _ref_check_vertex_set(g, cert.residue)
    if not path:
        return False, "path_nonempty"
    k = len(path) - 1
    if path[0] in c:
        return False, "start_outside_c"
    if not set(path[1:]) <= c:
        return False, "path_inside_c"
    if not _ref_is_induced_path(g, path):
        return False, "path_induced"
    if not residue <= c:
        return False, "residue_inside_c"
    if residue & set(path):
        return False, "residue_avoids_path"
    if not residue or not _ref_is_connected_set(g, residue):
        return False, "residue_connected"
    rmask = _ref_set_to_mask(residue)
    if not g.adjacency_mask(path[-1]) & rmask:
        return False, "endpoint_adjacent_residue"
    if any(g.adjacency_mask(v) & rmask for v in path[:-1]):
        return False, "earlier_path_detached"
    if chi_of(g, residue) < chi_of(g, c) - k * chi_local(g, 1):
        return False, "residue_chromatic_bound"
    return True, None


def ref_validate_spire(g, spire, dominated=None):
    path = tuple(spire.path)
    a = _ref_check_vertex_set(g, spire.a_set)
    b = _ref_check_vertex_set(g, spire.b_set)
    if not path or not _ref_is_induced_path(g, path):
        return False, "path_induced"
    if not a or not _ref_is_connected_set(g, a):
        return False, "a_connected"
    if a & b:
        return False, "a_b_disjoint"
    amask = _ref_set_to_mask(a)
    if any(not g.adjacency_mask(v) & amask for v in b):
        return False, "a_covers_b"
    if set(path) & b:
        return False, "path_avoids_b"
    ends_in_a = [v for v in (path[0], path[-1]) if v in a]
    if not ends_in_a or set(path) & a != {ends_in_a[0]}:
        return False, "path_meets_a_only_at_anchor"
    z = ends_in_a[0]
    ab_rest = _ref_set_to_mask((a | b) - {z})
    if any(g.adjacency_mask(v) & ab_rest for v in path if v != z):
        return False, "path_detached_from_a_b"
    if dominated is None:
        return True, None
    c = _ref_check_vertex_set(g, dominated)
    if c & _ref_spire_vertices(spire):
        return False, "dominated_disjoint"
    cmask = _ref_set_to_mask(c)
    if any(g.adjacency_mask(v) & cmask for v in a | set(path)):
        return False, "no_edges_a_path_to_dominated"
    bmask = _ref_set_to_mask(b)
    if any(not g.adjacency_mask(v) & bmask for v in c):
        return False, "b_covers_dominated"
    return True, None


def ref_validate_starry(g, cert):
    from chibound.embed import verify_embedding
    from chibound.trees import binary_star, binary_star_order, bristled_star, bristled_star_order

    k, d = cert.k, cert.d
    binary, bristled = cert.binary_embedding, cert.bristled_embedding
    if len(binary.mapping) != binary_star_order(k, d) or not verify_embedding(g, binary_star(k, d), binary):
        return False, "binary_star_embedding"
    if (len(bristled.mapping) != bristled_star_order(k, d)
            or not verify_embedding(g, bristled_star(k, d), bristled)):
        return False, "bristled_star_embedding"
    return True, None
