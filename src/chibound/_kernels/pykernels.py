"""Pure-Python search kernels over bitmask adjacency.

These are the hot inner loops: k-colorability, maximum clique, and induced
embedding backtracking. The compiled module _ckernels, written by hand in
_ckernels.c, implements the exact same algorithms with the same
tie-breaking and node accounting, so either backend yields identical
results; a change to one is made to both in the same commit.

Common conventions:
  * adjacency is a list of Python ints, bit u of adj[v] set iff u ~ v;
  * a node budget of 0 means unbounded; a budgeted kernel counts a node and
    then stops once the count exceeds a nonzero budget, so it never
    expands node budget + 1 nodes;
  * the induced-embedding search tests a candidate host h for position t
    with one mask comparison, host_adj[h] & used == want, where used holds
    the hosts assigned so far and want those of the earlier positions
    adjacent to t;
  * every entry point returns (status, payload) with status
    0 = result found, 1 = exhausted without result, 2 = budget exceeded.
"""

BACKEND_NAME = "python"


def greedy_clique(n, adj):
    """Deterministic greedy clique, used as a chromatic lower bound and to
    precolor the coloring search. Start at the highest-degree vertex, then
    repeatedly add the candidate with the most candidate neighbors; ties go
    to the lowest id. Returns vertices in pick order."""
    if n == 0:
        return []
    best_v, best_key = 0, (-1, 0)
    for v in range(n):
        key = (adj[v].bit_count(), -v)
        if key > best_key:
            best_key, best_v = key, v
    clique = [best_v]
    cand = adj[best_v]
    while cand:
        pick, pick_key = -1, (-1, 0)
        m = cand
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            key = ((adj[v] & cand).bit_count(), -v)
            if key > pick_key:
                pick_key, pick = key, v
        clique.append(pick)
        cand &= adj[pick]
    return clique


def k_color(n, adj, k, node_budget=0):
    """Decide k-colorability and return a witness.

    Saturation-driven backtracking: repeatedly color the uncolored vertex
    with the most distinctly-colored neighbors (ties: higher degree, then
    lower id), trying colors in ascending order and allowing at most one
    color beyond the current maximum. A greedy clique is precolored first.
    The first witness found is canonical given these rules.

    The pick is one max() over an int key per vertex,

        key[u] = (saturation << 2b) | (degree << b) | (n - 1 - u),

    with b = n.bit_length(). Saturation, degree and n - 1 - u all lie in
    [0, n), so each fits its own b-bit field and comparing two keys
    compares saturation first, then degree, then the id reversed: exactly
    the order of the tuple (saturation, degree, -u). The low field differs
    between any two vertices, so the maximum is unique and names its
    vertex. paint adds one saturation unit to a neighbor whose count of
    color c goes 0 -> 1 and unpaint takes it back on 1 -> 0. A colored
    vertex's key is lowered by 1 << 3b, more than any key, so the maximum
    is always an uncolored vertex.
    """
    if n == 0:
        return (0, [])
    if k <= 0:
        return (1, None)
    clique = greedy_clique(n, adj)
    if len(clique) > k:
        return (1, None)

    b = n.bit_length()
    low = (1 << b) - 1
    sat = 1 << (2 * b)
    sink = 1 << (3 * b)
    keys = [(adj[v].bit_count() << b) | (n - 1 - v) for v in range(n)]
    # neighbor lists, each built on the vertex's first paint: a search that
    # ends after a few nodes never pays for the rest
    nbrs = [None] * n
    colors = [0] * n
    # count[c][u]: colored neighbors of u holding color c (1-based); no
    # search of n vertices uses more than n colors
    count = [[0] * n for _ in range(min(k, n) + 1)]

    def paint(v, c):
        colors[v] = c
        keys[v] -= sink
        row = nbrs[v]
        if row is None:
            row = nbrs[v] = []
            m = adj[v]
            while m:
                bit = m & -m
                row.append(bit.bit_length() - 1)
                m ^= bit
        cnt = count[c]
        for u in row:
            if cnt[u]:
                cnt[u] += 1
            else:
                cnt[u] = 1
                keys[u] += sat

    def unpaint(v, c):
        colors[v] = 0
        keys[v] += sink
        cnt = count[c]
        for u in nbrs[v]:
            if cnt[u] == 1:
                cnt[u] = 0
                keys[u] -= sat
            else:
                cnt[u] -= 1

    for i, v in enumerate(clique):
        paint(v, i + 1)

    nodes = 0

    def rec(colored, max_used):
        nonlocal nodes
        if colored == n:
            return 0
        v = n - 1 - (max(keys) & low)
        limit = max_used + 1 if max_used < k else k
        for c in range(1, limit + 1):
            if count[c][v]:
                continue
            nodes += 1
            if node_budget and nodes > node_budget:
                return 2
            paint(v, c)
            r = rec(colored + 1, max_used if c <= max_used else c)
            if r == 0:
                return 0
            unpaint(v, c)
            if r == 2:
                return 2
        return 1

    status = rec(len(clique), len(clique))
    return (status, colors.copy() if status == 0 else None)


def max_clique(n, adj, node_budget=0):
    """Exact maximum clique with witness, seeded by the greedy clique.
    Candidates are consumed in ascending id order; a popcount bound prunes.
    The witness is updated only on strict improvement, so it is canonical."""
    if n == 0:
        return (0, [])
    best = sorted(greedy_clique(n, adj))
    cur = []
    nodes = 0

    def expand(cand):
        nonlocal best, nodes
        if not cand:
            if len(cur) > len(best):
                best = cur.copy()
            return 0
        while cand:
            if len(cur) + cand.bit_count() <= len(best):
                return 0
            nodes += 1
            if node_budget and nodes > node_budget:
                return 2
            b = cand & -cand
            v = b.bit_length() - 1
            cand ^= b
            cur.append(v)
            r = expand(cand & adj[v])
            cur.pop()
            if r:
                return r
        return 0

    status = expand((1 << n) - 1)
    return (2 if status == 2 else 0, sorted(best))


def find_embedding(host_adj, pat_adj_o, parents, cands, node_budget=0):
    """First induced embedding in canonical order, or absence.

    Everything is in search-order space: position t is assigned t-th,
    pat_adj_o[t] has bit s set iff pattern positions t and s are adjacent,
    parents[t] is an earlier position adjacent to t (or -1), and cands[t]
    is the statically filtered host candidate mask for position t.
    """
    return _embed(host_adj, pat_adj_o, parents, cands, node_budget, False)


def count_embeddings(host_adj, pat_adj_o, parents, cands, node_budget=0):
    """Count all induced embeddings (labeled maps). Same search as
    find_embedding without early exit."""
    return _embed(host_adj, pat_adj_o, parents, cands, node_budget, True)


def _embed(host_adj, pat_adj_o, parents, cands, node_budget, count):
    """The search behind both entry points: the first embedding, or with
    count the number of embeddings. Candidates for position t are the
    unused hosts of cands[t] adjacent to the parent's host, taken ascending
    at one node each, and the module docstring's mask test decides each."""
    m = len(parents)
    assign = [0] * m
    earlier = [[s for s in range(t) if (pat_adj_o[t] >> s) & 1] for t in range(m)]
    used = 0
    nodes = 0
    total = 0

    def rec(t):
        """0 = search on, 2 = budget exceeded, 3 = embedding complete."""
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
        while pool:
            b = pool & -pool
            pool ^= b
            nodes += 1
            if node_budget and nodes > node_budget:
                return 2
            h = b.bit_length() - 1
            if host_adj[h] & used != want:
                continue
            assign[t] = h
            used |= b
            r = rec(t + 1)
            used ^= b
            if r:
                return r
        return 0

    status = rec(0)
    if status == 2:
        return (2, None)
    if count:
        return (0, total)
    return (0, assign.copy()) if status == 3 else (1, None)
