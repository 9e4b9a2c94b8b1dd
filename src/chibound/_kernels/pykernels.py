"""Pure-Python search kernels over bitmask adjacency.

These are the hot inner loops: k-colorability, maximum clique, and induced
embedding backtracking. The compiled module _ckernels, written by hand in
_ckernels.c, implements the exact same algorithms with the same
tie-breaking and node accounting, so either backend yields identical
results; a change to one is made to both in the same commit.

Common conventions:
  * adjacency is a list of Python ints, bit u of adj[v] set iff u ~ v;
  * every mask is checked as _ckernels.c checks it, in a pass the kernel
    makes anyway: a negative mask, a bit at or past the vertex count, an
    adjacency mask holding its own vertex's bit or too few masks raise
    ValueError before a search starts;
  * a node budget of 0 means unbounded; a budgeted kernel counts a node and
    then stops once the count exceeds a nonzero budget, so it never
    expands node budget + 1 nodes;
  * k_color keeps DSATUR's saturation as masks, one per color (who has a
    neighbor of that color) and one per saturation level (who has at least
    that many neighbor colors), so painting a vertex is a few mask
    operations rather than a walk over its neighbors; _ckernels.c keeps
    per-vertex counters instead and runs the same search node for node;
  * the induced-embedding search carries one packed int, fit, with an
    hn-bit field per search position (hn the host's vertex count): field t
    holds the hosts whose adjacency to the hosts placed so far matches
    position t's adjacency to their positions, so each position takes its
    passing candidates as one AND of its candidate pool with its field,
    and the last position takes them all in one step (see
    find_embedding); _ckernels.c keeps a loop over each candidate below
    the last position, one mask comparison each, over the same nodes;
  * every entry point returns (status, payload) with status
    0 = result found, 1 = exhausted without result, 2 = budget exceeded.
"""

BACKEND_NAME = "python"


def _popcounts(masks, count, nbits, name, loops=False):
    """Popcount of each of the first count masks, after the checks of
    _ckernels.c's load_masks: each mask is a non-negative int below
    1 << nbits and, unless loops, mask i does not hold bit i."""
    if count < 0:
        raise ValueError(f"vertex count {count} out of range")
    if len(masks) < count:
        raise ValueError(f"{name} has {len(masks)} masks, need {count}")
    outside = ~((1 << nbits) - 1)
    out = []
    for i in range(count):
        m = masks[i]
        if m & outside:
            raise ValueError(f"{name}[{i}] is negative or has a bit at or past {nbits}")
        if not loops and m >> i & 1:
            raise ValueError(f"{name}[{i}] holds its own vertex's bit")
        out.append(m.bit_count())
    return out


def greedy_clique(n, adj):
    """Deterministic greedy clique, used as a chromatic lower bound and to
    precolor the coloring search. Start at the highest-degree vertex, then
    repeatedly add the candidate with the most candidate neighbors; ties go
    to the lowest id. Returns vertices in pick order."""
    return _greedy(adj, _popcounts(adj, n, n, "adj"))


def _greedy(adj, degs):
    """greedy_clique over checked adjacency with its vertex degrees."""
    if not degs:
        return []
    best_v = degs.index(max(degs))
    clique = [best_v]
    cand = adj[best_v]
    while cand:
        # ascending ids and a strict test: ties go to the lowest id
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


def k_color(n, adj, k, node_budget=0):
    """Decide k-colorability and return a witness.

    Saturation-driven backtracking (DSATUR): repeatedly color the uncolored
    vertex with the most distinctly-colored neighbors (ties: higher degree,
    then lower id), trying colors in ascending order and allowing at most
    one color beyond the current maximum. A greedy clique is precolored
    first. The first witness found is canonical given these rules.

    The saturation lives in masks over the vertices:

      * seen[c] holds every vertex with a neighbor colored c, so c is free
        for v iff seen[c] & (1 << v) is 0;
      * lev[s], for s = 0..min(k, n), holds every vertex whose saturation
        is at least s, so lev[0] holds them all; only its uncolored bits
        are kept current;
      * uncol holds the uncolored vertices.

    Painting v with c raises by one the saturation of each vertex in
    new = adj[v] & ~seen[c] & uncol: each level s from the top down takes
    the vertices of new one level below, lev[s] |= lev[s - 1] & new. No
    saturation exceeds the colors in use, so the top is the current
    maximum color; the levels are nested, so once lev[s - 1] holds all of
    new the levels below it hold new already and the walk stops.
    Unpainting restores the saved seen[c] and levels. colors keeps the
    stale colors of backtracked vertices: a success paints every vertex.

    The pick is the highest level with an uncolored vertex. Among several,
    the maximum of the static key (degree << b) | (n - 1 - u), with
    b = n.bit_length(), names the vertex: degree and n - 1 - u lie in
    [0, n), so each fits its own b-bit field and comparing keys compares
    degree first, then the id reversed.
    """
    degs = _popcounts(adj, n, n, "adj")
    if n == 0:
        return (0, [])
    if k <= 0:
        return (1, None)
    clique = _greedy(adj, degs)
    if len(clique) > k:
        return (1, None)

    b = n.bit_length()
    low = (1 << b) - 1
    keys = [(d << b) | (n - 1 - v) for v, d in enumerate(degs)]
    colors = [0] * n
    # no search of n vertices uses more than n colors
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

    Candidates for position t are the unused hosts of cands[t] adjacent to
    the parent's host, in ascending order, one node each. A candidate h
    passes when, for every earlier position s placed at host assign[s], h
    is adjacent to assign[s] exactly when t is adjacent to s. The search
    carries fit, one int with an hn-bit field per position, field t in
    bits t * hn to (t + 1) * hn - 1: it starts as all ones, and placing h
    at position s ANDs in side[s][h], which holds host row h in the field
    of each later position adjacent to s, the row's complement in the
    field of each later position not adjacent to s, and zeros in the
    fields of s and the positions before it, which are never read again.
    side[s][h] is built on h's first placement at s, as
    row * after[s] ^ flip[s]: after[s] holds a one at the bottom of the
    field of each later position, so the product copies the row into each
    of those fields, and flip[s] fills the fields of the later positions
    not adjacent to s. Building every row up front would cost more than an
    early find spends in its whole search.

    At position t the passing set is ok = pool & (fit >> t * hn), and only
    its bits are placed and searched from. The failing candidates are
    never visited, but a budgeted call still charges them: before placing
    a passing bit b it charges popcount(pool & ((b << 1) - 1)) nodes, b and
    the failures below it, and drops those bits from pool; after the last
    passing bit it charges what is left of pool. At the last position
    L = m - 1 the passing set is taken in one step:

      * count_embeddings adds popcount(ok) and charges popcount(pool)
        nodes;
      * find_embedding takes the lowest bit of ok and charges
        popcount(pool & (first - 1)) + 1 nodes, first being that bit, or
        popcount(pool) when ok is 0.

    A budgeted call stops, with status 2, at the first charge that takes
    nodes past node_budget, which is where a loop over each position's
    candidates one at a time would stop: every status, witness, count and
    budget outcome is that loop's. _ckernels.c runs that loop below L,
    testing each candidate with one mask comparison, over the same nodes
    in the same order.

    fit reads host_adj[h] as a column (bit u set iff h ~ u), which holds
    because host adjacency is symmetric by the module's convention. The
    kernel does not check symmetry: that check, or transposing the host,
    costs a pass over every mask on every call, and every caller passes a
    Graph's adjacency, which is symmetric by construction.
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
    at one node each; the packed fit mask picks out at once those that
    pass, and the last position takes them in one step (see
    find_embedding)."""
    hn, m = len(host_adj), len(parents)
    _popcounts(host_adj, hn, hn, "host_adj")
    _popcounts(cands, m, hn, "cands", loops=True)
    _popcounts(pat_adj_o, m, m, "pat_adj_o")
    for t, p in enumerate(parents):
        if not -1 <= p < t:
            raise ValueError(f"parents[{t}] is {p}, outside -1..{t - 1}")
    if m == 0:
        return (0, 1) if count else (0, [])
    last = m - 1
    # after[s] has a one at the bottom of the field of each position after
    # s, so row * after[s] copies a host row into each of those fields, and
    # flip[s] fills the fields of the later positions not adjacent to s, so
    # XORing it in turns the row there into its complement
    full = (1 << hn) - 1
    after = [0] * last
    flip = [0] * last
    later = 0
    for s in range(last - 1, -1, -1):
        t = s + 1
        later |= 1 << t * hn
        apart = later
        adj = pat_adj_o[s] >> t
        while adj:
            if adj & 1:
                apart ^= 1 << t * hn
            adj >>= 1
            t += 1
        after[s] = later
        flip[s] = full * apart
    # sides[s][h], built on h's first placement at s, is what that
    # placement ANDs into fit
    sides = [[None] * hn for _ in range(last)]
    assign = [0] * m
    used = 0
    nodes = 0
    total = 0

    def rec(t, fit):
        """0 = search on, 2 = budget exceeded, 3 = embedding complete.
        Field u of fit, for u >= t, holds the hosts that pass position
        u's test against positions 0..t - 1."""
        nonlocal used, nodes, total
        pool = cands[t] & ~used
        if parents[t] >= 0:
            pool &= host_adj[assign[parents[t]]]
        ok = pool & (fit >> t * hn)
        if t == last:
            # only a nonzero budget reads the node count
            if node_budget:
                if ok and not count:
                    nodes += (pool & ((ok & -ok) - 1)).bit_count() + 1
                else:
                    nodes += pool.bit_count()
                if nodes > node_budget:
                    return 2
            if count:
                total += ok.bit_count()
                return 0
            if ok:
                assign[t] = (ok & -ok).bit_length() - 1
                return 3
            return 0
        side = sides[t]
        while ok:
            b = ok & -ok
            ok ^= b
            if node_budget:
                # the failing candidates below b, then b itself
                taken = pool & ((b << 1) - 1)
                pool ^= taken
                nodes += taken.bit_count()
                if nodes > node_budget:
                    return 2
            h = b.bit_length() - 1
            row = side[h]
            if row is None:
                side[h] = row = host_adj[h] * after[t] ^ flip[t]
            assign[t] = h
            used |= b
            r = rec(t + 1, fit & row)
            used ^= b
            if r:
                return r
        if node_budget:
            nodes += pool.bit_count()
            if nodes > node_budget:
                return 2
        return 0

    status = rec(0, -1)
    if status == 2:
        return (2, None)
    if count:
        return (0, total)
    return (0, assign.copy()) if status == 3 else (1, None)
