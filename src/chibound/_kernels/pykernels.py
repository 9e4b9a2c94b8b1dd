"""Pure-Python search kernels over bitmask adjacency.

These are the hot inner loops: k-colorability, maximum clique, and induced
embedding backtracking. The compiled module _ckernels, written by hand in
_ckernels.c, implements the exact same algorithms with the same
tie-breaking and node accounting, so either backend yields identical
results; a change to one is made to both in the same commit.

Common conventions:
  * adjacency is a list of Python ints, one per vertex, bit u of adj[v]
    set iff u ~ v;
  * every mask is checked as _ckernels.c checks it, in a pass the kernel
    makes anyway: a negative mask, a bit at or past the vertex count, an
    adjacency mask holding its own vertex's bit or fewer candidate masks
    than pattern positions raise ValueError before a search starts;
  * a node budget of 0 means unbounded; a budgeted kernel counts a node and
    then stops once the count exceeds a nonzero budget, so it never
    expands node budget + 1 nodes. Every kernel here keeps its node count
    only under a nonzero budget: an unbudgeted call counts nothing, as
    nothing reads its count. _ckernels.c counts on every call, and its
    max_clique still makes the call that tests a child's bound: in C an
    increment and a call cost a few nanoseconds, against a bytecode
    dispatch or a Python frame here, so the C search is left as it is and
    stays the fixed twin that the backend parity tests hold these kernels
    to;
  * k_color runs a whole k-sweep in one call, with one set-up (checks,
    degrees, greedy clique) for every k it tries. It renumbers the
    vertices once by DSATUR's static key, degree then lower id, so a tie
    within a saturation level goes to the top bit, and packs the search
    state into two ints with an n-bit field per level or colour: L, who
    has at least s neighbour colours, and P, who has a neighbour coloured
    c. Painting a vertex is a few big-int operations whose results are
    passed down the recursion, so backtracking restores nothing.
    _ckernels.c keeps per-vertex colour counters and a scan for the pick,
    with no renumbering, and runs the same search node for node;
  * the induced-embedding search carries one packed int, fit, with an
    hn-bit field per search position (hn the host's vertex count): field t
    starts as position t's candidate mask, and each placement clears from
    it the used host, the hosts whose adjacency to the placed host does not
    match t's adjacency to the placed position and, if that position is
    above[t], the hosts not above its host; so each position's field is
    its passing set, and the last position takes them all in one step,
    made inside the loop of the position before it (see find_embedding).
    The candidate pools, passing and failing candidates, are built only
    by a budgeted call, to charge the failing ones; _ckernels.c keeps a
    loop over each candidate of the pool below the last position, one
    mask comparison each, over the same nodes;
  * a position's parent in the embedding search is its latest earlier
    neighbour: the tree parent in the DFS preorder of _search_plan's find
    plan or the BFS order of a forest in its count plan, and still a
    neighbour in any other order, so only node charges depend on the
    order (see find_embedding);
  * the embedding kernels take above, one earlier position or -1 per
    position, and keep only hosts above the host of position above[t] as
    t's candidates. embed._search_plan links each isomorphic sibling
    subtree of a forest pattern to the previous one this way, so a search
    visits one of each set of relabellings of those subtrees; the first
    embedding is unchanged. The count plan also links the second centre
    of a tree with isomorphic halves to the first, and
    embed.count_induced_embeddings multiplies a count by the number of
    automorphisms the constraints break;
  * every entry point returns (status, payload) with status
    0 = result found, 1 = exhausted without result, 2 = budget exceeded;
    k_color's status-2 payload is the k whose search ran out.
"""

BACKEND_NAME = "python"


def _popcounts(masks, count, nbits, name, loops=False):
    """Popcount of each of the first count masks, after the checks of
    _ckernels.c's load_masks: each mask is a non-negative int below
    1 << nbits and, unless loops, mask i does not hold bit i."""
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


def greedy_clique(adj):
    """Deterministic greedy clique, used as a chromatic lower bound and to
    precolor the coloring search. Start at the highest-degree vertex, then
    repeatedly add the candidate with the most candidate neighbors; ties go
    to the lowest id. Returns vertices in pick order."""
    return _greedy(adj, _popcounts(adj, len(adj), len(adj), "adj"))


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


def k_color(adj, k, node_budget=0, k_max=None):
    """Sweep k' up from k to k_max for the first k'-colouring.

    Tries each k' from the larger of k and the greedy clique's size up to
    k_max (default k), each with a fresh node budget, and returns (0,
    colours) for the first k' that colours, (1, None) when none does and
    (2, k') for the k' whose search ran out of budget. The null graph
    gives (0, []). The checks, degrees, greedy clique and renumbering run
    once per call, not once per k'.

    The search is saturation-driven backtracking (DSATUR): repeatedly
    colour the uncoloured vertex with the most distinctly-coloured
    neighbours (ties: higher degree, then lower id), trying colours in
    ascending order and allowing at most one colour beyond the current
    maximum. The greedy clique is precoloured first. The first witness
    found is canonical given these rules.

    The vertices are renumbered once, ascending by the static key (degree,
    then id reversed), so among vertices of equal saturation the highest
    new id is the one DSATUR picks. The renumbered rows are read as columns
    of the old rows in one pass over n^2 binary digits, which holds because
    adjacency is symmetric by the module's convention. The state is two
    packed ints with an n-bit field per level or colour, passed down the
    recursion as new ints, so backtracking restores nothing:

      * L: field s holds the vertices whose saturation is at least s, for
        s = 0..top, top the largest colour in use; only its uncoloured
        bits are kept current;
      * P: field c - 1 holds the vertices with a neighbour coloured c.

    With E[t] a one at the bottom of fields 0..t, the pick is the top bit
    of L & uncol * E[top]: the top bit of the highest level with an
    uncoloured vertex. The free colours of v, at most limit = min(top + 1,
    k'), are the bits of E[limit - 1] & ~(P >> v), visited ascending.
    Painting v with c adds row << (c - 1) * n to P and moves the vertices
    new = row & uncol & ~(P >> (c - 1) * n) up one level, all levels at
    once, as L | (L << n) & new * E[t]. The colours are written, in the
    caller's ids, on the way back up from a success.
    _ckernels.c keeps per-vertex colour counters and a scan for the pick
    instead, over the same nodes in the same order.
    """
    n = len(adj)
    degs = _popcounts(adj, n, n, "adj")
    if n == 0:
        return (0, [])
    clique = _greedy(adj, degs)
    ks = range(max(k, len(clique)), (k if k_max is None else k_max) + 1)
    if not ks:
        return (1, None)

    # order[i] is the vertex numbered i: ascending degree, and a stable sort
    # of the ids from the top keeps equal degrees in descending id order
    order = sorted(range(n - 1, -1, -1), key=degs.__getitem__)
    # renumber both ends of every edge in O(n^2): S holds the rows as n-digit
    # binary strings, vertex order[n - 1] first, so the digits of column v,
    # S[n - 1 - v::n], read the new row of v from its top bit down (the
    # adjacency is symmetric)
    full = (1 << n) - 1
    S = "".join([bin(adj[v] | full + 1)[3:] for v in reversed(order)])
    rows = [int(S[n - 1 - v::n], 2) for v in order]

    # E grows by one field whenever the search opens a colour
    E = [1]
    L = uncol = full
    P = 0
    colors = [0] * n
    for c, u in enumerate(clique, 1):
        v = order.index(u)
        E.append(E[-1] | 1 << c * n)
        colors[u] = c
        uncol ^= 1 << v
        row = rows[v]
        L |= (L << n) & (row & uncol) * E[c]
        P |= row << (c - 1) * n

    nodes = 0

    def rec(uncol, L, P, top):
        nonlocal nodes
        if not uncol:
            return 0
        v = ((L & uncol * E[top]).bit_length() - 1) % n
        row = rows[v]
        rest = uncol ^ 1 << v
        free = E[top if top < k else top - 1] & ~(P >> v)
        # a colour in field top or above is a new one, top + 1
        opened = top * n
        while free:
            fb = free & -free
            free ^= fb
            if node_budget:
                nodes += 1
                if nodes > node_budget:
                    return 2
            shift = fb.bit_length() - 1
            t = top
            if shift >= opened:
                t = top + 1
                if t == len(E):
                    E.append(E[-1] | 1 << t * n)
            new = row & rest & ~(P >> shift)
            r = rec(rest, L | (L << n) & new * E[t], P | row << shift, t)
            if r != 1:
                if r == 0:
                    colors[order[v]] = shift // n + 1
                return r
        return 1

    # rec reads k, the k' being tried
    for k in ks:
        nodes = 0
        status = rec(uncol, L, P, len(clique))
        if status == 0:
            return (0, colors)
        if status == 2:
            return (2, k)
    return (1, None)


def max_clique(adj, node_budget=0):
    """Exact maximum clique with witness, seeded by the greedy clique.

    The simple popcount-bound search of Carraghan and Pardalos (1990):
    candidates are consumed in ascending id order, one node each, and a
    level stops once its clique plus every candidate left cannot beat the
    best clique. The witness is updated only on strict improvement, so it
    is the greedy clique when that clique is maximum and otherwise the
    lexicographically smallest maximum clique.

    Each level tests that bound for a child before the call, on sub = cand
    & adj[v], as the child would first test it and return without
    charging a node; a child with an empty sub is a leaf, handled inline.
    The loop works out from one popcount how far the bound lets it go:
    top = depth + popcount(cand) drops by one per vertex taken and is
    compared with the live best size, so an improvement below the level
    ends it exactly where a fresh popcount would. cand is never empty
    while top > size: the first vertex taken leaves size at least depth +
    1, either as the bound failed or as the search below it found a
    clique that large. The cliques are carried as masks and their sizes
    and depths as ints. The nodes are those of the search that calls
    every child, charged in the same order.
    """
    clique = greedy_clique(adj)
    size = len(clique)
    best = sum(1 << v for v in clique)
    nodes = 0

    def expand(cand, depth, cur):
        """Search the cliques cur + a subset of cand, cur of depth vertices;
        below the top level, called only when cand is not empty and the
        bound passes."""
        nonlocal best, size, nodes
        top = depth + cand.bit_count()
        while top > size:
            top -= 1
            if node_budget:
                nodes += 1
                if nodes > node_budget:
                    return 2
            b = cand & -cand
            cand ^= b
            sub = cand & adj[b.bit_length() - 1]
            if depth + 1 + sub.bit_count() > size:
                if sub:
                    r = expand(sub, depth + 1, cur | b)
                    if r:
                        return r
                else:
                    best = cur | b
                    size = depth + 1
        return 0

    status = expand((1 << len(adj)) - 1, 0, 0)
    return (status, [v for v in range(len(adj)) if best >> v & 1])


def find_embedding(host_adj, pat_adj_o, above, cands, node_budget=0):
    """First induced embedding in canonical order, or absence.

    Everything is in search-order space: position t is assigned t-th,
    pat_adj_o[t] has bit s set iff pattern positions t and s are adjacent,
    above[t] is an earlier position whose host t's host must exceed (or
    -1), and cands[t] is the statically filtered host candidate mask for
    position t. embed._search_plan sets above[t] to the previous
    isomorphic sibling subtree of a forest pattern, which breaks the
    symmetry between siblings without changing the first embedding (see
    embed.find_induced_embedding), and in its count plan the second
    centre of a tree with isomorphic halves to the first.

    The parent of position t is the highest bit of pat_adj_o[t] below t,
    or -1. In a DFS preorder, as embed._search_plan's find plan makes, it
    is the DFS parent: an undirected DFS has no cross edges, so every
    earlier neighbour of t is an ancestor, and the deepest comes last. In
    the BFS order of a forest, as its count plan makes, the BFS parent is
    t's only earlier neighbour. In any other order it is still adjacent to
    t, so keeping t's pool to its host's neighbours drops no passing
    candidate: finds and counts stay exact, and only the node charges
    depend on the order.

    The pool of position t holds the unused hosts of cands[t] adjacent to
    the parent's host and above the host of position above[t], its
    candidates, which a loop would try in ascending order, one node each.
    A candidate h passes when, for every earlier position s placed at host
    assign[s], h is adjacent to assign[s] exactly when t is adjacent to s.
    The search carries fit, one int with an hn-bit field per position,
    field t in bits t * hn to (t + 1) * hn - 1: it starts as the packed
    cands masks, and placing h at position s ANDs in side[s][h], which
    holds host row h in the field of each later position adjacent to s,
    the row's complement in the field of each later position not adjacent
    to s, and zeros in the fields of s and the positions before it, which
    are never read again; it also clears h from every later field
    (injectivity) and the hosts up to h from the field of every position
    whose above is s (sibling order; several positions may share an
    above). side[s][h] is built on h's first placement at s, as row *
    after[s] ^ (full ^ b) * apart[s], b = 1 << h, with the sibling fields
    ANDed with the complement of ((b << 1) - 1) * sib[s]: after[s] holds a
    one at the bottom of the field of each later position, so the product
    copies the row into each of those fields; apart[s] holds one only for
    the later positions not adjacent to s, so the XOR turns the row there
    into its complement less h (the row lacks h, as the host has no
    loops); sib[s] holds one for each position whose above is s. Building
    every row up front would cost more than an early find spends in its
    whole search.

    So when the search reaches position t, its passing set ok is field t,
    which equals pool & field in a search that ANDs in only the rows, and
    only its bits are placed and searched from. The failing candidates are
    never visited, and an unbudgeted call never builds a pool. A budgeted
    call still charges them: it builds the pool, and before placing a
    passing bit b it charges popcount(pool & ((b << 1) - 1)) nodes, b and
    the failures below it, and drops those bits from pool; after the last
    passing bit it charges what is left of pool. At the last position
    L = m - 1 the passing set is taken in one step:

      * count_embeddings adds popcount(ok) and charges popcount(pool)
        nodes;
      * find_embedding takes the lowest bit of ok and charges
        popcount(pool & (first - 1)) + 1 nodes, first being that bit, or
        popcount(pool) when ok is 0.

    That step is made in the loop of position L - 1, right after the
    charge for each of its passing candidates, from L's field of fit and
    that candidate's test, built on its first placement at L - 1 like a
    side, so no call is made per candidate there. A one-position pattern
    takes it before any search.

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
    return _embed(host_adj, pat_adj_o, above, cands, node_budget, False)


def count_embeddings(host_adj, pat_adj_o, above, cands, node_budget=0):
    """Count the induced embeddings (labeled maps) that meet the above
    constraints. Same search as find_embedding without early exit."""
    return _embed(host_adj, pat_adj_o, above, cands, node_budget, True)


def _embed(host_adj, pat_adj_o, above, cands, node_budget, count):
    """The search behind both entry points (see find_embedding): the first
    embedding, or with count the number of embeddings."""
    hn, m = len(host_adj), len(pat_adj_o)
    _popcounts(host_adj, hn, hn, "host_adj")
    _popcounts(cands, m, hn, "cands", loops=True)
    _popcounts(pat_adj_o, m, m, "pat_adj_o")
    if len(above) < m:
        raise ValueError(f"above has {len(above)} entries, need {m}")
    for t in range(m):
        if not -1 <= above[t] < t:
            raise ValueError(f"above[{t}] is {above[t]}, outside -1..{t - 1}")
    parents = [(pat_adj_o[t] & (1 << t) - 1).bit_length() - 1 for t in range(m)]
    if m == 0:
        return (0, 1) if count else (0, [])
    if m == 1:
        # the last position's step, before any search: with no earlier
        # position its pool is cands[0] and every candidate passes
        pool = cands[0]
        if count:
            return (2, None) if 0 < node_budget < pool.bit_count() else (0, pool.bit_count())
        return (0, [(pool & -pool).bit_length() - 1]) if pool else (1, None)
    last = m - 1
    pen = last - 1  # the position whose loop makes the last position's step
    # after[s] has a one at the bottom of the field of each position after
    # s, so row * after[s] copies a host row into each of those fields;
    # apart[s] has one there only for the later positions not adjacent to
    # s, so XORing in full * apart[s] turns the row there into its
    # complement; sib[s] has one for each position whose above is s
    full = (1 << hn) - 1
    after = [0] * pen
    apart = [0] * pen
    sib = [0] * pen
    later = 1 << last * hn
    for s in range(pen - 1, -1, -1):
        t = s + 1
        later |= 1 << t * hn
        away = later
        adj = pat_adj_o[s] >> t
        while adj:
            if adj & 1:
                away ^= 1 << t * hn
            adj >>= 1
            t += 1
        after[s] = later
        apart[s] = away
    # fit starts as the candidate masks, one per field
    fit = 0
    for t in range(m):
        fit |= cands[t] << t * hn
        if 0 <= above[t] < pen:
            sib[above[t]] |= 1 << t * hn
    # sides[s][h], built on h's first placement at s, is what that
    # placement ANDs into fit
    sides = [[None] * hn for _ in range(pen)]
    # tests[h], built on h's first placement at pen, is what that placement
    # ANDs into the last position's field: host row h ^ flip_last, the row
    # when the two positions are adjacent (pen is then the last position's
    # parent), else its complement, less h and, when the last position's
    # above is pen, every host below h
    flip_last = 0 if pat_adj_o[last] >> pen & 1 else -1
    parent_last, above_last = parents[last], above[last]
    tests = [None] * hn
    assign = [0] * m
    used = 0
    nodes = 0
    total = 0

    def rec(t, fit):
        """0 = search on, 2 = budget exceeded, 3 = embedding complete.
        Field u of fit, for u >= t, holds the hosts of cands[u] that meet
        every constraint of positions 0..t - 1: unused, adjacent to their
        hosts exactly as u is to them, and above the host of above[u] if
        that is among them."""
        nonlocal used, nodes, total
        ok = fit >> t * hn & full
        if node_budget:
            # the pool: the passing candidates and the failing ones that
            # a budgeted call charges
            pool = cands[t] & ~used
            if parents[t] >= 0:
                pool &= host_adj[assign[parents[t]]]
            if above[t] >= 0:
                pool &= -2 << assign[above[t]]
        if t == pen:
            # the last position's passing candidates before pen is placed
            base_ok = fit >> last * hn
            if node_budget and ok:
                # and its pool, built only when pen has a passing candidate,
                # as a refutation mostly reaches pen with none
                base = cands[last] & ~used
                if 0 <= parent_last < pen:
                    base &= host_adj[assign[parent_last]]
                if 0 <= above_last < pen:
                    base &= -2 << assign[above_last]
            while ok:
                b = ok & -ok
                ok ^= b
                if node_budget:
                    taken = pool & ((b << 1) - 1)
                    pool ^= taken
                    nodes += taken.bit_count()
                    if nodes > node_budget:
                        return 2
                h = b.bit_length() - 1
                test = tests[h]
                if test is None:
                    tests[h] = test = (host_adj[h] ^ flip_last) & (-(b << 1) if above_last == pen else ~b)
                ok_last = base_ok & test
                if node_budget:
                    # what placing h at pen leaves of the last position's pool
                    pool_last = base & (-(b << 1) if above_last == pen else ~b)
                    if parent_last == pen:
                        pool_last &= host_adj[h]
                    if ok_last and not count:
                        nodes += (pool_last & ((ok_last & -ok_last) - 1)).bit_count() + 1
                    else:
                        nodes += pool_last.bit_count()
                    if nodes > node_budget:
                        return 2
                if count:
                    total += ok_last.bit_count()
                elif ok_last:
                    assign[pen] = h
                    assign[last] = (ok_last & -ok_last).bit_length() - 1
                    return 3
        else:
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
                    # h's row, which lacks h, and its complement less h;
                    # then only the hosts above h for the positions whose
                    # above is t
                    row = host_adj[h] * after[t] ^ (full ^ b) * apart[t]
                    if sib[t]:
                        row &= ~(((b << 1) - 1) * sib[t])
                    side[h] = row
                assign[t] = h
                # only a budgeted call builds pools, so only it tracks the
                # used hosts
                if node_budget:
                    used |= b
                    r = rec(t + 1, fit & row)
                    used ^= b
                else:
                    r = rec(t + 1, fit & row)
                if r:
                    return r
        if node_budget:
            nodes += pool.bit_count()
            if nodes > node_budget:
                return 2
        return 0

    status = rec(0, fit)
    if status == 2:
        return (2, None)
    if count:
        return (0, total)
    return (0, assign.copy()) if status == 3 else (1, None)
