"""Host graph generators: classics, bounded-clique high-chromatic
families, and seeded random graphs.

Randomness is counter-based (SHA-256 over seed and edge slot), so a seed
determines the graph bit for bit on every platform.
"""

import hashlib
from fractions import Fraction
from itertools import combinations

from .errors import _check_int, _keyword_args
from .graphs import Graph


def empty_graph(n):
    return Graph(n)


def complete_graph(n):
    _check_int(n, "n")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n):
    """Path on n vertices."""
    _check_int(n, "n")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    _check_int(n, "n", 3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    _check_int(leaves, "leaves")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def mycielski(g):
    """One Mycielski step: vertices 0..n-1 keep their edges, each shadow
    n+i copies the neighborhood of i, and an apex 2n joins all shadows.
    Raises the chromatic number by exactly one and creates no triangle."""
    n = g.n
    edges = list(g.edges())
    for u, v in g.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    apex = 2 * n
    edges.extend((n + i, apex) for i in range(n))
    return Graph(2 * n + 1, edges)


def mycielski_tower(t):
    """t Mycielski steps on a single edge. Chromatic number t + 2."""
    _check_int(t, "t")
    g = complete_graph(2)
    for _ in range(t):
        g = mycielski(g)
    return g


def grotzsch():
    """The 11-vertex triangle-free vertex-critical graph with chromatic
    number 4 (one Mycielski step on the 5-cycle)."""
    return mycielski(cycle_graph(5))


def kneser(n, k):
    """Vertices are the k-subsets of an n-set in lexicographic order,
    adjacent when disjoint. kneser(5, 2) is the Petersen graph."""
    if _check_int(n, "n") < 2 * _check_int(k, "k", 1):
        raise ValueError(f"kneser needs n >= 2k >= 2, got n={n}, k={k}")
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for i, a in enumerate(subsets):
        sa = set(a)
        for b in subsets[i + 1:]:
            if not sa & set(b):
                edges.append((i, index[b]))
    return Graph(len(subsets), edges)


def petersen():
    return kneser(5, 2)


def shift_graph(n):
    """Vertices are pairs (i, j) with 1 <= i < j <= n in lexicographic
    order; (i, j) is adjacent to (j, l). Chromatic number grows like the
    base-2 logarithm of n while every clique has size at most 2."""
    _check_int(n, "n", 2)
    pairs = list(combinations(range(1, n + 1), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = []
    for (i, j) in pairs:
        for l in range(j + 1, n + 1):
            edges.append((index[(i, j)], index[(j, l)]))
    return Graph(len(pairs), edges)


def random_graph(n, p, seed):
    """Seeded Erdos-Renyi graph.

    p may be an int, a Fraction, or a decimal string like "0.3"; these are
    handled exactly. A float is accepted and used at its exact binary
    value. Each potential edge draws 256 hash bits, so the construction is
    reproducible across platforms and processes.

    Edge (u, v) is kept when h * den < num * 2**256, where h is the
    SHA-256 digest of f"{seed}:{u}:{v}" read as a big-endian integer and
    p = num / den. For an integer h that is h < ceil(num * 2**256 / den),
    and two 32-byte big-endian strings compare as the integers they
    encode, so each digest is compared with that bound's bytes directly.
    The prefix f"{seed}:{u}:" is hashed once per row, and each pair
    continues a copy of that state with the bytes of v.
    """
    _check_int(n, "n")
    if _check_int(seed, "seed") >= 2 ** 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    frac = Fraction(p)
    if not (0 <= frac <= 1):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    bound = -(-frac.numerator * (1 << 256) // frac.denominator)
    if bound == 1 << 256:  # p = 1: every digest is below 2**256
        return complete_graph(n)
    limit = bound.to_bytes(32, "big")
    suffixes = [str(v).encode() for v in range(n)]
    edges = []
    for u in range(n):
        row = hashlib.sha256(f"{seed}:{u}:".encode())
        for v in range(u + 1, n):
            h = row.copy()
            h.update(suffixes[v])
            if h.digest() < limit:
                edges.append((u, v))
    return Graph(n, edges)


GENERATORS = {
    "empty": empty_graph,
    "complete": complete_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "kneser": kneser,
    "petersen": petersen,
    "shift": shift_graph,
    "grotzsch": grotzsch,
    "mycielski_tower": mycielski_tower,
    "random": random_graph,
}


def generator_args(name, params):
    """Keyword arguments of a named generator, taken from a parameter
    mapping; ValueError for an unknown name, a key that is not a parameter
    of the generator, a missing parameter, a p that is neither a string nor
    an integer, or another parameter that is not a non-negative integer
    (booleans are refused)."""
    if not isinstance(name, str) or name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; known: {', '.join(sorted(GENERATORS))}")
    args = _keyword_args(GENERATORS[name], params, f"{name} generator")
    for param, value in args.items():
        if param != "p":
            _check_int(value, f"{param} of generator {name!r}")
        elif isinstance(value, bool) or not isinstance(value, (str, int)):
            raise ValueError(f"p of generator {name!r} must be a string or an integer, got {value!r}")
    return args


def make_graph(name, params):
    """Instantiate a named generator from a parameter mapping."""
    return GENERATORS[name](**generator_args(name, params))
