"""Exact chromatic and clique invariants.

All answers are exact; budgets are opt-in node budgets (deterministic) and
default to unbounded. Searches break ties by lowest vertex id, so repeated
runs and both kernel backends return identical witnesses. Unbudgeted
answers are kept in each graph's chi memo (see graphs.Graph).

A chromatic number is one k_color kernel call: the kernel sweeps k up
from the larger of a proven lower bound and its greedy clique size, with
one set-up and one greedy clique for the whole sweep and a fresh node
budget for each k, and returns the first colouring it finds.

Unbudgeted calls also use what the memo proves: a refuted k-colouring
starts the next chi sweep of that graph above k, a set that holds a set
already coloured with chi(g) colours has chi(g) and is not coloured
(_chi_of_mask), and a scan for the vertex set of largest chi stops at
chi(g). Such a scan also colours only the sets that can win: by the
Szekeres-Wilf bound chi <= degeneracy + 1, a set whose b-core is empty has
chi <= b, so it cannot beat a best chi of b (best_by_chi). Budgeted calls
ignore the memo and colour every set, so their budget outcomes are those
of a cold graph.
"""

from dataclasses import dataclass
from itertools import islice

from . import _kernels
from .errors import ColoringBudgetExceeded, SearchBudgetExceeded, _check_int
from .graphs import _induced_masks, bits, layers, vertex_mask


def _greedy_upper(adj):
    """Sequential greedy coloring count, a cheap honest upper bound."""
    colors = {}
    for v, m in enumerate(adj):
        used = {colors[u] for u in bits(m) if u in colors}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    return max(colors.values(), default=0)


@dataclass(frozen=True)
class Coloring:
    """Proper coloring witness: colors[v] in 1..color_count."""

    colors: tuple
    color_count: int

    def to_json_dict(self):
        return {str(v): c for v, c in enumerate(self.colors)}

    def check(self, g):
        if len(self.colors) != g.n:
            return False
        if any(not 1 <= c <= self.color_count for c in self.colors):
            return False
        return all(self.colors[u] != self.colors[v] for u, v in g.edges())


def is_k_colorable(g, k, node_budget=None):
    """A proper coloring with at most k colors, or None when none exists.

    An unbudgeted None is kept in g's chi memo as the proof chi >= k + 1,
    where chromatic_number starts its sweep."""
    _check_int(k, "k", 1)
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    adj = g.adjacency_masks()
    status, colors = _kernels.k_color(adj, k, node_budget or 0)
    if status == 2:
        raise ColoringBudgetExceeded(lower=0, upper=_greedy_upper(adj))
    if status == 1 and node_budget is None:
        key = ("lower", (1 << g.n) - 1)
        g._chi_memo[key] = max(g._chi_memo.get(key, 1), k + 1)
    return None if status == 1 else _coloring(colors)


def _coloring(colors):
    return Coloring(colors=tuple(colors), color_count=max(colors, default=0))


def _chromatic(adj, node_budget=None, proven=1):
    """The k-sweep behind chromatic_number and chi_of, over the adjacency
    masks of vertices 0..len(adj)-1: one k_color call tries every k from
    the larger of the greedy clique size and the proven lower bound. Only
    the last k, chi itself, yields a colouring, so the witness does not
    depend on where the sweep starts."""
    if not adj:
        return 0, None
    status, payload = _kernels.k_color(adj, proven, node_budget or 0, k_max=len(adj))
    if status == 2:
        raise ColoringBudgetExceeded(lower=payload, upper=_greedy_upper(adj))
    if status == 1:
        raise AssertionError("unreachable: every graph is n-colorable")
    witness = _coloring(payload)
    return witness.color_count, witness


def chromatic_number(g, node_budget=None):
    """Exact chromatic number with an optimal witness.

    Returns (chi, Coloring or None). The null graph has chi 0 and no
    witness. On budget exhaustion raises ColoringBudgetExceeded with the
    best bounds proved so far.
    """
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    return _chi_of_mask(g, (1 << g.n) - 1, node_budget)


def chi_of(g, s, node_budget=None):
    """Chromatic number of the subgraph induced on the vertex set s."""
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    return _chi_of_mask(g, vertex_mask(g, s), node_budget)[0]


def _chi_of_mask(g, smask, node_budget=None):
    """(chi, witness) of the subgraph induced on the vertex mask smask.

    The compressed masks come from graphs._induced_masks, the renumbering
    induced_subgraph uses, so answers and budget bounds match; the whole
    vertex set keeps g's own masks. Unbudgeted answers go in g's chi
    memo, and unbudgeted sweeps start at the lower bound is_k_colorable
    proved there.

    Once chi(g) is memoised, the memo also keeps under "top" the smallest
    set coloured from then on with chi(g) colours. An unbudgeted call on
    a set that contains it answers chi(g) without colouring, since the set
    has at least the chi of its subset and at most that of g, and returns
    no witness: only chromatic_number reads one, and the whole vertex set
    it asks for is coloured before "top" is set.
    """
    memo, whole = g._chi_memo, (1 << g.n) - 1
    if node_budget is None:
        hit = memo.get(smask)
        if hit is not None:
            return hit
        top = memo.get("top")
        if top is not None and top & ~smask == 0:
            memo[smask] = result = (memo[whole][0], None)
            return result
    adj = g.adjacency_masks() if smask == whole else _induced_masks(g, smask)
    if node_budget is not None:
        return _chromatic(adj, node_budget)
    memo[smask] = result = _chromatic(adj, None, memo.get(("lower", smask), 1))
    if result[0] == memo.get(whole, (None,))[0] and (top is None or smask.bit_count() < top.bit_count()):
        memo["top"] = smask
    return result


def clique_number(g, node_budget=None):
    """Exact clique number with a witness clique (empty for the null graph).

    The witness, in ascending order, is the greedy clique
    (_kernels.greedy_clique) when that clique is maximum, and otherwise the
    lexicographically smallest maximum clique."""
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    status, clique = _kernels.max_clique(g.adjacency_masks(), node_budget or 0)
    if status == 2:
        raise SearchBudgetExceeded(f"maximum clique (best found {len(clique)})")
    return len(clique), tuple(clique)


def _core_is_empty(adj, smask, b):
    """True when the b-core of the subgraph induced on smask is empty:
    deleting every vertex with fewer than b neighbours in what is left of
    the set, round after round, deletes the whole set. A deleted vertex
    has fewer than b neighbours in every subset of what was left, so it is
    in no subgraph of minimum degree b, and the order of deletion does not
    matter."""
    while smask:
        left = rest = smask
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & smask).bit_count() < b:
                smask ^= low
        if smask == left:
            return False
    return True


def best_by_chi(g, masks, node_budget=None):
    """First vertex mask of largest chromatic number in the given order,
    with that chi; (None, -1) when there are no masks. Components listed by
    graphs._component_masks thus tie-break to the smallest member.

    An unbudgeted scan applies two exact rules. It stops once the best chi
    equals chi(g) from g's memo, since no subgraph has a larger chi. Once
    the best chi b is at least 0, it skips a mask whose b-core is empty
    (_core_is_empty): the set then has degeneracy below b, so its chi is
    at most b by the Szekeres-Wilf bound chi <= degeneracy + 1, and it
    cannot beat the first mask of chi b. A set of at most b vertices is
    the plainest such case. A mask whose chi is memoised is looked up, not
    peeled. Neither rule changes the answer. A budgeted scan colours every
    mask, so its budget outcome is that of a cold graph.
    """
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    best, best_chi, cap = None, -1, None
    memo, adj = g._chi_memo, g.adjacency_masks()
    if node_budget is None:
        whole = memo.get((1 << g.n) - 1)
        cap = whole[0] if whole is not None else None
    for m in masks:
        if node_budget is None and best_chi >= 0 and m not in memo and _core_is_empty(adj, m, best_chi):
            continue
        chi = _chi_of_mask(g, m, node_budget)[0]
        if chi > best_chi:
            best, best_chi = m, chi
            if chi == cap:
                break
    return best, best_chi


def chi_local(g, k, node_budget=None):
    """Largest chromatic number of any radius-k closed ball; 0 for the
    null graph. Unbudgeted answers go in g's chi memo.

    Unbudgeted, the balls are scanned by best_by_chi: the scan stops
    once a ball reaches chi(g), when chromatic_number(g) is memoised, and
    skips balls whose b-core is empty, b the best chi so far. A budgeted
    call colours every ball."""
    _check_int(k, "radius", 1)
    _check_int(node_budget, "node_budget", 1, null_ok=True)
    memo, key = g._chi_memo, ("local", k)
    if node_budget is None and key in memo:
        return memo[key]
    # the frontiers are disjoint, so a ball is their sum
    balls = (sum(islice(layers(g, v), k + 1)) for v in range(g.n))
    best = max(best_by_chi(g, balls, node_budget)[1], 0)
    if node_budget is None:
        memo[key] = best
    return best


def is_vertex_critical(g, node_budget=None):
    """True iff deleting any single vertex lowers the chromatic number."""
    chi, _ = chromatic_number(g, node_budget)
    if chi == 0:
        return True
    everything = (1 << g.n) - 1
    return all(_chi_of_mask(g, everything & ~(1 << v), node_budget)[0] < chi for v in range(g.n))
