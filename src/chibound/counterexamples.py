"""Gadget constructions that certify the limits of vertex equipment.

Starting from a vertex-critical triangle-free base, gadgets are attached
over subsets of a designated stable set until the chromatic number rises.
The distinguished vertex of the last gadget then witnesses the claimed
negative property (no centered five-vertex path, or no proper equipment),
which callers verify with the exhaustive searchers.
"""

from dataclasses import dataclass
from itertools import combinations

from .coloring import chi_of, chromatic_number, clique_number, is_k_colorable, is_vertex_critical
from .errors import ConstructionError, ConstructionRefuted, _check_int
from .generators import cycle_graph, grotzsch, mycielski
from .graphio import write_graph6
from .graphs import Graph, bits, induced_subgraph

VARIANTS = ("split-pairs", "single-row")


@dataclass(frozen=True)
class GadgetSpec:
    """One gadget: the variant, the color budget k, the chosen stable
    vertices in enumeration order, and (split-pairs only) how far the
    diagonal cross edges reach (k-1 as written, or k)."""

    variant: str
    k: int
    s_list: tuple
    cross_range: int | None = None

    def __post_init__(self):
        check_counterexample_params(self.variant, self.k, self.cross_range)
        want = self.k - 1 if self.variant == "split-pairs" else self.k
        if len(self.s_list) != want:
            raise ValueError(
                f"{self.variant} needs {want} chosen vertices for k={self.k}, got {len(self.s_list)}"
            )
        if len(set(self.s_list)) != len(self.s_list):
            raise ValueError("chosen vertices must be distinct")
        if self.variant == "split-pairs" and self.cross_range is None:
            raise ValueError("split-pairs needs a cross_range of k-1 or k")

    def to_json_dict(self):
        return {
            "variant": self.variant,
            "k": self.k,
            "s_list": list(self.s_list),
            "cross_range": self.cross_range,
        }


@dataclass(frozen=True)
class CounterexampleResult:
    graph: Graph
    special_vertex: int
    base_vertex_count: int
    gadgets_added: tuple
    chi_before: int
    chi_after: int
    verification: dict

    def to_json_dict(self):
        return {
            "graph6": write_graph6(self.graph),
            "special_vertex": self.special_vertex,
            "base_vertex_count": self.base_vertex_count,
            "gadgets_added": [s.to_json_dict() for s in self.gadgets_added],
            "chi_before": self.chi_before,
            "chi_after": self.chi_after,
            "verification": dict(self.verification),
        }


def _default_base(k):
    if k == 2:
        return cycle_graph(5)
    g = grotzsch()
    for _ in range(k - 3):
        g = mycielski(g)
    return g


def check_counterexample_params(variant, k, cross_range=None):
    """Raise ValueError unless variant is one of VARIANTS, k is an int of
    at least 2 (a bool or a float is refused) and cross_range fits the
    variant: None for single-row, None (meaning k), k-1 or k for
    split-pairs. Returns the cross_range to build with."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _check_int(k, "k", 2)
    if variant == "single-row":
        if cross_range is not None:
            raise ValueError("cross_range only applies to split-pairs")
        return None
    if cross_range is None:
        return k
    if isinstance(cross_range, bool) or not isinstance(cross_range, int) or cross_range not in (k - 1, k):
        raise ValueError(f"cross_range must be {k - 1} or {k}, got {cross_range!r}")
    return cross_range


def critical_base(k, base=None):
    """Delete a maximum-degree vertex u from a vertex-critical triangle-free
    graph g with chromatic number k+1, and return (h, i_set): h = g - u and
    the old neighborhood of u.

    Only those three properties of g are checked. They imply the facts the
    gadgets rely on: h is triangle-free (an induced subgraph of g); i_set is
    stable (an edge in N(u) would close a triangle with u); chi(h) = k (at
    most k by criticality, at least k since chi(g) <= chi(h) + 1); every
    proper k-coloring of h puts all k colors on i_set (one that missed a
    color would extend to u and k-color g), so i_set has at least k
    vertices.
    """
    _check_int(k, "k", 2)
    g = base if base is not None else _default_base(k)
    omega, _ = clique_number(g)
    if omega > 2:
        raise ConstructionError("triangle-free", f"clique number {omega}")
    chi, _ = chromatic_number(g)
    if chi != k + 1:
        raise ConstructionError("chromatic-number", f"need {k + 1}, got {chi}")
    if not is_vertex_critical(g):
        raise ConstructionError("vertex-critical")
    u = max(range(g.n), key=lambda v: (g.degree(v), -v))
    keep = [v for v in range(g.n) if v != u]
    h, old_ids = induced_subgraph(g, keep)
    new_of = {v: i for i, v in enumerate(old_ids)}
    return h, frozenset(new_of[v] for v in bits(g.adjacency_mask(u)))


def attach_gadget(g, spec, i_set=None):
    """Extend g with one gadget; returns (bigger graph, its special vertex).

    split-pairs adds pairs a_i, b_i for i = 1..k, wiring a_i and b_i to the
    chosen s_j for i <= j <= k-1, diagonal edges a_i b_j and b_i a_j for
    i < j up to cross_range, and a special vertex adjacent to all 2k new
    vertices. single-row adds a_1..a_k with a_i adjacent to every chosen
    s_j except s_i, and the special vertex adjacent to all a_i.
    """
    for s in spec.s_list:
        g._check(s)
    if i_set is not None:
        missing = set(spec.s_list) - set(i_set)
        if missing:
            raise ValueError(f"chosen vertices {sorted(missing)} are outside the stable set")
    k = spec.k
    s = list(spec.s_list)
    edges = list(g.edges())
    base = g.n
    if spec.variant == "split-pairs":
        a = [base + 2 * i for i in range(k)]
        b = [base + 2 * i + 1 for i in range(k)]
        special = base + 2 * k
        for i in range(1, k + 1):
            for j in range(i, k):
                edges.append((a[i - 1], s[j - 1]))
                edges.append((b[i - 1], s[j - 1]))
        for i in range(1, spec.cross_range + 1):
            for j in range(i + 1, spec.cross_range + 1):
                edges.append((a[i - 1], b[j - 1]))
                edges.append((b[i - 1], a[j - 1]))
        edges.extend((special, v) for v in a + b)
        return Graph(base + 2 * k + 1, edges), special
    a = [base + i for i in range(k)]
    special = base + k
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j:
                edges.append((a[i - 1], s[j - 1]))
    edges.extend((special, v) for v in a)
    return Graph(base + k + 1, edges), special


def build_counterexample(variant, k, base=None, cross_range=None):
    """Attach gadgets over stable subsets in lexicographic order until the
    chromatic number rises, then stop and verify.

    cross_range defaults to k for split-pairs: with the narrower range
    k-1 the forcing demonstrably fails at k=2 (the last pair hangs free),
    so the wider range is the default while k-1 stays selectable. Raises
    ConstructionRefuted when every gadget is attached and the chromatic
    number never moves, and ConstructionError when the base is unusable.
    The stopping rule's checks are returned, not raised: verification
    holds one flag per check, and a false flag is for the caller to
    report.
    """
    cross_range_val = check_counterexample_params(variant, k, cross_range)
    h, i_set = critical_base(k, base)
    subset_size = k - 1 if variant == "split-pairs" else k
    g = h
    log = []
    for chosen in combinations(sorted(i_set), subset_size):
        spec = GadgetSpec(variant=variant, k=k, s_list=chosen, cross_range=cross_range_val)
        g, special = attach_gadget(g, spec, i_set)
        log.append(spec)
        if is_k_colorable(g, k) is None:
            chi_after, _ = chromatic_number(g)
            chi_without = chi_of(g, [v for v in range(g.n) if v != special])
            verification = {
                "chi_after_exact": chi_after == k + 1,
                "chi_drops_without_special": chi_without == k,
            }
            return CounterexampleResult(
                graph=g,
                special_vertex=special,
                base_vertex_count=h.n,
                gadgets_added=tuple(log),
                chi_before=k,
                chi_after=chi_after,
                verification=verification,
            )
    raise ConstructionRefuted(log)
