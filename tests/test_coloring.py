import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_chi_local,
    brute_chromatic,
    brute_clique_number,
    brute_cliques,
    brute_distances,
    has_triangle,
    reference_best_by_chi,
    reference_greedy_clique,
)
from strategies import graphs_with_subsets

from chibound.coloring import (
    best_by_chi,
    chi_local,
    chi_of,
    chromatic_number,
    clique_number,
    is_k_colorable,
    is_vertex_critical,
)
from chibound.errors import ColoringBudgetExceeded, SearchBudgetExceeded
from chibound.generators import (
    complete_graph,
    cycle_graph,
    grotzsch,
    kneser,
    mycielski_tower,
    path_graph,
    petersen,
    random_graph,
    star_graph,
)
from chibound.graphs import Graph, _component_masks, distance, induced_subgraph


def corpus(count, sizes=(5, 6, 7, 8, 9), ps=("0.2", "0.4", "0.6", "0.8")):
    for i in range(count):
        yield random_graph(sizes[i % len(sizes)], ps[(i // len(sizes)) % len(ps)], 5000 + i)


def test_chromatic_basics():
    assert chromatic_number(Graph(0)) == (0, None)
    chi, w = chromatic_number(Graph(4))
    assert chi == 1 and w.check(Graph(4))
    assert chromatic_number(cycle_graph(5))[0] == 3
    assert chromatic_number(complete_graph(6))[0] == 6
    assert chromatic_number(petersen())[0] == 3


def test_grotzsch_chi_four():
    g = grotzsch()
    assert brute_chromatic(g) == 4
    chi, w = chromatic_number(g)
    assert chi == 4 and w.check(g) and w.color_count == 4


def test_is_k_colorable():
    assert is_k_colorable(complete_graph(4), 3) is None
    w = is_k_colorable(cycle_graph(6), 2)
    assert w is not None and w.check(cycle_graph(6))
    assert is_k_colorable(grotzsch(), 3) is None
    with pytest.raises(ValueError):
        is_k_colorable(cycle_graph(5), 0)


def test_chi_witness_is_optimal_and_proper():
    for g in corpus(60):
        chi, w = chromatic_number(g)
        if chi:
            assert w.check(g)
            assert max(w.colors) == chi
            assert is_k_colorable(g, chi) is not None
            if chi > 1:
                assert is_k_colorable(g, chi - 1) is None


def test_clique_number():
    assert clique_number(Graph(0)) == (0, ())
    tri_free = kneser(5, 2)
    omega, witness = clique_number(tri_free)
    assert omega == 2 and not has_triangle(tri_free)
    assert clique_number(complete_graph(5))[0] == 5
    for g in corpus(40):
        omega, clique = clique_number(g)
        assert omega == brute_clique_number(g)
        assert all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])


def test_clique_number_witness_rule():
    """The witness is the greedy clique when that clique is maximum, and
    otherwise the lexicographically smallest maximum clique, on random
    labelled graphs of up to 10 vertices against every vertex subset."""
    rng = random.Random(28)
    for _ in range(1500):
        n = rng.randint(0, 10)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        cliques = brute_cliques(g)
        omega = max(map(len, cliques))
        greedy = tuple(sorted(reference_greedy_clique(n, g.adjacency_masks())))
        want = greedy if len(greedy) == omega else min(c for c in cliques if len(c) == omega)
        assert clique_number(g) == (omega, want)


def test_chi_at_least_omega_and_perfect_cases():
    for g in corpus(30):
        assert chromatic_number(g)[0] >= clique_number(g)[0]
    for g in (path_graph(7), cycle_graph(6), complete_graph(5)):
        assert chromatic_number(g)[0] == clique_number(g)[0]


def test_chi_local():
    assert chi_local(Graph(0), 1) == 0
    assert chi_local(Graph(0), 5) == 0
    assert chi_local(cycle_graph(5), 2) == 3
    for g in (star_graph(4), cycle_graph(5), petersen(), grotzsch(), mycielski_tower(3)):
        assert chi_local(g, 1) == 2  # triangle-free with an edge
    with pytest.raises(ValueError):
        chi_local(cycle_graph(5), 0)


def test_chi_local_monotone_and_bounded():
    for g in list(corpus(12)) + [petersen()]:
        chi = chromatic_number(g)[0]
        prev = 0
        for k in range(1, 4):
            cur = chi_local(g, k)
            assert prev <= cur <= chi
            prev = cur


def test_chi_local_reaches_chi_at_diameter():
    for g in (cycle_graph(7), petersen(), grotzsch()):
        diam = max(distance(g, u, v) for u in range(g.n) for v in range(g.n))
        assert chi_local(g, diam) == chromatic_number(g)[0]


def test_vertex_critical():
    assert is_vertex_critical(cycle_graph(5))
    c5_plus = Graph(6, cycle_graph(5).edges())
    assert not is_vertex_critical(c5_plus)
    assert is_vertex_critical(grotzsch())


def test_agrees_with_brute_force_small():
    for g in corpus(150, sizes=(4, 5, 6, 7)):
        assert chromatic_number(g)[0] == brute_chromatic(g)


def test_budget_raises_with_bounds():
    g = mycielski_tower(3)
    with pytest.raises(ColoringBudgetExceeded):
        chromatic_number(g, node_budget=3)
    # a single-k test proves no lower bound; its upper bound is greedy's
    g = mycielski_tower(4)
    with pytest.raises(ColoringBudgetExceeded) as e:
        is_k_colorable(g, 3, node_budget=1)
    assert (e.value.lower, e.value.upper) == (0, 6)
    with pytest.raises(SearchBudgetExceeded, match=r"maximum clique \(best found 2\)"):
        clique_number(g, node_budget=1)


# ------------------------------------------------------------ chi of a subset

def _chi_or_bounds(f):
    try:
        return f()
    except ColoringBudgetExceeded as e:
        return ("budget", e.lower, e.upper)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs_with_subsets(), st.sampled_from([None, 1, 2, 4, 16]))
def test_chi_of_matches_induced_subgraph(case, budget):
    g, s = case
    via_subgraph = _chi_or_bounds(lambda: chromatic_number(induced_subgraph(g, s)[0], budget)[0])
    assert _chi_or_bounds(lambda: chi_of(g, s, budget)) == via_subgraph


def test_chi_of_budget_bounds():
    g = grotzsch()
    rest = range(1, g.n)
    with pytest.raises(ColoringBudgetExceeded) as direct:
        chi_of(g, rest, node_budget=1)
    with pytest.raises(ColoringBudgetExceeded) as via_subgraph:
        chromatic_number(induced_subgraph(g, rest)[0], node_budget=1)
    assert (direct.value.lower, direct.value.upper) == (via_subgraph.value.lower, via_subgraph.value.upper)
    assert chi_of(g, ()) == 0 and chi_of(g, rest) == 3
    with pytest.raises(ValueError):
        chi_of(g, [g.n])


# ------------------------------------------------------------- the chi memo

@st.composite
def memo_calls(draw, max_n=14):
    """A graph and a sequence of chromatic calls on it: ("set", s, budget),
    ("whole", budget) or ("local", k, budget). Vertex sets repeat, so the
    sequence mixes memo hits with misses, and the pool holds the union of
    its sets, so a set may contain one already coloured."""
    g, _ = draw(graphs_with_subsets(max_n))
    vertex_sets = st.frozensets(st.sampled_from(range(g.n))) if g.n else st.just(frozenset())
    pool = draw(st.lists(vertex_sets, min_size=1, max_size=4))
    pool.append(frozenset().union(*pool))
    budgets = st.sampled_from([None, None, 1, 2, 4, 16])
    call = st.one_of(
        st.tuples(st.just("set"), st.sampled_from(pool), budgets),
        st.tuples(st.just("whole"), budgets),
        st.tuples(st.just("local"), st.integers(1, 3), budgets),
    )
    return g, draw(st.lists(call, min_size=1, max_size=12))


def _answer(g, call):
    kind, *args, budget = call

    def run():
        if kind == "set":
            return chi_of(g, args[0], budget)
        if kind == "whole":
            chi, witness = chromatic_number(g, budget)
            return chi, witness and witness.colors
        return chi_local(g, args[0], budget)

    return _chi_or_bounds(run)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(memo_calls())
def test_memo_answers_match_a_cold_graph(case):
    g, calls = case
    for call in calls:
        assert _answer(g, call) == _answer(Graph(g.n, g.edges()), call), call
    for kind, *args, _ in calls:
        if kind == "set":
            for bad in (g.n, -1):
                with pytest.raises(ValueError):
                    chi_of(g, args[0] | {bad})


# ----------------------------------------------------- the bounds-aware scans

@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs_with_subsets(max_n=10), st.sampled_from([1, 2]), st.booleans())
def test_chi_local_is_the_largest_ball_chi(case, k, warm):
    """Warm, chromatic_number(g) is memoised first, so the scan may stop at
    chi(g); cold, only the empty-core skip applies."""
    g, _ = case
    if warm:
        chromatic_number(g)
    assert chi_local(g, k) == brute_chi_local(g, k)


@st.composite
def scan_masks(draw):
    """A random graph on up to 40 vertices and the masks of one scan kind:
    radius-1 or radius-2 balls in vertex order, the components of a random
    vertex set (all of them, or those meeting a random set), or random
    vertex sets, the whole vertex set among them."""
    n = draw(st.integers(0, 40))
    g = random_graph(n, draw(st.sampled_from(("0.05", "0.1", "0.15", "0.25", "0.5"))), draw(st.integers(0, 10**6)))
    whole = (1 << n) - 1
    kind = draw(st.sampled_from(("ball1", "ball2", "components", "subsets")))
    if kind.startswith("ball"):
        radius, dist = int(kind[-1]), brute_distances(g)
        masks = [sum(1 << u for u in range(n) if dist[v][u] is not None and dist[v][u] <= radius) for v in range(n)]
    elif kind == "components":
        smask, meeting = draw(st.integers(0, whole)), draw(st.one_of(st.just(-1), st.integers(0, whole)))
        masks = list(_component_masks(g, smask, meeting))
    else:
        masks = draw(st.lists(st.one_of(st.integers(0, whole), st.just(whole)), max_size=12))
    return g, masks


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(scan_masks(), st.booleans(), st.sampled_from([None, 10**6]))
def test_best_by_chi_is_the_first_argmax(case, warm, budget):
    """best_by_chi returns the (mask, chi) of a scan that colours every
    mask with the reference k-sweep. Warm, chi(g) is memoised first, so an
    unbudgeted scan may stop at chi(g); the empty-core skip applies either
    way. A budgeted scan colours every mask. Neither rule changes the
    answer."""
    g, masks = case
    if warm:
        chromatic_number(g)
    assert best_by_chi(g, iter(masks), budget) == reference_best_by_chi(g, masks)


@pytest.fixture
def k_color_ks(spy_k_color):
    """Every k the test's _kernels.k_color calls try, in order."""
    ks = []
    spy_k_color(lambda adj, k: ks.append(k))
    return ks


def test_chi_local_stops_at_chi_and_skips_small_balls(k_color_ks):
    """Pins the k a chi_local scan tries once chi(g) is memoised, on a
    survey graph, random(38, 0.1). Colouring every ball tried 38 k at
    radius 1 and 58 at radius 2. At radius 1 the first ball has chi 3 and
    every later ball has an empty 3-core, so one k is tried; skipping only
    balls of at most 3 vertices tried 33. At radius 2 the first ball
    reaches chi(g) = 4 and the scan stops after trying k = 3 and 4."""
    g = random_graph(38, "0.1", 38000)
    assert chromatic_number(g)[0] == 4
    del k_color_ks[:]
    assert chi_local(g, 1) == 3
    assert k_color_ks == [3]
    assert chi_local(g, 2) == 4
    assert k_color_ks == [3, 3, 4]


def test_refuted_colouring_starts_the_sweep_above_k(k_color_ks):
    """Grotzsch has chi 4 and greedy clique 2. After an unbudgeted refuted
    3-colouring the sweep tries only k = 4; a budgeted refutation is not
    kept, so the sweep still starts at 2. The witness is the cold one."""
    cold = chromatic_number(grotzsch())
    for budget, sweep in ((None, [4]), (10**6, [2, 3, 4])):
        g = grotzsch()
        assert is_k_colorable(g, 3, budget) is None
        del k_color_ks[:]
        assert chromatic_number(g) == cold
        assert k_color_ks == sweep


def test_a_set_holding_a_set_of_chi_g_is_not_coloured(k_color_ks):
    """K4 on 0-3 and a path on 4-7: once chi(g) = 4 is memoised and the K4
    has been coloured with 4 colours, a set that holds the K4 has chi 4
    with no k tried. A set that holds only the triangle 1-3, of chi 3, is
    coloured, and so is every set under a budget."""
    g = Graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(4, 5), (5, 6), (6, 7)])
    assert chromatic_number(g)[0] == 4
    assert chi_of(g, {1, 2, 3}) == 3
    assert chi_of(g, {0, 1, 2, 3}) == 4
    del k_color_ks[:]
    assert chi_of(g, {0, 1, 2, 3, 4, 5}) == 4
    assert k_color_ks == []
    assert chi_of(g, {1, 2, 3, 4, 5}) == 3
    assert chi_of(g, {0, 1, 2, 3, 6}, node_budget=10**6) == 4
    assert k_color_ks == [3, 4]


@pytest.mark.parametrize("budget", [0, -3, 2.5, True], ids=repr)
def test_entry_points_reject_bad_budgets(budget):
    g = cycle_graph(5)
    calls = [
        lambda: is_k_colorable(g, 3, budget),
        lambda: chromatic_number(g, budget),
        lambda: chi_of(g, range(3), budget),
        lambda: clique_number(g, budget),
        lambda: chi_local(g, 1, budget),
        lambda: is_vertex_critical(g, budget),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="node_budget must be a positive integer or null"):
            call()
