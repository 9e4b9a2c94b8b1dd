import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_chi_local,
    brute_chromatic,
    brute_clique_number,
    brute_subset_chi,
    first_argmax,
    has_triangle,
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
from chibound.errors import ColoringBudgetExceeded
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
from chibound.graphs import Graph, distance, induced_subgraph, mask_to_set


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
    sequence mixes memo hits with misses."""
    g, _ = draw(graphs_with_subsets(max_n))
    vertex_sets = st.frozensets(st.sampled_from(range(g.n))) if g.n else st.just(frozenset())
    pool = draw(st.lists(vertex_sets, min_size=1, max_size=4))
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
    chi(g); cold, only the vertex-count skip applies."""
    g, _ = case
    if warm:
        chromatic_number(g)
    assert chi_local(g, k) == brute_chi_local(g, k)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs_with_subsets(max_n=10), st.data(), st.booleans(), st.sampled_from([None, 10**6]))
def test_best_by_chi_is_the_first_argmax(case, data, warm, budget):
    g, _ = case
    whole = (1 << g.n) - 1
    masks = data.draw(st.lists(st.one_of(st.integers(0, whole), st.just(whole)), max_size=8))
    expected = first_argmax(masks, lambda m: brute_subset_chi(g, mask_to_set(m)))
    if warm:
        chromatic_number(g)
    assert best_by_chi(g, iter(masks), budget) == expected


@pytest.fixture
def k_color_ks(spy_k_color):
    """Every k the test's _kernels.k_color calls try, in order."""
    ks = []
    spy_k_color(lambda adj, k: ks.append(k))
    return ks


def test_chi_local_stops_at_chi_and_skips_small_balls(k_color_ks):
    """Pins the k_color calls of chi_local once chi(g) is memoised, on a
    survey graph, random(38, 0.1). Colouring every ball took 38 calls at
    radius 1, where skipping balls of at most 3 vertices saves 5, and 58
    at radius 2, where the scan stops at the second ball of chi 4."""
    g = random_graph(38, "0.1", 38000)
    assert chromatic_number(g)[0] == 4
    del k_color_ks[:]
    assert chi_local(g, 1) == 3
    at_radius_1 = len(k_color_ks)
    assert chi_local(g, 2) == 4
    assert at_radius_1 <= 33 and len(k_color_ks) - at_radius_1 <= 2


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
