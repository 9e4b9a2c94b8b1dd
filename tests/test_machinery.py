from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import brute_components, brute_equipment
from strategies import graphs_with_subsets

from chibound import _kernels, machinery
from chibound._kernels import pykernels
from chibound.certificates import (
    Equipment,
    Spire,
    XSplit,
    validate_equipment,
    validate_gyarfas,
    validate_spire,
    validate_x_split,
)
from chibound.coloring import best_by_chi, chi_local, chromatic_number, is_k_colorable
from chibound.counterexamples import check_counterexample_params, critical_base
from chibound.errors import SearchBudgetExceeded
from chibound.generators import (
    complete_graph,
    cycle_graph,
    grotzsch,
    kneser,
    mycielski_tower,
    path_graph,
    petersen,
    random_graph,
    shift_graph,
    star_graph,
)
from chibound.graphio import parse_graph6
from chibound.graphs import (
    Graph,
    _component_masks,
    induced_subgraph,
    is_connected,
    mask_to_set,
    neighborhood,
    vertex_mask,
)
from chibound.machinery import (
    d_equipment,
    find_spire,
    find_x_split,
    gyarfas_path,
    induced_path_centered,
    properly_d_equipped,
)
from chibound.thresholds import lemma_threshold, ramsey_bound
from chibound.trees import (
    bristle,
    broom,
    double_broom,
    path_tree,
    superstar_order,
    two_legged_caterpillar,
)


def chi_of(g, s):
    sub, _ = induced_subgraph(g, s)
    return chromatic_number(sub)[0]


# ------------------------------------------------------------- x-splits

def test_validate_x_split_fixtures():
    star = star_graph(3)  # center 0, leaves 1..3
    ok, clause = validate_x_split(star, {0}, XSplit(x=0, y=1, z_set=frozenset({2})))
    assert ok and clause is None
    # y adjacent into Z
    host = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
    ok, clause = validate_x_split(host, {0}, XSplit(x=0, y=1, z_set=frozenset({2})))
    assert not ok and clause == "y_no_neighbors_in_z"
    # y adjacent into Z fails before connectivity on a path
    p5 = path_graph(5)
    ok, clause = validate_x_split(p5, {2}, XSplit(x=2, y=1, z_set=frozenset({3, 0})))
    assert not ok and clause == "y_no_neighbors_in_z"
    # two far leaves form a disconnected Z
    ok, clause = validate_x_split(star, {0}, XSplit(x=0, y=1, z_set=frozenset({2, 3})))
    assert not ok and clause == "z_connected"


def brute_best_split_chi(g, x_ground):
    """Highest chromatic number over all valid splits, by enumerating all
    connected candidate sets. None when no split exists."""
    best = None
    rest = set(range(g.n)) - set(x_ground)
    for x in x_ground:
        for y in sorted(rest):
            if not g.has_edge(x, y):
                continue
            pool = sorted(rest - {y} - {v for v in rest if g.has_edge(y, v)})
            for size in range(1, len(pool) + 1):
                for z in combinations(pool, size):
                    zs = frozenset(z)
                    zmask = vertex_mask(g, zs)
                    if not is_connected(g, zmask):
                        continue
                    if not g.adjacency_mask(x) & zmask:
                        continue
                    chi = chi_of(g, zs)
                    if best is None or chi > best:
                        best = chi
    return best


def test_find_x_split_examples():
    star = star_graph(3)
    got = find_x_split(star, {0}, 0)
    assert got is not None and validate_x_split(star, {0}, got)[0]
    assert find_x_split(complete_graph(3), {0}, 0) is None


def test_find_x_split_matches_brute_enumeration():
    for i in range(40):
        g = random_graph(7, "0.4", 6000 + i)
        chi, witness = chromatic_number(g)
        if chi == 0:
            continue
        x_ground = frozenset(v for v in range(g.n) if witness.colors[v] == 1)
        best = brute_best_split_chi(g, x_ground)
        for min_chi in range(0, 4):
            got = find_x_split(g, x_ground, min_chi)
            expect = best is not None and best > min_chi
            assert (got is not None) == expect, (i, min_chi, best)
            if got is not None:
                assert validate_x_split(g, x_ground, got)[0]
                assert chi_of(g, got.z_set) > min_chi


def survey_graphs():
    """The graphs of the e2ebench survey corpus: six named ones and 48
    sparse random graphs on 20 to 50 vertices."""
    yield from (cycle_graph(7), petersen(), grotzsch(), kneser(7, 2), mycielski_tower(3), shift_graph(8))
    for n in (20, 26, 32, 38, 44, 50):
        for i in range(8):
            yield random_graph(n, ("0.1", "0.15")[i % 2], 1000 * n + i)


def test_find_x_split_size_rule_matches_colouring():
    """Unbudgeted, min_chi <= 1 is decided by component size; a budgeted
    call, here with a budget no colouring reaches, colours every candidate.
    Both give the same split, as the harness's colour class 1 x_ground."""
    for g in survey_graphs():
        x_ground = frozenset(v for v in range(g.n) if chromatic_number(g)[1].colors[v] == 1)
        for min_chi in (0, 1, 2):
            assert find_x_split(g, x_ground, min_chi) == find_x_split(g, x_ground, min_chi, node_budget=10**9)


# ------------------------------------------------------------- gyarfas

def test_gyarfas_zero_steps():
    g = Graph(6, cycle_graph(5).edges() + [(5, 0)])
    res = gyarfas_path(g, range(5), 5, 0)
    assert res.path == (5,) and res.residue == frozenset(range(5))


def test_gyarfas_pendant_fixture():
    g = Graph(6, cycle_graph(5).edges() + [(5, 0)])
    res = gyarfas_path(g, range(5), 5, 1)
    assert res.path == (5, 0)
    assert res.residue == frozenset({1, 2, 3, 4})
    assert chi_of(g, res.residue) >= 3 - 1 * chi_local(g, 1)
    ok, clause = validate_gyarfas(g, frozenset(range(5)), res)
    assert ok, clause


def test_gyarfas_precondition_gate():
    g = Graph(6, cycle_graph(5).edges() + [(5, 0)])
    with pytest.raises(ValueError):
        gyarfas_path(g, range(5), 5, 2)  # chi(C)=3 <= 2*chi1
    with pytest.raises(ValueError):
        gyarfas_path(g, range(5), 0, 1)  # start inside the set
    with pytest.raises(ValueError):
        gyarfas_path(g, {1, 3}, 5, 0)  # disconnected set


def test_gyarfas_closed_loop_seeded():
    ran = 0
    for i in range(60):
        g = random_graph(8 + i % 5, "0.3", 40_000 + i)
        chi1 = chi_local(g, 1) if g.n else 0
        x0 = 0
        region = frozenset(range(g.n)) - {x0}
        comps = [
            c for c in brute_components(g, region) if g.adjacency_mask(x0) & vertex_mask(g, c)
        ]
        if not comps:
            continue
        best = max(comps, key=lambda c: (chi_of(g, c), -min(c)))
        for k in range(0, 4):
            if chi_of(g, best) <= k * chi1:
                break
            res = gyarfas_path(g, best, x0, k)
            ok, clause = validate_gyarfas(g, frozenset(best), res)
            assert ok, clause
            ran += 1
    assert ran >= 40


# ------------------------------------------------------------ equipment

def equipment_host():
    # center 0; nonadjacent neighbors 1, 2; induced path 0-3-4; witness 5
    return Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (0, 5)])


def test_d_equipment_fixture():
    g = equipment_host()
    eq = d_equipment(g, 0, {1, 2, 3, 4, 5}, 2)
    assert eq is not None
    ok, clause = validate_equipment(g, frozenset({1, 2, 3, 4, 5}), eq)
    assert ok, clause


def test_d_equipment_absent_in_triangle():
    assert d_equipment(complete_graph(3), 0, {1, 2}, 2) is None


def test_equipment_validator_rejects():
    g = equipment_host()
    bad = Equipment(center=0, independent_neighbors=frozenset({1, 3}), path=(0, 3, 4), witness=5)
    ok, clause = validate_equipment(g, frozenset({1, 2, 3, 4, 5}), bad)
    assert ok  # 1 and 3 are nonadjacent, witness 5 clean: actually valid
    bad = Equipment(center=0, independent_neighbors=frozenset({1, 2}), path=(0, 3, 4), witness=3)
    ok, clause = validate_equipment(g, frozenset({1, 2, 3, 4, 5}), bad)
    assert not ok and clause == "witness_off_path"
    bad = Equipment(center=0, independent_neighbors=frozenset({1, 2}), path=(0, 3), witness=5)
    ok, clause = validate_equipment(g, frozenset({1, 2, 3, 4, 5}), bad)
    assert not ok and clause == "path_length_matches_d"


def test_proper_equipment_relations():
    g = equipment_host()
    ground = frozenset({1, 2, 3, 4, 5})
    pe = properly_d_equipped(g, 0, ground, 2)
    assert pe is not None and pe.proper and pe.witness is None
    ok, clause = validate_equipment(g, ground, pe)
    assert ok, clause
    # proper present implies plain present; plain absent implies proper absent
    for i in range(40):
        host = mycielski_tower(3)
        import random as _r

        rng = _r.Random(i)
        verts = sorted(rng.sample(range(host.n), 12))
        sub, _ = induced_subgraph(host, verts)
        center = 0
        ground = frozenset(range(sub.n)) - {center}
        for d in (1, 2):
            plain = d_equipment(sub, center, ground, d)
            proper = properly_d_equipped(sub, center, ground, d)
            if proper is not None:
                assert plain is not None
                ok, clause = validate_equipment(sub, ground, proper)
                assert ok, clause
            if plain is None:
                assert proper is None
            else:
                ok, clause = validate_equipment(sub, ground, plain)
                assert ok, clause


# ------------------------------------------------------------- spires

def spire_fixture():
    # path on five vertices; the canonical spire
    g = path_graph(5)
    return g, Spire(path=(0, 1), a_set=frozenset({1, 2}), b_set=frozenset({3}))


def test_validate_spire_fixture():
    g, s = spire_fixture()
    ok, clause = validate_spire(g, s)
    assert ok, clause
    ok, clause = validate_spire(g, s, dominated=frozenset({4}))
    assert ok, clause
    # dominated set touching A
    ok, clause = validate_spire(g, s, dominated=frozenset({2}))
    assert not ok and clause == "dominated_disjoint"
    # edge from A into the dominated set
    g2 = Graph(5, path_graph(5).edges() + [(2, 4)])
    ok, clause = validate_spire(g2, s, dominated=frozenset({4}))
    assert not ok and clause == "no_edges_a_path_to_dominated"
    # overlapping A and B
    bad = Spire(path=(0, 1), a_set=frozenset({1, 2}), b_set=frozenset({2}))
    ok, clause = validate_spire(g, bad)
    assert not ok and clause == "a_b_disjoint"


def independent_spire_recheck(g, s, dominated):
    """Double-entry bookkeeping: re-verify every clause with direct loops,
    no shared helpers."""
    path, a, b = list(s.path), set(s.a_set), set(s.b_set)
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            if g.has_edge(path[i], path[j]) != (j == i + 1):
                return False
    seen = {min(a)}
    grow = True
    while grow:
        grow = False
        for u in list(seen):
            for v in a:
                if v not in seen and g.has_edge(u, v):
                    seen.add(v)
                    grow = True
    if seen != a:
        return False
    if a & b:
        return False
    for v in b:
        if not any(g.has_edge(v, u) for u in a):
            return False
    if set(path) & b:
        return False
    z_candidates = [v for v in (path[0], path[-1]) if v in a]
    if not z_candidates or set(path) & a != {z_candidates[0]}:
        return False
    z = z_candidates[0]
    for v in path:
        if v == z:
            continue
        for u in (a | b) - {z}:
            if g.has_edge(v, u):
                return False
    if dominated is not None:
        c = set(dominated)
        if c & (a | b | set(path)):
            return False
        for v in c:
            if any(g.has_edge(v, u) for u in a | set(path)):
                return False
            if not any(g.has_edge(v, u) for u in b):
                return False
    return True


def test_find_spire_examples():
    p5 = path_graph(5)
    got = find_spire(p5, 1, 0)
    assert got is not None
    spire, dom = got
    assert validate_spire(p5, spire, dom)[0]
    assert independent_spire_recheck(p5, spire, dom)
    assert find_spire(complete_graph(2), 1, 0) is None


def test_find_spire_grotzsch():
    g = grotzsch()
    got = find_spire(g, 1, 1)
    assert got is not None
    spire, dom = got
    ok, clause = validate_spire(g, spire, dom)
    assert ok, clause
    assert independent_spire_recheck(g, spire, dom)
    assert chi_of(g, dom) >= 2  # the dominated set contains an edge


# graph6 D|o: edges 01 02 03 04 12 14 23, with a spire find_spire misses
D_O = parse_graph6("D|o")
D_O_SPIRE = Spire(path=(3, 2), a_set=frozenset({2}), b_set=frozenset({1}))


def test_d_o_has_a_spire():
    assert validate_spire(D_O, D_O_SPIRE, frozenset({4})) == (True, None)
    assert independent_spire_recheck(D_O, D_O_SPIRE, frozenset({4}))


@pytest.mark.xfail(strict=True, reason="find_spire is a construction, not an exhaustive search (ROADMAP item 3)")
def test_find_spire_finds_an_existing_spire():
    assert find_spire(D_O, 1, 0) is not None


def test_find_spire_closed_loop_seeded():
    found = 0
    for i in range(25):
        g = random_graph(12 + i % 14, "0.22", 70_000 + i)
        got = find_spire(g, 1 + i % 2, 0)
        if got is None:
            continue
        spire, dom = got
        ok, clause = validate_spire(g, spire, dom)
        assert ok, clause
        assert independent_spire_recheck(g, spire, dom)
        found += 1
    assert found >= 10


# ------------------------------------------------------ in-search checks

def test_searchers_check_the_masks_of_what_they_return(monkeypatch):
    """Each searcher hands its clause function exactly the masks of the
    certificate it returns and of its ground set, so the check inside the
    search is as strict as the public validator on that certificate."""
    seen = []
    for name in ("_x_split_clause", "_gyarfas_clause", "_equipment_clause", "_spire_clause"):
        real = getattr(machinery, name)
        monkeypatch.setattr(machinery, name, lambda g, *args, real=real: seen.append(args) or real(g, *args))
    found = set()

    def expect(kind, result, want):
        assert seen == ([] if result is None else [want(result)]), kind
        seen.clear()
        if result is not None:
            found.add(kind)

    hosts = [petersen(), grotzsch(), equipment_host(), path_graph(5)]
    hosts += [random_graph(9 + i % 4, "0.3", 80_000 + i) for i in range(8)]
    for g in hosts:
        def m(s):
            return vertex_mask(g, s)

        x_ground = frozenset({0})
        expect("x_split", find_x_split(g, x_ground, 0), lambda c: (m(x_ground), c.x, c.y, m(c.z_set)))
        ground = frozenset(range(1, g.n))
        for d in (1, 2):
            expect("equipment", d_equipment(g, 0, ground, d),
                   lambda c: (m(ground), 0, m(c.independent_neighbors), c.path, m(c.path[1:]), c.witness, False))
            expect("proper", properly_d_equipped(g, 0, ground, d),
                   lambda c: (m(ground), 0, m(c.independent_neighbors), c.path, m(c.path[1:]), None, True))
        best, best_chi = best_by_chi(g, _component_masks(g, m(ground), g.adjacency_mask(0)))
        for k in range(3):
            if best is not None and best_chi > k * chi_local(g, 1):
                c_set = mask_to_set(best)
                expect("gyarfas", gyarfas_path(g, c_set, 0, k),
                       lambda c: (m(c_set), c.path, m(c.path[1:]), m(c.residue)))
        for d in (1, 2):
            expect("spire", find_spire(g, d, 0),
                   lambda c: (c[0].path, m(c[0].path), m(c[0].a_set), m(c[0].b_set), m(c[1])))
    assert found == {"x_split", "equipment", "proper", "gyarfas", "spire"}


def test_proper_equipment_that_fails_its_check_raises(monkeypatch):
    monkeypatch.setattr(machinery, "_equipment_clause", lambda *args: "injected clause")
    with pytest.raises(AssertionError, match="searcher produced invalid proper equipment: injected clause"):
        properly_d_equipped(equipment_host(), 0, {1, 2, 3, 4, 5}, 2)


# ------------------------------------------------------- centered paths

def test_induced_path_centered():
    p5 = path_graph(5)
    got = induced_path_centered(p5, 2, 2)
    assert got is not None and got[2] == 2 and len(got) == 5
    assert induced_path_centered(cycle_graph(5), 0, 2) is None
    assert induced_path_centered(star_graph(3), 0, 1) is not None
    assert induced_path_centered(petersen(), 0, 2) is not None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=graphs_with_subsets(max_n=9), center=st.integers(0, 8), d=st.integers(1, 3))
def test_equipment_is_the_first_spider_on_both_backends(ckernels, case, center, d):
    """Both equipment searchers return exactly the brute-force oracle's
    witness, the first path that admits a witness or leaves, on either
    kernel backend."""
    g, ground = case
    assume(center < g.n)
    ground -= {center}
    for kernels in (pykernels, ckernels):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "find_embedding", kernels.find_embedding)
            for proper, search in ((False, d_equipment), (True, properly_d_equipped)):
                eq = search(g, center, ground, d)
                got = None if eq is None else (tuple(sorted(eq.independent_neighbors)), eq.path, eq.witness)
                assert got == brute_equipment(g, center, ground, d, proper), (kernels.BACKEND_NAME, proper)


def test_budgeted_equipment_is_the_witness_or_a_budget_stop():
    """Every budget up to the first that suffices either stops the search or
    gives the unbudgeted answer; a centre whose neighbourhood is a K4 has
    no independent 2-set, and a budget of 1 stops before saying so."""
    ran = 0
    for g in (petersen(), grotzsch(), equipment_host(), mycielski_tower(3), complete_graph(5)):
        ground = frozenset(range(1, g.n))
        for d in (1, 2, 3):
            for search in (d_equipment, properly_d_equipped):
                want = search(g, 0, ground, d)
                for budget in range(1, 10_000):
                    try:
                        got = search(g, 0, ground, d, node_budget=budget)
                    except SearchBudgetExceeded:
                        ran += 1
                        continue
                    assert got == want, (g, d, search.__name__, budget)
                    break
                else:
                    raise AssertionError("no budget below 10,000 suffices")
    assert ran > 0
    assert d_equipment(complete_graph(5), 0, {1, 2, 3, 4}, 2) is None
    with pytest.raises(SearchBudgetExceeded):
        d_equipment(complete_graph(5), 0, {1, 2, 3, 4}, 2, node_budget=1)


@pytest.mark.parametrize("value", [1.5, 2.0, True, 0, -1], ids=repr)
def test_entry_points_reject_bad_d_and_r(value):
    g = petersen()
    calls = [
        ("d", lambda: d_equipment(g, 0, range(1, 10), value)),
        ("d", lambda: properly_d_equipped(g, 0, range(1, 10), value)),
        ("r", lambda: induced_path_centered(g, 0, value)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"{name} must be a positive integer, got"):
            call()


_PETERSEN = petersen()
# (parameter name, lowest accepted value, a call with that parameter set)
# for every entry that takes an integer argument through errors._check_int
INTEGER_ARGUMENTS = [
    ("k", 1, lambda v: is_k_colorable(_PETERSEN, v)),
    ("radius", 1, lambda v: chi_local(_PETERSEN, v)),
    ("k", 0, lambda v: gyarfas_path(_PETERSEN, range(1, 10), 0, v)),
    ("d", 1, lambda v: find_spire(_PETERSEN, v, 0)),
    ("k", 1, lambda v: broom(v, 1)),
    ("d", 1, lambda v: bristle(1, v)),
    ("d", 1, superstar_order),
    ("path_len", 1, lambda v: two_legged_caterpillar(v, 0, 0)),
    ("p1", 0, lambda v: two_legged_caterpillar(2, v, 0)),
    ("p2", 0, lambda v: two_legged_caterpillar(2, 0, v)),
    ("a", 1, lambda v: double_broom(v, 1, 1)),
    ("k", 1, lambda v: double_broom(1, v, 1)),
    ("b", 1, lambda v: double_broom(1, 1, v)),
    ("length", 0, path_tree),
    ("n", 0, complete_graph),
    ("n", 0, path_graph),
    ("n", 3, cycle_graph),
    ("leaves", 0, star_graph),
    ("t", 0, mycielski_tower),
    ("k", 1, lambda v: kneser(5, v)),
    ("n", 2, shift_graph),
    ("n", 0, lambda v: random_graph(v, "0.5", 1)),
    ("seed", 0, lambda v: random_graph(3, "0.5", v)),
    ("vertex count", 0, Graph),
    ("radius", 0, lambda v: neighborhood(_PETERSEN, 0, v)),
    ("k", 2, lambda v: check_counterexample_params("split-pairs", v)),
    ("k", 2, critical_base),
    ("s", 1, lambda v: ramsey_bound(v, 2)),
    ("t", 1, lambda v: ramsey_bound(2, v)),
    ("parameter k", 1, lambda v: lemma_threshold("T3.1", {"k": v, "d": 1, "tau": 1})),
]


@pytest.mark.parametrize(
    "name, low, call", INTEGER_ARGUMENTS, ids=[f"{i:02d}-{name}" for i, (name, _, _) in enumerate(INTEGER_ARGUMENTS)]
)
def test_integer_arguments_refuse_floats_bools_and_low_values(name, low, call):
    """One rule for every integer argument: a float, a bool or a value
    below the entry's lowest is a ValueError naming the parameter, never a
    silent answer such as an empty neighborhood of radius 1.5, a Graph
    whose n is True or a null star graph with -1 leaves."""
    call(low)
    for value in (1.5, True, low - 1):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(value)


@pytest.mark.parametrize("min_chi", [-1, -5, 1.5, True], ids=repr)
def test_entry_points_reject_bad_min_chi(min_chi):
    g = petersen()
    for call in (lambda: find_x_split(g, {0}, min_chi), lambda: find_spire(g, 1, min_chi)):
        with pytest.raises(ValueError, match="min_chi must be a non-negative integer"):
            call()


@pytest.mark.parametrize("budget", [0, -3, 2.5, True], ids=repr)
def test_entry_points_reject_bad_budgets(budget):
    g = petersen()
    calls = [
        lambda: best_by_chi(g, [1, 3], budget),
        lambda: find_x_split(g, {0}, 0, node_budget=budget),
        lambda: find_spire(g, 1, 0, node_budget=budget),
        lambda: d_equipment(g, 0, range(1, 10), 1, node_budget=budget),
        lambda: properly_d_equipped(g, 0, range(1, 10), 1, node_budget=budget),
        lambda: induced_path_centered(g, 0, 1, node_budget=budget),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="node_budget must be a positive integer or null"):
            call()
