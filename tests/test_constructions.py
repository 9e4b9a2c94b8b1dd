import hashlib
from fractions import Fraction
from itertools import combinations, product

import pytest

from oracles import all_graphs, brute_chromatic, brute_extensions, has_triangle

from chibound.coloring import chromatic_number, clique_number, is_vertex_critical
from chibound.counterexamples import (
    GadgetSpec,
    attach_gadget,
    build_counterexample,
    critical_base,
)
from chibound.errors import ConstructionError, ConstructionRefuted
from chibound.generators import (
    complete_graph,
    cycle_graph,
    grotzsch,
    kneser,
    mycielski,
    mycielski_tower,
    path_graph,
    random_graph,
    shift_graph,
)
from chibound.graphio import write_graph6
from chibound.graphs import Graph, bits, components
from chibound.machinery import d_equipment, induced_path_centered, properly_d_equipped


def test_mycielski_k2_gives_five_cycle():
    m = mycielski(complete_graph(2))
    assert m.n == 5 and m.edge_count == 5
    assert all(m.degree(v) == 2 for v in range(5)) and len(components(m)) == 1


def test_mycielski_grotzsch_counts():
    g = grotzsch()
    assert g.n == 11 and g.edge_count == 20
    assert chromatic_number(g)[0] == 4
    assert clique_number(g)[0] == 2
    assert is_vertex_critical(g)


def test_mycielski_edgeless():
    m = mycielski(Graph(3))
    assert chromatic_number(m)[0] == 2  # apex over shadows, originals isolated
    assert chromatic_number(mycielski(Graph(0)))[0] == 1


def test_mycielski_raises_chi_by_one_and_keeps_triangles_out():
    for seed in range(8):
        g = random_graph(6, "0.35", 90_000 + seed)
        m = mycielski(g)
        assert chromatic_number(m)[0] == chromatic_number(g)[0] + (1 if g.n else 1)
    t = complete_graph(2)
    for _ in range(3):
        t = mycielski(t)
        assert not has_triangle(t)


def test_mycielski_tower_chis():
    for t in range(0, 4):
        g = mycielski_tower(t)
        assert chromatic_number(g)[0] == t + 2
        assert clique_number(g)[0] == 2


def test_kneser_petersen():
    pg = kneser(5, 2)
    assert pg.n == 10 and pg.edge_count == 15
    assert all(pg.degree(v) == 3 for v in range(10))
    assert not has_triangle(pg)
    with pytest.raises(ValueError):
        kneser(3, 2)


def test_shift_graph():
    g = shift_graph(4)
    assert g.n == 6
    assert brute_chromatic(g) == 2 and chromatic_number(g)[0] == 2
    assert chromatic_number(shift_graph(8))[0] == 3
    assert not has_triangle(shift_graph(6))
    with pytest.raises(ValueError):
        shift_graph(1)


def test_random_graph_determinism():
    a = random_graph(10, "0.5", 12345)
    b = random_graph(10, "0.5", 12345)
    assert a == b
    assert random_graph(10, "0.5", 12346) != a
    assert random_graph(8, 0, 7) == Graph(8)
    assert random_graph(5, 1, 7) == complete_graph(5)
    # frozen fingerprint guards cross-platform reproducibility
    assert hashlib.sha256(write_graph6(a).encode()).hexdigest().startswith("18074173")


# (n, p, seed, edge count, sha256 of repr(edges()))
PINNED_RANDOM_GRAPHS = [
    (12, "0", 1, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (12, "1", 2, 66, "af6e1a7421507c86a19234b9173bd6c910161954806b74de96d26f5cd6b3841a"),
    (30, "1/3", 3, 143, "c74e8257f37587d179ad2f0ece7c4899f6edbe9b08780756c5b02c06fcd0a0fd"),
    (25, 0.3, 4, 99, "f2f5d8526af88aeafa2ca2eaa4ea9c191c9172b7d07a143ee835f4227849d51e"),
    (17, Fraction(2, 7), 5, 40, "32d6a2f0c67528d7ce16c0f66b9b13676c0f10dbb8f6d32b1c43bdd201e54502"),
    # the shapes e2ebench draws: a chi_hard graph and a survey graph
    (40, "0.5", 7919 * 40 + 3, 373, "609719d15f65ea225ba341bed846cfcd85fb8cd20dcb0458ad006412667f2637"),
    (32, "0.15", 1000 * 32 + 5, 72, "9c267c5b0e920451a3c00104d855d92108da334e4cdfe98157c3e7923c9cc8d0"),
    (70, "0.08", 6100, 174, "7f6b14eee7f5b3b0e0d924cb4e2697d8102d0a3af4067fb0ce46e0e3b658bc10"),
    (9, 1, 2 ** 64 - 1, 36, "0f1330faca56862fb012ebbae6890b45206b45d288facd46cd4e1add6a80e5ae"),
]


def test_random_graph_is_pinned():
    """Every recorded report and e2ebench answer depends on these graphs
    bit for bit, so a change to how random_graph draws must keep them."""
    for n, p, seed, edge_count, digest in PINNED_RANDOM_GRAPHS:
        edges = random_graph(n, p, seed).edges()
        assert len(edges) == edge_count, (n, p, seed)
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest, (n, p, seed)


def test_critical_base_k2():
    h, i_set = critical_base(2)
    assert h.n == 4 and h.edge_count == 3
    assert sorted(i_set) == [0, 3]  # endpoints of the path
    colorings = list(brute_extensions(h, {}, range(h.n), 2))
    assert len(colorings) == 2
    for col in colorings:
        assert {col[v] for v in i_set} == {1, 2}


def test_critical_base_k3():
    h, i_set = critical_base(3)
    assert h.n == 10 and len(i_set) == 5
    for col in brute_extensions(h, {}, range(h.n), 3):
        assert len({col[v] for v in i_set}) == 3


def test_critical_base_rejects_bad_bases():
    with pytest.raises(ConstructionError) as e:
        critical_base(2, base=complete_graph(3))
    assert e.value.prop == "triangle-free"
    with pytest.raises(ConstructionError) as e:
        critical_base(2, base=path_graph(4))
    assert e.value.prop == "chromatic-number"
    with pytest.raises(ConstructionError) as e:
        critical_base(3, base=Graph(12, cycle_graph(11).edges()))
    assert e.value.prop in ("chromatic-number", "vertex-critical")


BASE_CHECKS = {"triangle-free", "chromatic-number", "vertex-critical"}


def _assert_base_facts(h, i_set, k):
    """What the gadgets use of (h, i_set), checked by brute force."""
    assert brute_chromatic(h) == k
    assert not any(h.has_edge(a, b) for a, b in combinations(i_set, 2))
    assert not has_triangle(h)
    assert len(i_set) >= k
    for col in brute_extensions(h, {}, range(h.n), k):
        assert {col[v] for v in i_set} == set(range(1, k + 1)), col


def test_critical_base_checks_imply_the_rest():
    """critical_base checks only that g is triangle-free, (k+1)-chromatic
    and vertex-critical. Whatever it accepts, among every labeled graph on
    at most 6 vertices and the default bases, has the facts those imply;
    whatever it refuses fails one of those three checks."""
    accepted = 0
    for k in (2, 3):
        for n in range(7):
            for g in all_graphs(n):
                try:
                    h, i_set = critical_base(k, g)
                except ConstructionError as e:
                    assert e.prop in BASE_CHECKS, (k, g.edges(), e.prop)
                    continue
                accepted += 1
                _assert_base_facts(h, i_set, k)
        _assert_base_facts(*critical_base(k), k)
    assert accepted == 12  # the labeled five-cycles


def test_attach_gadget_split_pairs_shape():
    # k=2 over a single chosen vertex: a1, b1 wired to s, a2, b2 bare,
    # cross edges a1-b2 and b1-a2 when the range reaches k
    g = path_graph(4)
    spec = GadgetSpec(variant="split-pairs", k=2, s_list=(0,), cross_range=2)
    big, special = attach_gadget(g, spec)
    a1, b1, a2, b2 = 4, 5, 6, 7
    assert special == 8 and big.n == 9
    assert big.has_edge(a1, 0) and big.has_edge(b1, 0)
    assert not big.has_edge(a2, 0) and not big.has_edge(b2, 0)
    assert big.has_edge(a1, b2) and big.has_edge(b1, a2)
    assert not big.has_edge(a1, b1) and not big.has_edge(a2, b2)
    assert all(big.has_edge(special, v) for v in (a1, b1, a2, b2))
    narrow = GadgetSpec(variant="split-pairs", k=2, s_list=(0,), cross_range=1)
    big2, _ = attach_gadget(g, narrow)
    assert not big2.has_edge(a1, b2) and not big2.has_edge(b1, a2)


def test_attach_gadget_single_row_shape():
    g = Graph(5)
    spec = GadgetSpec(variant="single-row", k=3, s_list=(0, 1, 2))
    big, special = attach_gadget(g, spec)
    a = [5, 6, 7]
    assert special == 8
    for i, ai in enumerate(a):
        for j, s in enumerate((0, 1, 2)):
            assert big.has_edge(ai, s) == (i != j)
        assert big.has_edge(special, ai)


def test_gadget_spec_validation():
    with pytest.raises(ValueError):
        GadgetSpec(variant="split-pairs", k=2, s_list=(0, 1), cross_range=2)
    with pytest.raises(ValueError):
        GadgetSpec(variant="split-pairs", k=2, s_list=(0,), cross_range=0)
    with pytest.raises(ValueError):
        GadgetSpec(variant="single-row", k=2, s_list=(0, 1), cross_range=2)
    with pytest.raises(ValueError):
        GadgetSpec(variant="nope", k=2, s_list=(0,))


def test_gadget_extension_property():
    """Every assignment of at most k colors to the chosen vertices extends
    to a proper coloring of the gadget minus its special vertex."""
    h, _ = critical_base(2)
    h3, i3 = critical_base(3)
    s3 = tuple(sorted(i3))
    cases = [(h, GadgetSpec(variant="split-pairs", k=2, s_list=c, cross_range=2)) for c in [(0,), (3,)]]
    cases.append((h3, GadgetSpec(variant="split-pairs", k=3, s_list=s3[:2], cross_range=3)))
    cases.append((h3, GadgetSpec(variant="single-row", k=3, s_list=s3[:3])))
    for base, spec in cases:
        big, special = attach_gadget(base, spec)
        free = [v for v in range(base.n, big.n) if v != special]
        for assignment in product(range(1, spec.k + 1), repeat=len(spec.s_list)):
            fixed = dict(zip(spec.s_list, assignment))
            assert next(brute_extensions(big, fixed, free, spec.k), None) is not None, (spec, fixed)


def test_single_row_rainbow_forcing():
    """When the chosen vertices get pairwise distinct colors, every proper
    extension pushes all k colors onto the special vertex's neighborhood."""
    for k in (2, 3):
        h, i_set = critical_base(k)
        chosen = tuple(sorted(i_set))[:k]
        spec = GadgetSpec(variant="single-row", k=k, s_list=chosen)
        big, special = attach_gadget(h, spec)
        a = [v for v in bits(big.adjacency_mask(special))]
        free = [v for v in range(h.n, big.n) if v != special]
        for assignment in product(range(1, k + 1), repeat=k):
            if len(set(assignment)) != k:
                continue
            fixed = dict(zip(chosen, assignment))
            extensions = list(brute_extensions(big, fixed, free, k))
            assert extensions
            for ext in extensions:
                assert {ext[v] for v in a} == set(range(1, k + 1))


def test_build_counterexample_k2():
    res = build_counterexample("split-pairs", 2)
    assert res.chi_before == 2 and res.chi_after == 3
    assert res.verification["chi_after_exact"]
    assert res.verification["chi_drops_without_special"]
    assert induced_path_centered(res.graph, res.special_vertex, 2) is None
    out = res.to_json_dict()
    assert out["graph6"] and out["gadgets_added"]


def test_build_counterexample_refutes_each_k_once(spy_k_color):
    """The stopping rule refutes k-colouring of the final graph with
    is_k_colorable, then takes chromatic_number of the same graph. The kept
    refutation starts that sweep at k + 1. Re-refuting k (and the clique
    bound 2 below it) took 34 k_color tries for split-pairs k = 3, and
    colouring the base minus a vertex again in critical_base 32. A try is
    one k of a k_color call's sweep."""
    calls = []
    spy_k_color(lambda adj, k: calls.append((tuple(adj), k)))
    res = build_counterexample("split-pairs", 3)
    final = res.graph.adjacency_masks()
    assert [k for adj, k in calls if adj == final] == [3, 4]
    assert len(calls) == 30


def test_build_counterexample_k2_verbatim_range_refutes():
    with pytest.raises(ConstructionRefuted) as e:
        build_counterexample("split-pairs", 2, cross_range=1)
    assert len(e.value.log) == 2  # both gadgets attached, chi never rose


def test_build_counterexample_single_row_k2():
    res = build_counterexample("single-row", 2)
    v = res.special_vertex
    ground = frozenset(range(res.graph.n)) - {v}
    assert properly_d_equipped(res.graph, v, ground, 2) is None
    assert d_equipment(res.graph, v, ground, 2) is not None


def test_build_counterexample_validates_arguments():
    with pytest.raises(ValueError):
        build_counterexample("split-pairs", 2, cross_range=5)
    with pytest.raises(ValueError):
        build_counterexample("single-row", 2, cross_range=1)
    with pytest.raises(ValueError):
        build_counterexample("spiral", 2)
    for k in ("2", 2.0, 1, True):
        with pytest.raises(ValueError, match="k must be an integer of at least 2"):
            build_counterexample("split-pairs", k)
