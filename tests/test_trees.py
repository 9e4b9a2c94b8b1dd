import pytest

from chibound import trees
from chibound.embed import find_induced_embedding, is_kd_starry
from chibound.generators import path_graph, petersen, star_graph
from chibound.graphs import components
from chibound.trees import (
    RootedTree,
    binary_star,
    bristle,
    bristled_star,
    broom,
    double_broom,
    path_tree,
    rooted_sum,
    superstar,
    two_legged_caterpillar,
)


def is_tree(g):
    return g.edge_count == g.n - 1 and len(components(g)) == 1


def isomorphic(a, b):
    # equal-size induced embedding is exactly an isomorphism
    return a.n == b.n and find_induced_embedding(b, a) is not None


def degree_profile(g):
    return sorted(g.degree(v) for v in range(g.n))


def test_superstar():
    t = superstar(1)
    assert t.graph.n == 2 and t.graph.edge_count == 1
    assert superstar(2).graph == path_graph(5) or superstar(2).graph.n == 5
    t3 = superstar(3)
    assert t3.graph.n == 10 and t3.graph.degree(t3.root) == 3
    assert is_tree(t3.graph)
    with pytest.raises(ValueError):
        superstar(0)


def test_superstar_2_is_path_rooted_center():
    t = superstar(2)
    assert t.graph.n == 5 and degree_profile(t.graph) == [1, 1, 2, 2, 2]
    assert t.graph.degree(t.root) == 2


def test_broom():
    assert broom(1, 1).graph.n == 3
    b = broom(2, 3)
    assert b.graph.n == 6 and max(degree_profile(b.graph)) == 4
    # (1,2): a 3-leaf star rooted at one leaf
    b12 = broom(1, 2)
    assert b12.graph.n == 4 and degree_profile(b12.graph) == [1, 1, 1, 3]
    assert b12.graph.degree(b12.root) == 1
    assert is_tree(b.graph)
    with pytest.raises(ValueError):
        broom(0, 1)


def test_bristle():
    b = bristle(1, 1)
    assert b.graph.n == 4 and degree_profile(b.graph) == [1, 1, 1, 3]
    assert bristle(2, 1).graph.n == 5
    assert bristle(2, 2).graph.n == 6
    assert is_tree(bristle(3, 2).graph)


def test_binary_star():
    assert isomorphic(binary_star(1, 1), path_graph(4))
    assert binary_star(3, 2).n == 10
    g = binary_star(2, 2)
    assert g.n == 9 and degree_profile(g).count(3) == 2
    assert is_tree(g)


def test_bristled_star():
    g = bristled_star(1, 1)
    assert g.n == 5 and degree_profile(g) == [1, 1, 1, 2, 3]
    assert bristled_star(3, 2).n == 11
    assert bristled_star(1, 2).n == 9
    assert is_tree(bristled_star(2, 3))


def test_two_legged_caterpillar():
    g = two_legged_caterpillar(5, 2, 3)
    assert g.n == 8 and degree_profile(g) == [1, 1, 1, 1, 2, 2, 3, 3]
    assert isomorphic(two_legged_caterpillar(1, 0, 1), path_graph(4))
    both_same = two_legged_caterpillar(2, 1, 1)
    assert isomorphic(both_same, star_graph(4))
    with pytest.raises(ValueError):
        two_legged_caterpillar(2, 0, 3)


def test_double_broom():
    g = double_broom(2, 5, 2)
    assert g.n == 10 and degree_profile(g).count(3) == 2
    assert isomorphic(double_broom(1, 1, 1), path_graph(4))
    degenerate = double_broom(3, 2, 1)
    b = broom(3, 3).graph
    assert sorted(degree_profile(degenerate)) == sorted(degree_profile(b))
    assert is_tree(g)


def test_rooted_sum():
    single = rooted_sum([broom(1, 1)])
    assert single.graph.n == 3
    two = rooted_sum([broom(1, 1), broom(1, 1)])
    assert two.graph.n == 5 and two.graph.degree(two.root) == 2
    star = rooted_sum([path_tree(1) for _ in range(4)])
    assert isomorphic(star.graph, star_graph(4)) and star.root == 0
    with pytest.raises(ValueError):
        rooted_sum([])


def test_rooted_tree_rejects_non_trees():
    from chibound.graphs import Graph

    with pytest.raises(ValueError):
        RootedTree(Graph(3, [(0, 1), (1, 2), (0, 2)]), 0)
    with pytest.raises(ValueError):
        RootedTree(Graph(4, [(0, 1), (2, 3)]), 0)


def test_star_patterns_are_rooted_sums():
    """A binary star is the rooted sum of d bare paths and a broom; a
    bristled star swaps the broom for a bristle. Checked by isomorphism
    via induced embedding both ways on equal vertex counts."""
    for k, d in ((1, 1), (2, 2), (1, 3), (3, 2)):
        legs = [path_tree(d) for _ in range(d)]
        combo = rooted_sum(legs + [broom(k, d)]).graph
        target = binary_star(k, d)
        assert combo.n == target.n
        assert find_induced_embedding(target, combo) is not None
        combo = rooted_sum(legs + [bristle(k, d)]).graph
        target = bristled_star(k, d)
        assert combo.n == target.n
        assert find_induced_embedding(target, combo) is not None


def test_caterpillars_embed_in_bristled_stars():
    cases = [
        (two_legged_caterpillar(3, 1, 2), None),
        (two_legged_caterpillar(4, 2, 2), None),
        (two_legged_caterpillar(5, 2, 3), None),
    ]
    for cat, _ in cases:
        found = False
        for k in range(1, 5):
            for d in range(1, 5):
                host = bristled_star(k, d)
                if host.n >= cat.n and find_induced_embedding(host, cat) is not None:
                    found = True
                    break
            if found:
                break
        assert found, f"caterpillar on {cat.n} vertices fits no small bristled star"


def test_double_brooms_embed_in_binary_stars():
    for a, k, b in ((1, 1, 1), (2, 2, 2), (3, 2, 1), (2, 4, 3)):
        cat = double_broom(a, k, b)
        host = binary_star(k, max(a, b))
        assert find_induced_embedding(host, cat) is not None


@pytest.mark.parametrize("bad", [1.0, True], ids=repr)
def test_star_patterns_refuse_non_ints_on_cold_and_warm_caches(bad):
    """1, 1.0 and True are one lru_cache key, so each builder must refuse
    a float or a bool before its cache, or the cached pattern of 1 comes
    back (and a starriness certificate carries k = true)."""
    host = petersen()
    calls = [
        lambda v: binary_star(v, 2),
        lambda v: binary_star(2, v),
        lambda v: bristled_star(v, 2),
        lambda v: bristled_star(2, v),
        superstar,
        path_tree,
        lambda v: is_kd_starry(host, v, 1),
        lambda v: is_kd_starry(host, 1, v),
    ]
    for call in calls:
        for cache in (trees._spider, trees._binary_star, trees._bristled_star):
            cache.cache_clear()
        with pytest.raises(ValueError, match="must be a"):
            call(bad)
        call(1)
        with pytest.raises(ValueError, match="must be a"):
            call(bad)
