import time

import pytest

from oracles import brute_count_induced

from chibound.embed import (
    count_induced_embeddings,
    find_induced_embedding,
    is_kd_starry,
    verify_embedding,
)
from chibound.errors import SearchBudgetExceeded
from chibound.generators import complete_graph, cycle_graph, path_graph, petersen, random_graph
from chibound.graphs import Graph, induced_subgraph
from chibound.trees import binary_star, bristled_star, broom


def test_presence_examples():
    c5 = cycle_graph(5)
    emb = find_induced_embedding(c5, path_graph(4))
    assert emb is not None and verify_embedding(c5, path_graph(4), emb)
    assert find_induced_embedding(complete_graph(4), path_graph(3)) is None


def test_count_examples():
    c5 = cycle_graph(5)
    assert count_induced_embeddings(c5, Graph(1)) == 5
    assert count_induced_embeddings(c5, complete_graph(2)) == 2 * c5.edge_count
    assert count_induced_embeddings(c5, path_graph(3)) == 10
    assert count_induced_embeddings(c5, path_graph(3)) == brute_count_induced(c5, path_graph(3))


def test_anchored_search():
    pg = petersen()
    b = broom(1, 2)
    for v in range(10):
        emb = find_induced_embedding(pg, b.graph, anchor=(b.root, v))
        assert emb is not None
        assert emb.mapping[b.root] == v
        assert verify_embedding(pg, b.graph, emb)
    with pytest.raises(ValueError):
        find_induced_embedding(pg, b.graph, anchor=(99, 0))
    with pytest.raises(ValueError):
        find_induced_embedding(pg, b.graph, anchor=(0, 99))


def test_anchored_absence_is_anchor_specific():
    # a path end anchors everywhere on a cycle, a high-degree root does not
    c6 = cycle_graph(6)
    b = broom(1, 2)  # needs a degree-3 vertex at position 1
    for v in range(6):
        assert find_induced_embedding(c6, b.graph, anchor=(b.root, v)) is None
    assert find_induced_embedding(c6, b.graph) is None


def test_presence_matches_count_seeded():
    disagreements = 0
    for i in range(250):
        pattern = random_graph(2 + i % 5, "0.5", 10_000 + i)
        host = random_graph(5 + i % 6, "0.45", 20_000 + i)
        emb = find_induced_embedding(host, pattern)
        cnt = count_induced_embeddings(host, pattern)
        if (emb is not None) != (cnt > 0):
            disagreements += 1
        if emb is not None:
            assert verify_embedding(host, pattern, emb)
        if host.n <= 8 and pattern.n <= 4:
            assert cnt == brute_count_induced(host, pattern)
    assert disagreements == 0


def test_monotone_under_host_extension():
    for i in range(40):
        host = random_graph(9, "0.4", 777 + i)
        sub, old = induced_subgraph(host, range(6))
        pattern = random_graph(4, "0.5", 888 + i)
        inner = find_induced_embedding(sub, pattern)
        if inner is not None:
            lifted = tuple(old[h] for h in inner.mapping)
            outer = find_induced_embedding(host, pattern)
            assert outer is not None
            # the lifted inner embedding itself must verify in the big host
            from chibound.embed import Embedding

            assert verify_embedding(host, pattern, Embedding(mapping=lifted))


def test_starry_examples():
    assert is_kd_starry(cycle_graph(7), 1, 1) is None
    both = Graph(
        binary_star(1, 1).n + bristled_star(1, 1).n,
        binary_star(1, 1).edges()
        + [(u + 4, v + 4) for u, v in bristled_star(1, 1).edges()],
    )
    cert = is_kd_starry(both, 1, 1)
    assert cert is not None
    assert verify_embedding(both, binary_star(1, 1), cert.binary_embedding)
    assert verify_embedding(both, bristled_star(1, 1), cert.bristled_embedding)
    assert is_kd_starry(petersen(), 1, 1) is not None
    with pytest.raises(ValueError):
        is_kd_starry(petersen(), 0, 1)


def test_starry_patterns_larger_than_the_host_are_not_built():
    start = time.perf_counter()
    assert is_kd_starry(petersen(), 1, 10**4) is None
    assert time.perf_counter() - start < 0.2
    # binary_star(1, 1) fits itself and bristled_star(1, 1) does not; the
    # binary search still runs first, so its budget still counts
    host = binary_star(1, 1)
    assert is_kd_starry(host, 1, 1) is None
    with pytest.raises(SearchBudgetExceeded):
        is_kd_starry(host, 1, 1, node_budget=1)
    with pytest.raises(ValueError, match="node_budget must be a positive integer or null"):
        is_kd_starry(petersen(), 1, 10**4, node_budget=0)


def test_budget_is_indeterminate_not_absent():
    host = random_graph(12, "0.5", 31337)
    pattern = path_graph(5)
    with pytest.raises(SearchBudgetExceeded):
        find_induced_embedding(host, pattern, node_budget=1)
    with pytest.raises(SearchBudgetExceeded):
        count_induced_embeddings(host, pattern, node_budget=1)


@pytest.mark.parametrize("budget", [0, -3, 2.5, True], ids=repr)
def test_entry_points_reject_bad_budgets(budget):
    host, pattern = petersen(), path_graph(3)
    calls = [
        lambda: find_induced_embedding(host, pattern, node_budget=budget),
        lambda: find_induced_embedding(host, Graph(0), node_budget=budget),
        lambda: count_induced_embeddings(host, pattern, node_budget=budget),
        lambda: is_kd_starry(host, 1, 1, node_budget=budget),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="node_budget must be a positive integer or null"):
            call()


def test_disconnected_pattern():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    c6 = cycle_graph(6)
    emb = find_induced_embedding(c6, two_edges)
    assert emb is not None and verify_embedding(c6, two_edges, emb)
    assert count_induced_embeddings(complete_graph(4), two_edges) == 0
