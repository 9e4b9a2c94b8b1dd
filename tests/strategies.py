"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from chibound.graphs import Graph


@st.composite
def graphs_with_subsets(draw, max_n=14):
    """A random graph on at most max_n vertices and a random vertex subset,
    possibly empty."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    subset = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    g = Graph(n, [e for e, k in zip(pairs, keep) if k])
    return g, frozenset(v for v, k in zip(range(n), subset) if k)
