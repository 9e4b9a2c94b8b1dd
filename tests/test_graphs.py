import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_components, brute_distances, reference_parse_graph6, reference_write_graph6
from strategies import graphs_with_subsets

from chibound.embed import Embedding, _bfs_dist, find_induced_embedding, verify_embedding
from chibound.errors import GraphParseError
from chibound.generators import complete_graph, cycle_graph, path_graph, petersen, random_graph, star_graph
from chibound.graphs import (
    Graph,
    _component_masks,
    components,
    covers,
    distance,
    induced_subgraph,
    is_connected,
    layers,
    mask_to_set,
    neighborhood,
    vertex_mask,
)
from chibound.graphio import (
    _g6_parse_size,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    write_edge_list,
    write_graph,
    write_graph6,
)
from chibound.machinery import d_equipment, gyarfas_path, induced_path_centered
from chibound.trees import RootedTree


def test_graph_invariants():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.edge_count == 2
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_parse_edge_list():
    g = parse_edge_list("3\n0 1\n1 2")
    assert g == path_graph(3)
    assert parse_edge_list("1\n") == Graph(1)
    assert parse_edge_list("  \n4\n\n0 3\n") == Graph(4, [(0, 3)])


def test_parse_edge_list_errors():
    with pytest.raises(GraphParseError) as e:
        parse_edge_list("x\n0 1")
    assert e.value.line == 1
    with pytest.raises(GraphParseError) as e:
        parse_edge_list("3\n0 1\n1 5")
    assert e.value.line == 3
    with pytest.raises(GraphParseError):
        parse_edge_list("3\n0 1 2")
    with pytest.raises(GraphParseError):
        parse_edge_list("2\n1 1")
    with pytest.raises(GraphParseError):
        parse_edge_list("")


def test_graph6_k2():
    k2 = complete_graph(2)
    assert write_graph6(k2) == "A_"
    assert parse_graph6("A_") == k2


def test_graph6_roundtrip_seeded():
    for seed in range(40):
        g = random_graph(seed % 13, "0.4", seed)
        assert parse_graph6(write_graph6(g)) == g
    big = random_graph(100, "0.1", 5)
    assert parse_graph6(write_graph6(big)) == big


def test_graph6_cross_check_reference_codec():
    nx = pytest.importorskip("networkx")
    for seed in range(60):
        g = random_graph(3 + seed % 40, "0.35", 1000 + seed)
        ours = write_graph6(g)
        gx = nx.from_graph6_bytes(ours.encode())
        assert {tuple(sorted(e)) for e in gx.edges()} == set(g.edges())
        theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert parse_graph6(theirs) == g


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(("0", "0.1", "0.5", "0.9", "1")), st.integers(0, 10**6))
def test_graph6_writer_matches_the_reference(p, seed):
    """The column-at-a-time writer gives the bytes of the bit-at-a-time
    one, and they parse back, on every n up to 70: the size prefix grows
    from one byte to four between n = 62 and 63."""
    for n in range(71):
        g = random_graph(n, p, seed + n)
        line = write_graph6(g)
        assert line == reference_write_graph6(g), n
        assert parse_graph6(line) == g, n


def _parse_outcome(parse, text):
    """The graph parse reads from text, or its GraphParseError as (message,
    line, offset)."""
    try:
        return parse(text)
    except GraphParseError as e:
        return e.args[0], e.line, e.offset


# hand-picked malformed graph6: empty, short and long bodies, bad data
# bytes, stray padding, non-minimal and truncated prefixes, non-ASCII text
G6_MALFORMED = (
    "", "D", "A_~", "A~", "A" + chr(127), "A" + chr(62), "D?" + chr(127), "D" + chr(127) + chr(62),
    "B~", "Bo", "C~~", "~??", "~~?????", chr(127), "~~" + "?" * 6, "~?@", "~??~" + "?" * 3,
    "é", "Aé", "A_\nA_", "\n", "  A_  ",
)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(("0", "0.1", "0.5", "0.9", "1")), st.integers(0, 10**6))
def test_graph6_reader_matches_the_reference(p, seed):
    """The column-slicing reader gives what the pair-by-pair one gave, on
    the lines of every n up to 70, their truncations and one-byte
    corruptions, the hand-picked malformed strings and random short
    strings of bytes 60..129: the same graph, or a GraphParseError with
    the same message, line and offset."""
    rng = random.Random(seed)
    texts = list(G6_MALFORMED)
    for n in range(71):
        line = write_graph6(random_graph(n, p, seed + n))
        at = rng.randrange(len(line))
        texts += [line, line[:-1], line + "?", line[:at] + chr(rng.randrange(60, 130)) + line[at + 1:]]
    texts += ["".join(chr(rng.randrange(60, 130)) for _ in range(rng.randrange(8))) for _ in range(200)]
    for text in texts:
        assert _parse_outcome(parse_graph6, text) == _parse_outcome(reference_parse_graph6, text), repr(text)


def test_graph6_errors():
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError):
        parse_graph6("D")  # n=5 needs data bytes
    with pytest.raises(GraphParseError):
        parse_graph6("A_~")  # trailing junk
    # nonzero padding bits for K2: "A" + char with stray low bits
    with pytest.raises(GraphParseError):
        parse_graph6("A" + chr(63 + 0b111111))
    # non-minimal size prefix for a small graph
    with pytest.raises(GraphParseError):
        parse_graph6(chr(126) + chr(63) + chr(63) + chr(65) + "_")
    for bad in ("~??", "~~?????", chr(127), "~~" + chr(63) * 6):  # truncated, byte 127, non-minimal
        with pytest.raises(GraphParseError):
            parse_graph6(bad)
    # a non-ASCII character is refused where it stands, not read as "?"
    for bad, offset in (("é", 0), ("Aé", 1)):
        with pytest.raises(GraphParseError, match=f"non-ASCII character 'é' in graph6 text \\(line 1, offset {offset}\\)"):
            parse_graph6(bad)
    # the smallest size that needs the 8-byte prefix
    assert _g6_parse_size(b"~~" + bytes([63, 63, 63, 63 + 63, 63, 63]) + b"xyz") == (258048, 8)


def test_parse_graph_graph6_errors_name_the_file_line():
    with pytest.raises(GraphParseError) as e:
        parse_graph("\n\n~?", "graph6")
    assert (e.value.line, e.value.offset) == (3, 0)
    assert str(e.value) == "invalid or non-minimal graph6 size prefix b'~?' (line 3, offset 0)"
    # a graph file holds one graph: a second non-blank line is refused
    with pytest.raises(GraphParseError, match="got a second line 'zzz' \\(line 2\\)$") as e:
        parse_graph("Cb\nzzz\n", "graph6")
    assert e.value.line == 2
    assert parse_graph("\nCb\n\n", "graph6") == parse_graph6("Cb")


def test_edge_list_roundtrip():
    for seed in range(20):
        g = random_graph(1 + seed % 9, "0.5", 77 + seed)
        assert parse_edge_list(write_edge_list(g)) == g
    assert parse_graph(write_graph(petersen(), "graph6"), "graph6") == petersen()


def test_neighborhood_examples():
    p5 = path_graph(5)
    assert neighborhood(p5, 0, 0, "exact") == {0}
    assert neighborhood(p5, 0, 4, "exact") == {4}
    assert neighborhood(p5, 0, 2, "ball") == {0, 1, 2}
    c6 = cycle_graph(6)
    assert neighborhood(c6, 0, 9, "ball") == set(range(6))
    with pytest.raises(ValueError):
        neighborhood(p5, 9, 1)
    with pytest.raises(ValueError):
        neighborhood(p5, 0, 1, "blob")


def test_ball_is_union_of_exact_radii():
    for seed in range(25):
        g = random_graph(10, "0.25", 300 + seed)
        for v in range(0, g.n, 3):
            seen = set()
            for r in range(5):
                layer = neighborhood(g, v, r, "exact")
                assert not (layer & seen)
                seen |= layer
                assert neighborhood(g, v, r, "ball") == seen


def test_distance():
    c6 = cycle_graph(6)
    assert distance(c6, 2, 2) == 0
    assert distance(c6, 0, 3) == 3
    two = Graph(4, [(0, 1), (2, 3)])
    assert distance(two, 0, 3) is None


def test_components():
    assert components(cycle_graph(5)) == [frozenset(range(5))]
    assert components(Graph(3)) == [frozenset({0}), frozenset({1}), frozenset({2})]
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert components(g) == [frozenset({0, 1, 2}), frozenset({3, 4})]


def test_induced_subgraph():
    k4 = complete_graph(4)
    sub, old = induced_subgraph(k4, {1, 3})
    assert sub == complete_graph(2) and old == (1, 3)
    c5 = cycle_graph(5)
    sub, _ = induced_subgraph(c5, {1, 2, 3})
    assert sub == path_graph(3)
    # neighbors of a Petersen vertex induce no edges (girth five)
    pg = petersen()
    nbrs = {v for v in range(10) if pg.has_edge(0, v)}
    sub, _ = induced_subgraph(pg, nbrs)
    assert sub.edge_count == 0 and sub.n == 3


def test_induced_hereditary_consistency():
    for seed in range(15):
        g = random_graph(9, "0.45", 900 + seed)
        s = {v for v in range(g.n) if v % 2 == 0 or v < 3}
        h, old_s = induced_subgraph(g, s)
        t_old = sorted(s)[: len(s) - 2]
        t_new = [i for i, ov in enumerate(old_s) if ov in t_old]
        direct, _ = induced_subgraph(g, t_old)
        nested, _ = induced_subgraph(h, t_new)
        assert direct == nested


def test_covers():
    star = star_graph(3)
    assert covers(star, {0}, {1, 2, 3})
    assert not covers(star, set(), {1})
    assert covers(star, {0}, set())
    p5 = path_graph(5)
    assert covers(p5, {1, 3}, {0, 2, 4})
    with pytest.raises(ValueError):
        covers(p5, {1, 2}, {2, 3})


def test_vertex_mask():
    p5 = path_graph(5)
    assert vertex_mask(p5, [4, 0, 4]) == 0b10001
    assert vertex_mask(p5, ()) == 0
    for bad in ([5], [0, -1]):
        with pytest.raises(ValueError, match="out of range"):
            vertex_mask(p5, bad)
        with pytest.raises(ValueError, match="out of range"):
            covers(p5, bad, [])


# every entry that takes a vertex id, called on the Petersen graph (n = 10)
# with the id v in the position it checks
VERTEX_ENTRIES = {
    "degree": lambda g, v: g.degree(v),
    "adjacency_mask": lambda g, v: g.adjacency_mask(v),
    "has_edge": lambda g, v: g.has_edge(0, v),
    "edge": lambda g, v: Graph(g.n, [(0, v)]),
    "vertex_mask": lambda g, v: vertex_mask(g, [v]),
    "covers": lambda g, v: covers(g, [v], []),
    "neighborhood": lambda g, v: neighborhood(g, v, 1),
    "distance": lambda g, v: distance(g, 0, v),
    "root": lambda g, v: RootedTree(path_graph(g.n), v),
    "anchor_pattern_vertex": lambda g, v: find_induced_embedding(g, g, anchor=(v, 0)),
    "anchor_host": lambda g, v: find_induced_embedding(g, g, anchor=(0, v)),
    "path_center": lambda g, v: induced_path_centered(g, v, 1),
    "equipment_center": lambda g, v: d_equipment(g, v, [], 1),
    "gyarfas_start": lambda g, v: gyarfas_path(g, [], v, 0),
}


@pytest.mark.parametrize("v, message", [(True, "integer"), (1.5, "integer"), (-1, "out of range"), (10, "out of range")])
@pytest.mark.parametrize("entry", VERTEX_ENTRIES)
def test_vertex_rule(entry, v, message):
    """One rule for a vertex id: a bool is not read as vertex 0 or 1, a
    float is refused as bad input rather than failing later, and an int
    outside 0..n-1 is out of range."""
    with pytest.raises(ValueError, match=message):
        VERTEX_ENTRIES[entry](petersen(), v)


def test_verify_embedding_fails_a_host_id_that_is_not_an_int():
    g, edge = petersen(), path_graph(2)
    u = min(neighborhood(g, 1, 1))
    assert verify_embedding(g, edge, Embedding((u, 1)))
    for bad in ((u, True), (u, 1.0), (u, 10), (u, -9)):
        assert not verify_embedding(g, edge, Embedding(bad)), bad


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs_with_subsets())
def test_traversals_match_brute_force(case):
    g, s = case
    comps = brute_components(g, s)
    smask = vertex_mask(g, s)
    assert [mask_to_set(c) for c in _component_masks(g, smask)] == comps
    assert is_connected(g, smask) == (len(comps) <= 1)
    assert components(g) == brute_components(g, range(g.n))
    dist = brute_distances(g)
    for v in range(g.n):
        reach = {u: d for u, d in enumerate(dist[v]) if d is not None}
        ecc = max(reach.values())
        assert [mask_to_set(layer) for layer in layers(g, v)] == [
            frozenset(u for u in reach if reach[u] == i) for i in range(ecc + 1)
        ]
        assert _bfs_dist(g, v) == [-1 if d is None else d for d in dist[v]]
        for u in range(g.n):
            assert distance(g, v, u) == dist[v][u]
        for r in range(ecc + 2):
            assert neighborhood(g, v, r, "exact") == {u for u in reach if reach[u] == r}
            assert neighborhood(g, v, r, "ball") == {u for u in reach if reach[u] <= r}
        # within s plus the source, as find_spire cuts a residue
        local = {u: d for u, d in enumerate(brute_distances(g, s | {v})[v]) if d is not None}
        got = list(layers(g, v, vertex_mask(g, s | {v})))
        assert got == [vertex_mask(g, (u for u in local if local[u] == i)) for i in range(len(got))]
        assert len(got) == max(local.values()) + 1
