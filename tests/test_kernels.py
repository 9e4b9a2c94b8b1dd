import hashlib
import json
import random
from itertools import permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_count_induced,
    reference_embed,
    reference_greedy_clique,
    reference_k_color,
    reference_k_sweep,
    reference_max_clique,
    reference_parents,
)

from chibound._kernels import pykernels
from chibound.coloring import chromatic_number
from chibound import embed, trees
from chibound.embed import (
    Embedding,
    _bfs_order,
    _dfs_order,
    _search_plan,
    count_induced_embeddings,
    find_induced_embedding,
    verify_embedding,
)
from chibound.generators import (
    complete_graph,
    cycle_graph,
    kneser,
    mycielski_tower,
    path_graph,
    petersen,
    random_graph,
    shift_graph,
    star_graph,
)
from chibound.graphs import Graph, bits, components
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

def coloring_grid():
    """(graph, ks) pairs: small random graphs at k = 1..4, then dense hosts,
    a tower and a host past 64 vertices at every k up to chi."""
    for i in range(60):
        yield random_graph(5 + i % 5, ("0.2", "0.4", "0.6", "0.8")[i // 5 % 4], 5000 + i), range(1, 5)
    for g in [random_graph(40, "0.5", 7000 + i) for i in range(3)] + [mycielski_tower(3), random_graph(70, "0.1", 7100)]:
        yield g, range(1, chromatic_number(g)[0] + 1)


def embedding_triples():
    """(host, pattern, anchor) triples of the kernel grid, including
    patterns absent from sparse hosts and hosts past 64 vertices."""
    patterns = [
        path_graph(4),
        star_graph(3),
        cycle_graph(4),
        complete_graph(4),
        superstar(2).graph,
        broom(2, 2).graph,
        binary_star(1, 1),
        Graph(4, [(0, 1), (2, 3)]),
    ]
    hosts = [random_graph(8 + i % 9, ("0.15", "0.3", "0.5")[i % 3], 6000 + i) for i in range(18)]
    hosts.append(random_graph(70, "0.08", 6100))
    for host in hosts:
        for pattern in patterns:
            for anchor in (None, (0, 0), (pattern.n - 1, host.n // 2)):
                yield host, pattern, anchor


def embedding_grid():
    """Embedding kernel arguments and the count factor of the search plan
    for each triple of embedding_triples."""
    for host, pattern, anchor in embedding_triples():
        _, *plan, factor = _search_plan(host, pattern, anchor)
        yield (host.adjacency_masks(), *plan), factor


def plain(args):
    """Embedding kernel arguments with above all -1: the same search
    without the symmetry constraints."""
    host_adj, pat_adj_o, above, cands = args
    return host_adj, pat_adj_o, [-1] * len(above), cands


def test_backends_agree(ckernels):
    assert ckernels.BACKEND_NAME == "c"
    # the small budgets stop some searches mid-way
    for g, ks in coloring_grid():
        n, adj = g.n, g.adjacency_masks()
        assert pykernels.greedy_clique(adj) == ckernels.greedy_clique(adj)
        for budget in (0, 1, 3, 10, 100, 1000) if g.n > 9 else (0, 3):
            assert pykernels.max_clique(adj, budget) == ckernels.max_clique(adj, budget)
            for k in ks:
                assert pykernels.k_color(adj, k, budget) == ckernels.k_color(adj, k, budget)
            assert pykernels.k_color(adj, 1, budget, n) == ckernels.k_color(adj, 1, budget, n)

    linked = 0
    for args, _ in embedding_grid():
        linked += any(a >= 0 for a in args[2])
        for budget in (0, 5, 50):
            assert pykernels.find_embedding(*args, budget) == ckernels.find_embedding(*args, budget)
            assert pykernels.count_embeddings(*args, budget) == ckernels.count_embeddings(*args, budget)
    assert linked


def tree_parents(pattern, order, walk=_dfs_order):
    """The tree parent of each position, as a position, in the trees of
    walk, _dfs_order or _bfs_order, whose orders make up order, each run
    afresh from the first vertex of order that no earlier tree reached;
    -1 at a root."""
    pairs = []
    while len(pairs) < len(order):
        pairs += walk(pattern.adjacency_masks(), order[len(pairs)])
    assert tuple(v for v, _ in pairs) == order
    pos = {v: t for t, v in enumerate(order)}
    return [-1 if par < 0 else pos[par] for _, par in pairs]


def test_search_plan_dfs_parents_are_the_latest_earlier_neighbours():
    """On every find plan of the grid, forests and other patterns,
    anchored or not, the DFS parent of each position is the parent the
    kernels work out, so a search's nodes are those of the DFS tree; so is
    the BFS parent in the count plan of a forest."""
    for host, pattern, anchor in embedding_triples():
        order, pat_adj_o, *_ = _search_plan(host, pattern, anchor)
        assert tree_parents(pattern, order) == reference_parents(pat_adj_o)
        if anchor is None:
            order, pat_adj_o, *_ = _search_plan(host, pattern, None, count=True)
            forest = pattern.edge_count == pattern.n - len(components(pattern))
            walk = _bfs_order if forest else _dfs_order
            assert tree_parents(pattern, order, walk) == reference_parents(pat_adj_o)


def tie_hosts():
    """Hosts on which DSATUR's degree and id tie-breaks decide most picks:
    the regular Petersen, kneser(7,2), cycle(9), K_{3,3,3} and the circulant
    C_67(1, 2, 4), past one 64-bit word, and shift(8), whose 28 vertices
    share five degrees."""
    yield petersen()
    yield kneser(7, 2)
    yield shift_graph(8)
    yield cycle_graph(9)
    yield Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 != v // 3])
    yield Graph(67, [(i, (i + j) % 67) for i in range(67) for j in (1, 2, 4)])


def test_backends_agree_where_ties_decide(ckernels):
    for g in tie_hosts():
        n, adj = g.n, g.adjacency_masks()
        for k in range(1, chromatic_number(g)[0] + 1):
            for budget in (0, 1, 10, 100):
                assert pykernels.k_color(adj, k, budget) == ckernels.k_color(adj, k, budget)
                assert pykernels.k_color(adj, k, budget, n) == ckernels.k_color(adj, k, budget, n)


BUDGET_SNAPSHOT = Path(__file__).with_name("kernel_budget_snapshot.json")
GRID_BUDGETS = (0, 1, 5, 50, 500)


def budget_outcomes(kernels):
    """sha256 per kernel over the (status, payload) of every call on the
    coloring and embedding grids at each of GRID_BUDGETS, and the number of
    calls that ran out of budget. k_color holds the single-k calls and
    k_color_sweep the sweeps from k = 1 and from k = 2 up to the vertex
    count. find_embedding and count_embeddings run the grid's plans with
    above all -1, and the _sym entries the plans as _search_plan makes
    them, with the symmetry constraints of forest patterns."""
    out = {
        "find_embedding": [],
        "count_embeddings": [],
        "find_embedding_sym": [],
        "count_embeddings_sym": [],
        "max_clique": [],
        "k_color": [],
        "k_color_sweep": [],
    }
    for g, ks in coloring_grid():
        n, adj = g.n, g.adjacency_masks()
        for budget in GRID_BUDGETS:
            out["max_clique"].append(kernels.max_clique(adj, budget))
            out["k_color"].extend(kernels.k_color(adj, k, budget) for k in ks)
            out["k_color_sweep"].extend(kernels.k_color(adj, k, budget, n) for k in (1, 2))
    for args, _ in embedding_grid():
        for budget in GRID_BUDGETS:
            out["find_embedding"].append(kernels.find_embedding(*plain(args), budget))
            out["count_embeddings"].append(kernels.count_embeddings(*plain(args), budget))
            out["find_embedding_sym"].append(kernels.find_embedding(*args, budget))
            out["count_embeddings_sym"].append(kernels.count_embeddings(*args, budget))
    return {
        name: {
            "sha256": hashlib.sha256(json.dumps(results).encode()).hexdigest(),
            "budget_stops": sum(status == 2 for status, _ in results),
        }
        for name, results in out.items()
    }


@pytest.mark.parametrize("backend", ["python", "c"])
def test_budget_outcomes_are_pinned(request, backend):
    """Every kernel's outcome on the grids, budget stops included, matches
    the golden file. Backend parity cannot see a change made to both
    backends at once; this can."""
    kernels = pykernels if backend == "python" else request.getfixturevalue("ckernels")
    got = budget_outcomes(kernels)
    assert all(entry["budget_stops"] for entry in got.values())
    assert got == json.loads(BUDGET_SNAPSHOT.read_text())


@pytest.mark.parametrize("backend", ["python", "c"])
def test_symmetry_constraints_change_only_budget_stops(request, backend):
    """On the grid's plans, every outcome with the symmetry constraints is
    the one with above all -1, a count scaled by the plan's factor, or
    that call's unbudgeted answer where the unconstrained search ran out
    of budget: the constrained search charges a subset of the nodes, so
    a budget stop may settle, but never into another answer."""
    kernels = pykernels if backend == "python" else request.getfixturevalue("ckernels")
    settled = 0
    for args, factor in embedding_grid():
        for kernel, scale in ((kernels.find_embedding, 1), (kernels.count_embeddings, factor)):
            answer = kernel(*plain(args), 0)
            for budget in GRID_BUDGETS:
                status, payload = kernel(*args, budget)
                got = (status, payload * scale if status == 0 and scale > 1 else payload)
                want = kernel(*plain(args), budget)
                if got != want:
                    assert want[0] == 2 and got == answer
                    settled += 1
    assert settled


def prufer_graph(n, seq):
    """The labelled tree on n vertices with Prüfer sequence seq, n - 2
    entries from range(n)."""
    if n == 1:
        return Graph(1)
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return Graph(n, edges)


def disjoint(graphs):
    """The disjoint union of graphs, each relabelled past the ones before."""
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    return Graph(n, edges)


def planted(tree):
    """tree hung from a new root by one edge."""
    g = tree.graph
    return RootedTree(Graph(g.n + 1, [(u + 1, v + 1) for u, v in g.edges()] + [(0, tree.root + 1)]), root=0)


def draw_host(draw, rng, pattern):
    """A seeded random host on up to 7 vertices; half of them hold an
    induced copy of pattern on random vertices, so that most counts are
    not 0."""
    if draw(st.booleans()):
        hn = draw(st.integers(pattern.n, 7))
        spots = rng.sample(range(hn), pattern.n)
        taken = set(spots)
        density = draw(st.sampled_from((0.2, 0.5, 0.8)))
        edges = [(spots[u], spots[v]) for u, v in pattern.edges()]
        edges += [(u, v) for u in range(hn) for v in range(u + 1, hn) if not {u, v} <= taken and rng.random() < density]
        return Graph(hn, edges)
    return as_graph(*draw_adjacency(draw, 1, 7))


@st.composite
def forest_cases(draw):
    """A forest pattern on up to 7 vertices, relabelled at random, a seeded
    random host on up to 7 vertices and an anchor or None. The pattern is
    a random tree from a Prüfer sequence, a rooted_sum of equal planted
    trees, each itself a rooted_sum of equal planted trees, so that
    isomorphic siblings sit at two depths, a forest of two trees, equal in
    half the cases, a bicentral tree, two rooted trees of one height with
    their roots joined, equal in half the cases, or a forest of two or
    three single edges, isomorphic bicentral trees, and in half the cases
    one more tree; and a host from draw_host."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def prufer(n):
        return prufer_graph(n, [rng.randrange(n) for _ in range(n - 2)])

    def tall(h, extra):
        """A random tree of height h from root 0: a path down from the
        root, then extra more vertices, each hung from a random vertex
        above depth h."""
        depth = list(range(h + 1))
        edges = [(v, v + 1) for v in range(h)]
        for v in range(h + 1, h + 1 + extra):
            u = rng.choice([w for w in range(v) if depth[w] < h])
            edges.append((u, v))
            depth.append(depth[u] + 1)
        return Graph(h + 1 + extra, edges)

    kind = draw(st.sampled_from(("prufer", "nested", "two", "bicentral", "edges")))
    if kind == "prufer":
        pattern = prufer(draw(st.integers(1, 7)))
    elif kind == "nested":
        leaf_n, inner, outer = draw(st.sampled_from(((1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 2))))
        leaf = RootedTree(prufer(leaf_n), root=rng.randrange(leaf_n))
        pattern = rooted_sum([planted(rooted_sum([planted(leaf)] * inner))] * outer).graph
    elif kind == "two":
        first = prufer(draw(st.integers(1, 3)))
        second = first if draw(st.booleans()) else prufer(draw(st.integers(1, 3)))
        pattern = disjoint([first, second])
    elif kind == "bicentral":
        h = draw(st.integers(0, 2))
        if draw(st.booleans()):
            first = second = tall(h, draw(st.integers(0, 2 - h)) if h else 0)
        else:
            first = tall(h, draw(st.integers(0, 5 - 2 * h)) if h else 0)
            second = tall(h, draw(st.integers(0, 5 - 2 * h - (first.n - h - 1))) if h else 0)
        pattern = Graph(first.n + second.n, disjoint([first, second]).edges() + [(0, first.n)])
    else:
        copies = draw(st.integers(2, 3))
        rest = [prufer(draw(st.integers(1, 7 - 2 * copies)))] if draw(st.booleans()) else []
        pattern = disjoint([Graph(2, [(0, 1)])] * copies + rest)
    perm = list(range(pattern.n))
    rng.shuffle(perm)
    pattern = Graph(pattern.n, [(perm[u], perm[v]) for u, v in pattern.edges()])
    host = draw_host(draw, rng, pattern)
    anchor = None
    if draw(st.booleans()):
        anchor = (rng.randrange(pattern.n), rng.randrange(host.n))
    return host, pattern, anchor


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=forest_cases())
def test_symmetry_broken_search_on_random_forests(ckernels, case):
    """With the symmetry constraints of _search_plan, both backends find
    the witness of the same plan with above all -1, and a count times the
    plan's factor is the brute-force count, or with an anchor the
    unconstrained count of the anchored plan. Without an anchor the count
    plan, rooted at the centres, gives the brute-force count too, and both
    backends agree on it under small budgets. The DFS parents of the find
    plan and the BFS parents of the count plan are the ones the kernels
    work out."""
    host, pattern, anchor = case
    order, *plan, factor = _search_plan(host, pattern, anchor)
    assert tree_parents(pattern, order) == reference_parents(plan[0])
    args = (host.adjacency_masks(), *plan)
    want = brute_count_induced(host, pattern) if anchor is None else pykernels.count_embeddings(*plain(args))[1]
    for kernels in (pykernels, ckernels):
        assert kernels.find_embedding(*args) == kernels.find_embedding(*plain(args))
        status, total = kernels.count_embeddings(*args)
        assert status == 0 and total * factor == want
    if anchor is None:
        order, *plan, factor = _search_plan(host, pattern, None, count=True)
        assert tree_parents(pattern, order, _bfs_order) == reference_parents(plan[0])
        args = (host.adjacency_masks(), *plan)
        for budget in (5, 50):
            assert pykernels.count_embeddings(*args, budget) == ckernels.count_embeddings(*args, budget)
        for kernels in (pykernels, ckernels):
            status, total = kernels.count_embeddings(*args)
            assert status == 0 and total * factor == want
        assert count_induced_embeddings(host, pattern) == want


def all_trees(n_max):
    """One tree per isomorphism class on 1 to n_max vertices: each tree on
    n - 1 vertices with a leaf hung from each vertex in turn, kept when its
    form, the least of its rooted forms over every root, is new."""

    def rooted(adj, v, away):
        return tuple(sorted(rooted(adj, w, v) for w in bits(adj[v]) if w != away))

    def form(g):
        return min(rooted(g.adjacency_masks(), r, -1) for r in range(g.n))

    out = level = [Graph(1)]
    for n in range(2, n_max + 1):
        forms = {}
        for g in level:
            for v in range(n - 1):
                tree = Graph(n, g.edges() + [(v, n - 1)])
                forms.setdefault(form(tree), tree)
        level = list(forms.values())
        out = out + level
    return out


def test_count_plan_breaks_every_automorphism(ckernels):
    """For every tree on up to 7 vertices, under its labels and reversed,
    the count plan's factor is the number of automorphisms, counted by
    brute force, so its constraints break the whole group. Forests of
    isomorphic bicentral trees, too large for a brute-force count, have
    (copies)! times that per tree, and in hosts that hold a copy both
    backends count on the count plan what the find plan counts with above
    all -1."""
    def flipped(g):
        return Graph(g.n, [(g.n - 1 - u, g.n - 1 - v) for u, v in g.edges()])

    trees = all_trees(7)
    assert len(trees) == 25
    for tree in trees:
        aut = brute_count_induced(tree, tree)
        for g in (tree, flipped(tree)):
            assert _search_plan(g, g, None, count=True)[-1] == aut
    # lopsided has two centres with halves that differ, and its two copies
    # order their centres differently
    p4, db, k2, lopsided = path_graph(4), double_broom(2, 1, 2), path_graph(2), double_broom(2, 1, 1)
    for pattern, want_factor in [
        (disjoint([p4, p4]), 2 * 2 * 2),
        (disjoint([db, db]), 2 * 8 * 8),
        (disjoint([k2, p4, k2, k2]), 6 * 2 ** 3 * 2),
        (disjoint([lopsided, flipped(lopsided)]), 2 * 2 * 2),
    ]:
        for seed in range(3):
            host = disjoint([pattern, random_graph(10, "0.2", 6200 + seed)])
            _, *plan, _ = _search_plan(host, pattern, None)
            want = pykernels.count_embeddings(*plain((host.adjacency_masks(), *plan)))[1]
            _, *plan, factor = _search_plan(host, pattern, None, count=True)
            assert factor == want_factor
            args = (host.adjacency_masks(), *plan)
            for kernels in (pykernels, ckernels):
                status, total = kernels.count_embeddings(*args)
                assert status == 0 and total * factor == want


def uncached(host, pattern, anchor, count=False):
    """_search_plan with its pattern half built afresh, not read from the
    plan cache."""
    with mock.patch.object(embed, "_pattern_plan", embed._pattern_plan.__wrapped__):
        return _search_plan(host, pattern, anchor, count)


def fresh_layout_kernel(fn, *args):
    """A pure-Python embedding kernel call whose plan-only layout is built
    afresh, not read from the layout cache."""
    with mock.patch.object(pykernels, "_layout", pykernels._layout.__wrapped__):
        return fn(*args)


def check_cached_plans(ckernels, host, pattern, anchors):
    """For each anchor, and for the count plan, the plan _search_plan gives
    for a copy of pattern, equal to it but another object, so the pattern
    half is read from the cache, equals the plan built afresh, and both
    backends give the same finds and counts on it, unbudgeted and under a
    budget, as the pure-Python kernels with a fresh layout. Returns the
    witness find_induced_embedding gives on the copy for each anchor,
    checked to hold its anchor."""
    copy = Graph(pattern.n, pattern.edges())
    plans = [(anchor, False) for anchor in anchors] + [(None, True)]
    for anchor, count in plans:
        _search_plan(host, pattern, anchor, count)
        warm = _search_plan(host, copy, anchor, count)
        assert warm == uncached(host, pattern, anchor, count)
        args = (host.adjacency_masks(), *warm[1:4])
        for budget in (0, 50):
            for fn in ("find_embedding", "count_embeddings"):
                want = fresh_layout_kernel(getattr(pykernels, fn), *args, budget)
                assert getattr(pykernels, fn)(*args, budget) == want
                assert getattr(ckernels, fn)(*args, budget) == want
    found = []
    for anchor in anchors:
        emb = find_induced_embedding(host, copy, anchor)
        if emb is not None:
            assert verify_embedding(host, pattern, emb)
            assert anchor is None or emb.mapping[anchor[0]] == anchor[1]
        found.append(emb)
    return found


def brute_anchored(host, pattern, anchor):
    """Whether some induced embedding of pattern in host maps anchor[0] to
    anchor[1], by enumerating the injections of the other vertices."""
    ap, ah = anchor
    rest = [v for v in range(host.n) if v != ah]
    for image in permutations(rest, pattern.n - 1):
        image = (*image[:ap], ah, *image[ap:])
        if verify_embedding(host, pattern, Embedding(mapping=image)):
            return True
    return False


def family_patterns():
    """Members of every tree family of trees.py, with their roots as
    anchors where they have one."""
    return [
        broom(2, 2),
        broom(1, 3),
        bristle(1, 2),
        superstar(2),
        superstar(3),
        binary_star(1, 1),
        binary_star(2, 2),
        bristled_star(1, 1),
        bristled_star(1, 2),
        double_broom(2, 2, 2),
        double_broom(1, 2, 3),
        two_legged_caterpillar(3, 1, 1),
        rooted_sum([path_tree(2), path_tree(2), broom(1, 1)]),
        path_tree(0),
        path_tree(5),
    ]


def test_cached_plans_equal_fresh_plans_on_every_tree_family(ckernels):
    hosts = [petersen(), shift_graph(7), random_graph(20, "0.2", 6300)]
    for tree in family_patterns():
        pattern = tree.graph if isinstance(tree, RootedTree) else tree
        for host in hosts:
            anchors = [None, (0, 0), (pattern.n - 1, host.n // 2), (pattern.n // 2, host.n - 1)]
            if isinstance(tree, RootedTree):
                anchors.append((tree.root, 3))
            check_cached_plans(ckernels, host, pattern, anchors)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=forest_cases())
def test_cached_plans_equal_fresh_plans_on_random_forests(ckernels, case):
    """The cached plans agree with fresh ones, every anchored find answers
    as a brute-force search does, and a count on the copy of the pattern
    is the brute-force count."""
    host, pattern, anchor = case
    anchors = [(p, (3 * p + 1) % host.n) for p in range(pattern.n)] + ([anchor] if anchor else [])
    found = check_cached_plans(ckernels, host, pattern, [None, *anchors])
    assert [emb is not None for emb in found[1:]] == [brute_anchored(host, pattern, a) for a in anchors]
    assert count_induced_embeddings(host, Graph(pattern.n, pattern.edges())) == brute_count_induced(host, pattern)


def test_plan_caches_are_bounded_and_hold_tuples():
    """Every piece a cache hands out is a tuple, so no caller can change a
    cached plan; cands, built per call from the host, is a list; every
    cache has a finite size; and the star patterns are built once per
    (k, d)."""
    host, pattern = kneser(6, 2), double_broom(2, 1, 2)
    for anchor, count in ((None, False), (None, True), ((2, 5), False)):
        plan = embed._pattern_plan(pattern, None if anchor is None else anchor[0], count)
        assert [type(piece) for piece in plan] == [tuple, tuple, tuple, int, tuple, tuple]
        order, pat_adj_o, above, cands, _ = _search_plan(host, pattern, anchor, count)
        assert (type(order), type(pat_adj_o), type(above), type(cands)) == (tuple, tuple, tuple, list)
        layout = pykernels._layout(pat_adj_o, above, host.n)
        assert all(type(piece) is tuple for piece in layout)
    for cached in (embed._pattern_plan, pykernels._layout, trees._binary_star, trees._bristled_star):
        assert 0 < cached.cache_info().maxsize <= 256
    assert binary_star(1, 2) is binary_star(1, 2)
    assert bristled_star(2, 1) is bristled_star(2, 1)


def test_one_plan_on_hosts_of_two_sizes_back_to_back():
    """The plan-only layout packs one field of the host's vertex count per
    position, so the same plan on a smaller and then a larger host, and
    the other way round, must not share a layout."""
    pattern = broom(2, 2).graph
    small = disjoint([pattern, random_graph(3, "0.5", 6400)])
    large = disjoint([pattern, random_graph(6, "0.3", 6401)])
    _, pat_adj_o, above, _, factor = _search_plan(large, pattern, None, count=True)
    for hosts in ((small, large), (large, small)):
        pykernels._layout.cache_clear()
        for host in hosts:
            full = (1 << host.n) - 1
            args = (host.adjacency_masks(), pat_adj_o, above, [full] * pattern.n)
            assert pykernels.count_embeddings(*args)[1] * factor == brute_count_induced(host, pattern)
            for budget in (0, 5, 50):
                for fn in (pykernels.find_embedding, pykernels.count_embeddings):
                    assert fn(*args, budget) == fresh_layout_kernel(fn, *args, budget)


def test_checks_run_ahead_of_the_caches():
    """Every argument check of the star builders, find_induced_embedding
    and the pure-Python kernels still runs when the cache behind it holds
    the answer."""
    binary_star(1, 1)
    with pytest.raises(ValueError, match="k must be a positive integer"):  # not unhashable
        binary_star([1], 1)
    with pytest.raises(ValueError, match="d must be a positive integer"):
        bristled_star(1, 0)
    host, pattern = petersen(), broom(1, 2).graph
    assert find_induced_embedding(host, pattern, anchor=(0, 0)) is not None
    with pytest.raises(ValueError, match="vertex 4 out of range for n=4"):
        find_induced_embedding(host, pattern, anchor=(4, 0))
    _, pat_adj_o, above, cands, _ = _search_plan(host, pattern, None)
    adj = list(host.adjacency_masks())
    pykernels.find_embedding(adj, pat_adj_o, above, cands)
    bad_cands = [cands[0] | 1 << host.n, *cands[1:]]
    bad_above = (*above[:-1], len(above) - 1)
    bad_adj = [adj[0] | 1, *adj[1:]]
    for args in ((adj, pat_adj_o, above, bad_cands), (adj, pat_adj_o, bad_above, cands),
                 (bad_adj, pat_adj_o, above, cands)):
        for fn in (pykernels.find_embedding, pykernels.count_embeddings):
            with pytest.raises(ValueError):
                fn(*args)


@st.composite
def shuffled_pattern_cases(draw):
    """A seeded random pattern on 3 to 5 vertices with its vertices in a
    random position order, often not a DFS preorder, so that a position's
    latest earlier neighbour is often not its parent in any DFS tree, and
    a host from draw_host."""
    pattern = as_graph(*draw_adjacency(draw, 3, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    order = rng.sample(range(pattern.n), pattern.n)
    return draw_host(draw, rng, pattern), pattern, order


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=shuffled_pattern_cases())
def test_counts_are_exact_in_any_position_order(ckernels, case):
    """In a position order that is not a DFS preorder the kernels' parent
    is still an earlier neighbour, so both backends count every induced
    embedding, and a find returns one exactly when some exists."""
    host, pattern, order = case
    pos = {v: t for t, v in enumerate(order)}
    pat_adj_o = [sum(1 << pos[w] for w in bits(pattern.adjacency_mask(v))) for v in order]
    args = (host.adjacency_masks(), pat_adj_o, [-1] * pattern.n, [(1 << host.n) - 1] * pattern.n)
    want = brute_count_induced(host, pattern)
    for kernels in (pykernels, ckernels):
        assert kernels.count_embeddings(*args) == (0, want)
        status, assign = kernels.find_embedding(*args)
        assert status == (0 if want else 1)
        if want:
            assert verify_embedding(host, pattern, Embedding(tuple(assign[pos[v]] for v in range(pattern.n))))


def random_adjacency(n, density, seed):
    """Adjacency masks of a random graph on n vertices, each pair an edge
    with probability density."""
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def draw_adjacency(draw, min_n, max_n):
    """Adjacency masks of a seeded random graph on min_n to max_n vertices."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.integers(0, 100)) / 100
    return n, random_adjacency(n, density, draw(st.integers(0, 2 ** 32)))


def as_graph(n, adj):
    return Graph(n, [(u, v) for u in range(n) for v in bits(adj[u]) if u < v])


@st.composite
def kernel_cases(draw):
    """A seeded random adjacency list on up to 70 vertices (past one 64-bit
    word), a k, a node budget and a sweep end k_max from k to k + 4;
    hosts past 24 vertices get a nonzero budget, so no case runs an
    unbounded search on a large host."""
    n, adj = draw_adjacency(draw, 0, 70)
    k = draw(st.integers(0, 9))
    budget = draw(st.sampled_from((0, 1, 3, 10, 50, 500) if n <= 24 else (1, 3, 10, 50, 500)))
    return n, adj, k, k + draw(st.integers(0, 4)), budget


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=kernel_cases())
def test_backends_agree_on_random_adjacency(ckernels, case):
    _, adj, k, k_max, budget = case
    assert pykernels.greedy_clique(adj) == ckernels.greedy_clique(adj)
    assert pykernels.k_color(adj, k, budget) == ckernels.k_color(adj, k, budget)
    assert pykernels.k_color(adj, k, budget, k_max) == ckernels.k_color(adj, k, budget, k_max)
    assert pykernels.max_clique(adj, budget) == ckernels.max_clique(adj, budget)


# nodes past which a drawn colouring case is dropped, so that the
# unbudgeted reference searches stay quick
COLORING_CASE_NODES = 20000


@st.composite
def coloring_cases(draw):
    """A seeded random adjacency list on 0 to 45 vertices (past one 64-bit
    word), sparse or dense, a k from 0 to 10 and a sweep end k_max from k
    to k + 4. Half the ks are at most three above the greedy clique size,
    where the searches backtrack most; a k below it is refuted at once."""
    n = draw(st.sampled_from(range(46)))
    density = draw(st.sampled_from((0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)))
    adj = random_adjacency(n, density, draw(st.integers(0, 2 ** 32)))
    k = draw(st.sampled_from(range(11)))
    if draw(st.booleans()):
        k = min(len(reference_greedy_clique(n, adj)) + draw(st.sampled_from(range(4))), 10)
    return n, adj, k, k + draw(st.sampled_from(range(5)))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(case=coloring_cases())
def test_k_color_matches_reference(ckernels, case):
    """Both backends return the single-k reference search's (status,
    payload), with the k of a budget stop as its payload, and a sweep
    returns the outcome of a loop of single-k reference calls, at budget
    0 (unbounded), 1, and half, one below, exactly and one past the nodes
    an unbudgeted call charges."""
    n, adj, k, k_max = case
    assume(reference_k_sweep(n, adj, k, COLORING_CASE_NODES, k_max)[0] != 2)
    assume(reference_k_color(n, adj, k, COLORING_CASE_NODES)[0] != 2)
    nodes = reference_k_color(n, adj, k, 0)[2]
    for budget in sorted({0, 1, nodes // 2, nodes - 1, nodes, nodes + 1} - {-1}):
        status, payload, _ = reference_k_color(n, adj, k, budget)
        want = (status, k if status == 2 else payload)
        assert pykernels.k_color(adj, k, budget) == want
        assert ckernels.k_color(adj, k, budget) == want
    nodes = reference_k_sweep(n, adj, k, 0, k_max)[2]
    for budget in sorted({0, 1, nodes // 2, nodes - 1, nodes, nodes + 1} - {-1}):
        want = reference_k_sweep(n, adj, k, budget, k_max)[:2]
        assert pykernels.k_color(adj, k, budget, k_max) == want
        assert ckernels.k_color(adj, k, budget, k_max) == want


@pytest.mark.parametrize("backend", ["python", "c"])
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=coloring_cases())
def test_max_clique_matches_reference(request, backend, case):
    """Each backend returns the reference search's status and clique, the
    best so far at a budget stop, at budget 0 (unbounded), 1, and half,
    one below, exactly and one past the nodes an unbudgeted call charges,
    so a kernel that charges a node the reference does not, or skips one,
    stops at a different place. The pure-Python case needs no compiler."""
    kernels = pykernels if backend == "python" else request.getfixturevalue("ckernels")
    n, adj, _, _ = case
    assume(reference_max_clique(n, adj, COLORING_CASE_NODES)[0] != 2)
    nodes = reference_max_clique(n, adj)[2]
    for budget in sorted({0, 1, nodes // 2, nodes - 1, nodes, nodes + 1} - {-1}):
        assert kernels.max_clique(adj, budget) == reference_max_clique(n, adj, budget)[:2]


@st.composite
def embedding_cases(draw):
    """A search plan for a seeded random pattern on up to 8 vertices in a
    seeded random host on up to 70 vertices, anchored or not, and a node
    budget; only hosts up to 10 vertices with patterns up to 5 vertices
    may run unbounded, as a count on a larger pair can take minutes."""
    hn, host_adj = draw_adjacency(draw, 0, 70)
    pn, pat_adj = draw_adjacency(draw, 1, 8)
    pattern = as_graph(pn, pat_adj)
    anchor = None
    if hn and draw(st.booleans()):
        anchor = (draw(st.integers(0, pn - 1)), draw(st.integers(0, hn - 1)))
    _, *plan, _ = _search_plan(as_graph(hn, host_adj), pattern, anchor)
    small = hn <= 10 and pn <= 5
    budget = draw(st.sampled_from((0, 1, 5, 50, 500, 5000) if small else (1, 5, 50, 500, 5000)))
    return (host_adj, *plan), budget


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=embedding_cases())
def test_backends_agree_on_random_embeddings(ckernels, case):
    plan, budget = case
    assert pykernels.find_embedding(*plan, budget) == ckernels.find_embedding(*plan, budget)
    assert pykernels.count_embeddings(*plan, budget) == ckernels.count_embeddings(*plan, budget)


def reference(case, budget, count):
    """reference_embed on embedding kernel arguments, with the parents the
    kernels work out."""
    host_adj, pat_adj_o, above, cands = case
    return reference_embed(host_adj, pat_adj_o, reference_parents(pat_adj_o), above, cands, budget, count)


@st.composite
def reference_cases(draw):
    """Embedding kernel arguments with a symmetric host on 0 to 14
    vertices, a pattern of 0 to 6 positions, each candidate mask
    arbitrary and, for half the positions, above an arbitrary earlier
    position, else -1."""
    # sampled sizes and fill, as integers() would draw an empty host,
    # pattern or candidate mask in about a third of the cases
    hn = draw(st.sampled_from(range(15)))
    m = draw(st.sampled_from(range(7)))
    _, host_adj = draw_adjacency(draw, hn, hn)
    _, pat_adj_o = draw_adjacency(draw, m, m)
    fill = draw(st.sampled_from(range(101))) / 100
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    cands = [sum(1 << h for h in range(hn) if rng.random() < fill) for _ in range(m)]
    above = [rng.randrange(-1, t) if t and rng.random() < 0.5 else -1 for t in range(m)]
    return host_adj, pat_adj_o, above, cands


# nodes past which a drawn case is dropped, as every budget up to them
# is replayed
EVERY_BUDGET_NODES = 1000


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(case=reference_cases())
def test_embedding_kernels_match_reference_at_every_budget(ckernels, case):
    """Both backends return the (status, payload) of the candidate-by-
    candidate reference search at every budget up to one past the nodes an
    unbudgeted call charges, so every stop point is hit."""
    # a count charges at least every node a find does
    assume(reference(case, EVERY_BUDGET_NODES, True)[0] != 2)
    for count in (False, True):
        kernel = "count_embeddings" if count else "find_embedding"
        nodes = reference(case, 0, count)[2]
        for budget in range(nodes + 2):
            want = reference(case, budget, count)[:2]
            assert getattr(pykernels, kernel)(*case, budget) == want
            assert getattr(ckernels, kernel)(*case, budget) == want


# nodes past which a drawn large case is dropped, so that the unbudgeted
# reference searches and counts stay quick
LARGE_CASE_NODES = 20000


@st.composite
def large_reference_cases(draw):
    """Embedding kernel arguments with a symmetric host on 30 to 70
    vertices, so the packed fit fields span many machine words and a C
    row past 64 hosts takes two, and a pattern of 7 to 10 positions.
    Half the patterns are induced subgraphs of the host on planted
    vertices, each in its position's candidate mask, so that many cases
    have embeddings, and a few candidates per position keep the
    unbudgeted searches small. A third of the positions have above set
    to an earlier position planted on a lower host, so the planted
    embedding meets every constraint."""
    hn = draw(st.sampled_from(range(30, 71)))
    m = draw(st.sampled_from(range(7, 11)))
    _, host_adj = draw_adjacency(draw, hn, hn)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    planted = rng.sample(range(hn), m)
    if draw(st.booleans()):
        pat_adj_o = [sum(1 << s for s in range(m) if host_adj[planted[t]] >> planted[s] & 1) for t in range(m)]
    else:
        _, pat_adj_o = draw_adjacency(draw, m, m)
    fill = draw(st.sampled_from((0.02, 0.05, 0.08, 0.12)))
    cands = [sum(1 << h for h in range(hn) if rng.random() < fill) | 1 << planted[t] for t in range(m)]
    above = []
    for t in range(m):
        lower = [s for s in range(t) if planted[s] < planted[t]]
        above.append(rng.choice(lower) if lower and rng.random() < 1 / 3 else -1)
    return host_adj, pat_adj_o, above, cands


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=large_reference_cases())
def test_embedding_kernels_match_reference_on_large_instances(ckernels, case):
    """Both backends return the reference search's (status, payload)
    unbudgeted, at budget 1 and at half, one below, exactly and one past
    the nodes an unbudgeted call charges."""
    # a count charges at least every node a find does
    assume(reference(case, LARGE_CASE_NODES, True)[0] != 2)
    for count in (False, True):
        kernel = "count_embeddings" if count else "find_embedding"
        nodes = reference(case, 0, count)[2]
        for budget in sorted({0, 1, nodes // 2, nodes - 1, nodes, nodes + 1} - {-1}):
            want = reference(case, budget, count)[:2]
            assert getattr(pykernels, kernel)(*case, budget) == want
            assert getattr(ckernels, kernel)(*case, budget) == want


@pytest.mark.parametrize(
    "case",
    [
        ([0] * 13, [0] * 5, [-1, 0, -1, 0, -1], [8, 4100, 512, 658, 17]),
        ([0] * 7, [0] * 5, [-1, 0, 0, 0, 0], [127] * 5),
        ([0] * 8, [0] * 4, [-1, 0, 0, 2], [255] * 4),
        (petersen().adjacency_masks(), [0b1110, 1, 1, 1], [-1, -1, 1, 1], [1023] * 4),
    ],
    ids=["edgeless-alternate", "edgeless-fan", "edgeless-fan-then-last", "petersen-claw"],
)
def test_positions_sharing_an_above_match_reference_at_every_budget(ckernels, case):
    """Both backends return the reference search's (status, payload) at
    every budget when several positions name the same above. The first
    case is a random input on which a search that keeps sibling order for
    only one position per above misses a budget stop."""
    for count in (False, True):
        kernel = "count_embeddings" if count else "find_embedding"
        nodes = reference(case, 0, count)[2]
        for budget in range(nodes + 2):
            want = reference(case, budget, count)[:2]
            assert getattr(pykernels, kernel)(*case, budget) == want
            assert getattr(ckernels, kernel)(*case, budget) == want


WIDE = 1 << 5000

# Masks that would make a search read outside its arrays, or never end:
# both backends raise ValueError on them before the search starts.
bad_mask_calls = pytest.mark.parametrize(
    "call",
    [
        lambda m: m.greedy_clique([2 | WIDE, 1 | WIDE]),
        lambda m: m.greedy_clique([-1]),
        lambda m: m.greedy_clique([1]),
        lambda m: m.max_clique([0] * 69 + [1 << 70]),
        lambda m: m.find_embedding([2, -1], [2, 1], [-1, -1], [3, 3]),
        lambda m: m.find_embedding([2, 1], [2, 1], [-1, -1], [3, 4]),
        lambda m: m.k_color([3, 1], 2),
        lambda m: m.k_color([2, -2], 0),
        lambda m: m.max_clique([2]),
        lambda m: m.max_clique([2, -2]),
        lambda m: m.find_embedding([3, 1], [2, 1], [-1, -1], [3, 3]),
        lambda m: m.count_embeddings([2, 1], [2, 1], [-1, -1], [3]),
        lambda m: m.find_embedding([2, 1], [2, 5], [-1, -1], [3, 3]),
        lambda m: m.find_embedding([2, 1], [3, 1], [-1, -1], [3, 3]),
        lambda m: m.find_embedding([2, 1], [2, 1], [-1, 1], [3, 3]),
        lambda m: m.count_embeddings([2, 1], [2, 1], [-1, 2], [3, 3]),
        lambda m: m.count_embeddings([2, 1], [2, 1], [-1, -2], [3, 3]),
        lambda m: m.find_embedding([2, 1], [2, 1], [0, -1], [3, 3]),
        lambda m: m.find_embedding([2, 1], [2, 1], [-1], [3, 3]),
    ],
    ids=[
        "adjacency-bit-past-n",
        "negative-adjacency-mask",
        "adjacency-loop",
        "adjacency-bit-past-one-word",
        "negative-host-mask",
        "candidate-bit-past-host",
        "k-color-adjacency-loop",
        "negative-mask-before-k-check",
        "max-clique-bit-past-n",
        "max-clique-negative-mask",
        "host-adjacency-loop",
        "short-candidate-list",
        "pattern-bit-past-pattern",
        "pattern-loop",
        "above-not-earlier",
        "above-past-pattern",
        "above-below-minus-one",
        "above-at-first-position",
        "short-above-list",
    ],
)


@bad_mask_calls
def test_compiled_kernels_reject_bad_masks(ckernels, call):
    with pytest.raises(ValueError):
        call(ckernels)


@bad_mask_calls
def test_python_kernels_reject_bad_masks(call):
    with pytest.raises(ValueError):
        call(pykernels)


if __name__ == "__main__":
    # Rewrites the golden file; only for an intended change of kernel outcomes.
    BUDGET_SNAPSHOT.write_text(json.dumps(budget_outcomes(pykernels), indent=1) + "\n")
