import hashlib
import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chibound._kernels
from chibound._kernels import pykernels
from chibound.coloring import chromatic_number
from chibound.embed import _order_space_adj, _search_plan
from chibound.generators import complete_graph, cycle_graph, mycielski_tower, path_graph, random_graph, star_graph
from chibound.graphs import Graph
from chibound.trees import binary_star, broom, superstar

KERNELS = Path(chibound._kernels.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def test_generated_c_matches_pyx():
    """_ckernels.c is generated from _ckernels.pyx by Cython and tracked;
    _ckernels.pyx.sha256 records the pyx it was generated from."""
    recorded = (KERNELS / "_ckernels.pyx.sha256").read_text().split()[0]
    actual = hashlib.sha256((KERNELS / "_ckernels.pyx").read_bytes()).hexdigest()
    assert actual == recorded, (
        "_ckernels.pyx changed since _ckernels.c was generated: regenerate it "
        "(cython src/chibound/_kernels/_ckernels.pyx), then record the new hash "
        "(cd src/chibound/_kernels && sha256sum _ckernels.pyx > _ckernels.pyx.sha256)"
    )


def compiled_kernels(tmp_path):
    """The compiled kernel module: the importable one, or else one that
    setup.py builds from the tracked _ckernels.c into tmp_path."""
    try:
        from chibound._kernels import _ckernels

        return _ckernels
    except ImportError:
        pass
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"compiled kernels unavailable and no C compiler ({cc})")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp_path),
         "--build-temp", str(tmp_path / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = tmp_path / "chibound" / "_kernels" / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert built.exists(), build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("chibound._kernels._ckernels", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ckernels(tmp_path_factory):
    return compiled_kernels(tmp_path_factory.mktemp("ckernels"))


def test_backends_agree(ckernels):
    assert ckernels.BACKEND_NAME == "c"
    for i in range(60):
        g = random_graph(5 + i % 5, ("0.2", "0.4", "0.6", "0.8")[i // 5 % 4], 5000 + i)
        n, adj = g.n, list(g.adjacency_masks())
        assert pykernels.greedy_clique(n, adj) == ckernels.greedy_clique(n, adj)
        for budget in (0, 3):
            assert pykernels.max_clique(n, adj, budget) == ckernels.max_clique(n, adj, budget)
            for k in range(1, 5):
                assert pykernels.k_color(n, adj, k, budget) == ckernels.k_color(n, adj, k, budget)

    # dense hosts, a tower and a host past 64 vertices, at every k up to chi;
    # the small budgets stop some searches mid-way
    for g in [random_graph(40, "0.5", 7000 + i) for i in range(3)] + [mycielski_tower(3), random_graph(70, "0.1", 7100)]:
        n, adj = g.n, list(g.adjacency_masks())
        for k in range(1, chromatic_number(g)[0] + 1):
            for budget in (0, 1, 10, 100, 1000):
                assert pykernels.k_color(n, adj, k, budget) == ckernels.k_color(n, adj, k, budget)

    # includes patterns absent from sparse hosts and hosts past 64 vertices
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
        host_adj = list(host.adjacency_masks())
        for pattern in patterns:
            for anchor in (None, (0, 0), (pattern.n - 1, host.n // 2)):
                order, parents, cands = _search_plan(host, pattern, anchor)
                plan = (host_adj, _order_space_adj(pattern, order), parents, cands)
                for budget in (0, 5, 50):
                    assert pykernels.find_embedding(*plan, budget) == ckernels.find_embedding(*plan, budget)
                    assert pykernels.count_embeddings(*plan, budget) == ckernels.count_embeddings(*plan, budget)


@st.composite
def kernel_cases(draw):
    """A seeded random adjacency list on up to 70 vertices (past one 64-bit
    word), a k and a node budget; hosts past 24 vertices get a nonzero
    budget, so no case runs an unbounded search on a large host."""
    n = draw(st.integers(0, 70))
    density = draw(st.integers(0, 100)) / 100
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    k = draw(st.integers(0, 9))
    budget = draw(st.sampled_from((0, 1, 3, 10, 50, 500) if n <= 24 else (1, 3, 10, 50, 500)))
    return n, adj, k, budget


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(case=kernel_cases())
def test_backends_agree_on_random_adjacency(ckernels, case):
    n, adj, k, budget = case
    assert pykernels.greedy_clique(n, adj) == ckernels.greedy_clique(n, adj)
    assert pykernels.k_color(n, adj, k, budget) == ckernels.k_color(n, adj, k, budget)
    assert pykernels.max_clique(n, adj, budget) == ckernels.max_clique(n, adj, budget)
