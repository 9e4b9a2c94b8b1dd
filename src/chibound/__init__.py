"""chibound: a workbench for chromatic-number experiments on small graphs.

Exact coloring and clique search, induced tree containment, certificate
validators for structured witnesses (splits, spires, equipment),
arbitrary-precision threshold formulas, counterexample builders, and a
reproducible experiment harness.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .graphs import (
    Graph,
    components,
    covers,
    distance,
    induced_subgraph,
    neighborhood,
)
from .graphio import parse_graph, write_graph
from .coloring import (
    Coloring,
    chi_local,
    chi_of,
    chromatic_number,
    clique_number,
    is_k_colorable,
    is_vertex_critical,
)

__all__ = [
    "Graph",
    "Coloring",
    "KERNEL_BACKEND",
    "components",
    "covers",
    "distance",
    "induced_subgraph",
    "neighborhood",
    "parse_graph",
    "write_graph",
    "chi_local",
    "chi_of",
    "chromatic_number",
    "clique_number",
    "is_k_colorable",
    "is_vertex_critical",
]

__version__ = "0.1.0"
