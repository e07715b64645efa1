"""Genome graph substrate.

Implements the graph-based reference of SeGraM Section 5: a directed
acyclic variation graph with the node/character/edge table memory layout
of Fig. 5, construction from a linear reference plus VCF variants
(the ``vg construct`` equivalent), GFA import/export, and the
character-level linearization with HopBits used by BitAlign (Fig. 12).
"""

from repro.graph.genome_graph import GenomeGraph, GraphTables, Node
from repro.graph.builder import Variant, build_graph, normalize_variant
from repro.graph.gfa import read_gfa, write_gfa
from repro.graph.linearize import (
    LinearizedGraph,
    hop_coverage,
    hop_length_distribution,
    linearize,
)
from repro.graph.bubbles import (
    Bubble,
    GraphShape,
    find_simple_bubbles,
    graph_shape,
)

__all__ = [
    "GenomeGraph",
    "GraphTables",
    "Node",
    "Variant",
    "build_graph",
    "normalize_variant",
    "read_gfa",
    "write_gfa",
    "LinearizedGraph",
    "linearize",
    "hop_coverage",
    "hop_length_distribution",
    "Bubble",
    "GraphShape",
    "find_simple_bubbles",
    "graph_shape",
]
