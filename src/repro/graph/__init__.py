"""Genome graph substrate.

Implements the graph-based reference of SeGraM Section 5: a directed
acyclic variation graph with the node/character/edge table memory layout
of Fig. 5, construction from a linear reference plus VCF variants
(the ``vg construct`` equivalent), and the character-level
linearization with HopBits used by BitAlign (Fig. 12).  GFA
import/export is :mod:`repro.io.gfa`.
"""

from repro.graph.genome_graph import GenomeGraph, GraphTables, Node
from repro.graph.builder import Variant, build_graph, normalize_variant
from repro.graph.linearize import (
    LinearizedGraph,
    hop_coverage,
    hop_length_distribution,
    linearize,
)

__all__ = [
    "GenomeGraph",
    "GraphTables",
    "Node",
    "Variant",
    "build_graph",
    "normalize_variant",
    "LinearizedGraph",
    "linearize",
    "hop_coverage",
    "hop_length_distribution",
]
