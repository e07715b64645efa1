"""SeGraM reproduction: universal sequence-to-graph and
sequence-to-sequence mapping.

A functional, pure-Python reproduction of *SeGraM: A Universal Hardware
Accelerator for Genomic Sequence-to-Graph and Sequence-to-Sequence
Mapping* (Senol Cali et al., ISCA 2022), plus an analytical model of
the accelerator hardware.  See README.md for the quickstart and the
paper-figure benchmarks, and docs/architecture.md for how each module
maps to the paper's blocks.

Public API highlights:

* :class:`repro.api.Mapper` — **the** public mapping facade: build
  once from a (multi-contig) FASTA/GFA, then ``map`` /
  ``map_batch`` / ``map_pairs`` all return contig-qualified
  :class:`repro.api.MappingRecord` results.
* :class:`repro.refs.ReferenceSet` — N named contigs (linear or
  graph-backed) behind one shared minimizer index.
* :class:`repro.SeGraM` — the mapping engine (MinSeed + BitAlign)
  behind the facade.
* :func:`repro.build_graph` — variation-graph construction
  (``vg construct`` equivalent).
* :func:`repro.bitalign` — standalone sequence-to-graph alignment.
* :mod:`repro.hw` — the hardware performance/area/power model.
"""

from repro.core.bitalign import BitAlignResult, bitalign, bitalign_distance
from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.core.minseed import MinSeed
from repro.core.windows import WindowedAligner, WindowingConfig
from repro.core.alignment import Cigar, replay_alignment
from repro.api import Mapper, MappingRecord
from repro.graph.builder import BuiltGraph, Variant, build_graph
from repro.graph.genome_graph import GenomeGraph
from repro.graph.linearize import LinearizedGraph, linearize
from repro.refs.reference import Contig, ReferenceSet

__version__ = "1.1.0"

__all__ = [
    "Mapper",
    "MappingRecord",
    "Contig",
    "ReferenceSet",
    "SeGraM",
    "SeGraMConfig",
    "MappingResult",
    "MinSeed",
    "WindowedAligner",
    "WindowingConfig",
    "BitAlignResult",
    "bitalign",
    "bitalign_distance",
    "Cigar",
    "replay_alignment",
    "BuiltGraph",
    "Variant",
    "build_graph",
    "GenomeGraph",
    "LinearizedGraph",
    "linearize",
    "__version__",
]
