"""Indexing substrate: minimizers and the three-level graph index.

Implements the paper's second pre-processing step (Section 5): the
three-level hash-table index (buckets -> minimizers -> seed locations,
Fig. 6) over ``<w,k>``-minimizers of the graph's node sequences, plus
the per-chromosome occurrence-frequency filter of Section 6.
"""

from repro.index.minimizer import (
    Minimizer,
    MinimizerScan,
    brute_force_minimizers,
    kmer_at,
    minimizers,
    scan_minimizers,
)
from repro.index.flat_index import (
    FlatIndex,
    IndexLayout,
    SeedHit,
    build_flat_index,
)
from repro.index.occurrence import frequency_threshold

__all__ = [
    "Minimizer",
    "MinimizerScan",
    "minimizers",
    "scan_minimizers",
    "brute_force_minimizers",
    "kmer_at",
    "IndexLayout",
    "SeedHit",
    "FlatIndex",
    "build_flat_index",
    "frequency_threshold",
]
