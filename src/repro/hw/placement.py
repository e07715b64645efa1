"""Chromosome-to-channel placement (paper Section 8.3).

"Within each stack, to balance the memory footprint across all
channels, we distribute the graph and index structures of all
chromosomes (1–22, X, Y) based on their sizes across the eight
independent channels."

This module implements that placement as greedy size-balanced bin
packing (longest-processing-time rule): chromosomes sorted by
footprint, each assigned to the currently lightest channel.  The
footprints come from the one reference the mapper serves
(:func:`contig_resident_bytes`): each contig's share of the graph
tables and of the shared index's seed locations.  The balance metric
and capacity checks feed the system-configuration tests and the
whole-genome example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.graph.genome_graph import CHAR_TABLE_ENTRY_BITS, \
    EDGE_TABLE_ENTRY_BYTES, NODE_TABLE_ENTRY_BYTES
from repro.hw.hbm import HbmStackModel
from repro.index.flat_index import LOCATION_ENTRY_BYTES, FlatIndex
from repro.refs.reference import ReferenceSet


@dataclass
class ChannelPlacement:
    """Assignment of chromosomes to the channels of one stack."""

    channels: list[list[str]]
    loads: list[int]

    @property
    def max_load(self) -> int:
        return max(self.loads) if self.loads else 0

    @property
    def mean_load(self) -> float:
        return sum(self.loads) / len(self.loads) if self.loads else 0.0

    @property
    def imbalance(self) -> float:
        """Max over mean channel load (1.0 = perfectly balanced)."""
        mean = self.mean_load
        return self.max_load / mean if mean else 1.0

    def channel_of(self, chromosome: str) -> int:
        for channel, members in enumerate(self.channels):
            if chromosome in members:
                return channel
        raise KeyError(f"chromosome {chromosome!r} not placed")


def _packed_char_bytes(chars: int) -> int:
    """Bytes of the first ``chars`` packed 2-bit characters, rounded
    up.  A contig's share is the difference of two such prefixes, so
    the shares add up to the whole character table."""
    return (chars * CHAR_TABLE_ENTRY_BITS + 7) // 8


def contig_resident_bytes(
    refs: ReferenceSet,
    index: FlatIndex,
) -> tuple[dict[str, int], int]:
    """Per-contig main-memory bytes of one reference and its index.

    A contig owns its nodes' node-table entries, its characters, its
    nodes' out-edges (a reference set has no edge between contigs)
    and the seed locations that fall in its nodes.  The index's bucket
    and minimizer levels serve every contig and come back as one
    shared amount, so ``sum(sizes.values()) + shared`` is
    ``refs.graph.tables().total_bytes + index.layout().total_bytes``.
    """
    graph = refs.graph
    spans = [refs.node_span(name) for name in refs.names]
    locations = np.bincount(
        np.searchsorted([first for first, _ in spans], index.loc_node,
                        side="right") - 1,
        minlength=len(spans))
    sizes = {}
    for name, (first, end), contig_locations in zip(
            refs.names, spans, locations.tolist()):
        char_start, char_end = refs.char_span(name)
        edges = sum(len(graph.successors(node))
                    for node in range(first, end))
        sizes[name] = ((end - first) * NODE_TABLE_ENTRY_BYTES
                       + _packed_char_bytes(char_end)
                       - _packed_char_bytes(char_start)
                       + edges * EDGE_TABLE_ENTRY_BYTES
                       + contig_locations * LOCATION_ENTRY_BYTES)
    layout = index.layout()
    return sizes, layout.first_level_bytes + layout.second_level_bytes


def place_chromosomes(
    sizes: Mapping[str, int],
    channels: int = 8,
) -> ChannelPlacement:
    """Greedy size-balanced placement of chromosomes onto channels.

    Sorting by decreasing size before greedy assignment (the classic
    LPT heuristic) guarantees a max load within 4/3 of optimal — ample
    for the human genome's chromosome-size spread.
    """
    if channels < 1:
        raise ValueError("channels must be >= 1")
    if not sizes:
        raise ValueError("no chromosomes to place")
    for name, size in sizes.items():
        if size < 0:
            raise ValueError(f"negative size for {name!r}")
    placement = ChannelPlacement(
        channels=[[] for _ in range(channels)],
        loads=[0] * channels,
    )
    for name in sorted(sizes, key=lambda n: sizes[n], reverse=True):
        lightest = min(range(channels),
                       key=lambda c: placement.loads[c])
        placement.channels[lightest].append(name)
        placement.loads[lightest] += sizes[name]
    return placement


def stack_fits_genome(
    sizes: Mapping[str, int],
    stack: HbmStackModel | None = None,
) -> bool:
    """Whether the whole genome content fits one (replicated) stack."""
    stack = stack or HbmStackModel()
    return stack.fits(sum(sizes.values()))


#: GRCh38 chromosome lengths (Mbp, rounded) — used to exercise the
#: placement at realistic human-genome proportions.
GRCH38_CHROMOSOME_MBP = {
    "chr1": 249, "chr2": 242, "chr3": 198, "chr4": 190, "chr5": 182,
    "chr6": 171, "chr7": 159, "chr8": 145, "chr9": 138, "chr10": 134,
    "chr11": 135, "chr12": 133, "chr13": 114, "chr14": 107,
    "chr15": 102, "chr16": 90, "chr17": 83, "chr18": 80, "chr19": 59,
    "chr20": 64, "chr21": 47, "chr22": 51, "chrX": 156, "chrY": 57,
}
