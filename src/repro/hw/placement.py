"""Chromosome-to-channel placement (paper Section 8.3).

"Within each stack, to balance the memory footprint across all
channels, we distribute the graph and index structures of all
chromosomes (1–22, X, Y) based on their sizes across the eight
independent channels."

This module implements that placement as greedy size-balanced bin
packing (longest-processing-time rule): chromosomes sorted by
footprint, each assigned to the currently lightest channel.  The
balance metric and capacity checks feed the system-configuration
tests and the whole-genome example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.hw.hbm import HbmStackModel


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
