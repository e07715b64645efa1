"""Scaled dataset catalog (stand-ins for the paper's Section 10 data).

The paper evaluates on GRCh38 + 7 GIAB VCFs (3.1 Gbp, 7.1 M variants),
the BRCA1 gene graph (HGA comparison) and the LRC/MHC immune-region
graphs (PaSGAL comparison).  These generators produce scaled synthetic
equivalents with matched *graph shape*:

* ``human_like_graph`` — GIAB-like variant density (~0.23 % of
  positions) over a repeat-bearing reference: the general-purpose
  mapping substrate;
* ``brca1_like_graph`` — a single-gene-sized region (~81 kbp, the
  real BRCA1 span) with typical variant density;
* ``immune_region_graph`` — LRC/MHC-like: several-fold higher variant
  density, the hardest case for graph alignment (many hops).

Every generator is deterministic given its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph.genome_graph import GenomeGraph
from repro.refs.reference import Contig, ReferenceSet
from repro.sim.reference import reference_with_repeats
from repro.sim.variants import VariantProfile, simulate_variants


@dataclass(frozen=True)
class GraphDataset:
    """A named reference graph (a one-contig reference set) plus its
    source reference sequence."""

    name: str
    reference: str
    refs: ReferenceSet

    @property
    def graph(self) -> GenomeGraph:
        return self.refs.graph


def _dataset(name: str, reference: str, variants,
             max_node_length: int) -> GraphDataset:
    refs = ReferenceSet([Contig.linear(name, reference, variants)],
                        max_node_length=max_node_length)
    return GraphDataset(name, reference, refs)


#: GIAB-like rates: 7.1 M variants / 3.1 Gbp with an SNP-heavy mix.
#: Small indels are capped at 10 bp (GIAB indels are mostly 1-6 bp),
#: which is what makes hop limit 12 cover >99 % of hops (an indel of
#: length L produces a hop of length L+1 — Fig. 13's rationale).
GIAB_LIKE = VariantProfile(
    snp_rate=0.0020,
    insertion_rate=0.00017,
    deletion_rate=0.00017,
    sv_rate=0.000002,
    small_indel_max=10,
    sv_min=50,
    sv_max=400,
)

#: Immune-region (LRC/MHC) rates: several-fold denser variation.
IMMUNE_LIKE = VariantProfile(
    snp_rate=0.010,
    insertion_rate=0.0009,
    deletion_rate=0.0009,
    sv_rate=0.00001,
    small_indel_max=12,
    sv_min=50,
    sv_max=300,
)


def human_like_graph(
    length: int = 1_000_000,
    seed: int = 2022,
    max_node_length: int = 4_096,
) -> GraphDataset:
    """A scaled GRCh38+GIAB-like chromosome graph."""
    rng = random.Random(seed)
    reference = reference_with_repeats(length, rng, repeat_fraction=0.1)
    variants = simulate_variants(reference, rng, GIAB_LIKE)
    return _dataset("human-like", reference, variants, max_node_length)


def brca1_like_graph(
    length: int = 81_000,
    seed: int = 17,
    max_node_length: int = 2_048,
) -> GraphDataset:
    """A BRCA1-sized gene-region graph (the HGA comparison input)."""
    rng = random.Random(seed)
    reference = reference_with_repeats(length, rng, repeat_fraction=0.05)
    variants = simulate_variants(reference, rng, GIAB_LIKE)
    return _dataset("brca1-like", reference, variants, max_node_length)


def immune_region_graph(
    length: int = 200_000,
    seed: int = 23,
    max_node_length: int = 2_048,
) -> GraphDataset:
    """An LRC/MHC-like dense-variation region (PaSGAL inputs)."""
    rng = random.Random(seed)
    reference = reference_with_repeats(length, rng, repeat_fraction=0.05)
    variants = simulate_variants(reference, rng, IMMUNE_LIKE)
    return _dataset("immune-like", reference, variants, max_node_length)
