"""Whole-genome organization: one graph + index per chromosome.

The paper builds "one graph for each chromosome" and "one index for
each chromosome" (Section 5), then distributes all 24 chromosome
graphs and indexes across the eight channels of each HBM stack by size
(Section 8.3).  This module is that memory layout: each chromosome is
a one-contig :class:`~repro.refs.ReferenceSet` with its own index,
and :mod:`repro.hw.placement` packs their resident bytes into
channels.  It is not a mapper: a genome maps through the one engine
over a multi-contig set of the same chromosomes
(:class:`repro.api.Mapper`, e.g. ``Mapper.from_fasta(fasta, vcf)``),
which gives every read the best placement over all chromosomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.mapper import SeGraMConfig
from repro.graph.builder import Variant
from repro.graph.genome_graph import GenomeGraph
from repro.index.flat_index import FlatIndex, build_flat_index
from repro.refs.reference import Contig, ReferenceSet


@dataclass
class Chromosome:
    """One chromosome: a one-contig reference set (its variation
    graph) and its minimizer index."""

    name: str
    refs: ReferenceSet
    index: FlatIndex

    @property
    def graph(self) -> GenomeGraph:
        return self.refs.graph

    @property
    def resident_bytes(self) -> int:
        """Main-memory footprint: graph tables + index levels — the
        quantity the channel balancer packs (Section 8.3)."""
        return self.graph.tables().total_bytes \
            + self.index.layout().total_bytes


class ReferenceGenome:
    """A collection of per-chromosome graphs and indexes."""

    def __init__(self, chromosomes: Iterable[Chromosome]) -> None:
        self.chromosomes = list(chromosomes)
        if not self.chromosomes:
            raise ValueError("a genome needs at least one chromosome")
        names = [c.name for c in self.chromosomes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate chromosome names")

    @classmethod
    def build(
        cls,
        references: Mapping[str, str],
        variants: Mapping[str, list[Variant]] | None = None,
        config: SeGraMConfig | None = None,
        max_node_length: int = 4_096,
    ) -> "ReferenceGenome":
        """Build graphs and indexes for every chromosome.

        ``references`` maps chromosome name to linear sequence;
        ``variants`` (optional) maps the same names to variant lists;
        ``config`` supplies the index parameters (``w``, ``k``,
        ``bucket_bits``).
        """
        config = config or SeGraMConfig()
        variants = variants or {}
        chromosomes = []
        for name, sequence in references.items():
            refs = ReferenceSet(
                [Contig.linear(name, sequence, variants.get(name, ()))],
                max_node_length=max_node_length,
            )
            index = build_flat_index(refs.graph, w=config.w, k=config.k,
                                     bucket_bits=config.bucket_bits)
            chromosomes.append(Chromosome(name=name, refs=refs,
                                          index=index))
        return cls(chromosomes)

    def resident_bytes(self) -> dict[str, int]:
        """Per-chromosome memory footprint (for channel placement)."""
        return {c.name: c.resident_bytes for c in self.chromosomes}

    def total_bytes(self) -> int:
        """Whole-genome footprint — must fit one HBM stack since the
        content is replicated per stack (paper: 11.2 GB < 16 GB)."""
        return sum(self.resident_bytes().values())
