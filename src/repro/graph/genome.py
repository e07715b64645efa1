"""Whole-genome organization: one graph + index per chromosome.

The paper builds "one graph for each chromosome" and "one index for
each chromosome" (Section 5), then distributes all 24 chromosome
graphs and indexes across the eight channels of each HBM stack by size
(Section 8.3).  This module provides the genome-level container and a
mapper that queries every chromosome and keeps the best alignment —
the multi-chromosome behaviour the single-graph
:class:`~repro.core.mapper.SeGraM` composes into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

# Genome is a multi-chromosome facade that *constructs* per-chromosome
# SeGraM mappers — an orchestration convenience that lives in graph/
# for API-history reasons.  # repro: allow[layering]
from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.graph.builder import BuiltGraph, Variant, build_graph
from repro.index.flat_index import FlatIndex, build_flat_index


@dataclass
class Chromosome:
    """One chromosome: its variation graph and minimizer index."""

    name: str
    built: BuiltGraph
    index: FlatIndex

    @property
    def graph(self):
        return self.built.graph

    @property
    def resident_bytes(self) -> int:
        """Main-memory footprint: graph tables + index levels — the
        quantity the channel balancer packs (Section 8.3)."""
        return self.built.graph.tables().total_bytes \
            + self.index.layout().total_bytes


@dataclass(frozen=True)
class GenomeMappingResult:
    """A mapping result qualified with its chromosome."""

    chromosome: str
    result: MappingResult

    @property
    def mapped(self) -> bool:
        return self.result.mapped

    @property
    def distance(self) -> int | None:
        return self.result.distance


class ReferenceGenome:
    """A collection of per-chromosome graphs/indexes plus mappers."""

    def __init__(self, chromosomes: Iterable[Chromosome],
                 config: SeGraMConfig | None = None) -> None:
        self.chromosomes = list(chromosomes)
        if not self.chromosomes:
            raise ValueError("a genome needs at least one chromosome")
        names = [c.name for c in self.chromosomes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate chromosome names")
        self.config = config or SeGraMConfig()
        self._mappers = {
            chromosome.name: SeGraM(
                chromosome.graph, config=self.config,
                built=chromosome.built, index=chromosome.index,
            )
            for chromosome in self.chromosomes
        }

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
        ``variants`` (optional) maps the same names to variant lists.
        """
        config = config or SeGraMConfig()
        variants = variants or {}
        chromosomes = []
        for name, sequence in references.items():
            built = build_graph(sequence, variants.get(name, ()),
                                name=name,
                                max_node_length=max_node_length)
            index = build_flat_index(built.graph, w=config.w,
                                     k=config.k,
                                     bucket_bits=config.bucket_bits)
            chromosomes.append(Chromosome(name=name, built=built,
                                          index=index))
        return cls(chromosomes, config=config)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def mapper(self, chromosome: str) -> SeGraM:
        return self._mappers[chromosome]

    def resident_bytes(self) -> dict[str, int]:
        """Per-chromosome memory footprint (for channel placement)."""
        return {c.name: c.resident_bytes for c in self.chromosomes}

    def total_bytes(self) -> int:
        """Whole-genome footprint — must fit one HBM stack since the
        content is replicated per stack (paper: 11.2 GB < 16 GB)."""
        return sum(self.resident_bytes().values())

    def map_read(self, read: str, name: str = "read") \
            -> GenomeMappingResult:
        """Map a read against every chromosome; best distance wins.

        Chromosomes that produce no seeds are skipped quickly (the
        hash-index probe is the only work), mirroring how independent
        per-channel accelerators would each look up their resident
        chromosomes.
        """
        best: GenomeMappingResult | None = None
        for chromosome in self.chromosomes:
            result = self._mappers[chromosome.name].map_read(read, name)
            candidate = GenomeMappingResult(chromosome.name, result)
            if not result.mapped:
                continue
            if best is None or not best.mapped or \
                    result.distance < best.result.distance:
                best = candidate
        if best is None:
            return GenomeMappingResult(
                self.chromosomes[0].name,
                MappingResult(read_name=name, read_length=len(read),
                              mapped=False),
            )
        return best
