"""Whole-genome organization: one graph + index per chromosome.

The paper builds "one graph for each chromosome" and "one index for
each chromosome" (Section 5), then distributes all 24 chromosome
graphs and indexes across the eight channels of each HBM stack by size
(Section 8.3).  This module provides the genome-level container and a
mapper that queries every chromosome and keeps the best alignment:
each chromosome is a one-contig :class:`~repro.refs.ReferenceSet`
with its own index and :class:`~repro.core.mapper.SeGraM`.  (One
engine over a multi-contig set shares one index across contigs
instead — the shape :class:`repro.api.Mapper` uses.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.core.pipeline import commit_candidates
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
            chromosome.name: SeGraM(chromosome.refs, config=self.config,
                                    index=chromosome.index)
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
            refs = ReferenceSet(
                [Contig.linear(name, sequence, variants.get(name, ()))],
                max_node_length=max_node_length,
            )
            index = build_flat_index(refs.graph, w=config.w, k=config.k,
                                     bucket_bits=config.bucket_bits)
            chromosomes.append(Chromosome(name=name, refs=refs,
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

    def map_read(self, read: str, name: str = "read") -> MappingResult:
        """Map a read against every chromosome; the best placement wins.

        Chromosomes that produce no seeds are skipped quickly (the
        hash-index probe is the only work), mirroring how independent
        per-channel accelerators would each look up their resident
        chromosomes.  The chromosomes' candidate loci merge as one
        engine's do (:func:`~repro.core.pipeline.commit_candidates`),
        so a read placed equally well on two chromosomes gets the tie
        MAPQ a :class:`~repro.api.Mapper` over the same records gives
        it.  The result's ``contig`` names the chromosome (None when
        the read maps nowhere).
        """
        results = [self._mappers[chromosome.name].map_read(read, name)
                   for chromosome in self.chromosomes]
        merged = MappingResult(read_name=name, read_length=len(read),
                               mapped=False)
        commit_candidates(
            merged, [c for result in results for c in result.candidates],
            self.config.top_n_alignments)
        if not merged.mapped:
            return merged
        best = next(result for result in results
                    if result.contig == merged.contig)
        # The winner's runner-up beyond its top N is in its own
        # second_best_distance only, not among the merged candidates.
        seconds = [distance for distance in
                   (merged.second_best_distance, best.second_best_distance)
                   if distance is not None]
        return replace(
            best, candidates=merged.candidates,
            candidate_count=sum(r.candidate_count for r in results),
            second_best_distance=min(seconds, default=None),
        )
