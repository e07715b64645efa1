"""Tests for multi-chromosome genomes and HBM channel placement.

A genome maps through one multi-contig :class:`~repro.api.Mapper`,
and channel placement packs each chromosome's share of that one
reference and index (:func:`contig_resident_bytes`)."""

from __future__ import annotations

import random

import pytest

from repro.api import Mapper
from repro.core.mapper import SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.hw.placement import (
    GRCH38_CHROMOSOME_MBP,
    contig_resident_bytes,
    place_chromosomes,
    stack_fits_genome,
)
from repro.refs import Contig, ReferenceSet
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants


@pytest.fixture(scope="module")
def genome():
    rng = random.Random(12)
    references = {}
    variants = {}
    profile = VariantProfile(snp_rate=0.003, insertion_rate=0.0005,
                             deletion_rate=0.0005, sv_rate=0.0)
    for name, length in (("chrA", 15_000), ("chrB", 10_000),
                         ("chrC", 6_000)):
        sequence = random_reference(length, rng)
        references[name] = sequence
        variants[name] = simulate_variants(sequence, rng, profile)
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.02,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4,
    )
    mapper = Mapper(ReferenceSet(
        [Contig.linear(name, sequence, variants[name])
         for name, sequence in references.items()],
        max_node_length=3_000), config=config)
    return references, mapper


def resident_bytes(mapper):
    return contig_resident_bytes(mapper.engine.refs, mapper.engine.index)


class TestReferenceGenome:
    def test_read_maps_to_its_chromosome(self, genome):
        references, mapper = genome
        for name, sequence in references.items():
            read = sequence[2_000:2_300]
            record = mapper.map(read, f"from-{name}")
            assert record.mapped
            assert record.contig == name
            assert record.edit_distance == 0

    def test_unmappable_read(self, genome):
        _, mapper = genome
        rng = random.Random(555)
        read = random_reference(100, rng)
        record = mapper.map(read, "alien")
        if record.mapped:
            assert record.edit_distance > 5

    def test_unmapped_read_names_no_chromosome(self, genome):
        _, mapper = genome
        read = random_reference(150, random.Random(556))
        record = mapper.map(read, "alien")
        assert not record.mapped
        assert record.contig is None

    @pytest.mark.parametrize("layout, top_n", [
        ({"chrA": 1, "chrB": 1}, 5),   # one copy on each chromosome
        ({"chrA": 2, "chrB": 0}, 1),   # both copies on one
    ], ids=["across", "within-top1"])
    def test_cross_chromosome_tie_matches_mapper(self, layout, top_n):
        """A read from a segment present twice is a tie: the
        genome-wide result carries the other copy as its runner-up and
        the tie MAPQ — also when top-N truncation leaves the runner-up
        out of the winner's candidates — and one Mapper over the
        genome's chromosomes places it as one over the FASTA-style
        records does."""
        rng = random.Random(21)
        shared = random_reference(400, rng)
        references = {}
        for name, copies in layout.items():
            parts = [random_reference(1_500, rng)]
            for _ in range(copies):
                parts += [shared, random_reference(1_500, rng)]
            references[name] = "".join(parts)
        config = SeGraMConfig(w=10, k=15, bucket_bits=12,
                              top_n_alignments=top_n)
        genome_mapper = Mapper(ReferenceSet(
            [Contig.linear(name, sequence)
             for name, sequence in references.items()],
            max_node_length=4_096), config=config)
        mapper = Mapper(list(references.items()), config=config)
        read = shared[50:350]
        result = genome_mapper.map(read, "shared").result
        record = mapper.map(read, "shared")
        assert result.mapped and result.distance == 0
        assert result.second_best_distance == 0
        assert result.candidate_count == 2
        assert (result.contig, result.linear_position, result.mapq) \
            == (record.contig, record.position, record.mapq)
        assert result.mapq < 60

    def test_resident_bytes_ordering(self, genome):
        _, mapper = genome
        sizes, _ = resident_bytes(mapper)
        # Bigger chromosomes occupy more memory.
        assert sizes["chrA"] > sizes["chrB"] > sizes["chrC"]

    def test_contig_bytes_add_up_to_the_engine(self, genome):
        """The contigs' shares plus the shared index levels are the
        one engine's whole graph-table and index footprint, byte for
        byte."""
        _, mapper = genome
        sizes, shared = resident_bytes(mapper)
        engine = mapper.engine
        assert sum(sizes.values()) + shared == \
            engine.graph.tables().total_bytes \
            + engine.index.layout().total_bytes
        layout = engine.index.layout()
        assert shared == layout.first_level_bytes \
            + layout.second_level_bytes


class TestChannelPlacement:
    def test_all_chromosomes_placed_once(self):
        placement = place_chromosomes(GRCH38_CHROMOSOME_MBP, channels=8)
        placed = [name for members in placement.channels
                  for name in members]
        assert sorted(placed) == sorted(GRCH38_CHROMOSOME_MBP)

    def test_human_genome_balances_well(self):
        """Section 8.3: size-based distribution across 8 channels —
        LPT keeps the imbalance small at GRCh38 proportions."""
        placement = place_chromosomes(GRCH38_CHROMOSOME_MBP, channels=8)
        assert placement.imbalance < 1.10

    def test_loads_match_members(self):
        placement = place_chromosomes(GRCH38_CHROMOSOME_MBP, channels=8)
        for members, load in zip(placement.channels, placement.loads):
            assert load == sum(GRCH38_CHROMOSOME_MBP[m]
                               for m in members)

    def test_channel_of(self):
        placement = place_chromosomes({"a": 5, "b": 3}, channels=2)
        assert placement.channel_of("a") != placement.channel_of("b")
        with pytest.raises(KeyError):
            placement.channel_of("zzz")

    def test_single_channel_degenerate(self):
        placement = place_chromosomes({"a": 5, "b": 3}, channels=1)
        assert placement.imbalance == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            place_chromosomes({}, channels=8)
        with pytest.raises(ValueError):
            place_chromosomes({"a": 1}, channels=0)
        with pytest.raises(ValueError):
            place_chromosomes({"a": -1}, channels=2)

    def test_paper_content_fits_stack(self, genome):
        _, mapper = genome
        sizes, shared = resident_bytes(mapper)
        assert stack_fits_genome({**sizes, "index levels": shared})
        # And at paper scale: 11.2 GB fits, 20 GB would not.
        assert stack_fits_genome({"all": int(11.2 * 2**30)})
        assert not stack_fits_genome({"all": 20 * 2**30})
