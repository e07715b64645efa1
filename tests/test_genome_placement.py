"""Tests for multi-chromosome genomes and HBM channel placement."""

from __future__ import annotations

import random

import pytest

from repro.core.mapper import SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.core.genome import ReferenceGenome
from repro.hw.placement import (
    GRCH38_CHROMOSOME_MBP,
    place_chromosomes,
    stack_fits_genome,
)
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
    reference_genome = ReferenceGenome.build(references, variants,
                                             config=config,
                                             max_node_length=3_000)
    return reference_genome, references


class TestReferenceGenome:
    def test_one_graph_and_index_per_chromosome(self, genome):
        reference_genome, references = genome
        assert {c.name for c in reference_genome.chromosomes} == \
            set(references)
        for chromosome in reference_genome.chromosomes:
            assert chromosome.index.distinct_minimizers > 0

    def test_read_maps_to_its_chromosome(self, genome):
        reference_genome, references = genome
        for name, sequence in references.items():
            read = sequence[2_000:2_300]
            result = reference_genome.map_read(read, f"from-{name}")
            assert result.mapped
            assert result.chromosome == name
            assert result.distance == 0

    def test_unmappable_read(self, genome):
        reference_genome, _ = genome
        rng = random.Random(555)
        read = random_reference(100, rng)
        result = reference_genome.map_read(read, "alien")
        if result.mapped:
            assert result.distance > 5

    def test_resident_bytes_ordering(self, genome):
        reference_genome, references = genome
        sizes = reference_genome.resident_bytes()
        # Bigger chromosomes occupy more memory.
        assert sizes["chrA"] > sizes["chrB"] > sizes["chrC"]
        assert reference_genome.total_bytes() == sum(sizes.values())

    def test_duplicate_names_rejected(self, genome):
        reference_genome, _ = genome
        with pytest.raises(ValueError):
            ReferenceGenome(reference_genome.chromosomes
                            + [reference_genome.chromosomes[0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReferenceGenome([])


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
        reference_genome, _ = genome
        assert stack_fits_genome(reference_genome.resident_bytes())
        # And at paper scale: 11.2 GB fits, 20 GB would not.
        assert stack_fits_genome({"all": int(11.2 * 2**30)})
        assert not stack_fits_genome({"all": 20 * 2**30})
