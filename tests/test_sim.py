"""Tests for the data-simulation substrate."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.dp_linear import edit_distance
from repro.graph.builder import build_graph
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.graphsim import sample_path, simulate_graph_reads
from repro.sim.longread import LongReadProfile, simulate_long_reads
from repro.sim.reference import random_reference, reference_with_repeats
from repro.sim.shortread import ShortReadProfile, simulate_short_reads
from repro.sim.variants import (
    VariantProfile,
    apply_variants,
    simulate_variants,
)


class TestErrorModel:
    def test_profiles_sum_to_one(self):
        for model in (ErrorModel.pacbio(), ErrorModel.nanopore(),
                      ErrorModel.illumina()):
            total = (model.mismatch_fraction + model.insertion_fraction
                     + model.deletion_fraction)
            assert total == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(1.5)
        with pytest.raises(ValueError):
            ErrorModel(0.1, 0.5, 0.5, 0.5)

    def test_zero_rate_is_identity(self):
        rng = random.Random(0)
        sequence = random_reference(500, rng)
        noisy, errors = apply_errors(sequence, ErrorModel(0.0), rng)
        assert noisy == sequence
        assert errors == 0

    def test_error_count_close_to_rate(self):
        rng = random.Random(1)
        sequence = random_reference(20_000, rng)
        noisy, errors = apply_errors(sequence, ErrorModel.pacbio(0.10),
                                     rng)
        assert errors == pytest.approx(2_000, rel=0.15)

    def test_edit_distance_bounded_by_error_count(self):
        rng = random.Random(2)
        sequence = random_reference(800, rng)
        noisy, errors = apply_errors(sequence, ErrorModel.nanopore(0.08),
                                     rng)
        assert edit_distance(sequence, noisy) <= errors

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_deterministic_given_seed(self, seed):
        sequence = random_reference(200, random.Random(3))
        a = apply_errors(sequence, ErrorModel.pacbio(0.1),
                         random.Random(seed))
        b = apply_errors(sequence, ErrorModel.pacbio(0.1),
                         random.Random(seed))
        assert a == b


class TestReference:
    def test_length_and_alphabet(self):
        rng = random.Random(4)
        ref = random_reference(1_234, rng)
        assert len(ref) == 1_234
        assert set(ref) <= set("ACGT")

    def test_repeats_increase_kmer_multiplicity(self):
        rng = random.Random(5)
        plain = random_reference(30_000, rng)
        repeated = reference_with_repeats(30_000, random.Random(5),
                                          repeat_fraction=0.3)

        def max_kmer_count(text: str) -> int:
            counts: dict[str, int] = {}
            for i in range(0, len(text) - 50, 10):
                kmer = text[i:i + 50]
                counts[kmer] = counts.get(kmer, 0) + 1
            return max(counts.values())

        assert max_kmer_count(repeated) > max_kmer_count(plain)

    def test_validation(self):
        rng = random.Random(6)
        with pytest.raises(ValueError):
            random_reference(0, rng)
        with pytest.raises(ValueError):
            reference_with_repeats(100, rng, repeat_fraction=1.5)
        with pytest.raises(ValueError):
            reference_with_repeats(100, rng, repeat_length=5)


class TestVariants:
    def test_non_overlapping_and_sorted(self):
        rng = random.Random(7)
        reference = random_reference(50_000, rng)
        variants = simulate_variants(reference, rng)
        for left, right in zip(variants, variants[1:]):
            assert left.end <= right.start

    def test_rates_roughly_respected(self):
        rng = random.Random(8)
        reference = random_reference(200_000, rng)
        profile = VariantProfile()
        variants = simulate_variants(reference, rng, profile)
        snps = sum(1 for v in variants if v.is_snp)
        assert snps == pytest.approx(
            profile.snp_rate * len(reference), rel=0.25,
        )

    def test_apply_variants_spells_haplotype(self):
        rng = random.Random(9)
        reference = random_reference(2_000, rng)
        variants = simulate_variants(
            reference, rng,
            VariantProfile(snp_rate=0.02, insertion_rate=0.005,
                           deletion_rate=0.005, sv_rate=0.0),
        )
        haplotype = apply_variants(reference, variants)
        snp_count = sum(1 for v in variants if v.is_snp)
        # Each SNP contributes exactly one mismatch.
        if variants and all(v.is_snp for v in variants):
            assert edit_distance(reference, haplotype) == snp_count

    def test_apply_variants_rejects_overlap(self):
        from repro.graph.builder import Variant
        with pytest.raises(ValueError):
            apply_variants("ACGTACGT", [Variant(2, 5, "A"),
                                        Variant(4, 6, "T")])

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            VariantProfile(snp_rate=0.6)
        with pytest.raises(ValueError):
            VariantProfile(sv_min=10, sv_max=5)


class TestReadSimulators:
    def test_long_read_truth_coordinates(self):
        rng = random.Random(10)
        reference = random_reference(50_000, rng)
        reads = simulate_long_reads(
            reference, 10, rng, LongReadProfile.pacbio(0.05),
        )
        assert len(reads) == 10
        for read in reads:
            assert 0 <= read.ref_start < read.ref_end <= len(reference)
            fragment = reference[read.ref_start:read.ref_end]
            assert edit_distance(fragment, read.sequence) <= \
                read.errors

    def test_long_read_error_rate(self):
        rng = random.Random(11)
        reference = random_reference(60_000, rng)
        reads = simulate_long_reads(
            reference, 5, rng,
            LongReadProfile.nanopore(0.10, read_length=10_000),
        )
        total_errors = sum(r.errors for r in reads)
        assert total_errors == pytest.approx(5 * 10_000 * 0.10, rel=0.2)

    def test_short_reads(self):
        rng = random.Random(12)
        reference = random_reference(10_000, rng)
        for length in (100, 150, 250):  # the paper's Illumina lengths
            reads = simulate_short_reads(
                reference, 8, rng,
                ShortReadProfile.illumina(read_length=length),
            )
            assert all(r.ref_end - r.ref_start == length for r in reads)

    def test_read_longer_than_reference_clipped(self):
        rng = random.Random(13)
        reads = simulate_long_reads(
            "ACGTACGTACGT", 3, rng, LongReadProfile.pacbio(0.0),
        )
        assert all(r.ref_end - r.ref_start == 12 for r in reads)

    def test_count_validation(self):
        rng = random.Random(14)
        with pytest.raises(ValueError):
            simulate_long_reads("ACGT", -1, rng)


class TestGraphSim:
    @pytest.fixture(scope="class")
    def graph(self):
        rng = random.Random(15)
        reference = random_reference(5_000, rng)
        variants = simulate_variants(
            reference, rng,
            VariantProfile(snp_rate=0.01, insertion_rate=0.002,
                           deletion_rate=0.002, sv_rate=0.0),
        )
        return build_graph(reference, variants).graph

    def test_sampled_path_is_valid_walk(self, graph):
        rng = random.Random(16)
        for _ in range(20):
            fragment, node, offset, path = sample_path(graph, 200, rng)
            assert path[0] == node
            for src, dst in zip(path, path[1:]):
                assert dst in graph.successors(src)
            spelled = graph.sequence_of(path[0])[offset:] + "".join(
                graph.sequence_of(n) for n in path[1:]
            )
            assert spelled.startswith(fragment)

    def test_simulated_reads_have_truth(self, graph):
        rng = random.Random(17)
        reads = simulate_graph_reads(graph, 10, 150, rng,
                                     ErrorModel.illumina(0.01))
        assert len(reads) == 10
        for read in reads:
            assert read.path
            assert read.start_node == read.path[0]
            assert len(read.sequence) > 0

    def test_zero_error_reads_spell_paths(self, graph):
        rng = random.Random(18)
        reads = simulate_graph_reads(graph, 5, 100, rng, ErrorModel(0.0))
        for read in reads:
            assert read.errors == 0
