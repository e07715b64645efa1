"""Tests for the MinSeed seeding stage."""

from __future__ import annotations

import dataclasses
import random

import pytest

from oracles.seed_filter import filter_regions, reference_seed
from repro.core.minseed import MinSeed, SeedingStats
from repro.graph.genome_graph import GenomeGraph
from repro.index.flat_index import build_flat_index
from repro.refs.reference import ReferenceSet
from repro.seq import reverse_complement
from repro.sim.reference import random_reference


@pytest.fixture(scope="module")
def seeded():
    rng = random.Random(99)
    reference = random_reference(30_000, rng)
    graph = GenomeGraph.from_linear(reference, node_length=2_000)
    index = build_flat_index(graph, w=10, k=15, bucket_bits=12)
    minseed = MinSeed(graph, index, error_rate=0.05)
    return reference, graph, minseed


class TestSeeding:
    def test_exact_read_seeds_cover_true_locus(self, seeded):
        reference, graph, minseed = seeded
        start = 12_345
        read = reference[start:start + 300]
        regions, stats = minseed.seed(read)
        assert stats.minimizer_count > 0
        assert regions, "an exact read must produce seed regions"
        # Some region must cover the true locus.
        assert any(r.start <= start < r.end for r in regions)

    def test_seed_region_arithmetic_matches_fig9(self, seeded):
        reference, graph, minseed = seeded
        read = reference[5_000:5_200]
        regions, _ = minseed.seed(read)
        m = len(read)
        e = minseed.error_rate
        for region in regions:
            seed = region.seed
            a, b = seed.read_start, seed.read_end
            c, d = seed.graph_start, seed.graph_end
            assert b == a + minseed.index.k - 1
            assert d == c + minseed.index.k - 1
            x = int(c - a * (1 + e))
            y = int(d + (m - b - 1) * (1 + e))
            assert region.start == max(0, x)
            assert region.end == min(graph.total_sequence_length, y + 1)

    def test_region_contains_room_for_whole_read(self, seeded):
        """The left+right extensions must make the region at least as
        long as the read (up to clamping at reference ends)."""
        reference, graph, minseed = seeded
        read = reference[10_000:10_400]
        regions, _ = minseed.seed(read)
        for region in regions:
            if region.start > 0 and \
                    region.end < graph.total_sequence_length:
                assert region.length >= len(read)

    def test_seed_matches_are_exact(self, seeded):
        """Every reported seed is a true exact k-mer match."""
        reference, graph, minseed = seeded
        read = reference[20_000:20_250]
        regions, _ = minseed.seed(read)
        k = minseed.index.k
        for region in regions:
            seed = region.seed
            read_kmer = read[seed.read_start:seed.read_start + k]
            node_seq = graph.sequence_of(seed.node_id)
            graph_kmer = node_seq[seed.node_offset:seed.node_offset + k]
            assert read_kmer == graph_kmer

    def test_duplicate_spans_deduped(self, seeded):
        _, _, minseed = seeded
        read = "ACGT" * 30  # highly periodic: many identical regions
        regions, stats = minseed.seed(read)
        spans = [(r.start, r.end) for r in regions]
        assert len(spans) == len(set(spans))

    def test_empty_read_rejected(self, seeded):
        _, _, minseed = seeded
        with pytest.raises(ValueError):
            minseed.seed("")

    def test_error_rate_validation(self, seeded):
        reference, graph, minseed = seeded
        with pytest.raises(ValueError):
            MinSeed(graph, minseed.index, error_rate=1.5)

    def test_stats_accounting(self, seeded):
        reference, _, minseed = seeded
        read = reference[8_000:8_300]
        regions, stats = minseed.seed(read)
        assert stats.region_count == len(regions)
        assert stats.seed_count >= stats.region_count
        assert stats.index_accesses > 0
        assert stats.surviving_minimizers == \
            stats.minimizer_count - stats.filtered_minimizers


class TestFrequencyFilter:
    def test_repetitive_minimizers_filtered(self):
        rng = random.Random(5)
        # A genome that is one repeated unit: every minimizer is highly
        # frequent except boundary effects.
        unit = random_reference(200, rng)
        reference = unit * 50 + random_reference(10_000, rng)
        graph = GenomeGraph.from_linear(reference, node_length=2_000)
        index = build_flat_index(graph, w=10, k=15, bucket_bits=12)
        # The repeat minimizers are ~2 % of distinct minimizers, all at
        # the same frequency; a 5 % top fraction clears the tie group.
        minseed = MinSeed(graph, index, error_rate=0.05,
                          freq_top_fraction=0.05)
        read = unit * 2
        regions, stats = minseed.seed(read)
        assert stats.filtered_minimizers > 0

    def test_explicit_threshold_respected(self, seeded):
        reference, graph, minseed = seeded
        strict = MinSeed(graph, minseed.index, error_rate=0.05,
                         freq_threshold=0)
        read = reference[1_000:1_300]
        regions, stats = strict.seed(read)
        # Threshold 0 discards every minimizer present in the index.
        assert regions == []
        assert stats.seed_count == 0
        assert stats.filtered_minimizers > 0


# ----------------------------------------------------------------------
# Chunk seeding
# ----------------------------------------------------------------------

class TestChunkSeeding:
    """A read's seeds do not depend on what it is chunked with."""

    @pytest.fixture(scope="class")
    def setup(self):
        rng = random.Random(2024)
        unit = random_reference(150, rng)
        contigs = [
            ("chrA", random_reference(3_000, rng) + unit * 3
             + random_reference(2_000, rng)),
            ("chrB", random_reference(900, rng)),
            ("chrC", unit + random_reference(2_500, rng)),
        ]
        refs = ReferenceSet.from_records(contigs, max_node_length=256)
        index = build_flat_index(refs.graph, w=5, k=11, bucket_bits=8)
        # The unit occurs four times: its minimizers are filtered.
        minseed = MinSeed(refs.graph, index, error_rate=0.07,
                          freq_threshold=3,
                          char_spans=refs.char_spans())
        reads = []
        for name, sequence in contigs:
            # Contig ends (clamped regions, equal spans), a repeat, an
            # N run, the other strand, a read with no hit at all.
            reads += [sequence[:90], sequence[-130:],
                      sequence[400:520], sequence[300:380] + "N" * 12
                      + sequence[392:470],
                      reverse_complement(sequence[600:760])]
        reads += [unit * 2, "ACGT" * 30, "N" * 40, "ACGTA",
                  random_reference(200, rng)]
        return minseed, index, reads

    def test_fixture_exercises_every_branch(self, setup):
        minseed, index, reads = setup
        seeded = minseed.seed_chunk(reads)
        totals = SeedingStats()
        for _, stats in seeded:
            totals.merge(stats)
        assert totals.filtered_minimizers > 0
        assert totals.seed_count > totals.region_count > 0
        assert any(not regions for regions, _ in seeded)
        ends = {0, *minseed._span_ends.tolist()}
        assert any(r.start in ends or r.end in ends
                   for regions, _ in seeded for r in regions)

    def test_chunk_equals_reference_for_every_rotation(self, setup):
        """Each read's regions are the one-read oracle's, ordered and
        capped by the record filter, at every position of the chunk."""
        minseed, index, reads = setup
        seeded = [reference_seed(minseed, index, read) for read in reads]
        for cap in (None, 1, 3):
            alone = [(filter_regions(regions, cap), stats)
                     for regions, stats in seeded]
            for shift in range(len(reads)):
                rotated = reads[shift:] + reads[:shift]
                assert minseed.seed_chunk(rotated, cap) == \
                    alone[shift:] + alone[:shift], (cap, shift)
        for read, expected in zip(reads, seeded):
            assert minseed.seed(read) == \
                (filter_regions(expected[0], None), expected[1])

    def test_region_fields_are_python_ints(self, setup):
        minseed, _, reads = setup
        for regions, stats in minseed.seed_chunk(reads):
            for region in regions:
                values = [region.start, region.end,
                          *dataclasses.asdict(region.seed).values()]
                assert all(type(value) is int for value in values)
            assert all(type(value) is int
                       for value in vars(stats).values())

    def test_empty_read_in_a_chunk_rejected(self, setup):
        minseed, _, reads = setup
        with pytest.raises(ValueError):
            minseed.seed_chunk(reads[:3] + [""])

    def test_empty_chunk(self, setup):
        assert setup[0].seed_chunk([]) == []
