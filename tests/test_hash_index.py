"""Tests for the three-level hash-table index (paper Fig. 6)."""

from __future__ import annotations

import random

import pytest

from repro.graph.genome_graph import GenomeGraph
from repro.index.flat_index import (
    BUCKET_ENTRY_BYTES,
    LOCATION_ENTRY_BYTES,
    MINIMIZER_ENTRY_BYTES,
    SeedHit,
    build_flat_index,
)
from repro.index.minimizer import minimizers
from repro.index.occurrence import discarded_count, frequency_threshold
from repro.sim.reference import reference_with_repeats


@pytest.fixture(scope="module")
def indexed_graph():
    rng = random.Random(42)
    reference = reference_with_repeats(20_000, rng, repeat_fraction=0.15)
    graph = GenomeGraph.from_linear(reference, node_length=1000)
    index = build_flat_index(graph, w=10, k=15, bucket_bits=12)
    return graph, index


class TestLookup:
    def test_every_indexed_minimizer_is_findable(self, indexed_graph):
        graph, index = indexed_graph
        for node in list(graph.nodes())[:3]:
            for minimizer in minimizers(node.sequence, w=10, k=15):
                hits = index.lookup(minimizer.score)
                assert SeedHit(node.node_id, minimizer.position) in hits

    def test_lookup_matches_brute_force_locations(self, indexed_graph):
        graph, index = indexed_graph
        # Collect ground truth by scanning every node.
        truth: dict[int, set[SeedHit]] = {}
        for node in graph.nodes():
            for m in minimizers(node.sequence, w=10, k=15):
                truth.setdefault(m.score, set()).add(
                    SeedHit(node.node_id, m.position))
        assert index.distinct_minimizers == len(truth)
        for hash_value, hits in list(truth.items())[:200]:
            assert set(index.lookup(hash_value)) == hits

    def test_missing_hash(self, indexed_graph):
        _, index = indexed_graph
        assert index.lookup(123456789) == ()
        assert index.frequency(123456789) == 0

    def test_frequency_equals_location_count(self, indexed_graph):
        _, index = indexed_graph
        frequencies = index.frequencies()
        assert sum(frequencies) == index.total_locations

    def test_nodes_shorter_than_k_skipped(self):
        graph = GenomeGraph()
        graph.add_node("ACGT")  # shorter than k=15
        index = build_flat_index(graph, w=5, k=15, bucket_bits=4)
        assert index.distinct_minimizers == 0


class TestLayout:
    def test_footprint_formulas(self, indexed_graph):
        _, index = indexed_graph
        layout = index.layout()
        assert layout.first_level_bytes == \
            (1 << 12) * BUCKET_ENTRY_BYTES
        assert layout.second_level_bytes == \
            index.distinct_minimizers * MINIMIZER_ENTRY_BYTES
        assert layout.third_level_bytes == \
            index.total_locations * LOCATION_ENTRY_BYTES
        assert layout.total_bytes == (
            layout.first_level_bytes + layout.second_level_bytes
            + layout.third_level_bytes
        )

    def test_fig7_tradeoff_direction(self, indexed_graph):
        """Fewer buckets -> smaller footprint but more collisions
        (paper Fig. 7)."""
        _, index = indexed_graph
        small = index.layout(bucket_bits=6)
        large = index.layout(bucket_bits=16)
        assert small.total_bytes < large.total_bytes
        assert small.max_minimizers_per_bucket >= \
            large.max_minimizers_per_bucket

    def test_bucket_occupancy_accounts_for_all(self, indexed_graph):
        _, index = indexed_graph
        layout = index.layout(bucket_bits=1)
        # With 2 buckets the max bucket holds at least half.
        assert layout.max_minimizers_per_bucket >= \
            index.distinct_minimizers // 2

    def test_invalid_bucket_bits(self, indexed_graph):
        _, index = indexed_graph
        with pytest.raises(ValueError):
            index.layout(bucket_bits=0)


class TestLookupCost:
    def test_cost_components(self, indexed_graph):
        _, index = indexed_graph
        hash_value = int(index.min_hash[0])
        cost = index.lookup_cost(hash_value)
        assert cost.bucket_probe == 1
        assert cost.minimizers_scanned >= 1
        assert cost.locations_fetched == index.frequency(hash_value)
        assert cost.total_accesses == (
            1 + cost.minimizers_scanned + cost.locations_fetched
        )


class TestFrequencyThreshold:
    def test_empty(self):
        assert frequency_threshold([]) == 0

    def test_uniform_distribution_discards_nothing(self):
        frequencies = [1] * 1000
        threshold = frequency_threshold(frequencies, top_fraction=0.0002)
        assert discarded_count(frequencies, threshold) == 0

    def test_top_fraction_discarded(self):
        # 10000 minimizers, 10 very frequent ones; 0.1 % -> discard 10.
        frequencies = [1] * 9990 + [1000] * 10
        threshold = frequency_threshold(frequencies, top_fraction=0.001)
        assert threshold == 1
        assert discarded_count(frequencies, threshold) == 10

    def test_discard_share_never_exceeds_fraction(self):
        rng = random.Random(3)
        frequencies = [rng.randint(1, 50) for _ in range(5000)]
        for fraction in (0.0, 0.001, 0.01, 0.1):
            threshold = frequency_threshold(frequencies, fraction)
            assert discarded_count(frequencies, threshold) <= \
                fraction * len(frequencies)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            frequency_threshold([1], top_fraction=1.0)
        with pytest.raises(ValueError):
            frequency_threshold([1], top_fraction=-0.1)

    def test_repeats_produce_frequency_skew(self, indexed_graph):
        """The planted repeats give some minimizers high frequency —
        the situation the 0.02 % filter exists for."""
        _, index = indexed_graph
        frequencies = index.frequencies()
        assert max(frequencies) >= 3
