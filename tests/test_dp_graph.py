"""Tests for the PaSGAL-style graph DP aligner."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.dp_graph import (
    GraphAlignmentSizeError,
    graph_align,
    graph_distance,
)
from oracles.dp_linear import semiglobal_distance
from repro.core.alignment import replay_alignment
from repro.graph.builder import Variant, build_graph
from repro.graph.genome_graph import GenomeGraph
from repro.graph.linearize import linearize
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)


def chain(text: str):
    return linearize(GenomeGraph.from_linear(text, node_length=3))


def bubble_graph():
    """ACGT -> (T | G) -> ACGT."""
    built = build_graph("ACGTTACGT", [Variant(4, 5, "G")])
    return linearize(built.graph)


class TestChainEquivalence:
    """On a chain graph, graph DP == linear fitting DP."""

    @settings(max_examples=150, deadline=None)
    @given(dna, dna)
    def test_distance_matches_linear(self, text, pattern):
        expected, _ = semiglobal_distance(text, pattern)
        distance, _ = graph_distance(chain(text), pattern)
        assert distance == expected

    @settings(max_examples=100, deadline=None)
    @given(dna, dna)
    def test_align_replays(self, text, pattern):
        lin = chain(text)
        result = graph_align(lin, pattern)
        assert replay_alignment(result.cigar, pattern, result.reference) \
            == result.distance
        distance, _ = graph_distance(lin, pattern)
        assert result.distance == distance


class TestGraphSemantics:
    def test_variant_path_aligns_exactly(self):
        lin = bubble_graph()
        # The alt path spells ACGTGACGT.
        distance, _ = graph_distance(lin, "ACGTGACGT")
        assert distance == 0
        # The backbone path spells ACGTTACGT.
        distance, _ = graph_distance(lin, "ACGTTACGT")
        assert distance == 0

    def test_non_path_sequence_costs_edits(self):
        lin = bubble_graph()
        distance, _ = graph_distance(lin, "ACGTCACGT")
        assert distance == 1

    def test_alignment_path_follows_graph_edges(self):
        lin = bubble_graph()
        result = graph_align(lin, "ACGTGACGT")
        assert result.distance == 0
        # Consecutive consumed positions must be graph successors.
        for src, dst in zip(result.path, result.path[1:]):
            assert dst in lin.successors[src]

    def test_deletion_hop_taken(self):
        # Deleting "TT" gives the haplotype ACGTACGT.
        built = build_graph("ACGTTTACGT", [Variant(4, 6, "")])
        lin = linearize(built.graph)
        result = graph_align(lin, "ACGTACGT")
        assert result.distance == 0

    def test_path_spells_reference_field(self):
        lin = bubble_graph()
        result = graph_align(lin, "ACGTGACG")
        assert result.reference == \
            "".join(lin.chars[p] for p in result.path)

    def test_empty_read_rejected(self):
        with pytest.raises(ValueError):
            graph_distance(bubble_graph(), "")

    def test_size_guard(self):
        with pytest.raises(GraphAlignmentSizeError):
            graph_align(bubble_graph(), "ACGT", max_cells=4)

    def test_pure_insertion_degenerate(self):
        lin = chain("A")
        distance, _ = graph_distance(lin, "TTTT")
        # 4 read chars vs 1 ref char: best is substitution+insertions
        # or pure insertions; both cost 4.
        assert distance == 4


class TestRandomGraphs:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_variant_haplotype_reads_align_with_few_edits(self, seed):
        rng = random.Random(seed)
        reference = random_reference(rng.randint(60, 200), rng)
        profile = VariantProfile(
            snp_rate=0.03, insertion_rate=0.01, deletion_rate=0.01,
            sv_rate=0.0, small_indel_max=3,
        )
        variants = simulate_variants(reference, rng, profile)
        built = build_graph(reference, variants)
        lin = linearize(built.graph)
        # A read copied straight off the backbone must align exactly.
        start = rng.randint(0, max(0, len(reference) - 30))
        read = reference[start:start + 30]
        if read:
            distance, _ = graph_distance(lin, read)
            assert distance == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_traceback_always_replays(self, seed):
        rng = random.Random(seed)
        reference = random_reference(rng.randint(40, 120), rng)
        profile = VariantProfile(
            snp_rate=0.05, insertion_rate=0.02, deletion_rate=0.02,
            sv_rate=0.0, small_indel_max=3,
        )
        variants = simulate_variants(reference, rng, profile)
        built = build_graph(reference, variants)
        lin = linearize(built.graph)
        read = "".join(rng.choice("ACGT") for _ in range(rng.randint(5, 40)))
        result = graph_align(lin, read)
        assert replay_alignment(result.cigar, read, result.reference) == \
            result.distance
        distance, _ = graph_distance(lin, read)
        assert result.distance == distance
