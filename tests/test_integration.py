"""Cross-cutting integration and property tests.

These tie subsystems together end to end: simulated genomes through
graph construction, indexing, mapping, and output formats, with
replay-level validation of every alignment the pipeline reports.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.dp_graph import graph_distance
from repro.core.bitalign import bitalign_distance
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.windows import WindowedAligner, WindowingConfig
from repro.graph.builder import build_graph
from repro.graph.gfa import read_gfa, write_gfa
from repro.graph.linearize import linearize
from repro.io.gaf import result_to_gaf, validate_gaf_record
from repro.io.sam import result_to_sam, validate_sam_record
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants
import io


def _random_built(seed: int, length=300, snp=0.03, indel=0.01):
    rng = random.Random(seed)
    reference = random_reference(length, rng)
    profile = VariantProfile(snp_rate=snp, insertion_rate=indel,
                             deletion_rate=indel, sv_rate=0.0,
                             small_indel_max=4)
    variants = simulate_variants(reference, rng, profile)
    return build_graph(reference, variants), reference, rng


class TestGfaRoundtripProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_variation_graphs_roundtrip(self, seed):
        built, _, _ = _random_built(seed)
        buffer = io.StringIO()
        write_gfa(built.graph, buffer)
        buffer.seek(0)
        parsed = read_gfa(buffer)
        assert parsed.node_count == built.graph.node_count
        assert sorted(parsed.edges()) == sorted(built.graph.edges())
        assert [n.sequence for n in parsed.nodes()] == \
            [n.sequence for n in built.graph.nodes()]


class TestWindowedVsExactOnGraphs:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_single_window_reads_match_dp(self, seed):
        """On graphs (not just chains), reads fitting one window get
        the exact DP distance from the windowed aligner."""
        built, reference, rng = _random_built(seed, length=200)
        lin = linearize(built.graph)
        start = rng.randint(0, max(0, len(reference) - 60))
        read = reference[start:start + rng.randint(10, 60)]
        if not read:
            return
        chars = list(read)
        for _ in range(rng.randint(0, 2)):
            chars[rng.randrange(len(chars))] = rng.choice("ACGT")
        read = "".join(chars)
        aligner = WindowedAligner(WindowingConfig(window_size=128,
                                                  overlap=48, k=16))
        result = aligner.align(lin, read)
        dp, _ = graph_distance(lin, read)
        assert result.distance == dp

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_hop_limit_never_improves_distance(self, seed):
        built, reference, rng = _random_built(seed, length=200)
        exact = linearize(built.graph)
        limited = linearize(built.graph, hop_limit=3)
        start = rng.randint(0, max(0, len(reference) - 40))
        read = reference[start:start + 30]
        if len(read) < 10:
            return
        k = len(read)
        exact_result = bitalign_distance(exact, read, k)
        limited_result = bitalign_distance(limited, read, k)
        assert exact_result is not None
        assert limited_result is not None
        assert limited_result[0] >= exact_result[0]


class TestEndToEndPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        rng = random.Random(4242)
        reference = random_reference(40_000, rng)
        profile = VariantProfile(snp_rate=0.003,
                                 insertion_rate=0.0005,
                                 deletion_rate=0.0005, sv_rate=0.0)
        variants = simulate_variants(reference, rng, profile)
        mapper = SeGraM.from_reference(
            reference, variants,
            config=SeGraMConfig(
                w=10, k=15, bucket_bits=12, error_rate=0.03,
                windowing=WindowingConfig(window_size=128, overlap=48,
                                          k=16),
                max_seeds_per_read=4,
            ),
            max_node_length=4_000,
        )
        return mapper, reference, rng

    def test_every_mapped_read_produces_valid_gaf(self, pipeline):
        mapper, reference, rng = pipeline
        for _ in range(8):
            start = rng.randint(0, len(reference) - 400)
            fragment = reference[start:start + 300]
            read, _ = apply_errors(fragment, ErrorModel.illumina(0.01),
                                   rng)
            result = mapper.map_read(read, f"r{start}")
            if not result.mapped:
                continue
            record = result_to_gaf(result, mapper.graph, read)
            assert record is not None
            validate_gaf_record(record, mapper.graph)

    def test_every_mapped_read_produces_valid_sam(self, pipeline):
        mapper, reference, rng = pipeline
        for _ in range(5):
            start = rng.randint(0, len(reference) - 300)
            read = reference[start:start + 250]
            result = mapper.map_read(read, f"s{start}")
            if result.mapped:
                record = result_to_sam(result, read)
                validate_sam_record(record)

    def test_mapping_is_deterministic(self, pipeline):
        mapper, reference, _ = pipeline
        read = reference[10_000:10_300]
        first = mapper.map_read(read, "det")
        second = mapper.map_read(read, "det")
        assert first.distance == second.distance
        assert first.cigar == second.cigar
        assert first.node_id == second.node_id
        assert first.path_nodes == second.path_nodes

    def test_reported_distance_replays_via_graph_path(self, pipeline):
        """Reconstruct the reference side from the reported graph path
        and re-validate the CIGAR against it — the strongest
        end-to-end consistency check."""
        mapper, reference, _ = pipeline
        read = reference[20_000:20_400]
        result = mapper.map_read(read, "replay")
        assert result.mapped
        spelled = "".join(mapper.graph.sequence_of(n)
                          for n in result.path_nodes)
        consumed = spelled[result.node_offset:
                           result.node_offset
                           + result.cigar.ref_consumed]
        from repro.core.alignment import replay_alignment
        assert replay_alignment(result.cigar, read, consumed) == \
            result.distance
