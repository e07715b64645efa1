"""End-to-end tests for the SeGraM mapper (S2G and S2S modes)."""

from __future__ import annotations

import random

import pytest

from repro import seq as seqmod
from repro.core.alignment import replay_alignment
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.graph.genome_graph import GraphError
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import random_reference
from repro.sim.shortread import ShortReadProfile, simulate_short_reads
from repro.sim.variants import VariantProfile, simulate_variants


CONFIG = SeGraMConfig(
    w=10, k=15, bucket_bits=12, error_rate=0.05,
    windowing=WindowingConfig(window_size=128, overlap=48, k=16),
    max_seeds_per_read=8,
)


@pytest.fixture(scope="module")
def linear_mapper():
    rng = random.Random(21)
    reference = random_reference(40_000, rng)
    mapper = SeGraM.from_reference(reference, config=CONFIG,
                                   max_node_length=4_000)
    return reference, mapper


@pytest.fixture(scope="module")
def graph_mapper():
    rng = random.Random(22)
    reference = random_reference(30_000, rng)
    profile = VariantProfile(
        snp_rate=0.003, insertion_rate=0.0008, deletion_rate=0.0008,
        sv_rate=0.00005, sv_min=20, sv_max=100,
    )
    variants = simulate_variants(reference, rng, profile)
    mapper = SeGraM.from_reference(reference, variants, config=CONFIG,
                                   max_node_length=4_000)
    return reference, variants, mapper


class TestS2SMapping:
    def test_exact_read_maps_to_origin(self, linear_mapper):
        reference, mapper = linear_mapper
        start = 11_111
        read = reference[start:start + 200]
        result = mapper.map_read(read, "exact")
        assert result.mapped
        assert result.distance == 0
        assert result.linear_position == start
        assert replay_alignment(result.cigar, read,
                                reference[start:start + 200]) == 0

    def test_noisy_short_reads_map_near_origin(self, linear_mapper):
        reference, mapper = linear_mapper
        rng = random.Random(31)
        reads = simulate_short_reads(
            reference, 20, rng,
            ShortReadProfile.illumina(read_length=150, error_rate=0.01),
        )
        mapped_near = 0
        for read in reads:
            result = mapper.map_read(read.sequence, read.name)
            if result.mapped and result.linear_position is not None and \
                    abs(result.linear_position - read.ref_start) <= 20:
                mapped_near += 1
        assert mapped_near >= 18  # >= 90 % sensitivity at 1 % error

    def test_distance_bounded_by_channel_errors(self, linear_mapper):
        reference, mapper = linear_mapper
        rng = random.Random(41)
        fragment = reference[5_000:5_400]
        read, errors = apply_errors(fragment, ErrorModel.illumina(0.02),
                                    rng)
        result = mapper.map_read(read, "noisy")
        assert result.mapped
        assert result.distance <= errors + 2

    def test_unmappable_read(self, linear_mapper):
        _, mapper = linear_mapper
        # A read with no exact 15-mer in common with the reference is
        # overwhelmingly likely for random 15-mers; use a fixed one.
        rng = random.Random(51)
        read = random_reference(120, rng)
        result = mapper.map_read(read, "alien")
        # Either unmapped (no seeds) or mapped with a poor score.
        if result.mapped:
            assert result.distance > 10
        else:
            assert result.seeding.region_count == 0

    def test_read_validation(self, linear_mapper):
        """Reads may contain N (the repro.seq ambiguity policy) but
        genuinely invalid characters still raise."""
        _, mapper = linear_mapper
        result = mapper.map_read("ACGN" * 5, "ambiguous")
        assert not result.mapped  # too short/ambiguous to seed
        with pytest.raises(Exception):
            mapper.map_read("ACGX", "bad")


class TestS2GMapping:
    def test_backbone_read_maps_exactly(self, graph_mapper):
        reference, _, mapper = graph_mapper
        start = 7_777
        read = reference[start:start + 250]
        result = mapper.map_read(read, "backbone")
        assert result.mapped
        assert result.distance == 0

    def test_variant_read_uses_alt_path(self, graph_mapper):
        """A read containing a SNP's alt allele must align with zero
        edits through the alt node — the core benefit of S2G mapping."""
        reference, variants, mapper = graph_mapper
        snps = [v for v in variants
                if v.end - v.start == 1 and len(v.alt) == 1
                and 2_000 < v.start < len(reference) - 2_000]
        assert snps, "fixture must contain SNPs"
        snp = snps[0]
        window = 120
        read = (reference[snp.start - window:snp.start]
                + snp.alt
                + reference[snp.end:snp.end + window])
        result = mapper.map_read(read, "variant")
        assert result.mapped
        assert result.distance == 0
        # The same read against the *linear* reference costs >= 1 edit.
        alt_nodes = set(mapper.refs.alt_nodes_of(result.contig))
        assert alt_nodes & set(result.path_nodes), \
            "alignment should route through an alt node"

    def test_path_nodes_are_connected(self, graph_mapper):
        reference, _, mapper = graph_mapper
        read = reference[3_000:3_300]
        result = mapper.map_read(read, "conn")
        assert result.mapped
        for src, dst in zip(result.path_nodes, result.path_nodes[1:]):
            assert dst in mapper.graph.successors(src)

    def test_map_reads_batch(self, graph_mapper):
        reference, _, mapper = graph_mapper
        batch = [("r1", reference[100:300]), ("r2", reference[500:700])]
        results = mapper.map_batch(batch)
        assert [r.read_name for r in results] == ["r1", "r2"]
        assert all(r.mapped for r in results)

    def test_identity_property(self, graph_mapper):
        reference, _, mapper = graph_mapper
        read = reference[9_000:9_200]
        result = mapper.map_read(read, "ident")
        assert result.identity == pytest.approx(1.0)


class TestConfigBehaviour:
    def test_requires_topologically_sorted_graph(self):
        """A reference set is re-checked by the engine: one restored
        from outside input (an index artifact) may carry a graph whose
        edges do not ascend."""
        from repro.graph.genome_graph import GenomeGraph
        from repro.refs import Contig, ReferenceSet
        graph = GenomeGraph()
        a, b = graph.add_node("ACGTACGTACGTACGTACGT"), \
            graph.add_node("ACGTACGTACGTACGTACGT")
        graph.add_edge(a, b)
        refs = ReferenceSet([Contig.from_graph("g", graph)])
        refs.graph.add_edge(b, a)
        with pytest.raises(GraphError):
            SeGraM(refs)

    def test_early_exit_stops_region_scan(self, linear_mapper):
        reference, _ = linear_mapper
        config = SeGraMConfig(
            w=10, k=15, bucket_bits=12, error_rate=0.05,
            windowing=WindowingConfig(window_size=128, overlap=48, k=16),
            early_exit_distance=0,
        )
        mapper = SeGraM.from_reference(reference[:20_000], config=config,
                                       max_node_length=4_000)
        read = reference[2_000:2_200]
        result = mapper.map_read(read, "early")
        assert result.mapped and result.distance == 0

    def test_negative_early_exit_rejected(self):
        """No alignment has a negative distance: the exit could never
        fire, so the value is a configuration error."""
        with pytest.raises(ValueError, match="early_exit_distance"):
            SeGraMConfig(early_exit_distance=-1)
        assert SeGraMConfig(early_exit_distance=0) \
            .early_exit_distance == 0

    @pytest.mark.parametrize("hop_limit", [0, -1])
    def test_non_positive_hop_limit_rejected(self, hop_limit):
        """A hop queue of no entries is a configuration error, refused
        when the config is built rather than at the first mapping
        call (which builds the linearization)."""
        with pytest.raises(ValueError, match="hop_limit must be >= 1"):
            SeGraMConfig(hop_limit=hop_limit)
        assert SeGraMConfig(hop_limit=1).hop_limit == 1
        assert SeGraMConfig(hop_limit=None).hop_limit is None

    def test_no_chaining_field(self):
        """MinSeed sends every kept region to BitAlign (Section 11.4):
        the config has no chaining switch."""
        with pytest.raises(TypeError):
            SeGraMConfig(chaining=True)

    @pytest.mark.parametrize("cap", [0, -1, -3])
    def test_non_positive_seed_cap_rejected(self, cap):
        """0 would keep no region and a negative cap would drop the
        last ones (``regions[:-n]``): both are configuration errors."""
        with pytest.raises(ValueError, match="max_seeds_per_read"):
            SeGraMConfig(max_seeds_per_read=cap)
        assert SeGraMConfig(max_seeds_per_read=1).max_seeds_per_read == 1
        assert SeGraMConfig(max_seeds_per_read=None) \
            .max_seeds_per_read is None

    @pytest.mark.parametrize("rate", [-1.0, -0.01, 1.0, 1.5])
    def test_error_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="error_rate"):
            SeGraMConfig(error_rate=rate)
        assert SeGraMConfig(error_rate=0.0).error_rate == 0.0

    def test_forward_wins_strand_ties(self):
        """A read whose forward and reverse-complement orientations
        both align at the same distance must report strand '+' — the
        deterministic tie-break of the select stage."""
        rng = random.Random(61)
        fragment = random_reference(300, rng)
        reference = (random_reference(3_000, rng) + fragment
                     + random_reference(3_000, rng)
                     + seqmod.reverse_complement(fragment)
                     + random_reference(3_000, rng))
        config = SeGraMConfig(
            w=10, k=15, bucket_bits=12, error_rate=0.05,
            windowing=WindowingConfig(window_size=128, overlap=48, k=16),
            both_strands=True,
        )
        mapper = SeGraM.from_reference(reference, config=config,
                                       max_node_length=4_000)
        # Both orientations hit exactly (distance 0): forward at the
        # fragment, reverse at its reverse complement.
        result = mapper.map_read(fragment, "tie")
        assert result.mapped
        assert result.distance == 0
        assert result.strand == "+"
        # The reverse-complemented read also ties — and still reports
        # '+', because its *forward* orientation hits the RC site.
        rc_result = mapper.map_read(
            seqmod.reverse_complement(fragment), "tie_rc")
        assert rc_result.mapped
        assert rc_result.distance == 0
        assert rc_result.strand == "+"

    def test_both_strands(self, linear_mapper):
        reference, _ = linear_mapper
        config = SeGraMConfig(
            w=10, k=15, bucket_bits=12, error_rate=0.05,
            windowing=WindowingConfig(window_size=128, overlap=48, k=16),
            both_strands=True, max_seeds_per_read=8,
        )
        mapper = SeGraM.from_reference(reference[:20_000], config=config,
                                       max_node_length=4_000)
        fragment = reference[4_000:4_200]
        result = mapper.map_read(seqmod.reverse_complement(fragment),
                                 "rc")
        assert result.mapped
        assert result.strand == "-"
        assert result.distance == 0
