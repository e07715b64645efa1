"""Tests for the multi-contig reference abstraction (repro.refs).

Covers ReferenceSet construction and validation, global <-> contig
coordinate translation, the single-contig bit-for-bit degeneration,
and the contig-boundary clamping contract: reads seeding near (or
across) a contig boundary must never produce candidate regions or
alignments spanning two contigs — including on the reverse strand and
through the mate-rescue path.
"""

from __future__ import annotations

import random

import pytest

from repro import seq as seqmod
from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.core.minseed import MinSeed
from repro.core.pairing import PairedEndConfig, PairedEndMapper
from repro.core.windows import WindowingConfig
from repro.graph.builder import build_graph
from repro.graph.genome_graph import GenomeGraph
from repro.io.vcf import VcfRecord
from repro.refs import Contig, ReferenceSetError, ReferenceSet
from repro.sim.reference import multi_contig_reference, random_reference


CONFIG = SeGraMConfig(
    w=10, k=15, bucket_bits=12, error_rate=0.05,
    windowing=WindowingConfig(window_size=128, overlap=48, k=16),
    max_seeds_per_read=8, both_strands=True,
)


@pytest.fixture(scope="module")
def contigs():
    rng = random.Random(0xC0117)
    return multi_contig_reference([5_000, 4_000, 3_000], rng)


@pytest.fixture(scope="module")
def refs(contigs):
    return ReferenceSet.from_records(contigs, max_node_length=1_024)


@pytest.fixture(scope="module")
def mapper(refs):
    return SeGraM(refs, config=CONFIG)


class TestContig:
    def test_linear_and_graph_backing(self):
        linear = Contig.linear("chrA", "ACGTACGT")
        assert linear.is_linear and linear.length == 8
        graph = GenomeGraph()
        graph.add_node("ACGTAC")
        backed = Contig.from_graph("g1", graph)
        assert not backed.is_linear and backed.length == 6

    def test_exactly_one_backing_required(self):
        with pytest.raises(ReferenceSetError):
            Contig(name="x")
        graph = GenomeGraph()
        graph.add_node("ACGT")
        with pytest.raises(ReferenceSetError):
            Contig(name="x", sequence="ACGT", graph=graph)

    def test_invalid_names_rejected(self):
        with pytest.raises(ReferenceSetError):
            Contig.linear("", "ACGT")
        with pytest.raises(ReferenceSetError):
            Contig.linear("chr 1", "ACGT")


class TestReferenceSetConstruction:
    def test_contiguous_partition(self, contigs, refs):
        spans = refs.char_spans()
        assert spans[0][0] == 0
        assert spans[-1][1] == refs.graph.total_sequence_length
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        lengths = [len(seq) for _, seq in contigs]
        assert [hi - lo for lo, hi in spans] == lengths
        assert refs.sam_contigs() == \
            [(name, len(seq)) for name, seq in contigs]

    def test_no_inter_contig_edges(self, refs):
        graph = refs.graph
        assert graph.is_topologically_sorted()
        for name in refs.names:
            lo, hi = refs.char_span(name)
            first, _ = graph.node_at_offset(lo)
            last, _ = graph.node_at_offset(hi - 1)
            for src, dst in graph.edges():
                # An edge never leaves the contig's node range.
                assert (first <= src <= last) == (first <= dst <= last)
            break  # one contig suffices; the rule is range-symmetric

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReferenceSetError):
            ReferenceSet([Contig.linear("c", "ACGTACGT"),
                          Contig.linear("c", "TTTTACGT")])
        with pytest.raises(ReferenceSetError):
            ReferenceSet([])

    def test_backbones_spell_contigs(self, contigs, refs):
        for name, sequence in contigs:
            assert refs.backbone(name) == sequence

    def test_single_contig_matches_build_graph(self):
        rng = random.Random(3)
        sequence = random_reference(2_000, rng)
        refs = ReferenceSet.from_records([("chr1", sequence)],
                                         max_node_length=512)
        built = build_graph(sequence, name="chr1",
                            max_node_length=512)
        assert refs.graph.node_count == built.graph.node_count
        for node in range(built.graph.node_count):
            assert refs.graph.sequence_of(node) == \
                built.graph.sequence_of(node)
        assert sorted(refs.graph.edges()) == \
            sorted(built.graph.edges())

    def test_vcf_routing_by_chrom(self):
        rng = random.Random(11)
        seqs = multi_contig_reference([800, 700], rng)
        (n1, s1), (n2, s2) = seqs
        alt1 = "G" if s1[100] != "G" else "C"
        refs = ReferenceSet.from_records(
            seqs, [VcfRecord(n1, 101, s1[100], alt1)],
            max_node_length=256,
        )
        # The variant splits chr1's backbone but not chr2's.
        assert refs.alt_nodes_of(n1)
        assert not refs.alt_nodes_of(n2)
        # Alt nodes are combined-graph IDs inside chr1's node range.
        for node in refs.alt_nodes_of(n1):
            assert refs.contig_of_node(node) == n1
        with pytest.raises(ReferenceSetError):
            ReferenceSet.from_records(
                seqs, [VcfRecord("chrX", 10, s1[9], "A")])

    def test_graph_backed_contig(self, contigs):
        graph = GenomeGraph(name="gfa")
        a = graph.add_node("ACGTACGTGGAA")
        b = graph.add_node("TTGACCAGGTCA")
        graph.add_edge(a, b)
        refs = ReferenceSet([
            Contig.linear("chr1", contigs[0][1]),
            Contig.from_graph("g1", graph),
        ])
        assert refs.backbone("g1") is None
        node = refs.graph.node_count - 1
        name, local = refs.project(node, 3)
        assert name == "g1" and local is None


class TestCoordinateTranslation:
    def test_contig_of_char_at_boundaries(self, refs):
        for name in refs.names:
            lo, hi = refs.char_span(name)
            assert refs.contig_of_char(lo) == name
            assert refs.contig_of_char(hi - 1) == name
        with pytest.raises(ReferenceSetError):
            refs.contig_of_char(-1)
        with pytest.raises(ReferenceSetError):
            refs.contig_of_char(refs.graph.total_sequence_length)

    def test_project_round_trips_positions(self, contigs, refs):
        # Every contig's first and last base projects to local 0 /
        # length-1 on the right contig.
        for name, sequence in contigs:
            lo, hi = refs.char_span(name)
            for offset, expected in ((lo, 0),
                                     (hi - 1, len(sequence) - 1)):
                node, in_node = refs.graph.node_at_offset(offset)
                contig, local = refs.project(node, in_node)
                assert (contig, local) == (name, expected)

    def test_contig_of_node_partitions(self, refs):
        seen = {name: 0 for name in refs.names}
        for node in range(refs.graph.node_count):
            seen[refs.contig_of_node(node)] += 1
        assert all(count > 0 for count in seen.values())
        with pytest.raises(ReferenceSetError):
            refs.contig_of_node(refs.graph.node_count)


class TestBoundaryClamping:
    """Satellite: no region or alignment may span two contigs."""

    def test_seed_regions_clamped_at_boundaries(self, contigs, refs,
                                                mapper):
        minseed: MinSeed = mapper.minseed
        spans = {name: refs.char_span(name) for name in refs.names}
        # A read from the very end of chr1: its rightward extension
        # would cross into chr2's character space without clamping.
        (n1, s1), (n2, s2) = contigs[0], contigs[1]
        # The pipeline seeds reverse-strand reads after reverse-
        # complementing them, so the oriented read below is exactly
        # what a '-' mapping of its RC would seed — both strands hit
        # this clamp.
        for read in (
            s1[-300:],                       # right boundary of chr1
            s2[:300],                        # left boundary of chr2
        ):
            regions, _ = minseed.seed(read)
            assert regions, "boundary read must still seed"
            for region in regions:
                lo, hi = spans[refs.contig_of_char(region.start)]
                assert lo <= region.start < region.end <= hi

    def test_unclamped_seeding_would_cross(self, contigs, refs):
        """The clamp is load-bearing: the same seeds without
        char_spans produce regions crossing the chr1/chr2 line."""
        (n1, s1), _ = contigs[0], contigs[1]
        bare = MinSeed(refs.graph, SeGraM(
            refs, config=CONFIG).index, error_rate=CONFIG.error_rate)
        regions, _ = bare.seed(s1[-300:])
        boundary = refs.char_span(n1)[1]
        assert any(r.end > boundary for r in regions)

    def test_junction_read_maps_within_one_contig(self, contigs,
                                                  mapper, refs):
        """A read straddling the concatenation junction must not be
        placed across two contigs (there is no such locus)."""
        (n1, s1), (n2, s2) = contigs[0], contigs[1]
        junction = s1[-150:] + s2[:150]
        for read in (junction, seqmod.reverse_complement(junction)):
            result = mapper.map_read(read, "junction")
            if not result.mapped:
                continue
            homes = {refs.contig_of_node(node)
                     for node in result.path_nodes}
            assert len(homes) == 1
            home = homes.pop()
            assert result.contig == home
            length = dict(refs.sam_contigs())[home]
            assert 0 <= result.linear_position < length

    def test_mapped_reads_stay_contig_local(self, contigs, mapper):
        for name, sequence in contigs:
            read = sequence[-240:]
            result = mapper.map_read(read, f"{name}_tail")
            assert result.mapped
            assert result.contig == name
            assert result.linear_position == len(sequence) - 240

    def test_rescue_window_clamped_to_anchor_contig(self, contigs,
                                                    refs, mapper):
        """Mate rescue near a contig end must not search (or place)
        across the boundary, even though chr2's characters directly
        follow chr1's in the global space."""
        (n1, s1), (n2, s2) = contigs[0], contigs[1]
        engine = PairedEndMapper(mapper, PairedEndConfig(
            insert_mean=350.0, insert_std=50.0))
        anchor = mapper.map_read(s1[-150:], "anchor/1")
        assert anchor.contig == n1
        unplaced = MappingResult(read_name="anchor/2",
                                 read_length=150, mapped=False)

        def rescued_mates(read2):
            """Mate-2 placements ``map_pair``'s rescue path derives
            from the anchor when mate 2 itself found nothing."""
            return [combo.mate2 for combo in engine._rescue_combos(
                anchor, unplaced, s1[-150:], read2)]

        # The would-be mate lies at the start of chr2 — adjacent in
        # global characters, unreachable within the anchor's contig.
        foreign = seqmod.reverse_complement(s2[:150])
        for rescued in rescued_mates(foreign):
            assert rescued.contig == n1
            assert 0 <= rescued.linear_position < len(s1)
        # A genuine intra-contig mate near the same boundary rescues
        # into chr1 coordinates.
        inward = seqmod.reverse_complement(s1[-120:])
        recovered, = rescued_mates(inward)
        assert recovered.contig == n1
        assert 0 <= recovered.linear_position < len(s1)


class TestCrossContigScoring:
    def test_score_combo_cross_contig_never_proper(self, mapper):
        engine = PairedEndMapper(mapper, PairedEndConfig())
        from repro.core.alignment import Cigar

        def placed(contig, position, strand):
            return MappingResult(
                read_name="m", read_length=100, mapped=True,
                distance=0, cigar=Cigar.from_string("100="),
                linear_position=position, contig=contig,
                strand=strand,
            )

        cross = engine._score_combo(placed("chr1", 100, "+"),
                                    placed("chr2", 380, "-"))
        assert cross is not None
        assert not cross.proper
        assert cross.template_length is None
        assert cross.score == engine.config.unpaired_penalty
        intra = engine._score_combo(placed("chr1", 100, "+"),
                                    placed("chr1", 380, "-"))
        assert intra.proper
        assert intra.score < cross.score
