"""Tests for the public mapping facade (repro.api).

The acceptance contract of the API redesign:

* ``repro.api.Mapper`` results are **parity-tested** — whole
  ``MappingResult`` / ``PairResult`` equality, contig and graph path
  included — against the ``SeGraM`` engine's ``map_batch`` / ``map_pairs``,
  under ``jobs`` 1/2 and either (ignored) ``align_backend`` name;
* every mapped result of every engine constructor carries its contig;
* multi-contig end-to-end: a 3-contig reference maps pairs to a SAM
  with three ``@SQ`` lines, per-contig RNAME/RNEXT (``=`` shorthand
  intra-contig), and planted inter-contig pairs classified
  ``different_reference`` in PairStats, the SAM ``YC:Z:`` tag, and
  the ``--discordant-out`` report;
* the unmapped-mate SAM record is co-located with the mapped mate's
  *contig* (never a hard-coded single reference name) and
  round-trips.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.api import Mapper, MappingRecord, as_reference_set
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.pairing import CATEGORY_DIFFERENT_REFERENCE, \
    PairedEndConfig
from repro.core.windows import WindowingConfig
from repro.graph.builder import build_graph
from repro.io.discordant import (
    read_discordant_report,
    write_discordant_report,
)
from repro.io.sam import (
    SamWriter,
    pair_to_sam,
    read_sam,
    validate_sam_pair,
    validate_sam_record,
)
from repro.refs import Contig, ReferenceSet
from repro.sim.pairedend import (
    PairedEndProfile,
    simulate_fragments,
    simulate_multi_contig_fragments,
)
from repro.sim.reference import multi_contig_reference, random_reference


def _config(**overrides) -> SeGraMConfig:
    base = dict(
        w=10, k=15, bucket_bits=12, error_rate=0.05,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4, both_strands=True,
    )
    base.update(overrides)
    return SeGraMConfig(**base)


PROFILE = PairedEndProfile.illumina(
    read_length=100, error_rate=0.01,
    insert_mean=350.0, insert_std=50.0,
)


@pytest.fixture(scope="module")
def single_workload():
    rng = random.Random(0xAB1)
    reference = random_reference(12_000, rng)
    reads = []
    for index in range(8):
        start = rng.randrange(0, len(reference) - 300)
        reads.append((f"read{index}",
                      reference[start:start + 300]))
    fragments = simulate_fragments(reference, 6, rng, PROFILE)
    pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
             for f in fragments]
    return reference, reads, pairs


@pytest.fixture(scope="module")
def multi_workload():
    rng = random.Random(0xAB2)
    contigs = multi_contig_reference([6_000, 5_000, 4_000], rng)
    fragments = simulate_multi_contig_fragments(
        contigs, 9, rng, PROFILE, inter_pairs=3)
    pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
             for f in fragments]
    return contigs, fragments, pairs


class TestFacadeParity:
    """Acceptance: facade == engines, jobs 1 and 2, under each
    ``align_backend`` name the config still accepts and ignores."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_single_end_parity(self, single_workload, backend, jobs):
        reference, reads, _ = single_workload
        config = _config(align_backend=backend)
        engine = SeGraM.from_reference(reference, config=config,
                                       name="chr1",
                                       max_node_length=1_024)
        facade = Mapper(reference, config=config, name="chr1",
                        max_node_length=1_024)
        expected = engine.map_batch(reads, jobs=jobs)
        records = facade.map_batch(reads, jobs=jobs)
        assert len(records) == len(expected)
        assert any(result.mapped for result in expected)
        for record, result in zip(records, expected):
            assert record.result == result
            assert record.contig == result.contig == "chr1"
            assert record.position == result.linear_position
            assert record.mapq == result.mapq

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_paired_parity(self, single_workload, backend, jobs):
        reference, _, pairs = single_workload
        config = _config(align_backend=backend)
        pair_config = PairedEndConfig(insert_mean=350.0,
                                      insert_std=50.0)
        engine = SeGraM.from_reference(reference, config=config,
                                       name="chr1",
                                       max_node_length=1_024)
        facade = Mapper(reference, config=config,
                        pair_config=pair_config, name="chr1",
                        max_node_length=1_024)
        expected = engine.map_pairs(pairs, pair_config, jobs=jobs)
        records = facade.map_pairs(pairs, jobs=jobs)
        assert len(records) == len(expected)
        for (rec1, rec2), pair in zip(records, expected):
            assert rec1.pair == rec2.pair == pair
            assert rec1.pair_category == pair.category
            assert rec1.proper_pair == pair.proper
            assert rec1.template_length == pair.template_length
            assert rec1.result == pair.mate1
            assert rec2.result == pair.mate2
            assert rec1.mapq == \
                pair.mate1.mapq_with(proper_pair=pair.proper)
        assert facade.pair_stats is facade.stats.pairs
        assert facade.pair_stats == engine.stats.pairs
        assert facade.pair_stats.pairs == len(pairs)


def _engine(constructor: str, reference: str, tmp_path) -> SeGraM:
    config = _config()
    if constructor == "from_reference":
        return SeGraM.from_reference(reference, config=config,
                                     name="chr1")
    if constructor == "graph":
        graph = build_graph(reference).graph
        return SeGraM(ReferenceSet([Contig.from_graph("chr1", graph)]),
                      config=config)
    mapper = Mapper(reference, config=config, name="chr1")
    if constructor == "Mapper.from_artifact":
        mapper = Mapper.from_artifact(
            mapper.save_index(tmp_path / "ref.sgidx"), config=config)
    return mapper.engine


class TestEveryResultHasAContig:
    """The engine holds one reference shape, a ReferenceSet, so every
    mapped result — single-end, pair mates and their candidates —
    names its contig, whichever constructor built the engine."""

    @pytest.mark.parametrize("constructor", [
        "from_reference", "graph", "Mapper", "Mapper.from_artifact"])
    def test_mapped_results_carry_the_contig(self, single_workload,
                                             tmp_path, constructor):
        reference, reads, pairs = single_workload
        engine = _engine(constructor, reference, tmp_path)
        pair_config = PairedEndConfig(insert_mean=350.0, insert_std=50.0)
        results = engine.map_batch(reads) + [
            mate for pair in engine.map_pairs(pairs, pair_config)
            for mate in (pair.mate1, pair.mate2)]
        mapped = [result for result in results if result.mapped]
        assert len(mapped) > len(results) // 2
        for result in mapped:
            assert result.contig == "chr1"
            assert all(candidate.contig == "chr1"
                       for candidate in result.candidates)
            # Only graph-backed contigs lack a linear projection.
            assert (result.linear_position is None) == \
                (constructor == "graph")


class TestFacadeSurface:
    def test_map_returns_record(self, single_workload):
        reference, reads, _ = single_workload
        facade = Mapper(reference, config=_config(), name="chr1",
                        max_node_length=1_024)
        record = facade.map(reads[0][1], reads[0][0])
        assert isinstance(record, MappingRecord)
        assert record.mapped and record.contig == "chr1"
        assert record.cigar and record.edit_distance is not None
        assert not record.paired

    def test_map_batch_accepts_bare_strings(self, single_workload):
        reference, reads, _ = single_workload
        facade = Mapper(reference, config=_config(), name="chr1",
                        max_node_length=1_024)
        records = facade.map_batch([seq for _, seq in reads[:2]])
        assert [r.read_name for r in records] == ["read0", "read1"]

    def test_map_pairs_parallel_lists(self, single_workload):
        reference, _, pairs = single_workload
        facade = Mapper(reference, config=_config(), name="chr1",
                        max_node_length=1_024)
        names = [name for name, _, _ in pairs]
        r1 = [(name, read1) for name, read1, _ in pairs]
        r2 = [(name, read2) for name, _, read2 in pairs]
        records = facade.map_pairs(r1, r2)
        assert [rec1.read_name.rsplit("/", 1)[0]
                for rec1, _ in records] == names
        with pytest.raises(ValueError):
            facade.map_pairs(r1, r2[:-1])
        # A re-sorted R2 list silently pairing unrelated reads would
        # corrupt every pair statistic: names are cross-checked.
        with pytest.raises(ValueError, match="mate name mismatch"):
            facade.map_pairs(r1, list(reversed(r2)))

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, single_workload, jobs):
        """Every sharded entry point rejects ``jobs < 1`` before
        mapping anything."""
        reference, reads, pairs = single_workload
        facade = Mapper(reference, config=_config(), name="chr1",
                        max_node_length=1_024)
        message = f"jobs must be >= 1, got {jobs}"
        with pytest.raises(ValueError, match=message):
            facade.map_batch(reads, jobs=jobs)
        with pytest.raises(ValueError, match=message):
            facade.map_pairs(pairs, jobs=jobs)
        with pytest.raises(ValueError, match=message):
            facade.engine.map_batch(reads, jobs=jobs)
        assert facade.stats.reads == 0
        assert facade.pair_stats.pairs == 0

    def test_graph_reference_rejects_variants(self):
        from repro.graph.builder import Variant
        from repro.graph.genome_graph import GenomeGraph
        from repro.refs import ReferenceSetError

        graph = GenomeGraph(name="g")
        graph.add_node("ACGTACGTACGTACGT")
        with pytest.raises(ReferenceSetError):
            as_reference_set(graph, [Variant(1, 2, "T")])

    def test_as_reference_set_shapes(self, single_workload):
        reference, _, _ = single_workload
        refs = as_reference_set(reference, name="chrZ")
        assert refs.names == ("chrZ",)
        assert as_reference_set(refs) is refs
        pair = as_reference_set([("a", "ACGTACGTACGT"),
                                 ("b", "TTGCATTGCAAC")])
        assert pair.names == ("a", "b")

    def test_from_fasta_multi_record(self, multi_workload, tmp_path):
        from repro.io.fasta import FastaRecord, write_fasta

        contigs, _, _ = multi_workload
        path = tmp_path / "ref.fa"
        write_fasta(path, [FastaRecord(n, s) for n, s in contigs])
        facade = Mapper.from_fasta(path, config=_config())
        assert [name for name, _ in facade.contigs] == \
            [name for name, _ in contigs]
        read = contigs[1][1][1_000:1_300]
        record = facade.map(read, "probe")
        assert record.contig == contigs[1][0]
        assert record.position == 1_000


class TestMultiContigEndToEnd:
    """Acceptance: 3-contig paired mapping, SAM + classification."""

    @pytest.fixture(scope="class")
    def mapped(self, multi_workload):
        contigs, fragments, pairs = multi_workload
        facade = Mapper(contigs, config=_config(),
                        pair_config=PairedEndConfig(
                            insert_mean=350.0, insert_std=50.0),
                        max_node_length=1_024)
        records = facade.map_pairs(pairs)
        return contigs, fragments, pairs, facade, records

    def test_sam_has_three_sq_lines(self, mapped):
        contigs, _, pairs, facade, records = mapped
        buffer = io.StringIO()
        sam = []
        for (rec1, _), (_, read1, read2) in zip(records, pairs):
            sam.extend(pair_to_sam(rec1.pair, read1, read2))
        with SamWriter(buffer, facade.contigs) as writer:
            for record in sam:
                writer.write(record)
        lines = buffer.getvalue().splitlines()
        sq = [line for line in lines if line.startswith("@SQ")]
        assert sq == [f"@SQ\tSN:{name}\tLN:{len(seq)}"
                      for name, seq in contigs]
        parsed = read_sam(io.StringIO(buffer.getvalue()))
        assert len(parsed) == 2 * len(pairs)
        for rec in parsed:
            validate_sam_record(rec)

    def test_per_contig_rname_and_rnext(self, mapped):
        contigs, fragments, pairs, facade, records = mapped
        names = {name for name, _ in contigs}
        for (rec1, rec2), (_, read1, read2), fragment in zip(
                records, pairs, fragments):
            sam1, sam2 = pair_to_sam(rec1.pair, read1, read2)
            validate_sam_pair(sam1, sam2)
            for sam in (sam1, sam2):
                if not sam.is_unmapped:
                    assert sam.rname in names
            if sam1.is_unmapped or sam2.is_unmapped:
                continue
            if sam1.rname == sam2.rname:
                assert sam1.rnext == "=" and sam2.rnext == "="
            else:
                assert sam1.rnext == sam2.rname
                assert sam2.rnext == sam1.rname
                assert sam1.tlen == sam2.tlen == 0
                assert sam1.pair_category == \
                    CATEGORY_DIFFERENT_REFERENCE

    def test_intra_contig_pairs_place_on_truth_contig(self, mapped):
        _, fragments, _, _, records = mapped
        correct = 0
        intra = 0
        for (rec1, rec2), fragment in zip(records, fragments):
            if fragment.inter_contig:
                continue
            intra += 1
            if (rec1.contig == fragment.mate1.contig
                    and rec2.contig == fragment.mate2.contig):
                correct += 1
        assert intra > 0
        assert correct / intra >= 0.9

    def test_inter_contig_pairs_classified(self, mapped):
        _, fragments, _, facade, records = mapped
        planted = [(recs, f) for recs, f in zip(records, fragments)
                   if f.inter_contig]
        assert len(planted) == 3
        hits = 0
        for (rec1, rec2), fragment in planted:
            if rec1.pair_category == CATEGORY_DIFFERENT_REFERENCE:
                hits += 1
                assert rec1.contig != rec2.contig
                assert rec1.template_length is None
                assert not rec1.proper_pair
        assert hits == 3
        stats = facade.pair_stats
        assert stats.discordant.get(
            CATEGORY_DIFFERENT_REFERENCE, 0) == 3

    def test_discordant_report_round_trips_contigs(self, mapped):
        _, fragments, _, _, records = mapped
        pairs = [rec1.pair for rec1, _ in records]
        buffer = io.StringIO()
        written = write_discordant_report(buffer, pairs)
        assert written >= 3
        parsed = read_discordant_report(
            io.StringIO(buffer.getvalue()))
        by_name = {record.name: record for record in parsed}
        for fragment in fragments:
            if not fragment.inter_contig:
                continue
            record = by_name[fragment.name]
            assert record.category == CATEGORY_DIFFERENT_REFERENCE
            assert record.contig1 != record.contig2
            assert record.template_length is None

    def test_eval_counts_different_reference(self, mapped):
        from repro.eval.metrics import evaluate_paired_mappings

        _, fragments, _, _, records = mapped
        accuracy = evaluate_paired_mappings(
            [rec1.pair for rec1, _ in records], fragments,
            tolerance=30)
        assert accuracy.pairs_different_reference == 3
        assert accuracy.discordant_pairs >= 3
        # Truth contigs gate correctness: mates on the wrong contig
        # can never count as correct.
        assert accuracy.mate_accuracy > 0.8


class TestUnmappedMateContig:
    """Satellite: unmapped-record emission uses the mapped mate's
    contig name, and the pair round-trips through the parser."""

    def test_unmapped_mate_colocated_on_mate_contig(self,
                                                    multi_workload):
        contigs, _, _ = multi_workload
        facade = Mapper(contigs, config=_config(),
                        pair_config=PairedEndConfig(rescue=False),
                        max_node_length=1_024)
        # Mate 1 comes from chr2; mate 2 is junk that cannot map.
        name2, seq2 = contigs[1]
        rng = random.Random(99)
        read1 = seq2[2_000:2_100]
        read2 = "".join(rng.choice("ACGT") for _ in range(100))
        rec1, rec2 = facade.map_pair(read1, read2, "lonely")
        assert rec1.mapped and rec1.contig == name2
        assert not rec2.mapped
        sam1, sam2 = pair_to_sam(rec1.pair, read1, read2)
        validate_sam_pair(sam1, sam2)
        # The unmapped record is co-located with its mate — on the
        # mate's contig, not on any default reference name.
        assert sam2.is_unmapped
        assert sam2.rname == name2
        assert sam2.pos == sam1.pos
        assert sam2.rnext == "=" and sam1.rnext == "="
        buffer = io.StringIO()
        with SamWriter(buffer, facade.contigs) as writer:
            writer.write(sam1)
            writer.write(sam2)
        parsed = read_sam(io.StringIO(buffer.getvalue()))
        assert [(r.qname, r.flag, r.rname, r.pos, r.rnext, r.pnext,
                 r.tlen, r.pair_category) for r in parsed] == \
            [(r.qname, r.flag, r.rname, r.pos, r.rnext, r.pnext,
              r.tlen, r.pair_category) for r in (sam1, sam2)]
        validate_sam_pair(*parsed)
