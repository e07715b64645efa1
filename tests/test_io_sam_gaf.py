"""Tests for SAM and GAF mapping-output formats."""

from __future__ import annotations

import io
import random
from dataclasses import replace

import pytest

from repro import seq as seqmod
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.io.gaf import (
    GafFormatError,
    read_gaf,
    result_to_gaf,
    validate_gaf_record,
    write_gaf,
)
from repro.io.sam import (
    FLAG_UNMAPPED,
    SamFormatError,
    SamRecord,
    SamWriter,
    read_sam,
    result_to_sam,
    validate_sam_record,
    write_sam,
)
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants


@pytest.fixture(scope="module")
def mapped_results():
    rng = random.Random(64)
    reference = random_reference(20_000, rng)
    variants = simulate_variants(
        reference, rng,
        VariantProfile(snp_rate=0.003, insertion_rate=0.0005,
                       deletion_rate=0.0005, sv_rate=0.0),
    )
    mapper = SeGraM.from_reference(
        reference, variants,
        config=SeGraMConfig(
            w=10, k=15, bucket_bits=12, error_rate=0.02,
            windowing=WindowingConfig(window_size=128, overlap=48,
                                      k=16),
            max_seeds_per_read=4,
        ),
        name="chr1",
        max_node_length=2_000,
    )
    reads = [(f"r{i}", reference[i * 900:i * 900 + 200])
             for i in range(1, 6)]
    results = [(mapper.map_read(seq, name), seq)
               for name, seq in reads]
    return mapper, reference, results


class TestSam:
    def test_mapped_record_fields(self, mapped_results):
        _, reference, results = mapped_results
        result, seq = results[0]
        record = result_to_sam(result, seq)
        assert record.rname == result.contig == "chr1"
        assert record.pos == result.linear_position + 1
        assert not record.is_unmapped
        validate_sam_record(record)

    def test_unmapped_record(self):
        from repro.core.mapper import MappingResult
        result = MappingResult(read_name="r", read_length=4,
                               mapped=False)
        record = result_to_sam(result, "ACGT")
        assert record.is_unmapped
        assert record.flag & FLAG_UNMAPPED
        assert record.cigar == "*"

    def test_roundtrip(self, mapped_results, tmp_path):
        mapper, _, results = mapped_results
        records = [result_to_sam(r, seq) for r, seq in results]
        path = tmp_path / "out.sam"
        write_sam(path, records, mapper.refs.sam_contigs())
        parsed = read_sam(path)
        assert parsed == records

    def test_header_written(self, mapped_results):
        _, reference, results = mapped_results
        buffer = io.StringIO()
        write_sam(buffer, [], [("chr1", len(reference))])
        text = buffer.getvalue()
        assert "@HD" in text
        assert f"LN:{len(reference)}" in text

    def test_nm_tag_mismatch_rejected(self):
        record = SamRecord(qname="r", flag=0, rname="chr1", pos=1,
                           mapq=60, cigar="4=", seq="ACGT",
                           edit_distance=2)
        with pytest.raises(SamFormatError):
            validate_sam_record(record)

    def test_cigar_seq_mismatch_rejected(self):
        record = SamRecord(qname="r", flag=0, rname="chr1", pos=1,
                           mapq=60, cigar="3=", seq="ACGT")
        with pytest.raises(SamFormatError):
            validate_sam_record(record)

    def test_short_line_rejected(self):
        with pytest.raises(SamFormatError):
            read_sam(io.StringIO("r1\t0\tchr1\n"))

    @pytest.mark.parametrize("bad", [
        b"r2\t0\tchr1\t1\t60\t4=\t*\t0\t0\tACGT\t*\tNM:i:x",
        b"r2\t0\tchr1\t1\t60\t4=\t*\t0\t0\tACGT\t*\tCO:Z:\xc3\xa9",
        b"r\xff\t0\tchr1\t1\t60\t4=\t*\t0\t0\tACGT\t*",
    ], ids=["nm-not-an-int", "utf8-tag", "non-utf8-qname"])
    def test_malformed_line_names_its_line(self, tmp_path, bad):
        """A bad ``NM:i:`` value or a non-ASCII byte is a
        :class:`SamFormatError` naming its line, like every column."""
        path = tmp_path / "bad.sam"
        path.write_bytes(b"@HD\tVN:1.6\n"
                         b"r1\t0\tchr1\t1\t60\t4=\t*\t0\t0\tACGT\t*\n"
                         + bad + b"\n")
        with pytest.raises(SamFormatError, match="^line 3: "):
            read_sam(path)

    def test_qname_with_tab_rejected(self):
        # A tab inside QNAME would shift every downstream SAM column.
        from repro.core.mapper import MappingResult
        result = MappingResult(read_name="r1\textra", read_length=4,
                               mapped=False)
        with pytest.raises(SamFormatError, match="QNAME"):
            result_to_sam(result, "ACGT")

    def test_qname_with_space_rejected(self):
        from repro.core.mapper import MappingResult
        result = MappingResult(read_name="r1 extra", read_length=4,
                               mapped=False)
        with pytest.raises(SamFormatError, match="QNAME"):
            result_to_sam(result, "ACGT")

    def test_rname_with_whitespace_rejected(self, mapped_results):
        _, _, results = mapped_results
        result, seq = results[0]
        with pytest.raises(SamFormatError, match="RNAME"):
            result_to_sam(replace(result, contig="chr 1"), seq)


class TestOrientationAndAmbiguity:
    """Property/round-trip tests for reverse-strand and N-containing
    reads through the SAM and GAF writers (randomized, seeded)."""

    @pytest.fixture(scope="class")
    def mapper_and_reference(self):
        rng = random.Random(0x0A1)
        reference = random_reference(12_000, rng)
        mapper = SeGraM.from_reference(
            reference,
            config=SeGraMConfig(
                w=10, k=15, bucket_bits=12, error_rate=0.05,
                windowing=WindowingConfig(window_size=128,
                                          overlap=48, k=16),
                max_seeds_per_read=4, both_strands=True,
                early_exit_distance=4,
            ),
            name="chrP",
        )
        return mapper, reference

    def test_reverse_strand_seq_round_trip(self, mapper_and_reference):
        """For every reverse-strand mapping, the SAM SEQ must be the
        reverse complement of the input read, the CIGAR must consume
        it, and the record must survive a write/read round trip."""
        mapper, reference = mapper_and_reference
        rng = random.Random(0xE5)
        reverse_seen = 0
        records = []
        reads = []
        for index in range(8):
            start = rng.randrange(0, len(reference) - 150)
            fragment = reference[start:start + 150]
            read = seqmod.reverse_complement(fragment) \
                if index % 2 else fragment
            result = mapper.map_read(read, f"prop_{index}")
            record = result_to_sam(result, read)
            validate_sam_record(record)
            if record.is_reverse:
                reverse_seen += 1
                assert record.seq == seqmod.reverse_complement(read)
            elif not record.is_unmapped:
                assert record.seq == read
            records.append(record)
            reads.append(read)
        assert reverse_seen > 0
        buffer = io.StringIO()
        write_sam(buffer, records, mapper.refs.sam_contigs())
        assert read_sam(io.StringIO(buffer.getvalue())) == records

    def test_n_reads_map_and_round_trip(self, mapper_and_reference):
        """Reads with a few N bases still map (seeding skips N
        k-mers, each N costs one edit) and their SAM/GAF records
        round-trip with the Ns preserved."""
        from repro.io.gaf import result_to_gaf, validate_gaf_record

        mapper, reference = mapper_and_reference
        rng = random.Random(0xA2)
        mapped_seen = 0
        for index in range(6):
            start = rng.randrange(0, len(reference) - 150)
            read = list(reference[start:start + 150])
            for _ in range(3):
                read[rng.randrange(len(read))] = "N"
            if index % 2:
                read = list(seqmod.reverse_complement("".join(read)))
            read = "".join(read)
            result = mapper.map_read(read, f"nprop_{index}")
            if not result.mapped:
                continue
            mapped_seen += 1
            # Each N costs one edit against the ACGT reference; a
            # little slack for window-boundary drift.
            assert result.distance <= 6
            record = result_to_sam(result, read)
            validate_sam_record(record)
            expected = seqmod.reverse_complement(read) \
                if record.is_reverse else read
            assert record.seq == expected
            assert record.seq.count("N") == 3
            buffer = io.StringIO()
            write_sam(buffer, [record], mapper.refs.sam_contigs())
            assert read_sam(io.StringIO(buffer.getvalue())) == [record]
            gaf = result_to_gaf(result, mapper.graph, read)
            assert gaf is not None
            validate_gaf_record(gaf, mapper.graph)
        assert mapped_seen > 0

    def test_all_n_read_is_unmapped(self, mapper_and_reference):
        mapper, _ = mapper_and_reference
        result = mapper.map_read("N" * 60, "all_n")
        assert not result.mapped
        record = result_to_sam(result, "N" * 60)
        assert record.is_unmapped


class TestGaf:
    def test_mapped_record(self, mapped_results):
        mapper, _, results = mapped_results
        result, seq = results[0]
        record = result_to_gaf(result, mapper.graph, seq)
        assert record is not None
        assert record.query_length == len(seq)
        assert record.path == result.path_nodes
        validate_gaf_record(record, mapper.graph)

    def test_unmapped_returns_none(self, mapped_results):
        from repro.core.mapper import MappingResult
        mapper, _, _ = mapped_results
        result = MappingResult(read_name="r", read_length=4,
                               mapped=False)
        assert result_to_gaf(result, mapper.graph, "ACGT") is None

    def test_roundtrip(self, mapped_results, tmp_path):
        mapper, _, results = mapped_results
        records = [result_to_gaf(r, mapper.graph, seq)
                   for r, seq in results]
        records = [r for r in records if r is not None]
        path = tmp_path / "out.gaf"
        write_gaf(path, records)
        parsed = read_gaf(path)
        assert parsed == records

    def test_path_string_format(self, mapped_results):
        mapper, _, results = mapped_results
        record = result_to_gaf(results[0][0], mapper.graph,
                               results[0][1])
        assert record.path_string.startswith(">")
        assert record.path_string.count(">") == len(record.path)

    def test_validation_rejects_bad_edge(self, mapped_results):
        mapper, _, results = mapped_results
        record = result_to_gaf(results[0][0], mapper.graph,
                               results[0][1])
        bad = type(record)(
            query_name=record.query_name,
            query_length=record.query_length,
            path=(0, mapper.graph.node_count - 1)
            if mapper.graph.node_count - 1 not in
            mapper.graph.successors(0) else (0, 0),
            path_length=record.path_length,
            path_start=record.path_start,
            path_end=record.path_end,
            matches=record.matches,
            block_length=record.block_length,
            mapq=record.mapq,
            cigar=record.cigar,
        )
        with pytest.raises(GafFormatError):
            validate_gaf_record(bad, mapper.graph)

    def test_reverse_path_rejected(self):
        line = "r\t4\t0\t4\t+\t<3<2\t8\t0\t4\t4\t4\t60"
        with pytest.raises(GafFormatError):
            read_gaf(io.StringIO(line))

    def test_short_line_rejected(self):
        with pytest.raises(GafFormatError):
            read_gaf(io.StringIO("r\t4\t0\t4\t+\t>1\n"))

    @pytest.mark.parametrize("bad", [
        b"r\xc3\xa9\t4\t0\t4\t+\t>1\t8\t0\t4\t4\t4\t60",
        b"r\t4\t0\t4\t+\t>1\t8\t0\t4\t4\t4\t60\tcg:Z:4\xff",
    ], ids=["utf8-name", "non-utf8-tag"])
    def test_non_ascii_line_names_its_line(self, tmp_path, bad):
        """A non-ASCII byte is a :class:`GafFormatError` naming its
        line, not a bare decode error from the line iterator."""
        path = tmp_path / "bad.gaf"
        path.write_bytes(b"r\t4\t0\t4\t+\t>1\t8\t0\t4\t4\t4\t60\n"
                         + bad + b"\n")
        with pytest.raises(GafFormatError, match="^line 2: "):
            read_gaf(path)


class TestSamWriterSorted:
    """The streaming SamWriter's coordinate sort: header, ordering,
    stability, and the external-merge spill path."""

    CONTIGS = [("chr1", 6_000), ("chr2", 4_000)]

    def _records(self, count, seed=11):
        rng = random.Random(seed)
        records = []
        for i in range(count):
            rname = self.CONTIGS[rng.randrange(2)][0]
            # Deliberately collide positions so the (rank, pos,
            # input-order) stability tiebreak is exercised.
            pos = rng.randrange(1, 40)
            records.append(SamRecord(qname=f"q{i}", flag=0,
                                     rname=rname, pos=pos, mapq=60,
                                     cigar="4=", seq="ACGT",
                                     edit_distance=0))
        return records

    def _render(self, records, sort, run_size):
        buffer = io.StringIO()
        with SamWriter(buffer, contigs=self.CONTIGS, sort=sort,
                       run_size=run_size) as writer:
            for record in records:
                writer.write(record)
        return buffer.getvalue()

    def test_unsorted_writer_matches_write_sam(self):
        records = self._records(20)
        streamed = self._render(records, sort=False, run_size=5)
        batch = io.StringIO()
        write_sam(batch, records, contigs=self.CONTIGS)
        assert streamed == batch.getvalue()
        assert "SO:unknown" in streamed

    def test_sorted_header_and_order(self):
        records = self._records(30)
        text = self._render(records, sort=True, run_size=1_000)
        assert text.splitlines()[0] == \
            "@HD\tVN:1.6\tSO:coordinate"
        parsed = read_sam(io.StringIO(text))
        rank = {name: i for i, (name, _) in enumerate(self.CONTIGS)}
        keys = [(rank[r.rname], r.pos) for r in parsed]
        assert keys == sorted(keys)
        assert sorted(r.qname for r in parsed) == \
            sorted(r.qname for r in records)

    def test_tiny_run_size_spill_matches_in_memory(self):
        # run_size=7 over 60 records forces several on-disk runs;
        # the k-way merge must reproduce the single-buffer sort
        # byte for byte (including input-order stability for equal
        # (rank, pos) keys).
        records = self._records(60)
        spilled = self._render(records, sort=True, run_size=7)
        in_memory = self._render(records, sort=True,
                                 run_size=10_000)
        assert spilled == in_memory

    def test_unmapped_records_sort_last(self):
        records = self._records(6)
        records.insert(0, SamRecord(qname="lost",
                                    flag=FLAG_UNMAPPED, rname="*",
                                    pos=0, mapq=0, cigar="*",
                                    seq="ACGT"))
        text = self._render(records, sort=True, run_size=3)
        parsed = read_sam(io.StringIO(text))
        assert parsed[-1].qname == "lost"

    def test_unknown_rname_rejected_when_sorting(self):
        writer = SamWriter(io.StringIO(), contigs=self.CONTIGS,
                           sort=True)
        record = SamRecord(qname="q", flag=0, rname="chrX", pos=1,
                           mapq=60, cigar="4=", seq="ACGT")
        with pytest.raises(SamFormatError, match="chrX"):
            writer.write(record)

    @pytest.mark.parametrize("sort", [False, True],
                             ids=["streaming", "sorted"])
    @pytest.mark.parametrize("field", ["rname", "rnext"])
    def test_reference_outside_header_rejected(self, field, sort):
        """RNAME and RNEXT must name an @SQ line (RNEXT may also be
        ``=`` / ``*``) whether or not the writer sorts; a rejected
        record writes nothing."""
        buffer = io.StringIO()
        writer = SamWriter(buffer, contigs=self.CONTIGS, sort=sort)
        header = buffer.getvalue()
        base = SamRecord(qname="q", flag=0, rname=self.CONTIGS[0][0],
                         pos=1, mapq=60, cigar="4=", seq="ACGT")
        for rnext in ("*", "=", self.CONTIGS[1][0]):
            writer.write(replace(base, rnext=rnext))
        with pytest.raises(SamFormatError, match="chr9"):
            writer.write(replace(base, **{field: "chr9"}))
        writer.close()
        body = buffer.getvalue()[len(header):]
        assert len(body.splitlines()) == 3
        assert "chr9" not in body

    def test_run_size_validated(self):
        with pytest.raises(ValueError):
            SamWriter(io.StringIO(), contigs=self.CONTIGS,
                      run_size=0)


class TestQualifiedGaf:
    """Contig-qualified path segments (``<contig>#<node-id>``):
    emission, parse round-trip, and reference-set validation."""

    @pytest.fixture(scope="class")
    def refs_results(self, mapped_results):
        from repro.api import as_reference_set

        mapper, reference, results = mapped_results
        refs = as_reference_set(mapper.graph, name="chr1")
        return mapper, refs, results

    def test_result_to_gaf_emits_qualified_segments(self,
                                                    refs_results):
        mapper, refs, results = refs_results
        result, seq = results[0]
        record = result_to_gaf(result, mapper.graph, seq, refs=refs)
        contig = refs.contig_of_node(result.path_nodes[0])
        assert record.segments == tuple(
            f"{contig}#{node}" for node in result.path_nodes)
        assert record.path_string.startswith(f">{contig}#")
        validate_gaf_record(record, mapper.graph, refs=refs)

    def test_qualified_byte_round_trip(self, refs_results,
                                       tmp_path):
        mapper, refs, results = refs_results
        records = [result_to_gaf(r, mapper.graph, seq, refs=refs)
                   for r, seq in results]
        records = [r for r in records if r is not None]
        path = tmp_path / "q.gaf"
        write_gaf(path, records)
        first = path.read_bytes()
        parsed = read_gaf(path)
        assert parsed == records
        assert all(r.segments for r in parsed)
        write_gaf(tmp_path / "q2.gaf", parsed)
        assert (tmp_path / "q2.gaf").read_bytes() == first

    def test_bare_paths_parse_without_segments(self,
                                               refs_results,
                                               tmp_path):
        mapper, _, results = refs_results
        record = result_to_gaf(results[0][0], mapper.graph,
                               results[0][1])
        write_gaf(tmp_path / "bare.gaf", [record])
        parsed = read_gaf(tmp_path / "bare.gaf")
        assert parsed[0].segments == ()

    def test_validation_rejects_wrong_contig(self, refs_results):
        mapper, refs, results = refs_results
        result, seq = results[0]
        record = result_to_gaf(result, mapper.graph, seq, refs=refs)
        forged = tuple(f"chrBogus#{node}"
                       for node in record.path)
        bad = type(record)(
            query_name=record.query_name,
            query_length=record.query_length,
            path=record.path,
            path_length=record.path_length,
            path_start=record.path_start,
            path_end=record.path_end,
            matches=record.matches,
            block_length=record.block_length,
            mapq=record.mapq,
            cigar=record.cigar,
            segments=forged,
        )
        validate_gaf_record(bad, mapper.graph)  # graph-only: fine
        with pytest.raises(GafFormatError,
                           match="does not match the reference"):
            validate_gaf_record(bad, mapper.graph, refs=refs)

    def test_segment_path_length_mismatch_rejected(self,
                                                   refs_results):
        mapper, refs, results = refs_results
        record = result_to_gaf(results[0][0], mapper.graph,
                               results[0][1], refs=refs)
        with pytest.raises(ValueError, match="segments"):
            type(record)(
                query_name=record.query_name,
                query_length=record.query_length,
                path=record.path,
                path_length=record.path_length,
                path_start=record.path_start,
                path_end=record.path_end,
                matches=record.matches,
                block_length=record.block_length,
                mapq=record.mapq,
                cigar=record.cigar,
                segments=record.segments[:-1] or ("chr1#0",) * 9,
            )

    @pytest.mark.parametrize("segment", ["chr1#", "#5", "chr1#x",
                                         "5#chr1#y", "chr1"])
    def test_malformed_segment_rejected(self, segment):
        line = (f"r\t4\t0\t4\t+\t>{segment}\t8\t0\t4\t4\t4\t60\n")
        with pytest.raises(GafFormatError,
                           match="neither a node ID"):
            read_gaf(io.StringIO(line))
