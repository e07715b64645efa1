"""Tests for FASTA/FASTQ reading and writing."""

from __future__ import annotations

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import Mapper
from repro.io.fasta import (
    FastaFormatError,
    FastaRecord,
    FastqRecord,
    TruncatedInputError,
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=300)
names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           exclude_characters=">@ "),
    min_size=1, max_size=20,
)


class TestFastaRead:
    def test_single_record(self):
        handle = io.StringIO(">chr1 test chromosome\nACGT\nACGT\n")
        records = read_fasta(handle)
        assert len(records) == 1
        assert records[0].name == "chr1"
        assert records[0].description == "test chromosome"
        assert records[0].sequence == "ACGTACGT"

    def test_multi_record(self):
        handle = io.StringIO(">a\nAC\n>b\nGT\n")
        records = read_fasta(handle)
        assert [r.name for r in records] == ["a", "b"]
        assert [r.sequence for r in records] == ["AC", "GT"]

    def test_blank_lines_ignored(self):
        handle = io.StringIO(">a\n\nAC\n\nGT\n")
        assert read_fasta(handle)[0].sequence == "ACGT"

    def test_sequence_before_header_rejected(self):
        with pytest.raises(FastaFormatError):
            read_fasta(io.StringIO("ACGT\n>a\nAC\n"))

    def test_empty_header_rejected(self):
        with pytest.raises(FastaFormatError):
            read_fasta(io.StringIO(">\nACGT\n"))

    def test_empty_file(self):
        assert read_fasta(io.StringIO("")) == []


class TestFastaRoundtrip:
    @given(st.lists(st.tuples(names, dna), min_size=1, max_size=5,
                    unique_by=lambda t: t[0]))
    def test_write_read_roundtrip(self, items):
        records = [FastaRecord(name, sequence) for name, sequence in items]
        buffer = io.StringIO()
        write_fasta(buffer, records, line_width=60)
        buffer.seek(0)
        parsed = read_fasta(buffer)
        assert [(r.name, r.sequence) for r in parsed] == items

    def test_line_width_respected(self):
        buffer = io.StringIO()
        write_fasta(buffer, [FastaRecord("a", "A" * 100)], line_width=25)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == ">a"
        assert all(len(line) == 25 for line in lines[1:])

    def test_nonpositive_line_width_rejected(self):
        with pytest.raises(ValueError):
            write_fasta(io.StringIO(), [], line_width=0)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "ref.fa"
        write_fasta(path, [FastaRecord("chr1", "ACGTACGT", "desc here")])
        records = read_fasta(path)
        assert records[0].description == "desc here"
        assert records[0].sequence == "ACGTACGT"


class TestFastq:
    def test_read_single(self):
        handle = io.StringIO("@r1\nACGT\n+\nIIII\n")
        records = read_fastq(handle)
        assert records[0].name == "r1"
        assert records[0].sequence == "ACGT"
        assert records[0].quality == "IIII"

    def test_quality_length_mismatch_rejected(self):
        with pytest.raises(FastaFormatError):
            read_fastq(io.StringIO("@r1\nACGT\n+\nII\n"))

    def test_missing_plus_rejected(self):
        with pytest.raises(FastaFormatError):
            read_fastq(io.StringIO("@r1\nACGT\nIIII\nIIII\n"))

    def test_missing_at_rejected(self):
        with pytest.raises(FastaFormatError):
            read_fastq(io.StringIO("r1\nACGT\n+\nIIII\n"))

    @given(st.lists(st.tuples(names, dna), min_size=1, max_size=4))
    def test_roundtrip(self, items):
        records = [FastqRecord(name, sequence, "I" * len(sequence))
                   for name, sequence in items]
        buffer = io.StringIO()
        write_fastq(buffer, records)
        buffer.seek(0)
        parsed = read_fastq(buffer)
        assert [(r.name, r.sequence, r.quality) for r in parsed] == \
            [(r.name, r.sequence, r.quality) for r in records]

    def test_len(self):
        assert len(FastqRecord("r", "ACGT", "IIII")) == 4


class TestCrlf:
    """CRLF (Windows) files must parse byte-identically to Unix files."""

    def test_fasta_crlf(self):
        handle = io.StringIO(">chr1 desc\r\nACGT\r\nTTGG\r\n")
        records = read_fasta(handle)
        assert records[0].name == "chr1"
        assert records[0].description == "desc"
        assert records[0].sequence == "ACGTTTGG"

    def test_fasta_crlf_blank_lines(self):
        # A CRLF blank line must not be mistaken for sequence data.
        handle = io.StringIO("\r\n>a\r\n\r\nAC\r\nGT\r\n")
        assert read_fasta(handle)[0].sequence == "ACGT"

    def test_fastq_crlf(self):
        handle = io.StringIO("@r1 d\r\nACGT\r\n+\r\nIIII\r\n")
        records = read_fastq(handle)
        assert records[0].name == "r1"
        assert records[0].description == "d"
        assert records[0].sequence == "ACGT"
        assert records[0].quality == "IIII"

    def test_crlf_fixture_file(self, tmp_path):
        path = tmp_path / "crlf.fa"
        path.write_bytes(b">a one\r\nACGT\r\n>b\r\nTTAA\r\n")
        records = read_fasta(path)
        assert [(r.name, r.sequence) for r in records] == \
            [("a", "ACGT"), ("b", "TTAA")]
        for record in records:
            assert "\r" not in record.sequence
            assert "\r" not in record.description


class TestHeaderWhitespace:
    """Identifiers end at the first whitespace of *any* kind."""

    def test_fasta_tab_separated_header(self):
        records = read_fasta(io.StringIO(">chr1\tassembly=x\nACGT\n"))
        assert records[0].name == "chr1"
        assert records[0].description == "assembly=x"
        assert "\t" not in records[0].name

    def test_fastq_tab_separated_header(self):
        records = read_fastq(
            io.StringIO("@r1\tBC:Z:ACGT\nACGT\n+\nIIII\n"))
        assert records[0].name == "r1"
        assert records[0].description == "BC:Z:ACGT"

    def test_mixed_space_tab(self):
        records = read_fasta(io.StringIO(">c\t d  e\nAC\n"))
        assert records[0].name == "c"
        assert records[0].description == "d  e"


class TestGzipInputs:
    """``.gz`` inputs are detected (magic bytes or extension) and
    decompressed transparently."""

    @staticmethod
    def _gz(path, text):
        import gzip as gzip_mod

        with gzip_mod.open(path, "wt", encoding="ascii") as handle:
            handle.write(text)

    def test_fasta_gz(self, tmp_path):
        path = tmp_path / "ref.fa.gz"
        self._gz(path, ">chr1\nACGTACGT\n")
        records = read_fasta(path)
        assert records[0].sequence == "ACGTACGT"

    def test_fastq_gz(self, tmp_path):
        path = tmp_path / "reads.fq.gz"
        self._gz(path, "@r1\nACGT\n+\nIIII\n")
        records = read_fastq(path)
        assert records[0].sequence == "ACGT"

    def test_gzip_magic_without_extension(self, tmp_path):
        # Detection is by magic bytes, not only by extension.
        path = tmp_path / "ref.fa"
        self._gz(path, ">a\nACGT\n")
        assert read_fasta(path)[0].sequence == "ACGT"

    def test_read_sequences_gz(self, tmp_path):
        from repro.io.fasta import read_sequences

        path = tmp_path / "reads.fa.gz"
        self._gz(path, ">r1\nACGT\n>r2\nTTGG\n")
        assert read_sequences(path) == [("r1", "ACGT"),
                                        ("r2", "TTGG")]

    def test_mate_pairs_gz(self, tmp_path):
        from repro.io.fasta import read_mate_pairs

        p1 = tmp_path / "r1.fq.gz"
        p2 = tmp_path / "r2.fq.gz"
        self._gz(p1, "@p/1\nACGT\n+\nIIII\n")
        self._gz(p2, "@p/2\nTTGG\n+\nIIII\n")
        assert read_mate_pairs(p1, p2) == [("p", "ACGT", "TTGG")]

    def test_plain_text_still_works(self, tmp_path):
        path = tmp_path / "ref.fa"
        path.write_text(">a\nACGT\n")
        assert read_fasta(path)[0].sequence == "ACGT"

    def test_truncated_gzip_fasta_is_a_typed_error(self, tmp_path):
        """A ``.fa.gz`` cut short ends in :class:`TruncatedInputError`
        on every path that reads a reference, not a raw EOFError."""
        path = tmp_path / "ref.fa.gz"
        self._gz(path, ">chr1\n" + "ACGTTGCA" * 2_000 + "\n")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TruncatedInputError,
                           match="end-of-stream marker"):
            read_fasta(path)
        with pytest.raises(TruncatedInputError):
            Mapper.from_fasta(path)
