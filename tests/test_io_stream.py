"""Tests for the bounded-memory streaming input subsystem
(repro.io.stream): parity with the materializing readers, gzip
sniffing, truncation/corruption error paths, lockstep mate pairing,
and chunking.
"""

from __future__ import annotations

import gzip
import io

import pytest

from repro.io import fasta
from repro.io.stream import (
    DEFAULT_CHUNK_SIZE,
    ReadChunker,
    TruncatedInputError,
    iter_fasta,
    iter_fastq,
    iter_mate_pairs,
    iter_reads,
    open_text,
)

FASTA_TEXT = (
    ">read1 first description\nACGTACGT\nTTGG\n"
    ">read2\nGGGG\n"
    "\n"
    ">read3\ttabbed desc\nAACC\n"
)

FASTQ_TEXT = (
    "@read1 first\nACGTACGT\n+\nIIIIIIII\n"
    "@read2\nGGGG\n+read2\nJJJJ\n"
    "@read3\nTT\n+\nII\n"
)


def _write(tmp_path, name, text, gzipped=False):
    path = tmp_path / name
    if gzipped:
        with gzip.open(path, "wt", encoding="ascii") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="ascii")
    return path


class TestParity:
    """Streamed records match the materializing readers byte for
    byte, for plain, gzipped, and CRLF inputs."""

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_fasta_matches_read_fasta(self, tmp_path, gzipped):
        path = _write(tmp_path, "in.fa", FASTA_TEXT, gzipped)
        assert list(iter_fasta(path)) == fasta.read_fasta(path)

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_fastq_matches_read_fastq(self, tmp_path, gzipped):
        path = _write(tmp_path, "in.fq", FASTQ_TEXT, gzipped)
        assert list(iter_fastq(path)) == fasta.read_fastq(path)

    def test_crlf_tolerated(self, tmp_path):
        crlf = FASTA_TEXT.replace("\n", "\r\n")
        path = _write(tmp_path, "crlf.fa", crlf)
        assert list(iter_fasta(path)) == \
            list(iter_fasta(io.StringIO(FASTA_TEXT)))

    def test_gzip_detected_by_magic_not_suffix(self, tmp_path):
        # A gzipped file without the .gz extension still streams.
        path = _write(tmp_path, "nosuffix.fa", FASTA_TEXT,
                      gzipped=True)
        assert [r.name for r in iter_fasta(path)] == \
            ["read1", "read2", "read3"]

    def test_handle_passed_through_not_closed(self):
        handle = io.StringIO(FASTA_TEXT)
        opened, owned = open_text(handle)
        assert opened is handle
        assert not owned
        records = list(iter_fasta(handle))
        assert len(records) == 3
        assert not handle.closed


class TestSniffing:
    def test_iter_reads_matches_read_sequences(self, tmp_path):
        for name, text in (("r.fa", FASTA_TEXT),
                           ("r.fq", FASTQ_TEXT)):
            path = _write(tmp_path, name, text)
            assert list(iter_reads(path)) == \
                fasta.read_sequences(path)

    def test_iter_reads_gzip_fastq(self, tmp_path):
        path = _write(tmp_path, "r.fq.gz", FASTQ_TEXT, gzipped=True)
        assert [name for name, _ in iter_reads(path)] == \
            ["read1", "read2", "read3"]


class TestErrorPaths:
    def test_truncated_gzip_raises_typed_error(self, tmp_path):
        path = _write(tmp_path, "t.fa.gz", FASTA_TEXT, gzipped=True)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 12])
        with pytest.raises(TruncatedInputError,
                           match="end-of-stream marker"):
            list(iter_fasta(path))

    def test_corrupt_gzip_raises_format_error(self, tmp_path):
        path = _write(tmp_path, "c.fa.gz", FASTA_TEXT, gzipped=True)
        data = bytearray(path.read_bytes())
        data[-6] ^= 0xFF  # flip a CRC byte in the gzip trailer
        path.write_bytes(bytes(data))
        with pytest.raises(fasta.FastaFormatError):
            list(iter_fasta(path))

    @pytest.mark.parametrize("lines,part", [
        ("@only_header\n", "sequence"),
        ("@r\nACGT\n", "'+' separator"),
        ("@r\nACGT\n+\n", "quality"),
    ])
    def test_fastq_mid_record_eof(self, tmp_path, lines, part):
        path = _write(tmp_path, "mid.fq", FASTQ_TEXT + lines)
        with pytest.raises(TruncatedInputError) as excinfo:
            list(iter_fastq(path))
        message = str(excinfo.value)
        assert "record 3" in message
        assert f"missing {part} line" in message

    def test_truncation_is_a_format_error_subclass(self):
        assert issubclass(TruncatedInputError,
                          fasta.FastaFormatError)

    def test_fastq_bad_separator_still_rejected(self):
        stream = io.StringIO("@r\nACGT\nXXXX\nIIII\n")
        with pytest.raises(fasta.FastaFormatError,
                           match="'\\+' separator"):
            list(iter_fastq(stream))


class TestMatePairs:
    def _mates(self, tmp_path, text1, text2, gz2=False):
        return (_write(tmp_path, "r1.fq", text1),
                _write(tmp_path, "r2.fq.gz" if gz2 else "r2.fq",
                       text2, gzipped=gz2))

    def test_lockstep_pairs(self, tmp_path):
        r1 = "@frag_0/1\nAAAA\n+\nIIII\n@frag_1/1\nCCCC\n+\nIIII\n"
        r2 = "@frag_0/2\nGGGG\n+\nIIII\n@frag_1/2\nTTTT\n+\nIIII\n"
        p1, p2 = self._mates(tmp_path, r1, r2, gz2=True)
        assert list(iter_mate_pairs(p1, p2)) == [
            ("frag_0", "AAAA", "GGGG"),
            ("frag_1", "CCCC", "TTTT"),
        ]

    def test_matches_read_mate_pairs(self, tmp_path):
        r1 = "@a/1\nAA\n+\nII\n@b/1\nCC\n+\nII\n"
        r2 = ">a/2\nGG\n>b/2\nTT\n"  # mixed formats allowed
        p1, p2 = self._mates(tmp_path, r1, r2)
        assert list(iter_mate_pairs(p1, p2)) == \
            fasta.read_mate_pairs(p1, p2)

    def test_name_mismatch_reports_record_index(self, tmp_path):
        r1 = "@a/1\nAA\n+\nII\n@b/1\nCC\n+\nII\n"
        r2 = "@a/2\nGG\n+\nII\n@WRONG/2\nTT\n+\nII\n"
        p1, p2 = self._mates(tmp_path, r1, r2)
        with pytest.raises(fasta.FastaFormatError,
                           match="record 1: mate name mismatch"):
            list(iter_mate_pairs(p1, p2))

    def test_mismatch_raised_before_reading_everything(self):
        # The first divergence raises even though file 2's iterator
        # would later explode: lockstep means record 0 is compared
        # before record 1 is parsed.
        r1 = io.StringIO("@a/1\nAA\n+\nII\n")
        r2 = io.StringIO("@z/2\nGG\n+\nII\n@broken")
        with pytest.raises(fasta.FastaFormatError,
                           match="record 0: mate name mismatch"):
            list(iter_mate_pairs(r1, r2))

    def test_short_file_reports_index_and_side(self, tmp_path):
        r1 = "@a/1\nAA\n+\nII\n@b/1\nCC\n+\nII\n"
        r2 = "@a/2\nGG\n+\nII\n"
        p1, p2 = self._mates(tmp_path, r1, r2)
        with pytest.raises(fasta.FastaFormatError) as excinfo:
            list(iter_mate_pairs(p1, p2))
        message = str(excinfo.value)
        assert "ends at record 1" in message
        assert "r2.fq" in message
        assert "continues" in message


class TestReadChunker:
    def test_fixed_size_chunks_in_order(self):
        chunks = list(ReadChunker(3).chunks(range(8)))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7]]

    def test_exact_multiple_has_no_empty_tail(self):
        assert list(ReadChunker(2).chunks(range(4))) == \
            [[0, 1], [2, 3]]

    def test_empty_input_yields_nothing(self):
        assert list(ReadChunker(4).chunks([])) == []

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            ReadChunker(0)

    def test_default_chunk_size(self):
        assert ReadChunker().chunk_size == DEFAULT_CHUNK_SIZE
