"""Bounded-memory streaming input: chunked FASTA/FASTQ iteration.

Every input path of the mapper used to materialize whole read files
in RAM (``read_fasta(...)`` lists), which caps the workloads the
scenario benchmarks can honestly run.  This module is the streaming
substrate underneath ``repro map`` / ``repro client map`` and the
scenario runner (``benchmarks/scenarios/``):

* :func:`open_text` — gzip-aware text opening.  Compression is
  detected by the two RFC 1952 magic bytes (never just the ``.gz``
  extension), and decompression happens incrementally, so peak
  memory stays bounded by the read buffer regardless of file size.
* :func:`iter_fasta` / :func:`iter_fastq` — record generators with
  strict error paths: a gzip stream that ends before its end-of-
  stream marker, or a FASTQ file that ends mid-record, raises
  :class:`TruncatedInputError` naming the source and the record.
* :func:`iter_reads` — format-sniffed ``(name, sequence)`` streaming
  (leading ``@`` means FASTQ, anything else FASTA — the same rule as
  :func:`repro.io.fasta.read_sequences`, without slurping the file).
* :func:`iter_mate_pairs` — two mate files streamed in lockstep,
  cross-checked name by name; the first mismatch raises with the
  0-based record index instead of materializing both files first.
* :class:`ReadChunker` — fixed-size batches for
  :meth:`repro.api.Mapper.map_batch` / ``map_pairs`` and the service
  client's ``map_stream``, so a terabyte-scale input maps with the
  memory footprint of one chunk.

Parity contract: for any well-formed input, the records these
generators yield are identical to the materializing readers in
:mod:`repro.io.fasta` — ``repro map`` output is pinned byte-identical
between the two paths (``tests/test_io_stream.py``,
``tests/test_cli.py``).
"""

from __future__ import annotations

import gzip
import itertools
import zlib
from pathlib import Path
from typing import Iterable, Iterator, TextIO, TypeVar, Union

from repro.io.fasta import (
    FastaFormatError,
    FastaRecord,
    FastqRecord,
    _GZIP_MAGIC,
    _split_header,
    mate_base_name,
)

PathOrHandle = Union[str, Path, TextIO]

T = TypeVar("T")

#: Default reads per batch handed to ``Mapper.map_batch``: large
#: enough to amortize per-batch dispatch (fork, result collection),
#: small enough that a chunk of 10 kbp long reads stays ~5 MB.
DEFAULT_CHUNK_SIZE = 512


class TruncatedInputError(FastaFormatError):
    """An input ended early: truncated gzip or a mid-record EOF.

    Subclasses :class:`~repro.io.fasta.FastaFormatError` so call
    sites that already handle malformed inputs catch truncation too;
    the distinct type lets tests (and retry loops around network
    fetches) tell "file is garbage" from "file stopped early".
    """


def _origin(source: PathOrHandle) -> str:
    """A human-readable name for error messages."""
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", None) or "<stream>"


def open_text(source: PathOrHandle) -> tuple[TextIO, bool]:
    """Open a path for buffered text reading, sniffing gzip.

    Returns ``(handle, owned)`` — ``owned`` is False for handles
    passed through, matching the convention of the materializing
    readers.  Compression is detected by the gzip magic bytes (or the
    ``.gz`` suffix when the file cannot be probed), and decompressed
    incrementally.
    """
    if not isinstance(source, (str, Path)):
        return source, False
    path = Path(source)
    is_gzip = path.suffix == ".gz"
    try:
        with open(path, "rb") as probe:
            is_gzip = probe.read(2) == _GZIP_MAGIC
    except OSError:
        pass
    if is_gzip:
        return gzip.open(path, "rt", encoding="ascii"), True
    return open(path, "r", encoding="ascii"), True


def _lines(handle: TextIO, origin: str) -> Iterator[str]:
    """Iterate lines, translating gzip truncation/corruption into
    :class:`TruncatedInputError` / :class:`FastaFormatError`.

    The gzip module only notices a missing end-of-stream marker when
    the reader actually reaches the end, i.e. deep inside a parsing
    loop — translating here gives every iterator the same typed
    error without per-call-site handling.
    """
    try:
        yield from handle
    except EOFError:
        raise TruncatedInputError(
            f"{origin}: gzip stream ended before its end-of-stream "
            "marker (truncated download or partial write?)"
        ) from None
    except (gzip.BadGzipFile, zlib.error) as exc:
        raise FastaFormatError(
            f"{origin}: corrupt gzip stream: {exc}"
        ) from None


def _parse_fasta(lines: Iterator[str],
                 origin: str) -> Iterator[FastaRecord]:
    """FASTA records from a raw line iterator (CRLF-tolerant)."""
    name: str | None = None
    description = ""
    chunks: list[str] = []
    for raw in lines:
        line = raw.rstrip("\r\n")
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield FastaRecord(name, "".join(chunks), description)
            name, description = _split_header(line)
            chunks = []
        else:
            if name is None:
                raise FastaFormatError(
                    f"{origin}: sequence data found before any '>' "
                    "header"
                )
            chunks.append(line.strip())
    if name is not None:
        yield FastaRecord(name, "".join(chunks), description)


def _parse_fastq(lines: Iterator[str],
                 origin: str) -> Iterator[FastqRecord]:
    """FASTQ records from a raw line iterator, strict about EOF.

    The 4-line record format means a file can only end cleanly on a
    record boundary; running out of lines after a header raises
    :class:`TruncatedInputError` with the record's ordinal and name
    — a silently dropped tail record corrupts every downstream
    pair/accuracy statistic.
    """
    _EOF = object()
    ordinal = 0
    while True:
        header_raw = next(lines, _EOF)
        if header_raw is _EOF:
            return
        header = header_raw.rstrip("\r\n")
        if not header:
            continue
        if not header.startswith("@"):
            raise FastaFormatError(
                f"{origin}: expected '@' header, found "
                f"{header[:20]!r}"
            )
        name, description = _split_header(header)
        body: list[str] = []
        for part in ("sequence", "'+' separator", "quality"):
            line = next(lines, _EOF)
            if line is _EOF:
                raise TruncatedInputError(
                    f"{origin}: record {ordinal} ({name!r}): input "
                    f"ends mid-record (missing {part} line)"
                )
            body.append(line.rstrip("\r\n"))
        sequence, plus, quality = body
        if not plus.startswith("+"):
            raise FastaFormatError(
                f"{origin}: record {name!r}: expected '+' separator, "
                f"found {plus[:20]!r}"
            )
        yield FastqRecord(name, sequence, quality, description)
        ordinal += 1


def iter_fasta(source: PathOrHandle) -> Iterator[FastaRecord]:
    """Stream FASTA records with bounded memory (gzip-aware)."""
    handle, owned = open_text(source)
    origin = _origin(source)
    try:
        yield from _parse_fasta(_lines(handle, origin), origin)
    finally:
        if owned:
            handle.close()


def iter_fastq(source: PathOrHandle) -> Iterator[FastqRecord]:
    """Stream FASTQ records with bounded memory (gzip-aware).

    Stricter than :func:`repro.io.fasta.iter_fastq` about truncated
    inputs: a file ending mid-record raises
    :class:`TruncatedInputError` naming the record.
    """
    handle, owned = open_text(source)
    origin = _origin(source)
    try:
        yield from _parse_fastq(_lines(handle, origin), origin)
    finally:
        if owned:
            handle.close()


def sniff_format(source: PathOrHandle) -> str:
    """``"fastq"`` or ``"fasta"``, from the first record byte.

    The rule of :func:`repro.io.fasta.read_sequences` — a leading
    ``@`` means FASTQ, anything else (including an empty file) is
    FASTA — applied to only as much of the (possibly gzipped) input
    as it takes to find the first non-blank character.
    """
    handle, owned = open_text(source)
    try:
        for raw in _lines(handle, _origin(source)):
            stripped = raw.strip()
            if stripped:
                return "fastq" if stripped.startswith("@") else "fasta"
        return "fasta"
    finally:
        if owned:
            handle.close()


def iter_reads(source: PathOrHandle) -> Iterator[tuple[str, str]]:
    """Stream ``(name, sequence)`` from FASTA *or* FASTQ.

    Format is sniffed from the first non-blank line without
    re-reading the input (the first line is chained back in front of
    the parser), so a single pass serves both formats — the
    streaming equivalent of :func:`repro.io.fasta.read_sequences`.
    """
    handle, owned = open_text(source)
    origin = _origin(source)
    try:
        lines = _lines(handle, origin)
        first = None
        for raw in lines:
            if raw.strip():
                first = raw
                break
        if first is None:
            return
        rest = itertools.chain([first], lines)
        if first.lstrip().startswith("@"):
            for fastq in _parse_fastq(rest, origin):
                yield fastq.name, fastq.sequence
        else:
            for fasta in _parse_fasta(rest, origin):
                yield fasta.name, fasta.sequence
    finally:
        if owned:
            handle.close()


def iter_mate_pairs(
    source1: PathOrHandle,
    source2: PathOrHandle,
) -> Iterator[tuple[str, str, str]]:
    """Stream two mate files in lockstep as ``(name, read1, read2)``.

    Record ``i`` of each file forms one pair (the universal R1/R2
    convention); names are cross-checked after stripping any ``/1`` /
    ``/2`` suffix.  Unlike the historical materializing reader, both
    files advance one record at a time — peak memory is two records
    — and the *first* divergence raises with its 0-based record
    index: a name mismatch names both reads, a file ending early
    names the short file.  Each file may independently be FASTA or
    FASTQ, plain or gzipped.
    """
    _EOF = object()
    reads1 = iter_reads(source1)
    reads2 = iter_reads(source2)
    for index in itertools.count():
        entry1 = next(reads1, _EOF)
        entry2 = next(reads2, _EOF)
        if entry1 is _EOF and entry2 is _EOF:
            return
        if entry1 is _EOF or entry2 is _EOF:
            short, long_ = (
                (source1, source2) if entry1 is _EOF
                else (source2, source1))
            raise FastaFormatError(
                f"mate files disagree: {_origin(short)} ends at "
                f"record {index} while {_origin(long_)} continues"
            )
        name1, seq1 = entry1
        name2, seq2 = entry2
        base1 = mate_base_name(name1)
        base2 = mate_base_name(name2)
        if base1 != base2:
            raise FastaFormatError(
                f"record {index}: mate name mismatch: {name1!r} vs "
                f"{name2!r}"
            )
        yield base1, seq1, seq2


class ReadChunker:
    """Fixed-size batches from any read (or pair) iterable.

    The seam between streaming input and the batch mapping entry
    points: ``for chunk in ReadChunker(512).chunks(iter_reads(path)):
    mapper.map_batch(chunk, ...)`` maps an unbounded input with the
    memory footprint of one chunk.  Chunk boundaries never change
    *results* (``map_batch`` is order-preserving and per-read
    deterministic for any ``jobs``), only peak memory and dispatch
    granularity.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size

    def chunks(self, items: Iterable[T]) -> Iterator[list[T]]:
        """Yield lists of up to ``chunk_size`` items, in order."""
        batch: list[T] = []
        for item in items:
            batch.append(item)
            if len(batch) >= self.chunk_size:
                yield batch
                batch = []
        if batch:
            yield batch
