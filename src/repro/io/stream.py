"""Bounded-memory streaming input: chunked FASTA/FASTQ iteration.

Every input path of the mapper used to materialize whole read files
in RAM (``read_fasta(...)`` lists), which caps the workloads the
scenario benchmarks can honestly run.  This module is the streaming
substrate underneath ``repro map`` / ``repro client map`` and the
scenario runner (``benchmarks/scenarios/``):

* :func:`iter_fasta` / :func:`iter_fastq` / :func:`open_text` /
  :class:`TruncatedInputError` — the one FASTA/FASTQ parser, defined
  in :mod:`repro.io.fasta` and re-exported here: gzip is sniffed by
  its magic bytes and decompressed incrementally, and a gzip stream
  that ends before its end-of-stream marker, or a FASTQ file that
  ends mid-record, raises :class:`TruncatedInputError` naming the
  source and the record.
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
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, TypeVar

from repro.io.fasta import (
    FastaFormatError,
    PathOrHandle,
    TruncatedInputError,
    _lines,
    _origin,
    _parse_fasta,
    _parse_fastq,
    iter_fasta,
    iter_fastq,
    mate_base_name,
    open_text,
)

T = TypeVar("T")

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ReadChunker",
    "TruncatedInputError",
    "iter_fasta",
    "iter_fastq",
    "iter_mate_pairs",
    "iter_reads",
    "open_text",
    "sniff_format",
]

#: Default reads per batch handed to ``Mapper.map_batch``: large
#: enough to amortize per-batch dispatch (fork, result collection),
#: small enough that a chunk of 10 kbp long reads stays ~5 MB.
DEFAULT_CHUNK_SIZE = 512


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
