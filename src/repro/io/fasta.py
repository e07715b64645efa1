"""Minimal FASTA/FASTQ reading and writing.

Only the features needed by the mapping pipeline are implemented:
multi-record files, multi-line sequences, description handling, and
transparent gzip decompression (detected by the gzip magic bytes, or
the ``.gz`` extension when the file cannot be probed).  Line endings
may be Unix or Windows (CRLF) — the ``\\r`` never reaches names,
descriptions, sequences, or quality strings.  Parsing is strict —
malformed records raise :class:`FastaFormatError` rather than being
silently skipped, and an input that ends early (a truncated gzip
stream, a FASTQ record cut short) raises its subclass
:class:`TruncatedInputError`.

:func:`iter_fasta` / :func:`iter_fastq` are the one parser: they
stream records with bounded memory, :func:`read_fasta` /
:func:`read_fastq` are ``list(...)`` over them, and
:mod:`repro.io.stream` builds its format sniffing and mate pairing on
the same line iterator.
"""

from __future__ import annotations

import gzip
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

PathOrHandle = Union[str, Path, TextIO]


class FastaFormatError(ValueError):
    """Raised when a FASTA/FASTQ file violates the format."""


class TruncatedInputError(FastaFormatError):
    """An input ended early: truncated gzip or a mid-record EOF.

    Subclasses :class:`FastaFormatError` so call
    sites that already handle malformed inputs catch truncation too;
    the distinct type lets tests (and retry loops around network
    fetches) tell "file is garbage" from "file stopped early".
    """


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: an identifier, optional description, sequence."""

    name: str
    sequence: str
    description: str = ""

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class FastqRecord:
    """One FASTQ record: identifier, sequence and per-base quality string."""

    name: str
    sequence: str
    quality: str
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.quality):
            raise FastaFormatError(
                f"record {self.name!r}: sequence length {len(self.sequence)} "
                f"!= quality length {len(self.quality)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)


#: The two magic bytes every gzip stream starts with (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"


def _open_for_write(target: PathOrHandle):
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="ascii"), True
    return target, False


def _split_header(line: str) -> tuple[str, str]:
    """Split a ``>``/``@`` header into (name, description).

    The identifier ends at the first whitespace of *any* kind — real
    FASTA/FASTQ headers separate the description with tabs as often
    as spaces, and a tab swallowed into the name would later corrupt
    tab-delimited SAM columns.
    """
    body = line[1:].strip()
    if not body:
        raise FastaFormatError("record header has no identifier")
    parts = body.split(maxsplit=1)
    name = parts[0]
    description = parts[1] if len(parts) > 1 else ""
    return name, description


def _origin(source: PathOrHandle) -> str:
    """A human-readable name for error messages."""
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", None) or "<stream>"


def open_text(source: PathOrHandle) -> tuple[TextIO, bool]:
    """Open a path for buffered text reading, sniffing gzip.

    Returns ``(handle, owned)`` — ``owned`` is False for handles
    passed through.  Compression is detected by the gzip magic bytes
    (or the ``.gz`` suffix when the file cannot be probed), and
    decompressed incrementally.
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

    A file ending mid-record raises :class:`TruncatedInputError`
    naming the record.
    """
    handle, owned = open_text(source)
    origin = _origin(source)
    try:
        yield from _parse_fastq(_lines(handle, origin), origin)
    finally:
        if owned:
            handle.close()


def read_fasta(source: PathOrHandle) -> list[FastaRecord]:
    """Read all FASTA records from a path or open text handle."""
    return list(iter_fasta(source))


def write_fasta(
    target: PathOrHandle,
    records: Iterable[FastaRecord],
    line_width: int = 70,
) -> None:
    """Write FASTA records, wrapping sequences at ``line_width`` columns."""
    if line_width <= 0:
        raise ValueError("line_width must be positive")
    handle, owned = _open_for_write(target)
    try:
        for record in records:
            header = record.name
            if record.description:
                header = f"{header} {record.description}"
            handle.write(f">{header}\n")
            seq = record.sequence
            for start in range(0, len(seq), line_width):
                handle.write(seq[start:start + line_width] + "\n")
    finally:
        if owned:
            handle.close()


def read_fastq(source: PathOrHandle) -> list[FastqRecord]:
    """Read all FASTQ records from a path or open text handle."""
    return list(iter_fastq(source))


def mate_base_name(name: str) -> str:
    """Strip a trailing ``/1`` / ``/2`` mate suffix, if present.

    The shared fragment-name normalization of the R1/R2 convention,
    used by :func:`read_mate_pairs` and by
    :meth:`repro.api.Mapper.map_pairs` to cross-check that parallel
    mate lists actually pair related reads.
    """
    if len(name) > 2 and name[-2] == "/" and name[-1] in "12":
        return name[:-2]
    return name


def read_mate_pairs(
    source1: PathOrHandle,
    source2: PathOrHandle,
) -> list[tuple[str, str, str]]:
    """Read two FASTA/FASTQ mate files into ``(name, read1, read2)``.

    The files must hold the same number of records in the same order
    (the universal R1/R2 convention); record ``i`` of each file forms
    one pair.  Names are cross-checked after stripping any ``/1`` /
    ``/2`` suffix — a mismatch raises :class:`FastaFormatError`, since
    silently pairing unrelated reads corrupts every downstream pair
    statistic.  Each file may independently be FASTA or FASTQ.

    The two files are streamed *in lockstep* — record ``i`` of each
    side is compared before record ``i + 1`` is read, so the first
    mismatch raises with its record index and neither file is ever
    materialized whole (the historical implementation read both
    files into RAM before noticing a divergence in record 0).
    """
    # Function-level import: repro.io.stream builds on this module's
    # record vocabulary, so the streaming direction of the dependency
    # must resolve lazily.
    from repro.io.stream import iter_mate_pairs

    return list(iter_mate_pairs(source1, source2))


def read_sequences(source: PathOrHandle) -> list[tuple[str, str]]:
    """Read ``(name, sequence)`` pairs from FASTA *or* FASTQ.

    Format detection: a leading ``@`` means FASTQ, anything else is
    parsed as FASTA (matching the ``map`` CLI's sniffing).  The
    records come from the streaming parser
    (:func:`repro.io.stream.iter_reads`), which sniffs the format
    from the first line instead of slurping the file to look at it.
    """
    from repro.io.stream import iter_reads

    return list(iter_reads(source))


def write_fastq(target: PathOrHandle, records: Iterable[FastqRecord]) -> None:
    """Write FASTQ records in the standard 4-line format."""
    handle, owned = _open_for_write(target)
    try:
        for record in records:
            header = record.name
            if record.description:
                header = f"{header} {record.description}"
            handle.write(f"@{header}\n{record.sequence}\n+\n{record.quality}\n")
    finally:
        if owned:
            handle.close()
