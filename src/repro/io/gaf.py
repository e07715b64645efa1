"""GAF output for sequence-to-graph mapping results.

GAF (Graph Alignment Format) is the graph world's SAM — vg and
GraphAligner both emit it.  A GAF line records the path through the
graph (``>node1>node2...``), the path interval the read aligned to,
match counts, and the alignment's CIGAR in the ``cg:Z:`` tag.

Only forward-orientation paths are produced (the mapper reverse-
complements the read rather than walking edges backwards), matching
the topologically-sorted-DAG model of the aligner.

**Multi-contig references.**  Path segment names are the node IDs of
the mapper's (combined) graph: with a
:class:`~repro.refs.ReferenceSet` the IDs are globally unique across
contigs (each contig owns a contiguous ID range and there are no
inter-contig edges), so records written against the combined graph
validate against it unchanged —
:meth:`repro.refs.ReferenceSet.contig_of_node` recovers a path's
contig.

**Contig-qualified segment names.**  Mixed GFA + FASTA reference
sets produce combined graphs whose bare node IDs no longer say which
contig a path traverses.  Passing ``refs`` to :func:`result_to_gaf`
(CLI: ``repro map --qualified-paths``) emits each segment as
``<contig>#<node-id>`` instead — self-describing across tools that
only see the GAF.  :func:`read_gaf` parses both spellings (the
qualifier round-trips via :attr:`GafRecord.segments`), and
:func:`validate_gaf_record` cross-checks qualifiers against the
reference set when one is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.alignment import Cigar
from repro.graph.genome_graph import GenomeGraph
from repro.io.text import PathOrHandle, open_text, open_write, \
    source_name

if TYPE_CHECKING:  # avoid a circular import; only needed for hints
    from repro.core.mapper import MappingResult
    from repro.refs.reference import ReferenceSet


class GafFormatError(ValueError):
    """Raised when a GAF line cannot be parsed."""


@dataclass(frozen=True)
class GafRecord:
    """One GAF alignment record (the subset we emit).

    Attributes:
        query_name / query_length: the read.
        path: node IDs of the alignment path, in order.
        path_length: total bases of the path's nodes.
        path_start / path_end: aligned interval within the path
            (0-based, end-exclusive) in path coordinates.
        matches: number of matching bases.
        block_length: total alignment block length (matches + edits).
        mapq: mapping quality (0-60).
        cigar: extended CIGAR string ('' when unavailable).
        segments: contig-qualified segment names
            (``<contig>#<node-id>``, parallel to ``path``) when the
            record was written with a reference set; empty for
            bare-ID records.  :attr:`path` always holds the numeric
            node IDs either way.
    """

    query_name: str
    query_length: int
    path: tuple[int, ...]
    path_length: int
    path_start: int
    path_end: int
    matches: int
    block_length: int
    mapq: int
    cigar: str = ""
    segments: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.segments and len(self.segments) != len(self.path):
            raise GafFormatError(
                f"{self.query_name}: {len(self.segments)} qualified "
                f"segments for a {len(self.path)}-node path"
            )

    @property
    def path_string(self) -> str:
        if self.segments:
            return "".join(f">{name}" for name in self.segments)
        return "".join(f">{node}" for node in self.path)


def result_to_gaf(result: "MappingResult", graph: GenomeGraph,
                  read: str,
                  refs: "ReferenceSet | None" = None
                  ) -> GafRecord | None:
    """Convert a mapped result to a GAF record (None when unmapped).

    With ``refs`` (the mapper's reference set), path segments are
    emitted contig-qualified as ``<contig>#<node-id>`` — the names
    stay meaningful in mixed GFA + FASTA sets where bare combined-
    graph IDs are ambiguous across tools.
    """
    if not result.mapped or result.cigar is None or \
            result.node_id is None:
        return None
    path = result.path_nodes or (result.node_id,)
    path_length = sum(len(graph.sequence_of(n)) for n in path)
    path_start = result.node_offset or 0
    ref_span = result.cigar.ref_consumed
    cigar = result.cigar
    segments: tuple[str, ...] = ()
    if refs is not None:
        segments = tuple(f"{refs.contig_of_node(node)}#{node}"
                         for node in path)
    return GafRecord(
        query_name=result.read_name,
        query_length=len(read),
        path=tuple(path),
        path_length=path_length,
        path_start=path_start,
        path_end=path_start + ref_span,
        matches=cigar.matches,
        block_length=cigar.matches + cigar.edit_distance,
        mapq=result.mapq,
        cigar=str(cigar),
        segments=segments,
    )


def gaf_record_line(record: GafRecord) -> str:
    """The tab-separated GAF line of one record (with newline)."""
    fields = [
        record.query_name,
        str(record.query_length),
        "0",                       # query start
        str(record.query_length),  # query end
        "+",                       # orientation on the path
        record.path_string,
        str(record.path_length),
        str(record.path_start),
        str(record.path_end),
        str(record.matches),
        str(record.block_length),
        str(record.mapq),
    ]
    if record.cigar:
        fields.append(f"cg:Z:{record.cigar}")
    return "\t".join(fields) + "\n"


class GafWriter:
    """Streaming GAF writer: one :meth:`write` per record.

    GAF has no header, so this is a thin incremental wrapper that
    lets the chunked ``repro map`` path emit records as each batch
    completes (the GAF counterpart of :class:`repro.io.sam.
    SamWriter`).  Use as a context manager or call :meth:`close`.
    """

    def __init__(self, target: PathOrHandle) -> None:
        self._handle, self._owned = open_write(target)
        self._closed = False

    def write(self, record: GafRecord) -> None:
        self._handle.write(gaf_record_line(record))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owned:
            self._handle.close()

    def __enter__(self) -> "GafWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _parse_segment(text: str) -> tuple[int, bool]:
    """``(node_id, qualified)`` from one path segment.

    A bare integer is a combined-graph node ID; a
    ``<contig>#<node-id>`` spelling is its contig-qualified form
    (the contig name may itself contain ``#`` — the *last* one
    separates the ID).
    """
    if text.isdigit():
        return int(text), False
    name, sep, node_text = text.rpartition("#")
    if not sep or not name or not node_text.isdigit():
        raise GafFormatError(
            f"path segment {text!r} is neither a node ID nor "
            "<contig>#<node-id>"
        )
    return int(node_text), True


def read_gaf(source: PathOrHandle) -> list[GafRecord]:
    """Parse the GAF subset produced by :class:`GafWriter`.

    Both segment spellings round-trip: bare node IDs populate only
    :attr:`GafRecord.path`; contig-qualified ``<contig>#<node-id>``
    segments additionally populate :attr:`GafRecord.segments`, so a
    re-written record reproduces its input line byte for byte.
    """
    handle, owned = open_text(source)
    try:
        records = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.isascii():
                raise GafFormatError(
                    f"line {line_number}: non-ASCII character"
                )
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 12:
                raise GafFormatError(
                    f"line {line_number}: expected >= 12 columns"
                )
            path_text = fields[5]
            if not path_text.startswith(">"):
                raise GafFormatError(
                    f"line {line_number}: only forward paths are "
                    f"supported, got {path_text[:20]!r}"
                )
            try:
                raw_segments = path_text.split(">")[1:]
                parsed = [_parse_segment(s) for s in raw_segments]
                path = tuple(node for node, _ in parsed)
                qualified = any(flag for _, flag in parsed)
                segments = tuple(raw_segments) if qualified else ()
                cigar = ""
                for tag in fields[12:]:
                    if tag.startswith("cg:Z:"):
                        cigar = tag[5:]
                records.append(GafRecord(
                    query_name=fields[0],
                    query_length=int(fields[1]),
                    path=path,
                    path_length=int(fields[6]),
                    path_start=int(fields[7]),
                    path_end=int(fields[8]),
                    matches=int(fields[9]),
                    block_length=int(fields[10]),
                    mapq=int(fields[11]),
                    cigar=cigar,
                    segments=segments,
                ))
            except ValueError as exc:
                raise GafFormatError(
                    f"line {line_number}: {exc}"
                ) from None
        return records
    except GafFormatError as exc:
        raise GafFormatError(f"{source_name(source)}: {exc}") from None
    finally:
        if owned:
            handle.close()


def validate_gaf_record(record: GafRecord,
                        graph: GenomeGraph,
                        refs: "ReferenceSet | None" = None) -> None:
    """Check a record against its graph: path edges must exist, the
    aligned interval must fit the path, and the CIGAR must be
    consistent with the declared counts.  With ``refs``, contig-
    qualified segments are additionally cross-checked against the
    reference set's node→contig ownership."""
    if refs is not None and record.segments:
        for segment, node in zip(record.segments, record.path):
            expected = f"{refs.contig_of_node(node)}#{node}"
            if segment != expected:
                raise GafFormatError(
                    f"{record.query_name}: qualified segment "
                    f"{segment!r} does not match the reference set "
                    f"(expected {expected!r})"
                )
    for src, dst in zip(record.path, record.path[1:]):
        if dst not in graph.successors(src):
            raise GafFormatError(
                f"{record.query_name}: path edge ({src}, {dst}) does "
                "not exist in the graph"
            )
    if not 0 <= record.path_start <= record.path_end \
            <= record.path_length:
        raise GafFormatError(
            f"{record.query_name}: path interval "
            f"[{record.path_start}, {record.path_end}) outside path "
            f"length {record.path_length}"
        )
    if record.cigar:
        cigar = Cigar.from_string(record.cigar)
        if cigar.matches != record.matches:
            raise GafFormatError(
                f"{record.query_name}: matches column "
                f"{record.matches} != CIGAR matches {cigar.matches}"
            )
        if cigar.ref_consumed != record.path_end - record.path_start:
            raise GafFormatError(
                f"{record.query_name}: path interval length != CIGAR "
                "reference consumption"
            )
