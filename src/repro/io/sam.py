"""SAM output for sequence-to-sequence mapping results.

Real mappers emit SAM (Sequence Alignment/Map); SeGraM's S2S use case
(paper Section 9) produces exactly the information a SAM line needs.
The subset the mapper produces is implemented: header (@HD/@SQ),
mapped/unmapped records with extended-CIGAR (``=``/``X``) alignment,
the NM edit-distance tag, paired-end records (FLAG bits 0x1/0x2/0x8/
0x20/0x40/0x80 with RNEXT/PNEXT/TLEN, pair-aware calibrated MAPQ, and
the ``YC:Z:`` pair-category tag carrying the discordant
classification of :func:`repro.core.pairing.classify_pair`), and
round-trip parsing of that subset.

**MAPQ.**  Mapping quality is calibrated from the best/second-best
candidate distance gap (:func:`repro.core.alignment.
mapq_from_candidates`): unique placements score up to 60, repeat ties
0-3.  Results without candidate information (e.g. rescued mates) fall
back to the identity ceiling.

**Orientation.**  Per the SAM spec, SEQ is always stored in the
orientation that aligns forward to the reference: when FLAG 0x10 is
set, SEQ is the *reverse complement* of the sequenced read, and the
CIGAR/NM describe that reverse-complemented sequence.  (The mapper
aligns the reverse-complemented read against the forward graph, so its
CIGAR is already in this orientation.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, TextIO, Union

from repro import seq as seqmod
from repro.core.alignment import Cigar

if TYPE_CHECKING:  # avoid a circular import; only needed for hints
    from repro.core.mapper import MappingResult
    from repro.core.pairing import PairResult

PathOrHandle = Union[str, Path, TextIO]

#: FLAG bits used by this writer (SAM spec section 1.4).
FLAG_PAIRED = 0x1
FLAG_PROPER_PAIR = 0x2
FLAG_UNMAPPED = 0x4
FLAG_MATE_UNMAPPED = 0x8
FLAG_REVERSE = 0x10
FLAG_MATE_REVERSE = 0x20
FLAG_FIRST_IN_PAIR = 0x40
FLAG_SECOND_IN_PAIR = 0x80


class SamFormatError(ValueError):
    """Raised when a SAM line cannot be parsed."""


@dataclass(frozen=True)
class SamRecord:
    """One SAM alignment record (the subset we emit).

    ``seq`` follows the SAM orientation rule: for reverse-strand
    records (FLAG 0x10) it holds the reverse complement of the
    sequenced read.  ``rnext``/``pnext``/``tlen`` are the mate fields
    (columns 7-9); single-end records leave them at ``"*"``/0/0.
    ``pair_category`` round-trips through the ``YC:Z:`` tag — the
    discordant classification of the pair this record belongs to
    (one of :data:`repro.core.pairing.PAIR_CATEGORIES`).
    """

    qname: str
    flag: int
    rname: str
    pos: int  # 1-based; 0 for unmapped
    mapq: int
    cigar: str
    seq: str
    rnext: str = "*"
    pnext: int = 0
    tlen: int = 0
    edit_distance: int | None = None
    pair_category: str | None = None

    @property
    def is_unmapped(self) -> bool:
        return bool(self.flag & FLAG_UNMAPPED)

    @property
    def is_reverse(self) -> bool:
        return bool(self.flag & FLAG_REVERSE)

    @property
    def is_paired(self) -> bool:
        return bool(self.flag & FLAG_PAIRED)

    @property
    def is_proper_pair(self) -> bool:
        return bool(self.flag & FLAG_PROPER_PAIR)

    @property
    def is_mate_unmapped(self) -> bool:
        return bool(self.flag & FLAG_MATE_UNMAPPED)

    @property
    def is_mate_reverse(self) -> bool:
        return bool(self.flag & FLAG_MATE_REVERSE)

    @property
    def is_first_in_pair(self) -> bool:
        return bool(self.flag & FLAG_FIRST_IN_PAIR)

    @property
    def is_second_in_pair(self) -> bool:
        return bool(self.flag & FLAG_SECOND_IN_PAIR)


def _checked_name(value: str | None, column: str,
                  read_name: str) -> str:
    """Reject QNAME/RNAME values that are missing or would corrupt the
    tab-delimited columns (or, for spaces, violate the SAM name
    grammar).

    Names normally arrive clean — the FASTA/FASTQ readers split
    headers on any whitespace — but results constructed directly can
    carry anything, and an embedded tab silently shifts every
    downstream column.
    """
    if not value or any(c.isspace() for c in value):
        raise SamFormatError(
            f"read {read_name!r}: {column} {value!r} is empty or "
            "contains whitespace (would corrupt tab-delimited SAM)"
        )
    return value


def _oriented_seq(result: "MappingResult", read: str) -> str:
    """SEQ in SAM orientation: reverse complement for '-' mappings."""
    if result.mapped and result.strand == "-":
        return seqmod.reverse_complement(read)
    return read


def result_to_sam(result: "MappingResult", read: str,
                  # Ignored.  Deleted with ROADMAP item 1's follow-up
                  # ``src/`` PR, once ``benchmarks/perf/run.py`` stops
                  # passing it.
                  reference_name: str | None = None,
                  flag_extra: int = 0,
                  mapq: int | None = None,
                  pair_category: str | None = None) -> SamRecord:
    """Convert a mapping result to a SAM record.

    RNAME is the result's contig.  ``result.linear_position`` must be
    present for mapped reads (placements on linear-backed contigs
    have one); mapped results without a projection raise, because SAM
    coordinates are linear.  MAPQ defaults to the
    calibrated ``result.mapq`` (best/second-best gap);
    ``flag_extra``/``mapq``/``pair_category`` let the pair-aware
    writer add pair flag bits, override the per-mate MAPQ, and stamp
    the ``YC:Z:`` classification tag.
    """
    if not result.mapped:
        return SamRecord(
            qname=_checked_name(result.read_name, "QNAME",
                                result.read_name),
            flag=FLAG_UNMAPPED | flag_extra, rname="*",
            pos=0, mapq=0, cigar="*", seq=read,
            pair_category=pair_category,
        )
    if result.linear_position is None:
        raise SamFormatError(
            f"read {result.read_name!r}: mapped result has no linear "
            "projection; SAM output requires a linear-backed contig"
        )
    flag = (FLAG_REVERSE if result.strand == "-" else 0) | flag_extra
    if mapq is None:
        mapq = result.mapq
    return SamRecord(
        qname=_checked_name(result.read_name, "QNAME",
                            result.read_name),
        flag=flag,
        rname=_checked_name(result.contig, "RNAME", result.read_name),
        pos=result.linear_position + 1,
        mapq=mapq,
        cigar=str(result.cigar),
        seq=_oriented_seq(result, read),
        edit_distance=result.distance,
        pair_category=pair_category,
    )


def pair_to_sam(pair: "PairResult", read1: str,
                read2: str) -> tuple[SamRecord, SamRecord]:
    """Convert one mapped pair into its two SAM records.

    Sets the pair FLAG bits (0x1 paired, 0x2 proper, 0x8/0x20 mate
    state, 0x40/0x80 mate index), fills RNEXT (``=`` when the mate
    maps to the same reference contig, the mate's RNAME when the
    mates map to *different* contigs), PNEXT, and the signed TLEN
    (positive on the leftmost mate, negative on the rightmost; 0
    unless both mates mapped to the same contig — TLEN is undefined
    across references), and applies the pair-aware calibrated MAPQ
    (:meth:`~repro.core.mapper.MappingResult.mapq_with` with the
    proper-pair bonus).  Both records carry the pair's discordant
    classification in the ``YC:Z:`` tag.  Per the SAM spec's
    recommended practice, an unmapped mate whose partner is mapped is
    co-located with it (RNAME/POS copied from the mapped mate, with
    RNEXT ``=``) so coordinate sorts keep the pair together.
    """
    results = (pair.mate1, pair.mate2)
    reads = (read1, read2)
    index_flags = (FLAG_FIRST_IN_PAIR, FLAG_SECOND_IN_PAIR)
    records = []
    for me, mate, read, index_flag in zip(
            results, reversed(results), reads, index_flags):
        flag = FLAG_PAIRED | index_flag
        if pair.proper:
            flag |= FLAG_PROPER_PAIR
        if not mate.mapped:
            flag |= FLAG_MATE_UNMAPPED
        elif mate.strand == "-":
            flag |= FLAG_MATE_REVERSE
        mapq = me.mapq_with(proper_pair=pair.proper)
        records.append(result_to_sam(me, read, flag_extra=flag,
                                     mapq=mapq,
                                     pair_category=pair.category))
    rec1, rec2 = records
    if pair.mate1.mapped and pair.mate2.mapped \
            and rec1.rname != rec2.rname:
        # Mates on different contigs: RNEXT names the mate's contig,
        # and TLEN stays 0 (undefined across references per the spec).
        rec1 = replace(rec1, rnext=rec2.rname, pnext=rec2.pos)
        rec2 = replace(rec2, rnext=rec1.rname, pnext=rec1.pos)
    elif pair.mate1.mapped and pair.mate2.mapped:
        positions = (rec1.pos, rec2.pos)
        ends = tuple(p + result.cigar.ref_consumed
                     for p, result in zip(positions, results))
        span = max(ends) - min(positions)
        # Leftmost mate gets +TLEN; ties go to the first mate.
        signs = (1, -1) if (rec1.pos, 0) <= (rec2.pos, 1) else (-1, 1)
        rec1 = replace(rec1, rnext="=", pnext=rec2.pos,
                       tlen=signs[0] * span)
        rec2 = replace(rec2, rnext="=", pnext=rec1.pos,
                       tlen=signs[1] * span)
    elif pair.mate1.mapped or pair.mate2.mapped:
        mapped, unmapped = (rec1, rec2) if pair.mate1.mapped \
            else (rec2, rec1)
        placed = replace(unmapped, rname=mapped.rname,
                         pos=mapped.pos, rnext="=",
                         pnext=mapped.pos)
        mapped = replace(mapped, rnext="=", pnext=mapped.pos)
        rec1, rec2 = (mapped, placed) if pair.mate1.mapped \
            else (placed, mapped)
    return rec1, rec2


def sam_record_line(record: SamRecord) -> str:
    """The tab-separated SAM line of one record (with newline)."""
    fields = [
        record.qname, str(record.flag), record.rname,
        str(record.pos), str(record.mapq), record.cigar,
        record.rnext, str(record.pnext), str(record.tlen),
        record.seq, "*",
    ]
    if record.edit_distance is not None:
        fields.append(f"NM:i:{record.edit_distance}")
    if record.pair_category is not None:
        fields.append(f"YC:Z:{record.pair_category}")
    return "\t".join(fields) + "\n"


class SamWriter:
    """Streaming SAM writer, optionally coordinate-sorted.

    The incremental counterpart of :func:`write_sam`: the @HD/@SQ/@PG
    header goes out at construction and each :meth:`write` appends
    one record, so a streaming mapping run (``repro map`` consuming
    chunked reads) emits SAM with the memory footprint of one record.

    ``sort=True`` turns on an ``@SQ``-order-aware coordinate sort
    (``@HD SO:coordinate``): records order by (position of RNAME in
    the header, POS, input order), with unmapped/unplaced records
    (RNAME ``*``) last — the ``samtools sort`` convention.  Sorting
    buffers at most ``run_size`` records in memory; larger outputs
    spill sorted runs to anonymous temporary files that are k-way
    merged on :meth:`close` (external merge sort), so the sorted path
    keeps the same bounded-memory guarantee as the streaming one.

    ``contigs`` are the ``(name, length)`` pairs of the ``@SQ`` lines,
    in order (e.g. :meth:`repro.refs.ReferenceSet.sam_contigs`).
    Records naming an RNAME, or an RNEXT other than ``=`` / ``*``,
    absent from the header raise :class:`SamFormatError`, sorted or
    not: such a record refers to no declared reference (and has no
    sort rank).
    Use as a context manager, or call :meth:`close` (which writes any
    buffered sorted body) when done.
    """

    #: Records buffered in memory before a sorted run is spilled.
    DEFAULT_RUN_SIZE = 100_000

    def __init__(
        self,
        target: PathOrHandle,
        contigs: Iterable[tuple[str, int]],
        sort: bool = False,
        run_size: int = DEFAULT_RUN_SIZE,
    ) -> None:
        if run_size < 1:
            raise ValueError("run_size must be >= 1")
        contigs = list(contigs)
        self._handle, self._owned = _open_for_write(target)
        self._sort = sort
        self._run_size = run_size
        self._rank = {name: rank
                      for rank, (name, _) in enumerate(contigs)}
        self._serial = 0
        self._buffer: list[tuple[int, int, int, str]] = []
        self._runs: list = []
        self._closed = False
        order = "coordinate" if sort else "unknown"
        self._handle.write(f"@HD\tVN:1.6\tSO:{order}\n")
        for name, length in contigs:
            self._handle.write(f"@SQ\tSN:{name}\tLN:{length}\n")
        self._handle.write("@PG\tID:segram-repro\tPN:segram-repro\n")

    def write(self, record: SamRecord) -> None:
        """Append one record (buffered until close when sorting)."""
        for column, name, placeholders in (
                ("RNAME", record.rname, ("*",)),
                ("RNEXT", record.rnext, ("*", "="))):
            if name not in self._rank and name not in placeholders:
                raise SamFormatError(
                    f"{record.qname}: {column} {name!r} is not in the "
                    "@SQ header"
                )
        line = sam_record_line(record)
        if not self._sort:
            self._handle.write(line)
            return
        # Unmapped / unplaced records (RNAME ``*``) sort last.
        rank = self._rank.get(record.rname, len(self._rank))
        self._buffer.append((rank, record.pos, self._serial, line))
        self._serial += 1
        if len(self._buffer) >= self._run_size:
            self._spill()

    def _spill(self) -> None:
        """Write the buffer as one sorted run to a temporary file."""
        import tempfile

        self._buffer.sort()
        run = tempfile.TemporaryFile("w+", encoding="ascii")
        for rank, pos, serial, line in self._buffer:
            run.write(f"{rank}\t{pos}\t{serial}\t{line}")
        self._runs.append(run)
        self._buffer = []

    @staticmethod
    def _decode_run(run) -> "Iterable[tuple[int, int, int, str]]":
        for raw in run:
            rank, pos, serial, line = raw.split("\t", 3)
            yield int(rank), int(pos), int(serial), line

    def close(self) -> None:
        """Flush the sorted body (if sorting) and release the file."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._sort:
                import heapq

                self._buffer.sort()
                streams = []
                for run in self._runs:
                    run.seek(0)
                    streams.append(self._decode_run(run))
                streams.append(iter(self._buffer))
                for entry in heapq.merge(
                        *streams, key=lambda e: e[:3]):
                    self._handle.write(entry[3])
        finally:
            for run in self._runs:
                run.close()
            self._runs = []
            self._buffer = []
            if self._owned:
                self._handle.close()

    def __enter__(self) -> "SamWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_sam(
    target: PathOrHandle,
    records: Iterable[SamRecord],
    contigs: Iterable[tuple[str, int]],
    sort: bool = False,
) -> None:
    """Write records with a minimal @HD/@SQ header.

    ``contigs`` are the ``(name, length)`` pairs emitted as one
    ``@SQ`` line each, in order (e.g.
    :meth:`repro.refs.ReferenceSet.sam_contigs`).  ``sort=True`` emits
    the records coordinate-sorted (see :class:`SamWriter`).
    """
    writer = SamWriter(target, contigs, sort=sort)
    try:
        for record in records:
            writer.write(record)
    finally:
        writer.close()


def read_sam(source: PathOrHandle) -> list[SamRecord]:
    """Parse the SAM subset produced by :func:`write_sam`."""
    handle, owned = _open_for_read(source)
    try:
        records = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.isascii():
                raise SamFormatError(
                    f"line {line_number}: non-ASCII character"
                )
            if not line or line.startswith("@"):
                continue
            fields = line.split("\t")
            if len(fields) < 11:
                raise SamFormatError(
                    f"line {line_number}: expected >= 11 columns"
                )
            edit_distance = None
            pair_category = None
            try:
                for tag in fields[11:]:
                    if tag.startswith("NM:i:"):
                        edit_distance = int(tag[5:])
                    elif tag.startswith("YC:Z:"):
                        pair_category = tag[5:]
                record = SamRecord(
                    qname=fields[0], flag=int(fields[1]),
                    rname=fields[2], pos=int(fields[3]),
                    mapq=int(fields[4]), cigar=fields[5],
                    rnext=fields[6], pnext=int(fields[7]),
                    tlen=int(fields[8]),
                    seq=fields[9], edit_distance=edit_distance,
                    pair_category=pair_category,
                )
            except ValueError as exc:
                raise SamFormatError(
                    f"line {line_number}: {exc}"
                ) from None
            records.append(record)
        return records
    finally:
        if owned:
            handle.close()


def validate_sam_record(record: SamRecord) -> None:
    """Internal consistency checks on a mapped record.

    The extended CIGAR must consume exactly the SEQ, and the NM tag
    must equal the CIGAR's edit count.
    """
    if record.is_unmapped:
        return
    cigar = Cigar.from_string(record.cigar)
    if cigar.read_consumed != len(record.seq):
        raise SamFormatError(
            f"{record.qname}: CIGAR consumes {cigar.read_consumed} "
            f"read bases, SEQ has {len(record.seq)}"
        )
    if record.edit_distance is not None and \
            record.edit_distance != cigar.edit_distance:
        raise SamFormatError(
            f"{record.qname}: NM:i:{record.edit_distance} != CIGAR "
            f"edits {cigar.edit_distance}"
        )


def validate_sam_pair(rec1: SamRecord, rec2: SamRecord) -> None:
    """Cross-checks on the two records of one pair.

    Both must carry the paired flag with complementary mate-index
    bits, the mate-state bits (0x8/0x20) must mirror the other record,
    RNEXT/PNEXT must point at each other (``=`` for intra-contig
    mates, the mate's RNAME for mates on different contigs — which
    must also carry the ``different_reference`` category and TLEN 0),
    the signed TLENs must cancel, and the ``YC:Z:`` pair-category
    tags must agree with each other and with the FLAG bits
    (proper <=> category "proper"; a mate-unmapped bit <=> an
    unmapped-mate category).
    """
    for rec in (rec1, rec2):
        validate_sam_record(rec)
        if not rec.is_paired:
            raise SamFormatError(f"{rec.qname}: pair record missing "
                                 "FLAG 0x1")
    if rec1.pair_category != rec2.pair_category:
        raise SamFormatError(
            f"{rec1.qname}: pair-category tags disagree "
            f"({rec1.pair_category!r} vs {rec2.pair_category!r})"
        )
    category = rec1.pair_category
    if category is not None:
        if (category == "proper") != rec1.is_proper_pair:
            raise SamFormatError(
                f"{rec1.qname}: category {category!r} disagrees with "
                f"the proper-pair flag"
            )
        either_unmapped = rec1.is_unmapped or rec2.is_unmapped
        if (category in ("one_mate_unmapped", "both_unmapped")) \
                != either_unmapped:
            raise SamFormatError(
                f"{rec1.qname}: category {category!r} disagrees with "
                f"the unmapped flags"
            )
        both_mapped = not either_unmapped
        cross_contig = both_mapped and rec1.rname != rec2.rname
        if (category == "different_reference") != cross_contig:
            raise SamFormatError(
                f"{rec1.qname}: category {category!r} disagrees with "
                f"the RNAMEs {rec1.rname!r}/{rec2.rname!r}"
            )
        if cross_contig and (rec1.tlen != 0 or rec2.tlen != 0):
            raise SamFormatError(
                f"{rec1.qname}: TLEN must be 0 for mates on "
                "different references"
            )
    if not (rec1.is_first_in_pair and rec2.is_second_in_pair):
        raise SamFormatError(
            f"{rec1.qname}: expected 0x40/0x80 mate-index flags, got "
            f"{rec1.flag:#x}/{rec2.flag:#x}"
        )
    for me, mate in ((rec1, rec2), (rec2, rec1)):
        if me.is_mate_unmapped != mate.is_unmapped:
            raise SamFormatError(
                f"{me.qname}: mate-unmapped flag disagrees with the "
                "mate record"
            )
        if not mate.is_unmapped and \
                me.is_mate_reverse != mate.is_reverse:
            raise SamFormatError(
                f"{me.qname}: mate-reverse flag disagrees with the "
                "mate record"
            )
        if me.is_proper_pair != mate.is_proper_pair:
            raise SamFormatError(
                f"{me.qname}: proper-pair flags disagree"
            )
        if me.rnext not in ("=", "*") and me.rnext != mate.rname:
            raise SamFormatError(
                f"{me.qname}: RNEXT {me.rnext!r} != mate RNAME "
                f"{mate.rname!r}"
            )
        if me.rnext != "*" and me.pnext != mate.pos:
            raise SamFormatError(
                f"{me.qname}: PNEXT {me.pnext} != mate POS {mate.pos}"
            )
    if rec1.tlen + rec2.tlen != 0:
        raise SamFormatError(
            f"{rec1.qname}: TLENs {rec1.tlen}/{rec2.tlen} do not cancel"
        )


def _open_for_read(source: PathOrHandle):
    # A non-ASCII byte decodes to a lone surrogate, which the reader
    # rejects with its line number instead of a bare decode error.
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="ascii",
                    errors="surrogateescape"), True
    return source, False


def _open_for_write(target: PathOrHandle):
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="ascii"), True
    return target, False
