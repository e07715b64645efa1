"""Discordant-pair report: the ``--discordant-out`` TSV.

Non-proper pairs carry structural-variant evidence — a wrong-
orientation pair suggests an inversion, a template-length outlier a
deletion or insertion, an unmapped mate a breakpoint or novel
insertion (ROADMAP: "Chimeric / discordant pairs").  This writer
emits one tab-separated row per discordant pair so SV callers (or a
spreadsheet) can consume the classification without re-parsing SAM
flags.

Columns::

    name  category  contig1  strand1  pos1  contig2  strand2  pos2 \
    template_length  score

Positions are 1-based (SAM convention) or ``.`` for unmapped mates;
contigs are ``.`` for unmapped mates; ``template_length``/``score``
are ``.`` when unavailable (including ``different_reference`` pairs,
where the template length is undefined).  The file round-trips
through :func:`read_discordant_report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, TextIO, Union

if TYPE_CHECKING:  # avoid a circular import; only needed for hints
    from repro.core.pairing import PairResult

PathOrHandle = Union[str, Path, TextIO]

#: Column order of the report (also the header line).
COLUMNS = ("name", "category", "contig1", "strand1", "pos1",
           "contig2", "strand2", "pos2", "template_length", "score")


class DiscordantFormatError(ValueError):
    """Raised when a report line cannot be parsed."""


@dataclass(frozen=True)
class DiscordantRecord:
    """One discordant pair, as reported.

    ``pos1``/``pos2`` are 1-based leftmost mapping positions (None
    for unmapped mates), mirroring the SAM records of the pair;
    ``contig1``/``contig2`` name the reference contig of each mate
    (None for unmapped mates).
    """

    name: str
    category: str
    strand1: str
    pos1: int | None
    strand2: str
    pos2: int | None
    template_length: int | None
    score: int | None
    contig1: str | None = None
    contig2: str | None = None


def record_from_pair(pair: "PairResult") -> DiscordantRecord:
    """Flatten one pair result into a report record."""

    def position(mate) -> int | None:
        if not mate.mapped or mate.linear_position is None:
            return None
        return mate.linear_position + 1

    def contig(mate) -> str | None:
        return mate.contig if mate.mapped else None

    return DiscordantRecord(
        name=pair.name,
        category=pair.category,
        contig1=contig(pair.mate1),
        strand1=pair.mate1.strand if pair.mate1.mapped else ".",
        pos1=position(pair.mate1),
        contig2=contig(pair.mate2),
        strand2=pair.mate2.strand if pair.mate2.mapped else ".",
        pos2=position(pair.mate2),
        template_length=pair.template_length,
        score=pair.score,
    )


def write_discordant_report(target: PathOrHandle,
                            pairs: "Iterable[PairResult]") -> int:
    """Write the report for every *discordant* pair in ``pairs``.

    Proper (and unclassifiable ``unplaced``) pairs are skipped.
    Returns the number of rows written.
    """
    handle, owned = _open_for_write(target)
    written = 0
    try:
        handle.write("#" + "\t".join(COLUMNS) + "\n")
        for pair in pairs:
            if not pair.discordant:
                continue
            record = record_from_pair(pair)
            handle.write("\t".join(
                "." if value is None else str(value)
                for value in (
                    record.name, record.category,
                    record.contig1, record.strand1, record.pos1,
                    record.contig2, record.strand2, record.pos2,
                    record.template_length, record.score,
                )) + "\n")
            written += 1
    finally:
        if owned:
            handle.close()
    return written


def read_discordant_report(source: PathOrHandle) \
        -> list[DiscordantRecord]:
    """Parse a report produced by :func:`write_discordant_report`."""
    handle, owned = _open_for_read(source)
    try:
        records = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != len(COLUMNS):
                raise DiscordantFormatError(
                    f"line {line_number}: expected {len(COLUMNS)} "
                    f"columns, got {len(fields)}"
                )

            def parse_int(text: str) -> int | None:
                return None if text == "." else int(text)

            def parse_str(text: str) -> str | None:
                return None if text == "." else text

            try:
                records.append(DiscordantRecord(
                    name=fields[0], category=fields[1],
                    contig1=parse_str(fields[2]),
                    strand1=fields[3], pos1=parse_int(fields[4]),
                    contig2=parse_str(fields[5]),
                    strand2=fields[6], pos2=parse_int(fields[7]),
                    template_length=parse_int(fields[8]),
                    score=parse_int(fields[9]),
                ))
            except ValueError as exc:
                raise DiscordantFormatError(
                    f"line {line_number}: {exc}"
                ) from None
        return records
    finally:
        if owned:
            handle.close()


def _open_for_read(source: PathOrHandle):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="ascii"), True
    return source, False


def _open_for_write(target: PathOrHandle):
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="ascii"), True
    return target, False
