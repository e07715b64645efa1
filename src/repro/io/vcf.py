"""Minimal VCF (Variant Call Format) subset reader and writer.

The graph builder consumes SNPs, insertions and deletions expressed in
the VCF convention: POS is 1-based, and indel records include one base
of shared context (the anchor base).  Multi-allelic records are split
into one :class:`VcfRecord` per ALT allele at read time.

Only the columns the pipeline consumes (CHROM, POS, ID, REF, ALT) are
modelled; the remaining columns are preserved as opaque strings when
present so files round-trip cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.io.text import (
    PathOrHandle,
    open_text,
    open_write,
    source_name,
)

_HEADER = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO"


class VcfFormatError(ValueError):
    """Raised when a VCF line cannot be parsed."""


@dataclass(frozen=True)
class VcfRecord:
    """One VCF variant record (single ALT allele).

    Attributes:
        chrom: chromosome / contig name.
        pos: 1-based position of the first REF base.
        ref: reference allele (never empty).
        alt: alternate allele (never empty).
        ident: the ID column ('.' when absent).
    """

    chrom: str
    pos: int
    ref: str
    alt: str
    ident: str = "."

    def __post_init__(self) -> None:
        if self.pos < 1:
            raise VcfFormatError(f"POS must be >= 1, got {self.pos}")
        if not self.ref:
            raise VcfFormatError("REF allele must not be empty")
        if not self.alt:
            raise VcfFormatError("ALT allele must not be empty")

    @property
    def is_snp(self) -> bool:
        """True for a single-base substitution."""
        return len(self.ref) == 1 and len(self.alt) == 1

    @property
    def is_insertion(self) -> bool:
        """True when ALT extends REF (VCF anchored-insertion convention)."""
        return len(self.alt) > len(self.ref)

    @property
    def is_deletion(self) -> bool:
        """True when REF extends ALT (VCF anchored-deletion convention)."""
        return len(self.ref) > len(self.alt)

    @property
    def end(self) -> int:
        """1-based inclusive position of the last REF base."""
        return self.pos + len(self.ref) - 1


def iter_vcf(source: PathOrHandle) -> Iterator[VcfRecord]:
    """Stream variant records, splitting multi-allelic lines."""
    handle, owned = open_text(source)
    try:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.isascii():
                raise VcfFormatError(
                    f"{source_name(source)}: line {line_number}: "
                    "non-ASCII character"
                )
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 5:
                raise VcfFormatError(
                    f"line {line_number}: expected >= 5 tab-separated "
                    f"columns, found {len(fields)}"
                )
            chrom, pos_text, ident, ref, alt_field = fields[:5]
            try:
                pos = int(pos_text)
            except ValueError:
                raise VcfFormatError(
                    f"line {line_number}: POS is not an integer: "
                    f"{pos_text!r}"
                ) from None
            for alt in alt_field.split(","):
                if alt in (".", "*", "<*>") or alt.startswith("<"):
                    # Symbolic or missing ALT alleles carry no sequence the
                    # graph builder can use; skip them.
                    continue
                yield VcfRecord(chrom=chrom, pos=pos, ref=ref.upper(),
                                alt=alt.upper(), ident=ident)
    finally:
        if owned:
            handle.close()


def read_vcf(source: PathOrHandle) -> list[VcfRecord]:
    """Read all variant records from a path or open text handle."""
    return list(iter_vcf(source))


def write_vcf(target: PathOrHandle, records: Iterable[VcfRecord]) -> None:
    """Write variant records with a minimal header."""
    handle, owned = open_write(target)
    try:
        handle.write("##fileformat=VCFv4.2\n")
        handle.write(_HEADER + "\n")
        for record in records:
            handle.write(
                f"{record.chrom}\t{record.pos}\t{record.ident}\t"
                f"{record.ref}\t{record.alt}\t.\t.\t.\n"
            )
    finally:
        if owned:
            handle.close()
