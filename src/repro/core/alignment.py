"""Alignment primitives: edit operations, CIGAR strings, replay checks.

Conventions (SAM-style, from the read's point of view):

* ``=`` — match: read and reference characters are equal.
* ``X`` — mismatch (substitution).
* ``I`` — insertion: a read character absent from the reference.
* ``D`` — deletion: a reference character absent from the read.

Edit distance is the total count of ``X`` + ``I`` + ``D`` operations
(Levenshtein, paper Section 2.1).  The traceback outputs of all the
aligners in this library are :class:`Cigar` objects, and
:func:`replay_alignment` re-executes a CIGAR against the read and the
spelled reference path to prove that the claimed alignment is real —
the test suite leans on this heavily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator

#: Operations that consume a read character.
READ_CONSUMING = frozenset("=XI")

#: Operations that consume a reference character.
REF_CONSUMING = frozenset("=XD")

#: All valid CIGAR operations.
VALID_OPS = frozenset("=XID")


class CigarError(ValueError):
    """Raised for malformed CIGARs or failed replay validation."""


@dataclass(frozen=True)
class Cigar:
    """An immutable run-length-encoded sequence of edit operations."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for op, length in self.ops:
            if op not in VALID_OPS:
                raise CigarError(f"invalid CIGAR op {op!r}")
            if length < 1:
                raise CigarError(f"non-positive run length {length} for "
                                 f"op {op!r}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_ops(cls, ops: Iterable[str]) -> "Cigar":
        """Build from a flat iterable of single-character ops."""
        return cls(tuple((op, len(list(run))) for op, run in groupby(ops)))

    @classmethod
    def from_string(cls, text: str) -> "Cigar":
        """Parse a CIGAR string like ``"5=1X3="``."""
        runs: list[tuple[str, int]] = []
        number = ""
        for char in text:
            if char in "0123456789":  # ASCII only: "²".isdigit() is true
                number += char
            else:
                if not number:
                    raise CigarError(
                        f"op {char!r} without a preceding count in {text!r}"
                    )
                runs.append((char, int(number)))
                number = ""
        if number:
            raise CigarError(f"trailing count without op in {text!r}")
        return cls(tuple(runs))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return "".join(f"{length}{op}" for op, length in self.ops)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.ops)

    def expand(self) -> str:
        """Flatten to one character per operation (``"==X="``)."""
        return "".join(op * length for op, length in self.ops)

    def count(self, op: str) -> int:
        """Total length of runs of one operation."""
        if op not in VALID_OPS:
            raise CigarError(f"invalid CIGAR op {op!r}")
        return sum(length for o, length in self.ops if o == op)

    @property
    def matches(self) -> int:
        return self.count("=")

    @property
    def mismatches(self) -> int:
        return self.count("X")

    @property
    def insertions(self) -> int:
        return self.count("I")

    @property
    def deletions(self) -> int:
        return self.count("D")

    @property
    def edit_distance(self) -> int:
        """Total number of edits (mismatches + insertions + deletions)."""
        return self.mismatches + self.insertions + self.deletions

    @property
    def read_consumed(self) -> int:
        """Read characters consumed by this CIGAR."""
        return sum(length for op, length in self.ops
                   if op in READ_CONSUMING)

    @property
    def ref_consumed(self) -> int:
        """Reference characters consumed by this CIGAR."""
        return sum(length for op, length in self.ops if op in REF_CONSUMING)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def concat(self, other: "Cigar") -> "Cigar":
        """Concatenate two CIGARs, merging the boundary run."""
        left, right = self.ops, other.ops
        if left and right and left[-1][0] == right[0][0]:
            (op, length), right = right[0], right[1:]
            left = left[:-1] + ((op, left[-1][1] + length),)
        return Cigar(left + right)


#: The empty CIGAR (zero operations).
EMPTY_CIGAR = Cigar(())

#: MAPQ bonus applied before clamping when a mate is part of a proper
#: pair — concordant insert size and orientation corroborate the
#: placement beyond what per-mate identity alone supports.
PROPER_PAIR_MAPQ_BONUS = 5

#: The SAM MAPQ ceiling this library emits.
MAX_MAPQ = 60

#: MAPQ ceiling for a repeat tie: the best and second-best candidate
#: loci have the same edit distance, so the placement is a coin flip
#: among copies.  Downstream variant callers treat MAPQ <= 3 as
#: "multi-mapping" — this is the contract the calibration tests pin.
TIE_MAPQ = 3

#: MAPQ points awarded per edit of best/second-best distance gap.
#: One distinguishing edit between two loci is strong but not
#: conclusive evidence (a sequencing error can fake it); five or more
#: saturate the scale at ``MAX_MAPQ``.
MAPQ_PER_GAP_EDIT = 12

#: Best/second-best gap from which ``MAPQ_PER_GAP_EDIT * gap`` reaches
#: every identity ceiling, so the runner-up no longer lowers MAPQ —
#: and the align stage may abandon a region that far behind.
MAPQ_SATURATION_GAP = math.ceil(MAX_MAPQ / MAPQ_PER_GAP_EDIT)


def mapq_from_candidates(identity: float | None,
                         best_distance: int | None,
                         second_best_distance: int | None,
                         proper_pair: bool = False) -> int:
    """Calibrated mapping quality from the best/second-best gap.

    The single MAPQ policy for every writer (SAM, GAF, pair-aware
    SAM).  Calibration follows the standard second-best-distance
    contract (BWA-style, "Accelerating Genome Analysis" primer):

    * no second candidate locus anywhere -> the placement is unique;
      MAPQ is the identity ceiling ``int(60 * identity)``;
    * a second-best at the same distance -> repeat tie; MAPQ is capped
      at :data:`TIE_MAPQ` (0-3: the reported locus is a guess);
    * otherwise MAPQ grows :data:`MAPQ_PER_GAP_EDIT` per edit of gap,
      still capped by the identity ceiling (a unique-but-terrible
      alignment is not a confident one) — so a runner-up
      :data:`MAPQ_SATURATION_GAP` or more edits behind is
      indistinguishable from none.

    ``proper_pair`` adds :data:`PROPER_PAIR_MAPQ_BONUS` before the
    final clamp to ``[0, MAX_MAPQ]``.  Unmapped (``None`` identity or
    distance) maps to 0.
    """
    if identity is None or best_distance is None:
        return 0
    ceiling = int(MAX_MAPQ * identity)
    if second_best_distance is None:
        mapq = ceiling
    else:
        gap = second_best_distance - best_distance
        if gap <= 0:
            mapq = min(TIE_MAPQ, ceiling)
        else:
            mapq = min(ceiling, MAPQ_PER_GAP_EDIT * gap)
    if proper_pair:
        mapq += PROPER_PAIR_MAPQ_BONUS
    return max(0, min(MAX_MAPQ, mapq))


def replay_alignment(cigar: Cigar, read: str, reference: str) -> int:
    """Re-execute a CIGAR against the read and the reference substring.

    ``reference`` must be exactly the reference characters the alignment
    consumed (for graph alignments: the spelled characters of the path).
    Verifies every ``=`` really matches, every ``X`` really differs, and
    that both strings are fully consumed.  Returns the edit distance.

    Raises :class:`CigarError` on any inconsistency — this is the
    ground-truth check used by the test suite for every aligner.
    """
    read_pos = 0
    ref_pos = 0
    edits = 0
    for op, length in cigar.ops:
        if op == "=":
            if read[read_pos:read_pos + length] != \
                    reference[ref_pos:ref_pos + length]:
                raise CigarError(
                    f"'=' run of {length} at read[{read_pos}] does not "
                    "match the reference"
                )
            read_pos += length
            ref_pos += length
        elif op == "X":
            for i in range(length):
                if read_pos + i >= len(read) or ref_pos + i >= len(reference):
                    raise CigarError("'X' run overruns read or reference")
                if read[read_pos + i] == reference[ref_pos + i]:
                    raise CigarError(
                        f"'X' at read[{read_pos + i}] is actually a match"
                    )
            read_pos += length
            ref_pos += length
            edits += length
        elif op == "I":
            read_pos += length
            edits += length
        elif op == "D":
            ref_pos += length
            edits += length
    if read_pos != len(read):
        raise CigarError(
            f"CIGAR consumes {read_pos} read chars, read has {len(read)}"
        )
    if ref_pos != len(reference):
        raise CigarError(
            f"CIGAR consumes {ref_pos} reference chars, path has "
            f"{len(reference)}"
        )
    return edits
