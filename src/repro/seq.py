"""DNA alphabet utilities: 2-bit encoding, complements, validation.

The SeGraM paper stores reference characters with a 2-bit representation
(A:00, C:01, G:10, T:11; Section 5).  Every component of this library
(graph character table, minimizer hashing, pattern bitmasks) goes through
the encoding defined here so the on-"chip" representation is consistent.

**Ambiguous-base (``N``) policy.**  One policy, shared with
:data:`repro.align.bitap.ABSENT_CHAR_MASK` and the GenASM pattern
bitmasks:

* ``N`` is a *literal read character*, never part of the 2-bit
  alphabet.  :func:`encode`/:func:`pack` (and therefore graph
  character tables and minimizer hashing) reject it — the reference
  side of this library is strictly ``ACGT``.
* Read-side entry points accept it when asked:
  :func:`is_valid`/:func:`validate` take ``allow_ambiguous=True``
  (the mapper's read-input path uses this), and
  :func:`complement`/:func:`reverse_complement` map ``N`` to ``N``.
* In alignment, ``N`` matches only a pattern ``N`` and mismatches
  every other character (it hits the absent-char mask), so each ``N``
  costs one edit against an ``ACGT`` reference.
* In seeding, k-mers containing ``N`` are skipped (they cannot be
  2-bit hashed), so reads with ambiguous bases seed only from their
  unambiguous stretches.
"""

from __future__ import annotations

import random
from typing import Iterable

#: Canonical DNA alphabet in encoding order (A=0, C=1, G=2, T=3).
ALPHABET = "ACGT"

#: Number of symbols in the alphabet.
ALPHABET_SIZE = 4

#: Bits needed per encoded base.
BITS_PER_BASE = 2

#: Ambiguous-base characters accepted on the read path (see the module
#: docstring for the full policy).  Not 2-bit encodable.
AMBIGUOUS = "Nn"

_ENCODE = {"A": 0, "C": 1, "G": 2, "T": 3, "a": 0, "c": 1, "g": 2, "t": 3}
_DECODE = "ACGT"
_COMPLEMENT = {"A": "T", "C": "G", "G": "C", "T": "A",
               "a": "t", "c": "g", "g": "c", "t": "a", "N": "N", "n": "n"}

# ``str.translate`` tables: one C-level pass where a per-character
# Python loop costs ~100x more on a 4 096-base node sequence.  The
# deleting tables leave exactly the characters a check must reject.
_COMPLEMENT_TABLE = str.maketrans(_COMPLEMENT)
_DELETE_COMPLEMENTABLE = str.maketrans("", "", "".join(_COMPLEMENT))
_DELETE_BASES = str.maketrans("", "", "".join(_ENCODE))
_DELETE_BASES_AND_AMBIGUOUS = str.maketrans(
    "", "", "".join(_ENCODE) + AMBIGUOUS)


class InvalidBaseError(ValueError):
    """Raised when a sequence contains a character outside {A, C, G, T}."""


def encode_base(base: str) -> int:
    """Return the 2-bit code of a single base (A=0, C=1, G=2, T=3)."""
    try:
        return _ENCODE[base]
    except KeyError:
        raise InvalidBaseError(f"invalid DNA base: {base!r}") from None


def decode_base(code: int) -> str:
    """Return the base character for a 2-bit code."""
    if not 0 <= code < ALPHABET_SIZE:
        raise InvalidBaseError(f"invalid 2-bit base code: {code!r}")
    return _DECODE[code]


def encode(sequence: str) -> list[int]:
    """Encode a DNA string into a list of 2-bit codes."""
    return [encode_base(b) for b in sequence]


def decode(codes: Iterable[int]) -> str:
    """Decode an iterable of 2-bit codes back into a DNA string."""
    return "".join(decode_base(c) for c in codes)


def pack(sequence: str) -> int:
    """Pack a DNA string into a single integer, 2 bits per base.

    The first character of the sequence occupies the highest-order bits,
    matching the character-table layout used by the genome graph where
    sequences are laid out left to right.
    """
    value = 0
    for base in sequence:
        value = (value << BITS_PER_BASE) | encode_base(base)
    return value


def unpack(value: int, length: int) -> str:
    """Unpack an integer produced by :func:`pack` back into a string."""
    if length < 0:
        raise ValueError("length must be non-negative")
    bases = []
    for shift in range((length - 1) * BITS_PER_BASE, -1, -BITS_PER_BASE):
        bases.append(decode_base((value >> shift) & 0b11))
    return "".join(bases)


def complement(sequence: str) -> str:
    """Return the complement of a DNA sequence (A<->T, C<->G).

    ``N`` complements to ``N`` (read-side policy: ambiguous stays
    ambiguous on the other strand); any other character raises.
    """
    invalid = sequence.translate(_DELETE_COMPLEMENTABLE)
    if invalid:
        raise InvalidBaseError(f"invalid DNA base: {invalid[0]!r}")
    return sequence.translate(_COMPLEMENT_TABLE)


def reverse_complement(sequence: str) -> str:
    """Return the reverse complement of a DNA sequence."""
    return complement(sequence)[::-1]


def is_ambiguous(base: str) -> bool:
    """Return True for an ambiguous base (``N``/``n``)."""
    return base in AMBIGUOUS


def is_valid(sequence: str, allow_ambiguous: bool = False) -> bool:
    """Return True if every character of the sequence is a valid base.

    ``allow_ambiguous=True`` additionally accepts ``N`` (the read-side
    policy); the default is the strict 2-bit reference alphabet.
    """
    return all(b in _ENCODE or (allow_ambiguous and b in AMBIGUOUS)
               for b in sequence)


def validate(sequence: str, name: str = "sequence",
             allow_ambiguous: bool = False) -> str:
    """Validate a sequence, returning it uppercased.

    Raises :class:`InvalidBaseError` naming the offending position so
    errors surface close to the bad input rather than deep in an aligner.
    ``allow_ambiguous=True`` applies the read-side policy, accepting
    ``N`` (the mapper validates reads this way; graph/reference
    sequences stay strict).
    """
    upper = sequence.upper()
    if not upper.translate(_DELETE_BASES_AND_AMBIGUOUS if allow_ambiguous
                           else _DELETE_BASES):
        return upper
    # Something is invalid: walk the characters to name the position.
    for position, base in enumerate(upper):
        if base in _ENCODE:
            continue
        if allow_ambiguous and base in AMBIGUOUS:
            continue
        raise InvalidBaseError(
            f"{name} contains invalid base {base!r} at position {position}"
        )
    return upper


def random_sequence(length: int, rng: random.Random) -> str:
    """Generate a uniform random DNA sequence of the given length."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def hamming_distance(left: str, right: str) -> int:
    """Return the Hamming distance between two equal-length sequences."""
    if len(left) != len(right):
        raise ValueError(
            f"sequences differ in length: {len(left)} vs {len(right)}"
        )
    return sum(1 for a, b in zip(left, right) if a != b)
