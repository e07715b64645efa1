"""The GenASM pattern bitmasks and virtual row that BitAlign builds on.

GenASM (Senol Cali et al., MICRO 2020 — paper ref [69]) is 0-active,
right-to-left Bitap; BitAlign (:mod:`repro.core.bitalign`) is its
graph generalization and takes these two inputs from here.  The
linear GenASM aligner itself is a test oracle
(``tests/oracles/genasm.py``).
"""

from __future__ import annotations


def pattern_bitmasks(pattern: str) -> dict[str, int]:
    """GenASM pattern bitmasks: bit j is 0 iff ``pattern[m-1-j] == c``.

    Bit index runs over the *reversed* pattern so that left-shifting a
    status bitvector extends the matched suffix by one character
    (Algorithm 1 line 3, ``genPatternBitmasks``).
    """
    # The pattern itself, spelled in binary, is the mask read from
    # bit m - 1 down: one translate and one parse per distinct
    # character.  Characters absent from the pattern keep the
    # all-ones mask (absent from the dict).
    table = dict.fromkeys(map(ord, set(pattern)), "1")
    masks: dict[str, int] = {}
    for code in table:
        table[code] = "0"
        masks[chr(code)] = int(pattern.translate(table), 2)
        table[code] = "1"
    return masks


def virtual_row(m: int, k: int) -> list[int]:
    """Status bitvectors of the virtual position past the text end.

    Bit ``j`` of entry ``d`` is 0 iff a pattern suffix of length
    ``j + 1`` matches the *empty* remaining text with at most ``d``
    edits — i.e. iff ``j < d`` (all insertions).  This is the 0-active
    mirror of classic Bitap's ``R[d] = (1 << d) - 1`` initialization;
    without it, alignments ending in trailing insertions at the very
    end of a window would be missed.
    """
    mask = (1 << m) - 1
    return [mask & ~((1 << d) - 1) for d in range(k + 1)]
