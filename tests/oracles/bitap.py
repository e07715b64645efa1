"""Classic Wu–Manber Bitap approximate string matching.

The textbook left-to-right, 1-active formulation (paper refs [107,
108]): after processing text position ``i``, bit ``j`` of ``R[d]`` is 1
iff the pattern prefix of length ``j + 1`` matches a text substring
*ending* at ``i`` with at most ``d`` edits.  A full-pattern match with
``<= d`` edits ends at ``i`` when bit ``m - 1`` of ``R[d]`` is set.

This is deliberately an *independent* implementation of the bitvector
idea — opposite scan direction and opposite bit polarity from
GenASM/BitAlign — used by the test suite to cross-validate the
0-active right-to-left machinery of the linear GenASM oracle
(``oracles.genasm``) and :mod:`repro.core.bitalign`.
"""

from __future__ import annotations

#: 1-active mask of a text character that occurs nowhere in the
#: pattern: no bit set, so it can never extend a match.  This is the
#: explicit mirror of the all-ones default that the 0-active side uses
#: (``pattern_bitmasks`` in :mod:`repro.align.genasm`, consumed by
#: :mod:`repro.core.bitalign` as ``masks.get(char, mask)``), and it
#: doubles as the N/any-char policy shared by the whole library:
#: every character — ``N`` included — is a *literal*.  ``N`` matches a
#: pattern ``N`` and mismatches everything else; a text character
#: absent from the pattern (an ``N`` read against an ACGT pattern, a
#: lowercase base against an uppercase pattern) matches nothing and
#: costs an edit.
ABSENT_CHAR_MASK = 0


def pattern_masks_1active(pattern: str) -> dict[str, int]:
    """Bitap pattern bitmasks: bit ``j`` set iff ``pattern[j] == c``.

    Characters absent from the pattern must resolve to
    :data:`ABSENT_CHAR_MASK`; callers look masks up with
    ``masks.get(char, ABSENT_CHAR_MASK)`` so the policy is explicit at
    every use site.
    """
    masks: dict[str, int] = {}
    for j, char in enumerate(pattern):
        masks[char] = masks.get(char, ABSENT_CHAR_MASK) | (1 << j)
    return masks


def bitap_search(text: str, pattern: str, k: int) -> list[tuple[int, int]]:
    """Find approximate occurrences of ``pattern`` in ``text``.

    Returns a list of ``(end_position, distance)`` pairs, one per text
    position where the pattern ends a match, with ``distance`` the
    smallest ``d <= k`` realizable at that end position.
    ``end_position`` is the index of the last matched text character.

    Semantics are fitting-style: the pattern must be fully consumed; the
    text before and after the occurrence is free.
    """
    if not pattern:
        raise ValueError("pattern must not be empty")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    m = len(pattern)
    mask = (1 << m) - 1
    accept = 1 << (m - 1)
    pattern_masks = pattern_masks_1active(pattern)

    # R[d] starts as the "d leading errors" state: with d edits you can
    # already have matched up to d pattern characters (via insertions).
    r = [(1 << d) - 1 for d in range(k + 1)]
    matches: list[tuple[int, int]] = []
    for i, char in enumerate(text):
        char_mask = pattern_masks.get(char, ABSENT_CHAR_MASK)
        old = r[0]
        r[0] = (((old << 1) | 1) & char_mask) & mask
        previous_old = old
        for d in range(1, k + 1):
            old = r[d]
            match = ((old << 1) | 1) & char_mask
            substitution = previous_old << 1
            insertion = previous_old
            deletion = r[d - 1] << 1
            r[d] = (match | substitution | insertion | deletion | 1) & mask
            previous_old = old
        for d in range(k + 1):
            if r[d] & accept:
                matches.append((i, d))
                break
    return matches


def bitap_distance(text: str, pattern: str, k: int) -> int | None:
    """Best fitting-alignment distance of ``pattern`` in ``text``.

    Returns the minimum distance over all occurrences, or None when no
    occurrence with ``<= k`` edits exists.  The degenerate alignment
    that consumes no text at all (the whole pattern inserted,
    ``len(pattern)`` edits) is considered — Bitap itself only reports
    matches anchored at a text position, so it cannot see that case.
    """
    candidates = [d for _, d in bitap_search(text, pattern, k)]
    if len(pattern) <= k:
        candidates.append(len(pattern))
    return min(candidates) if candidates else None
