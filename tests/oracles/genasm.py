"""Test oracle: linear GenASM (MICRO 2020, paper ref [69]), the
0-active right-to-left Bitap with traceback that BitAlign
(:mod:`repro.core.bitalign`) generalizes to graphs.  Bit ``j`` of
``R[i][d]`` is 0 iff the pattern suffix of length ``j + 1`` matches a
text substring starting at ``i`` within ``d`` edits.  It shares only
the pattern bitmasks and the virtual row with the kernel, so the two
cross-validate.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.genasm import pattern_bitmasks, virtual_row
from repro.core.alignment import Cigar


@dataclass(frozen=True)
class GenasmAlignment:
    """A linear GenASM alignment.

    Attributes:
        distance: edit distance of the alignment.
        cigar: traceback operations (read vs. consumed text span).
        text_start: first consumed text position (-1 if none consumed).
        text_end: exclusive end of the consumed text span.
    """

    distance: int
    cigar: Cigar
    text_start: int
    text_end: int


def _generate(text: str, pattern: str, k: int) -> list[list[int]]:
    """Compute allR[i][d] for i in 0..n (n = the virtual row)."""
    m = len(pattern)
    n = len(text)
    mask = (1 << m) - 1
    masks = pattern_bitmasks(pattern)
    all_r: list[list[int]] = [[mask] * (k + 1) for _ in range(n)]
    all_r.append(virtual_row(m, k))
    for i in range(n - 1, -1, -1):
        cur_pm = masks.get(text[i], mask)
        succ = all_r[i + 1]
        row = all_r[i]
        row[0] = ((succ[0] << 1) | cur_pm) & mask
        for d in range(1, k + 1):
            insertion = (row[d - 1] << 1) & mask
            deletion = succ[d - 1]
            substitution = (succ[d - 1] << 1) & mask
            match = ((succ[d] << 1) | cur_pm) & mask
            row[d] = insertion & deletion & substitution & match
    return all_r


def genasm_distance(text: str, pattern: str,
                    k: int) -> tuple[int, int] | None:
    """Best fitting-alignment distance within edit threshold ``k``.

    Returns ``(distance, start_position)`` for the smallest distance
    (leftmost start on ties), or None when no alignment with <= k edits
    exists.  ``start_position`` may equal ``len(text)`` in the
    degenerate case of a pure-insertion alignment.
    """
    if not pattern:
        raise ValueError("pattern must not be empty")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    all_r = _generate(text, pattern, k)
    accept = 1 << (len(pattern) - 1)
    for d in range(k + 1):
        for i in range(len(text) + 1):
            if not all_r[i][d] & accept:
                return d, i
    return None


def genasm_align(text: str, pattern: str, k: int) -> GenasmAlignment | None:
    """Fitting alignment with GenASM-style traceback.

    The traceback walks the stored ``R[d]`` bitvectors forward through
    the text, regenerating the intermediate match/substitution/deletion/
    insertion alternatives on demand (the 3x memory saving of paper
    Section 7).  Operation preference: match, substitution, deletion,
    insertion.  Returns None when no alignment with <= k edits exists.
    """
    located = genasm_distance(text, pattern, k)
    if located is None:
        return None
    distance, start = located
    if start >= len(text):
        # Zero-consumption alignment: the whole pattern is inserted.
        return GenasmAlignment(
            distance=len(pattern),
            cigar=Cigar((("I", len(pattern)),)),
            text_start=-1,
            text_end=len(text),
        )
    return traceback_alignment(_generate(text, pattern, k), text,
                               pattern, start, distance)


def traceback_alignment(all_r, text: str, pattern: str,
                        start: int, distance: int) -> GenasmAlignment:
    """Traceback from precomputed status bitvectors.

    ``all_r`` may be any indexable of per-position bitvector rows
    (``all_r[i][d]`` an int; positions ``0..len(text)``, the last being
    the virtual row), such as the list built by :func:`_generate`.
    ``start`` must be an accepting position for ``distance`` (``start <
    len(text)``); use :func:`genasm_align` for the degenerate
    pure-insertion case.
    """
    m = len(pattern)
    n = len(text)
    mask = (1 << m) - 1
    masks = pattern_bitmasks(pattern)

    def bit_is_zero(value: int, bit: int) -> bool:
        if bit < 0:
            return True  # empty suffix always matches
        return not (value >> bit) & 1

    ops: list[str] = []
    i, j, d = start, m - 1, distance
    while True:
        if j < 0:
            break
        cur_pm = masks.get(text[i], mask) if i < n else mask
        succ_row = all_r[i + 1] if i < n else None
        # 1. Match: consumes text[i] and the pattern character.
        if i < n and bit_is_zero(cur_pm, j) and succ_row is not None \
                and bit_is_zero(succ_row[d], j - 1):
            ops.append("=")
            i, j = i + 1, j - 1
            continue
        if d > 0:
            # 2. Substitution.  If the characters happen to be equal this
            # is really a match that spends an error budget; emit '=' so
            # the CIGAR replays truthfully.
            if i < n and succ_row is not None \
                    and bit_is_zero(succ_row[d - 1], j - 1):
                ops.append("X" if not bit_is_zero(cur_pm, j) else "=")
                i, j, d = i + 1, j - 1, d - 1
                continue
            # 3. Deletion (text character skipped).
            if i < n and succ_row is not None \
                    and bit_is_zero(succ_row[d - 1], j):
                ops.append("D")
                i, d = i + 1, d - 1
                continue
            # 4. Insertion (pattern character skipped).
            if bit_is_zero(all_r[i][d - 1] << 1, j):
                ops.append("I")
                j, d = j - 1, d - 1
                continue
        raise AssertionError(
            f"GenASM traceback stuck at text {i}, pattern bit {j}, "
            f"budget {d}"
        )  # pragma: no cover - would indicate a recurrence bug
    cigar = Cigar.from_ops(ops)
    return GenasmAlignment(
        distance=cigar.edit_distance,
        cigar=cigar,
        text_start=start if cigar.ref_consumed else -1,
        text_end=start + cigar.ref_consumed,
    )
