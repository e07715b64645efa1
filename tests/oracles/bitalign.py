"""Test oracle: BitAlign as it was before the diagonal kernel — the
row-major, cell-by-cell recurrence and the one-operation-per-step
walk over any row store ``all_r[i][d]``, which the parity tests of
``tests/test_bitalign.py`` compare :mod:`repro.core.bitalign` against.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.align.genasm import pattern_bitmasks, virtual_row
from repro.core.alignment import Cigar
from repro.core.bitalign import BitAlignResult, _check_problem, _stuck
from repro.graph.linearize import LinearizedGraph


def reference_bitvectors(
    lin: LinearizedGraph,
    pattern: str,
    k: int,
) -> list[list[int]]:
    """Test oracle: the row-major, cell-by-cell BitAlign recurrence.

    Algorithm 1 lines 5–24 transcribed literally — positions from last
    to first, one Python int per ``R[i][d]`` cell.  Returns a list of
    ``k + 1`` status bitvectors per linearized position, equal to
    ``generate_bitvectors(...)[i][d]`` everywhere.
    """
    _check_problem(pattern, k)
    m = len(pattern)
    n = len(lin)
    mask = (1 << m) - 1
    masks = pattern_bitmasks(pattern)
    virtual = virtual_row(m, k)
    all_r: list[list[int]] = [[mask] * (k + 1) for _ in range(n)]
    successors = lin.successors
    for i in range(n - 1, -1, -1):
        cur_pm = masks.get(lin.chars[i], mask)
        succ_rows = [all_r[s] for s in successors[i]]
        if not succ_rows:
            succ_rows = [virtual]
        row = all_r[i]
        r0 = mask
        for succ in succ_rows:
            r0 &= ((succ[0] << 1) | cur_pm) & mask
        row[0] = r0
        for d in range(1, k + 1):
            rd = (row[d - 1] << 1) & mask  # insertion
            for succ in succ_rows:
                deletion = succ[d - 1]
                substitution = (succ[d - 1] << 1) & mask
                match = ((succ[d] << 1) | cur_pm) & mask
                rd &= deletion & substitution & match
            row[d] = rd
    return all_r


def reference_traceback(
    lin: LinearizedGraph,
    pattern: str,
    all_r,
    start: int,
    budget: int,
    commit: int | None = None,
) -> BitAlignResult:
    """:func:`repro.core.bitalign.traceback` over a row store: the same
    window, budget and accepting-bit checks, the same ``commit`` stop
    and the same result."""
    n, m = len(lin), len(pattern)
    if not 0 <= start < n:
        raise ValueError(f"start {start} outside the window [0, {n})")
    top = len(all_r[start]) - 1
    if not 0 <= budget <= top:
        raise ValueError(f"budget {budget} outside [0, {top}]")
    if all_r[start][budget] >> m - 1 & 1:
        raise ValueError(f"no alignment of the pattern starts at "
                         f"{start} within {budget} edits")
    stop = -1 if commit is None else max(-1, m - 1 - commit)
    ops, path = _walk_rows(lin, pattern, all_r, start, budget, stop)
    cigar = Cigar.from_ops(ops)
    return BitAlignResult(cigar.edit_distance, cigar, tuple(path),
                          lin.chars)


def _walk_rows(lin: LinearizedGraph, pattern: str, all_r,
               start: int, budget: int,
               stop: int) -> tuple[list[str], list[int]]:
    """The traceback walk over any ``all_r[i][d]`` row store, one
    operation per step, down to read bit ``stop + 1``."""
    m = len(pattern)
    mask = (1 << m) - 1
    masks = pattern_bitmasks(pattern)
    virtual = virtual_row(m, budget)

    def bit_is_zero(value: int, bit: int) -> bool:
        if bit < 0:
            return True  # the empty suffix matches everywhere
        return not (value >> bit) & 1

    ops: list[str] = []
    path: list[int] = []
    i, j, d = start, m - 1, budget
    while j > stop:
        cur_pm = masks.get(lin.chars[i], mask)
        succs = lin.successors_of(i)
        succ_pairs = [(s, all_r[s]) for s in succs] or [(None, virtual)]
        moved = False
        done = False
        # 1. Match: consumes lin.chars[i] and the read character.
        if bit_is_zero(cur_pm, j):
            for succ, succ_row in succ_pairs:
                if bit_is_zero(succ_row[d], j - 1):
                    ops.append("=")
                    path.append(i)
                    j -= 1
                    if j > stop and succ is None:
                        # Dead end: the remaining read characters can
                        # only be insertions (the virtual row's zero
                        # bits guarantee the budget covers them).
                        ops.extend("I" * (j - stop))
                        done = True
                    elif j > stop:
                        i = succ
                    moved = True
                    break
        if done:
            break
        if moved:
            continue
        if d > 0:
            # 2. Substitution (emitted as '=' if the characters happen
            #    to be equal — a budget-wasting match stays truthful).
            for succ, succ_row in succ_pairs:
                if bit_is_zero(succ_row[d - 1], j - 1):
                    ops.append("X" if not bit_is_zero(cur_pm, j) else "=")
                    path.append(i)
                    j -= 1
                    d -= 1
                    if j > stop and succ is None:
                        ops.extend("I" * (j - stop))
                        done = True
                    elif j > stop:
                        i = succ
                    moved = True
                    break
            if done:
                break
            if moved:
                continue
            # 3. Deletion: consumes the reference character only.
            for succ, succ_row in succ_pairs:
                if succ is not None and bit_is_zero(succ_row[d - 1], j):
                    ops.append("D")
                    path.append(i)
                    i = succ
                    d -= 1
                    moved = True
                    break
            if moved:
                continue
            # 4. Insertion: consumes the read character only.
            if bit_is_zero(all_r[i][d - 1], j - 1):
                ops.append("I")
                j -= 1
                d -= 1
                continue
        raise _stuck(i, j, d)  # pragma: no cover - recurrence bug
    return ops, path
