"""BitAlign: bitvector-based sequence-to-graph alignment (Algorithm 1).

BitAlign generalizes the GenASM/Bitap recurrence to genome graphs.  The
input is a *linearized, topologically sorted* subgraph (one character
per position with successor lists — :class:`~repro.graph.linearize.
LinearizedGraph`), the query read (the *pattern*), and an edit-distance
threshold ``k``.

Semantics (0-active bitvectors): after processing linearized position
``i``, bit ``j`` of ``R[i][d]`` is 0 iff the pattern *suffix* of length
``j + 1`` matches some path of the graph starting at position ``i``
with at most ``d`` edits.  A full occurrence of the read starting at
``i`` exists iff bit ``m - 1`` of ``R[i][d]`` is 0 — fitting-alignment
semantics with free reference flanks, mirroring the DP ground truth in
:mod:`repro.align.dp_graph` (which anchors the *end* instead; the
minima agree).

Every successor's bitvectors must exist when a position needs them
(this is why the paper topologically sorts the graph during
pre-processing).  The four intermediate bitvectors follow Algorithm 1
exactly:

* insertion ``I = R[i][d-1] << 1`` — consumes a read character only,
  so it does *not* involve the successors;
* deletion ``D = R[s][d-1]``, substitution ``S = R[s][d-1] << 1`` and
  match ``M = (R[s][d] << 1) | PM[char]`` — consume the reference
  character, so they are computed per successor ``s`` (the *hops*) and
  AND-combined (0-active OR over alternative paths).

Positions with no in-window successors use a virtual successor whose
bitvectors encode "only insertions remain" (:func:`repro.align.genasm.
virtual_row`), exactly like the hardware substitutes a fixed bitvector
when a HopBits entry is 0 (Section 8.2) and like linear GenASM's
initialization beyond the text end — this is what allows alignments to
end at the last character of a subgraph.

**The systolic-diagonal kernel.**  :func:`generate_bitvectors` computes
the recurrence the way the paper's BitAlign unit does (Sections 7–8: a
linear cyclic systolic array; GenASM-DC is the same array without
hops), with Python's unbounded ints standing in for the datapath:

* *diagonal ↔ cycle* — one int ``D[t]`` holds a whole anti-diagonal
  ``t = n - i + d`` (``n`` = window length), and one loop iteration
  advances one diagonal, as one cycle does in hardware;
* *field ↔ PE* — ``D[t]`` is ``k + 1`` fields of ``m`` bits side by
  side; field ``d`` (bits ``d*m .. d*m + m - 1``) is processing element
  ``d``'s ``R[n - t + d][d]``, i.e. every PE works on a different text
  character of the same cycle.  Bit ``j`` of ``R[i][d]`` is therefore
  ``(D[n - i + d] >> (d*m + j)) & 1``;
* *hop queue ↔ earlier diagonals* — a successor at distance ``δ`` sits
  ``δ`` diagonals back in the same field (match) and ``δ + 1`` back in
  the field below (substitution/deletion), so the hop queue registers
  are simply the retained ``D[t - δ]``;
* *HopBits ↔ SEL masks* — per distance ``δ`` a mask ``SEL_δ[t]`` with
  field ``d`` all-ones iff position ``n - t + d`` has a successor at
  distance ``δ``; it slides one field per diagonal exactly as a text
  character's HopBits row travels down the array;
* the virtual successor is stored as position ``n`` (field ``t`` of
  ``D[t]``, ``t <= k``), so a dead end at position ``i`` is an ordinary
  hop of distance ``n - i``.

The resulting :class:`DiagonalRows` store keeps only the ``R[d]``
vectors — the paper's 3x memory-footprint reduction (Section 7);
:func:`traceback` regenerates the intermediate bitvectors on demand by
probing single bits of it and emits a SAM-style CIGAR.  The diagonal
layout is private to this module: callers see ``rows[i][d]``,
``rows.best_start()`` and :func:`traceback`.

:func:`reference_bitvectors` is the former row-major, cell-by-cell
recurrence, kept as the oracle the parity tests compare the kernel
against; nothing in the library calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.genasm import pattern_bitmasks, virtual_row
from repro.core.alignment import Cigar
from repro.graph.linearize import LinearizedGraph


@dataclass(frozen=True)
class BitAlignResult:
    """A BitAlign alignment of a read against a linearized graph.

    Attributes:
        distance: edit distance of the reported alignment.
        cigar: traceback operations (read vs. spelled path).
        path: linearized positions consumed, in order (one per
            ``=``/``X``/``D`` operation).
        reference: the spelled characters of ``path``, for replay
            validation.
    """

    distance: int
    cigar: Cigar
    path: tuple[int, ...]
    reference: str

    @property
    def start(self) -> int:
        """First consumed linearized position (-1 when none)."""
        return self.path[0] if self.path else -1

    @property
    def end(self) -> int:
        """Last consumed linearized position (-1 when none)."""
        return self.path[-1] if self.path else -1


@dataclass(frozen=True)
class DiagonalRows:
    """``R[i][d]`` of one window in anti-diagonal, field-packed layout.

    See the module docstring for the layout.  Fields whose position
    ``n - t + d`` lies outside ``[0, n]`` hold don't-care bits: every
    dependency of a cell has a position ``>=`` and a budget ``<=`` its
    own, so no valid cell ever reads them.

    Attributes:
        diagonals: ``D[0 .. n + k]``.
        n: window length in characters.
        m: pattern length (field width in bits).
        k: edit-distance threshold (``k + 1`` fields).
        masks: the pattern bitmasks the sweep was built from, carried
            so the traceback does not rebuild them.
    """

    diagonals: list[int]
    n: int
    m: int
    k: int
    masks: dict[str, int]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> list[int]:
        """Row ``R[i][0..k]`` unpacked to plain ints (tests and generic
        row consumers; the hot paths probe single bits instead)."""
        if not 0 <= i < self.n:
            raise IndexError(i)
        m = self.m
        field = (1 << m) - 1
        top = self.n - i
        return [(self.diagonals[top + d] >> (d * m)) & field
                for d in range(self.k + 1)]

    def best_start(
        self, candidates: list[int] | None = None,
    ) -> tuple[int, int] | None:
        """Smallest (d, position) with an accepting bit, or None.

        Budgets in increasing order; within a budget, positions in
        ascending order (or in the caller-given ``candidates`` order).
        """
        diagonals, n, m = self.diagonals, self.n, self.m
        positions = range(n) if candidates is None else candidates
        for d in range(self.k + 1):
            accept = d * m + m - 1
            top = n + d
            for i in positions:
                if not (diagonals[top - i] >> accept) & 1:
                    return d, i
        return None


def _check_problem(pattern: str, k: int) -> None:
    if not pattern:
        raise ValueError("pattern must not be empty")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def generate_bitvectors(
    lin: LinearizedGraph,
    pattern: str,
    k: int,
) -> DiagonalRows:
    """Compute ``R[i][d]`` for every position and error budget.

    This is the edit-distance-calculation phase of BitAlign (Algorithm 1
    lines 5–24) as an anti-diagonal sweep — see the module docstring.
    With ``FULL`` = all ``(k + 1) * m`` bits, ``FIELD0`` = the low ``m``
    bits and ``LOW0`` = bits ``1 .. m - 1`` of every field::

        SP[t] = (D[t] << 1) & LOW0      # shift inside every field
        Q[t]  = D[t] & SP[t]            # deletion & substitution
        up(x) = (x << m) | FIELD0       # field d-1 -> d; field 0 neutral
        PM[t] = ((PM[t-1] << m) | mask of chars[n-t]) & FULL
        chain: D[t] = (SP[t-1] | PM[t]) & up(SP[t-1] & Q[t-2])
        hops:  D[t] = up(SP[t-1]) & AND over distances δ of
                      ((SP[t-δ] | PM[t]) & up(Q[t-δ-1])) | ~SEL_δ[t]

    Every operand is one ``(k + 1) * m``-bit int, so the sweep costs
    ``n + k`` iterations of a dozen bigint operations instead of
    ``n * k`` interpreted cells.  Measured against
    :func:`reference_bitvectors` on chains of ``n = m + k``: 8x at the
    pipeline's window (m = 128, k = 32: 4.2 kbit) and at its rescue
    ceiling (k = m = 128: 16.5 kbit), 5x at m = 512 / k = 64, 2x at
    132 kbit (m = 1024, k = 128), 1.6x at 264 kbit and 1.2x at
    528 kbit (m = 4096, k = 128) — the margin shrinks as a diagonal
    outgrows the cache but never inverted, and the windowed aligner
    stays below 16.5 kbit, so there is no fallback.
    """
    _check_problem(pattern, k)
    m = len(pattern)
    n = len(lin)
    masks = pattern_bitmasks(pattern)
    field0 = (1 << m) - 1
    full = (1 << (k + 1) * m) - 1
    # The pattern mask entering field 0 at diagonal t = 1 .. n + k:
    # position n - t while it is inside the window, no-match after.
    entering = [masks.get(char, field0) for char in reversed(lin.chars)]
    entering += [field0] * k
    # (clear, set) pairs planting the virtual row in field t of D[t].
    virtual = [(~(field0 << t * m), row << t * m)
               for t, row in enumerate(virtual_row(m, k))]
    hops = _hop_distances(lin)
    if hops:
        diagonals = _sweep_hops(entering, virtual, hops, n, m, full)
    else:
        diagonals = _sweep_chain(entering, virtual, m, full)
    return DiagonalRows(diagonals, n, m, k, masks)


def _hop_distances(lin: LinearizedGraph) -> dict[int, tuple[int, ...]]:
    """Successor distances of every position that is not chain-like.

    A chain-like position has the single successor ``i + 1``; for the
    last position that is the virtual row.  Any other dead end points
    at the virtual row too, at distance ``n - i``.  Empty for a chain.
    Read off the window's hop sources — one range query, not a walk
    over its characters.
    """
    n = len(lin)
    hops: dict[int, tuple[int, ...]] = {}
    for i, succs in lin.hop_sources():
        distances = tuple(s - i for s in succs) or (n - i,)
        if distances != (1,):
            hops[i] = distances
    return hops


def _sweep_chain(entering: list[int],
                 virtual: list[tuple[int, int]],
                 m: int, full: int) -> list[int]:
    """The sweep when every position's only successor is ``i + 1``.

    :func:`_sweep_hops` with no hops computes the same diagonals; this
    loop exists because the hop bookkeeping (retained ``SP``/``Q``,
    the ``SEL`` checks) costs a chain window a third more, and chains
    are two thirds to all of the pipeline's windows.
    """
    field0 = (1 << m) - 1
    low0 = full ^ (full // field0)
    k = len(virtual) - 1
    diagonals = [full]                # D[0]: virtual_row[0] is all ones
    sp = (full << 1) & low0           # SP[t-1]
    q = full & sp                     # Q[t-1]
    q_behind = full                   # Q[t-2]
    pm = full
    for t, char_mask in enumerate(entering, 1):
        pm = ((pm << m) | char_mask) & full
        diagonal = (sp | pm) & (((sp & q_behind) << m) | field0)
        if t <= k:
            clear, plant = virtual[t]
            diagonal = diagonal & clear | plant
        diagonals.append(diagonal)
        q_behind = q
        sp = (diagonal << 1) & low0
        q = diagonal & sp
    return diagonals


def _sweep_hops(entering: list[int],
                virtual: list[tuple[int, int]],
                hops: dict[int, tuple[int, ...]],
                n: int, m: int, full: int) -> list[int]:
    """The sweep over a window with hops and/or mid-window dead ends.

    The distance-1 term is applied to every field except those whose
    position lacks an ``i + 1`` successor (``skip`` — the complement of
    ``SEL_1``); every other distance only while its ``SEL`` mask is
    non-zero, i.e. for the ``k + 1`` diagonals a hop source spends in
    the array.  ``sel != 0`` implies ``t - δ >= 0``: a selected field's
    successor is a stored position.
    """
    field0 = (1 << m) - 1
    low0 = full ^ (full // field0)
    k = len(virtual) - 1
    diagonals = [full]
    sp = (full << 1) & low0           # SP[t-1]
    q = full & sp                     # Q[t-1]
    q_behind = full                   # Q[t-2]
    sps = [sp]                        # sps[t] = SP[t]
    qs = [q_behind, q]                # qs[t + 1] = Q[t]; Q[-1] = FULL
    select: dict[int, int] = {}       # distance -> non-zero SEL mask
    skip = 0
    pm = full
    for t, char_mask in enumerate(entering, 1):
        pm = ((pm << m) | char_mask) & full
        if select:
            select = {distance: sel for distance, old in select.items()
                      if (sel := (old << m) & full)}
        if skip:
            skip = (skip << m) & full
        source = hops.get(n - t, ())
        if source:
            for distance in source:
                if distance != 1:
                    select[distance] = select.get(distance, 0) | field0
            if 1 not in source:
                skip |= field0
        if skip:
            diagonal = ((sp | pm) & ((q_behind << m) | field0) | skip) \
                & ((sp << m) | field0)
        else:
            diagonal = (sp | pm) & (((sp & q_behind) << m) | field0)
        for distance, sel in select.items():
            back = t - distance
            diagonal &= ((sps[back] | pm)
                         & ((qs[back] << m) | field0)) | (sel ^ full)
        if t <= k:
            clear, plant = virtual[t]
            diagonal = diagonal & clear | plant
        diagonals.append(diagonal)
        q_behind = q
        sp = (diagonal << 1) & low0
        q = diagonal & sp
        sps.append(sp)
        qs.append(q)
    return diagonals


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


def bitalign_distance(
    lin: LinearizedGraph,
    pattern: str,
    k: int,
) -> tuple[int, int] | None:
    """Best fitting-alignment distance within threshold ``k``.

    Returns ``(distance, start_position)`` (smallest distance, leftmost
    start on ties) or None when no alignment with <= k edits exists.
    """
    if len(lin) == 0:
        return (len(pattern), 0) if len(pattern) <= k else None
    return generate_bitvectors(lin, pattern, k).best_start()


def traceback(
    lin: LinearizedGraph,
    pattern: str,
    all_r,
    start: int,
    budget: int,
) -> BitAlignResult:
    """Walk the stored bitvectors forward and emit the CIGAR.

    ``all_r`` is the :class:`DiagonalRows` of :func:`generate_bitvectors`
    (walked natively, one bit probe per question) or any row-indexable
    store with ``all_r[i][d]`` an int — a backend's packed chain rows,
    the oracle's list of lists.  ``start`` must satisfy the invariant
    that bit ``m - 1`` of ``R[start][budget]`` is 0.  Intermediate
    bitvectors are regenerated on demand; operation preference is
    match, substitution, deletion, insertion (ties resolved toward the
    first-listed successor), identically on both walks.
    """
    if isinstance(all_r, DiagonalRows):
        ops, path = _walk_diagonals(lin, all_r, start, budget)
    else:
        ops, path = _walk_rows(lin, pattern, all_r, start, budget)
    cigar = Cigar.from_ops(ops)
    reference = "".join(lin.chars[p] for p in path)
    return BitAlignResult(
        distance=cigar.edit_distance,
        cigar=cigar,
        path=tuple(path),
        reference=reference,
    )


def _stuck(i: int, j: int, d: int) -> AssertionError:
    return AssertionError(
        f"BitAlign traceback stuck at position {i}, pattern bit {j}, "
        f"budget {d}"
    )


def _walk_diagonals(lin: LinearizedGraph, rows: DiagonalRows,
                    start: int, budget: int) -> tuple[list[str], list[int]]:
    """The traceback walk over the diagonal store.

    Bit ``b`` of ``R[s][e]`` is bit ``e*m + b`` of ``D[n - s + e]``; the
    virtual row is position ``n``, so a dead end needs no special store.
    ``b = -1`` (the empty suffix) matches everywhere.
    """
    diagonals, n, m, masks = rows.diagonals, rows.n, rows.m, rows.masks
    no_match = (1 << m) - 1
    chars = lin.chars
    # Only a hop source's successors are looked up; every other
    # position steps to the next one (never past the window: the last
    # position is always a hop source).
    hops = dict(lin.hop_sources())
    dead_end = (n,)
    ops: list[str] = []
    path: list[int] = []
    i, j, d = start, m - 1, budget
    while j >= 0:
        mismatch = (masks.get(chars[i], no_match) >> j) & 1
        own = hops.get(i)
        if own is None:
            own = (i + 1,)
        succs = own or dead_end
        taken = None
        # 1. Match: consumes lin.chars[i] and the read character.
        if not mismatch:
            bit = d * m + j - 1
            top = n + d
            for s in succs:
                if j == 0 or not (diagonals[top - s] >> bit) & 1:
                    taken = s
                    op = "="
                    break
        # 2. Substitution (emitted as '=' if the characters happen to
        #    be equal — a budget-wasting match stays truthful).
        if taken is None and d > 0:
            bit = (d - 1) * m + j - 1
            top = n + d - 1
            for s in succs:
                if j == 0 or not (diagonals[top - s] >> bit) & 1:
                    taken = s
                    op = "X" if mismatch else "="
                    d -= 1
                    break
        if taken is not None:
            ops.append(op)
            path.append(i)
            j -= 1
            if j >= 0 and taken == n:
                # Dead end: the remaining read characters can only be
                # insertions (the virtual row's zero bits guarantee
                # the budget covers them).
                ops.extend("I" * (j + 1))
                break
            i = taken
            continue
        if d > 0:
            bit = (d - 1) * m + j
            top = n + d - 1
            # 3. Deletion: consumes the reference character only.
            for s in own:
                if not (diagonals[top - s] >> bit) & 1:
                    taken = s
                    break
            if taken is not None:
                ops.append("D")
                path.append(i)
                i = taken
                d -= 1
                continue
            # 4. Insertion: consumes the read character only.
            if j == 0 or not (diagonals[top - i] >> (bit - 1)) & 1:
                ops.append("I")
                j -= 1
                d -= 1
                continue
        raise _stuck(i, j, d)  # pragma: no cover - recurrence bug
    return ops, path


def _walk_rows(lin: LinearizedGraph, pattern: str, all_r,
               start: int, budget: int) -> tuple[list[str], list[int]]:
    """The traceback walk over any ``all_r[i][d]`` row store."""
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
    while j >= 0:
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
                    if j >= 0 and succ is None:
                        # Dead end: the remaining read characters can
                        # only be insertions (the virtual row's zero
                        # bits guarantee the budget covers them).
                        ops.extend("I" * (j + 1))
                        done = True
                    elif j >= 0:
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
                    if j >= 0 and succ is None:
                        ops.extend("I" * (j + 1))
                        done = True
                    elif j >= 0:
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


def bitalign(
    lin: LinearizedGraph,
    pattern: str,
    k: int,
    anchors: list[int] | None = None,
    backend=None,
) -> BitAlignResult | None:
    """Full BitAlign: bitvector generation plus traceback.

    Args:
        lin: linearized, topologically sorted subgraph (the candidate
            region MinSeed fetched).
        pattern: the query read (or read chunk, in windowed mode).
        k: edit-distance threshold.
        anchors: optional restriction of the allowed start positions —
            the windowed aligner uses this to chain a window onto the
            successors of the previous window's endpoint.
        backend: optional alignment backend (name, instance, or None)
            — see :mod:`repro.align.backends`.  A backend may supply
            packed rows for a plain-chain window through its
            ``chain_bitvectors`` (the numpy backend does for patterns of
            512 bits and more); every other window, hop-bearing or
            not, runs :func:`generate_bitvectors`.  The recurrence is
            identical, so results are bit-for-bit the same for every
            backend.

    Returns:
        The best alignment, or None when no alignment within ``k``
        edits exists (from the allowed anchors).
    """
    if len(lin) == 0:
        if len(pattern) <= k:
            return BitAlignResult(
                distance=len(pattern),
                cigar=Cigar((("I", len(pattern)),)),
                path=(),
                reference="",
            )
        return None
    all_r = None
    if backend is not None:
        from repro.align.backends import resolve_backend

        resolved = resolve_backend(backend)
        if resolved.provides_chain_kernel \
                and len(pattern) >= resolved.chain_kernel_min_bits \
                and lin.is_chain():
            all_r = resolved.chain_bitvectors(lin.chars, pattern, k)
    if all_r is None:
        all_r = generate_bitvectors(lin, pattern, k)
    located = all_r.best_start(candidates=anchors)
    if located is None:
        return None
    budget, start = located
    return traceback(lin, pattern, all_r, start, budget)
