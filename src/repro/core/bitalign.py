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

**A window pays for its answer, not for k.**  GenASM keeps only the
``R[d]`` fields a threshold needs and commits only the first W − O
characters of a window; :func:`bitalign` does both:

* *The rung.*  When ``k > RUNG`` (8) it first sweeps fields
  ``0 .. RUNG`` of the same window and runs the ``k`` sweep only if
  that store has no accepting start.  Field ``d`` of every diagonal
  depends only on fields ``<= d`` (``up`` moves field d − 1 into d,
  never back; the virtual row's field d depends on d alone),
  :meth:`DiagonalRows.best_start` scans budgets upward, and the walk
  from budget d* reads only fields ``<= d*``.  So a rung success is
  field for field the answer of the ``k`` sweep; a failure costs one
  extra sweep of ``RUNG + 1`` fields.
* *The stop.*  ``commit=c`` stops the walk once ``c`` read characters
  are consumed: the windowed aligner keeps exactly that prefix (its
  commit drops everything after the ``c``-th read character, trailing
  deletions included).
* *The jump.*  At a position that is not a hop source the walk
  bisects the longest run of ``=`` it would take one step at a time.
  The run is bounded by the next hop source and by the stop; inside
  it, step ``s`` (position ``i + s``, read bit ``j − s``) is a match
  iff ``chars[i + s]`` equals the read character and bit ``j − s − 1``
  of ``R[i + s + 1][d]`` is 0.  *Lemma:* those two facts force bit
  ``j − s`` of ``R[i + s][d]`` to 0 — the match term
  ``(R[i + s + 1][d] << 1) | PM`` is 0 there, and the AND of
  0-active terms is 0 when any term is.  That bit is step ``s − 1``'s
  condition, so the steps the walk would take form a prefix of the
  run, and bisection finds its end in O(log t) bit probes and slice
  compares against the read.  The walk emits CIGAR runs and ``range``
  path segments, not single operations.
* *Hop tables.*  The hop sweep keeps the hop sources in the array as
  a sliding slice of a list and looks each one's ``SEL`` and skip
  field up in a per-``(m, k)`` table of ``FIELD0 << d*m``
  (:func:`_tables`, which also holds the planted virtual row), so no
  mask is shifted along per diagonal and a diagonal without an
  active source runs the chain recurrence.

The former row-major, cell-by-cell recurrence and its one-operation-
per-step walk are the oracle the parity tests compare the kernel
against (``tests/oracles/bitalign.py``); nothing in the library calls
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
        chars: the window's characters, held by reference so that
            :attr:`reference` can spell ``path`` on demand.
    """

    distance: int
    cigar: Cigar
    path: tuple[int, ...]
    chars: str = field(repr=False, compare=False)

    @property
    def reference(self) -> str:
        """The spelled characters of ``path``, for replay validation
        (derived, not stored)."""
        return spell(self.chars, self.path)


def spell(chars: str, path: tuple[int, ...]) -> str:
    """``chars`` along ``path``: one slice per run of consecutive
    positions, so a path without hops is a single slice."""
    cuts = [i for i in range(1, len(path)) if path[i] != path[i - 1] + 1]
    return "".join(chars[path[a]:path[b - 1] + 1]
                   for a, b in zip([0, *cuts], [*cuts, len(path)]) if a < b)


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
    """

    diagonals: list[int]
    n: int
    m: int
    k: int

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
    the row-major oracle on chains of ``n = m + k``: 8x at the
    pipeline's window (m = 128, k = 32: 4.2 kbit) and at its rescue
    ceiling (k = m = 128: 16.5 kbit), 5x at m = 512 / k = 64, 2x at
    132 kbit (m = 1024, k = 128), 1.6x at 264 kbit and 1.2x at
    528 kbit (m = 4096, k = 128) — the margin shrinks as a diagonal
    outgrows the cache but never inverted, and the windowed aligner
    stays below 16.5 kbit, so there is no fallback.
    """
    _check_problem(pattern, k)
    m = len(pattern)
    chars = lin.chars
    n = len(chars)
    masks = pattern_bitmasks(pattern)
    field0 = (1 << m) - 1
    full = (1 << (k + 1) * m) - 1
    # The pattern mask entering field 0 at diagonal t = 1 .. n + k:
    # position n - t while it is inside the window, no-match after.
    lookup = dict.fromkeys(set(chars), field0)
    lookup.update(masks)
    entering = list(map(lookup.__getitem__, reversed(chars)))
    entering += [field0] * k
    fields, virtual = _tables(m, k)
    hops = _hop_distances(lin)
    if hops:
        diagonals = _sweep_hops(entering, virtual, hops, fields, n, m,
                                full)
    else:
        diagonals = _sweep_chain(entering, virtual, m, full)
    return DiagonalRows(diagonals, n, m, k)


@lru_cache(maxsize=16)
def _tables(m: int, k: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Per-``(m, k)`` constants of the sweep: ``FIELD0 << d*m`` and the
    ``(clear, set)`` pair planting the virtual row in field ``t`` of
    ``D[t]`` (clear = the field's complement within ``FULL``), for
    d, t = 0 .. k."""
    field0 = (1 << m) - 1
    full = (1 << (k + 1) * m) - 1
    fields = [field0 << d * m for d in range(k + 1)]
    virtual = [(full ^ fields[t], row << t * m)
               for t, row in enumerate(virtual_row(m, k))]
    return fields, virtual


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
    the active-source checks) costs a chain window 8 % (k = 8) to
    14 % (k = 32) more at m = 128, n = 160 on a 2-core x86-64 box,
    and chains are two thirds to all of the pipeline's windows.
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
                fields: list[int], n: int, m: int,
                full: int) -> list[int]:
    """The sweep over a window with hops and/or mid-window dead ends.

    Hop source ``p`` enters field 0 at diagonal ``n - p`` and sits in
    field ``t - (n - p)`` of diagonal ``t`` for the ``k + 1`` diagonals
    it spends in the array; sources leave in the order they enter, so
    the active ones are a sliding slice of a list, and a diagonal with
    none runs the chain recurrence.  The distance-1 term is applied to
    every field except those of active sources lacking an ``i + 1``
    successor (``skip`` — the complement of ``SEL_1``); every other
    distance ``δ`` to the fields of the active sources that have it
    (``SEL_δ``).  Each source's field mask is looked up in ``fields``
    (:func:`_tables`) rather than shifted along from the previous
    diagonal; masks of sources sharing a distance are OR-ed, so a
    dense run of bubbles computes each distance's term once per
    diagonal.  An active field's successor ``t - δ`` is a stored
    diagonal: its position ``p + δ`` is at most the virtual row ``n``.
    """
    field0 = (1 << m) - 1
    low0 = full ^ (full // field0)
    k = len(virtual) - 1
    # (entry diagonal, distances other than 1, lacks i + 1), in entry
    # order (positions descending).
    sources = [(n - p, tuple(dist for dist in distances if dist != 1),
                1 not in distances)
               for p, distances in sorted(hops.items(), reverse=True)]
    diagonals = [full]
    sp = (full << 1) & low0           # SP[t-1]
    q = full & sp                     # Q[t-1]
    q_behind = full                   # Q[t-2]
    sps = [sp]                        # sps[t] = SP[t]
    qs = [q_behind, q]                # qs[t + 1] = Q[t]; Q[-1] = FULL
    first = last = 0                  # active sources[first:last]
    pending = len(sources)
    pm = full
    for t, char_mask in enumerate(entering, 1):
        pm = ((pm << m) | char_mask) & full
        if last < pending and sources[last][0] == t:
            last += 1
        while first < last and sources[first][0] + k < t:
            first += 1
        if first == last:
            diagonal = (sp | pm) & (((sp & q_behind) << m) | field0)
        else:
            skip = 0
            select: dict[int, int] = {}   # distance -> SEL fields
            for entry, distances, skips in sources[first:last]:
                mask = fields[t - entry]
                if skips:
                    skip |= mask
                for distance in distances:
                    select[distance] = select.get(distance, 0) | mask
            if skip:
                diagonal = ((sp | pm) & ((q_behind << m) | field0)
                            | skip) & ((sp << m) | field0)
            else:
                diagonal = (sp | pm) & (((sp & q_behind) << m) | field0)
            for distance, mask in select.items():
                back = t - distance
                diagonal &= ((sps[back] | pm)
                             & ((qs[back] << m) | field0)) | (mask ^ full)
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
    all_r: DiagonalRows,
    start: int,
    budget: int,
    commit: int | None = None,
) -> BitAlignResult:
    """Walk the stored bitvectors forward and emit the CIGAR.

    ``all_r`` is the :class:`DiagonalRows` of :func:`generate_bitvectors`,
    walked one bit probe per question with ``=`` runs bisected (see the
    module docstring).  Bit ``m - 1`` of ``R[start][budget]`` must be 0,
    with ``0 <= start < n`` and ``budget`` at most the store's
    threshold; anything else raises :class:`ValueError`.  Intermediate
    bitvectors are regenerated on demand; operation preference is
    match, substitution, deletion, insertion (ties resolved toward the
    first-listed successor).

    ``commit`` stops the walk once that many read characters are
    consumed: the result is the prefix of the full walk up to and
    including the operation that consumes the ``commit``-th one, and
    its ``distance`` counts that prefix's edits.
    """
    n, m = len(lin), len(pattern)
    if not 0 <= start < n:
        raise ValueError(f"start {start} outside the window [0, {n})")
    if not 0 <= budget <= all_r.k:
        raise ValueError(f"budget {budget} outside [0, {all_r.k}]")
    accepting = all_r.diagonals[n - start + budget] >> budget * m >> m - 1
    if accepting & 1:
        raise ValueError(f"no alignment of the pattern starts at "
                         f"{start} within {budget} edits")
    if commit is not None and commit < 1:
        raise ValueError(f"commit must be >= 1, got {commit}")
    # The walk runs while the read bit j is above ``stop``.
    stop = -1 if commit is None else max(-1, m - 1 - commit)
    runs, path = _walk_diagonals(lin, pattern, all_r, start, budget, stop)
    cigar = Cigar(tuple(map(tuple, runs)))
    return BitAlignResult(
        distance=cigar.edit_distance,
        cigar=cigar,
        path=tuple(path),
        chars=lin.chars,
    )


def _stuck(i: int, j: int, d: int) -> AssertionError:
    return AssertionError(
        f"BitAlign traceback stuck at position {i}, pattern bit {j}, "
        f"budget {d}"
    )


def _walk_diagonals(lin: LinearizedGraph, pattern: str,
                    rows: DiagonalRows, start: int, budget: int,
                    stop: int) -> tuple[list[list], list[int]]:
    """The traceback walk over the diagonal store, down to read bit
    ``stop + 1``; returns ``[op, length]`` runs and the path.

    Bit ``b`` of ``R[s][e]`` is bit ``e*m + b`` of ``D[n - s + e]``; the
    virtual row is position ``n``, so a dead end needs no special store.
    ``b = -1`` (the empty suffix) matches everywhere.
    """
    diagonals, n, m = rows.diagonals, rows.n, rows.m
    chars = lin.chars
    # Only a hop source's successors are looked up; every other
    # position steps to the next one (never past the window: the last
    # position is always a hop source).
    special = lin.hop_sources()
    hops = dict(special)
    sources = [position for position, _ in special]
    upcoming = 0                      # sources[upcoming] = next >= i
    dead_end = (n,)
    runs: list[list] = []
    path: list[int] = []

    def emit(op: str, length: int) -> None:
        if runs and runs[-1][0] == op:
            runs[-1][1] += length
        else:
            runs.append([op, length])

    i, j, d = start, m - 1, budget
    while j > stop:
        while sources[upcoming] < i:
            upcoming += 1
        offset = m - 1 - j
        if sources[upcoming] != i and chars[i] == pattern[offset]:
            # The jump: the longest prefix of the straight run up to
            # the next hop source and the stop whose steps are all
            # matches (they form a prefix: module docstring).  Step
            # ``t - 1`` probes bit ``j - t`` of ``R[i + t][d]``.
            top = n + d - i
            bit = d * m + j
            lo, hi = 0, min(sources[upcoming] - i, j - stop)
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                if (mid > j or not (diagonals[top - mid] >> bit - mid) & 1) \
                        and pattern.startswith(chars[i:i + mid], offset):
                    lo = mid
                else:
                    hi = mid - 1
            if lo:
                emit("=", lo)
                path.extend(range(i, i + lo))
                i += lo
                j -= lo
                if j <= stop:
                    break
            # The step after the run — at a hop source, a character
            # mismatch or a match the bits refuse — is taken below,
            # one operation at a time.
        mismatch = chars[i] != pattern[m - 1 - j]
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
            emit(op, 1)
            path.append(i)
            j -= 1
            if j > stop and taken == n:
                # Dead end: the remaining read characters can only be
                # insertions (the virtual row's zero bits guarantee
                # the budget covers them).
                emit("I", j - stop)
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
                emit("D", 1)
                path.append(i)
                i = taken
                d -= 1
                continue
            # 4. Insertion: consumes the read character only.
            if j == 0 or not (diagonals[top - i] >> (bit - 1)) & 1:
                emit("I", 1)
                j -= 1
                d -= 1
                continue
        raise _stuck(i, j, d)  # pragma: no cover - recurrence bug
    return runs, path


#: Fields of the first sweep when the threshold is above it (the rung:
#: module docstring).
RUNG = 8


def bitalign(
    lin: LinearizedGraph,
    pattern: str,
    k: int,
    anchors: list[int] | None = None,
    commit: int | None = None,
) -> BitAlignResult | None:
    """Full BitAlign: bitvector generation plus traceback.

    Args:
        lin: linearized, topologically sorted subgraph (the candidate
            region MinSeed fetched).
        pattern: the query read (or read chunk, in windowed mode).
        k: edit-distance threshold.  Above :data:`RUNG` the window is
            swept at ``RUNG`` first and at ``k`` only when that finds
            no start; the answer is the same.
        anchors: optional restriction of the allowed start positions —
            the windowed aligner uses this to chain a window onto the
            successors of the previous window's endpoint.  Each must
            be a position of ``lin`` (:class:`ValueError` otherwise).
        commit: optional number of read characters after which the
            traceback stops (see :func:`traceback`).

    Returns:
        The best alignment, or None when no alignment within ``k``
        edits exists (from the allowed anchors).
    """
    n = len(lin)
    for anchor in anchors or ():
        if not 0 <= anchor < n:
            raise ValueError(f"anchor {anchor} outside the window "
                             f"[0, {n})")
    if n == 0:
        if len(pattern) <= k:
            return BitAlignResult(
                distance=len(pattern),
                cigar=Cigar((("I", len(pattern)),)),
                path=(),
                chars=lin.chars,
            )
        return None
    located = None
    if k > RUNG:
        all_r = generate_bitvectors(lin, pattern, RUNG)
        located = all_r.best_start(candidates=anchors)
    if located is None:
        all_r = generate_bitvectors(lin, pattern, k)
        located = all_r.best_start(candidates=anchors)
        if located is None:
            return None
    budget, start = located
    return traceback(lin, pattern, all_r, start, budget, commit=commit)
