"""Word-packed BitAlign bitvectors: the numpy fast path.

The GenASM/BitAlign recurrence (:mod:`repro.align.genasm`,
:mod:`repro.core.bitalign`) is defined over ``m``-bit status
bitvectors.  The pure-Python implementation stores them as unbounded
Python ints; SeGraM's hardware instead operates on *fixed-width packed
machine words* — the linear cyclic systolic array of paper Section 8.2
processes one 128-bit window as a vector of word-sized lanes.  This
module reproduces that datapath in numpy:

* every ``R[i][d]`` bitvector is packed into ``ceil(m / 64)`` uint64
  words, least-significant word first (bit ``j`` of the conceptual
  vector is bit ``j % 64`` of word ``j // 64``);
* the left-shift of the recurrence becomes a vectorized word shift
  with **explicit carry propagation across words** (the top bit of
  word ``w`` feeds bit 0 of word ``w + 1``);
* the ``(i, d)`` cell grid is swept in **anti-diagonal wavefront
  order** — cell ``(i, d)`` depends only on ``(i, d-1)``, ``(i+1, d)``
  (previous diagonal) and ``(i+1, d-1)`` (the diagonal before that) —
  so one numpy operation updates an entire diagonal of ``(d, word)``
  lanes at once.  This is exactly the schedule of the paper's systolic
  array, where the ``k + 1`` error levels advance in pipeline.

Cell values are bit-for-bit identical to
:func:`repro.align.genasm._generate`: the same pattern bitmasks, the
same virtual row past the text end, the same 0-active semantics.  The
packed sweep is therefore a drop-in replacement for the hot
edit-distance-generation phase, and the traceback machinery can read
individual rows back as Python ints (:class:`PackedAllR`).

The linear-chain case is what the packing accelerates; graph windows
with hops, and chain windows below the backend's crossover width, run
the diagonal kernel of :mod:`repro.core.bitalign` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.dp_linear import AlignmentSizeError
from repro.align.genasm import pattern_bitmasks, virtual_row

#: Machine-word width of the packed layout (uint64 lanes).
WORD_BITS = 64

#: Bytes per packed word.
WORD_BYTES = WORD_BITS // 8

#: Refuse to materialize packed diagonal storage above this many words
#: (64 M words = 512 MB) — the packed mirror of
#: :data:`repro.align.dp_linear.DEFAULT_MAX_CELLS`.
DEFAULT_MAX_WORDS = 64_000_000


def words_for(bits: int) -> int:
    """Packed uint64 words needed for a ``bits``-wide bitvector."""
    if bits < 1:
        raise ValueError(f"bitvector width must be >= 1, got {bits}")
    return (bits + WORD_BITS - 1) // WORD_BITS


@dataclass(frozen=True)
class PackedLayout:
    """Word-packed layout of one status bitvector.

    The hardware model reads its per-bitvector storage from this
    layout: a ``W``-bit window occupies ``words`` uint64 lanes
    (possibly padded — 128 bits fit exactly in 2 words, the paper's
    16 B per bitvector).
    """

    pattern_bits: int

    def __post_init__(self) -> None:
        if self.pattern_bits < 1:
            raise ValueError("pattern_bits must be >= 1")

    @property
    def words(self) -> int:
        """uint64 words per packed bitvector."""
        return words_for(self.pattern_bits)

    @property
    def bytes_per_bitvector(self) -> int:
        """Storage bytes per packed bitvector (word-aligned)."""
        return self.words * WORD_BYTES

    @property
    def padded_bits(self) -> int:
        """Bits of storage including the unused top-word padding."""
        return self.words * WORD_BITS


def pack_int(value: int, words: int) -> np.ndarray:
    """Pack a non-negative Python int into ``words`` uint64 LSW-first."""
    return np.frombuffer(
        value.to_bytes(words * WORD_BYTES, "little"), dtype="<u8"
    ).astype(np.uint64)


def unpack_words(words: np.ndarray) -> int:
    """Inverse of :func:`pack_int`."""
    return int.from_bytes(
        np.ascontiguousarray(words, dtype="<u8").tobytes(), "little"
    )


def _top_mask(m: int, words: int) -> np.uint64:
    """Mask of the valid bits in the most-significant packed word."""
    top_bits = m - (words - 1) * WORD_BITS
    if top_bits == WORD_BITS:
        return np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    return np.uint64((1 << top_bits) - 1)


_ONE = np.uint64(1)
_CARRY_SHIFT = np.uint64(WORD_BITS - 1)

#: The resting word value of an unmaterialized (fully inactive) word.
_RESTING = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _pattern_mask_planes(
    pattern: str, words: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Packed pattern bitmasks plus a byte-indexed class table.

    Returns ``(planes, table)``: ``planes[table[ord(c)]]`` is the
    packed 0-active bitmask of text character ``c``.  Class 0 is the
    all-ones mask shared by every character absent from the pattern
    (the same default :mod:`repro.core.bitalign` applies).
    """
    masks = pattern_bitmasks(pattern)
    full = (1 << len(pattern)) - 1
    chars = sorted(masks)
    planes = np.empty((len(chars) + 1, words), dtype=np.uint64)
    planes[0] = pack_int(full, words)
    table = np.zeros(256, dtype=np.intp)
    for index, char in enumerate(chars):
        code = ord(char)
        if code > 0xFF:
            raise ValueError(
                f"pattern character {char!r} is outside the byte range"
            )
        planes[index + 1] = pack_int(masks[char], words)
        table[code] = index + 1
    return planes, table


def _encode_text(text: str) -> np.ndarray:
    try:
        raw = text.encode("latin-1")
    except UnicodeEncodeError as exc:  # pragma: no cover - exotic input
        raise ValueError(
            f"text contains a character outside the byte range: {exc}"
        ) from None
    return np.frombuffer(raw, dtype=np.uint8)


class _Sweep:
    """One wavefront sweep over the ``(i, d)`` cell grid.

    Diagonal ``t`` holds the cells ``(i, d)`` with ``t = n - i + d``
    (``i = n`` being the virtual row past the text end).  A cell's
    inputs all live on diagonals ``t - 1`` and ``t - 2``, so the sweep
    carries two previous diagonals (plus their precomputed left-shifts)
    and updates a whole diagonal per step with a handful of vectorized
    word operations.

    Diagonals are stored word-major (``(words, k + 1)``) so the live
    word *band* of each diagonal is a contiguous block, and two band
    bounds keep the word work tight:

    * **Upper frontier.**  Bit ``j`` of a cell on diagonal ``t`` can
      only be 0 (active) when ``j < t`` — a pattern suffix of length
      ``j + 1`` needs at least ``j + 1`` consumed text characters plus
      insertions, and the diagonal index is exactly that total.  Words
      above ``t // 64`` are identically all-ones; buffers start in
      that resting state and are never touched above the frontier.
      The carry into the frontier word is provably always 1, so the
      resting words stay correct under the shift.
    * **Lower frontier.**  A zero at bit ``j`` of cell ``(i, d)`` can
      only influence the final result if it can still reach the accept
      bit: ``j >= m - 1 - i - (k - d)``, i.e. ``j >= t - (n + k - m +
      1)`` on diagonal ``t``.  Bits below that floor are never read by
      the accept scan *or* by any traceback walk (the walk invariant
      keeps every inspected bit above the floor), and since both bit
      positions and the floor advance by at most/exactly one per
      diagonal, sub-floor words can never contaminate the band.  The
      sweep simply stops maintaining them, so cells are **band-exact**
      rather than fully exact — identical in every bit any consumer
      can observe.

    Accept decoding is deferred: the sweep stores one accept *word*
    per cell (skipped while the accept word is still at rest) and
    decodes the accept bit for the whole grid in a single vectorized
    pass afterwards.
    """

    def __init__(self, text: str, pattern: str, k: int,
                 keep_diagonals: bool,
                 max_words: int = DEFAULT_MAX_WORDS) -> None:
        if not pattern:
            raise ValueError("pattern must not be empty")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.m = m = len(pattern)
        self.n = n = len(text)
        self.k = k
        self.words = words = words_for(m)
        self.diagonals = n + k + 1
        self.top_mask = _top_mask(m, words)
        self.accept_word = (m - 1) // WORD_BITS
        self.accept_bit = np.uint64((m - 1) % WORD_BITS)
        if keep_diagonals:
            total = self.diagonals * (k + 1) * words
            if total > max_words:
                raise AlignmentSizeError(
                    f"packed traceback storage of {total} words exceeds "
                    f"the {max_words}-word budget; use distance() or a "
                    "windowed aligner"
                )
        planes, table = _pattern_mask_planes(pattern, words)
        codes = table[_encode_text(text)]
        #: Word-major pattern-mask plane of the whole text: column i is
        #: the packed bitmask of text[i], so the masks of a diagonal's
        #: cells are one contiguous column slice.
        self.pm_text = np.ascontiguousarray(planes[codes].T)
        #: Word-major virtual row: column d is the packed virtual
        #: bitvector at budget d.
        self.virtual = np.ascontiguousarray(np.array(
            [pack_int(value, words) for value in virtual_row(m, k)],
            dtype=np.uint64).T)
        #: Raw accept words, one per (diagonal, budget) cell; decoded
        #: into :attr:`accept` after the sweep.  The all-ones resting
        #: value decodes to "not accepting".  When diagonals are kept,
        #: the accept words are read straight out of the stored grid
        #: in one vectorized pass instead.
        self._acc_words: np.ndarray | None = None
        self.alld: np.ndarray | None = None
        if keep_diagonals:
            # Resting state: every unmaterialized word is all-ones
            # (masked in the top word) — see frontier pruning above.
            # A byte-level fill is a plain memset, several times faster
            # than broadcasting a uint64 scalar.
            self.alld = np.empty((self.diagonals, words, k + 1),
                                 dtype=np.uint64)
            self.alld.view(np.uint8).fill(0xFF)
            self.alld[:, -1, :] = self.top_mask
        else:
            self._acc_words = np.full((self.diagonals, k + 1),
                                      _RESTING, dtype=np.uint64)
        self._run()
        raw = (self.alld[:, self.accept_word, :]
               if self.alld is not None else self._acc_words)
        self.accept = ((raw >> self.accept_bit) & _ONE) == 0
        self._acc_words = None

    def _run(self) -> None:
        k, n, words = self.k, self.n, self.words
        if self.m > n + k:
            # The pattern cannot be consumed: bit j is active only for
            # j < t <= n + k <= m - 1, so no accept bit ever clears.
            return
        shape = (words, k + 1)
        top_mask = self.top_mask
        pm_text, virtual = self.pm_text, self.virtual
        acc_words = self._acc_words
        accept_word = self.accept_word
        virtual_acc = virtual[accept_word]
        alld = self.alld
        keep = alld is not None
        # Sub-floor slack: one extra word so the garbage carry entering
        # the lowest maintained word stays strictly below the floor.
        floor_base = n + k - self.m + 1 + (WORD_BITS - 1)
        # Rolling state, all starting in the all-ones resting state.
        # The deletion and substitution inputs of a cell are
        # ``R[i+1][d-1]`` and its shift — both from the same retiring
        # diagonal — so each diagonal precombines them into one array
        # ``Q = R & (R << 1)`` when it retires.  That leaves the shift
        # of the previous diagonal (``sp``: match + insertion terms)
        # and a Q ping-pong pair (written at t, read at t + 2).
        def resting() -> np.ndarray:
            buf = np.full(shape, _RESTING, dtype=np.uint64)
            buf[-1] = top_mask
            return buf

        sp = resting()
        q_ping, q_pong = resting(), resting()
        spare = None if keep else resting()
        carry = np.empty(shape, dtype=np.uint64)
        bitwise_and = np.bitwise_and
        bitwise_or = np.bitwise_or
        left_shift = np.left_shift
        right_shift = np.right_shift
        for t in range(self.diagonals):
            cur = alld[t] if keep else spare
            # Live word band of this diagonal (see the class docstring).
            wl = t // WORD_BITS + 1
            if wl > words:
                wl = words
            fw = 0 if t <= floor_base else (t - floor_base) // WORD_BITS
            lo = 0 if t <= n else t - n
            hi = min(k, t - 1)
            band = slice(fw, wl)
            q2 = q_ping  # Q of diagonal t - 2
            if hi >= lo:
                i0 = n - t + lo
                # Match term straight into the output cells.
                target = cur[band, lo:hi + 1]
                bitwise_or(sp[band, lo:hi + 1],
                           pm_text[band, i0:i0 + hi - lo + 1],
                           out=target)
                if lo == 0:
                    # Budget 0 keeps the match term only.
                    if hi >= 1:
                        target = cur[band, 1:hi + 1]
                        target &= sp[band, 0:hi]
                        target &= q2[band, 0:hi]
                else:
                    target &= sp[band, lo - 1:hi]
                    target &= q2[band, lo - 1:hi]
                if not keep and wl > accept_word >= fw:
                    acc_words[t, lo:hi + 1] = cur[accept_word, lo:hi + 1]
            if t <= k:
                cur[:, t] = virtual[:, t]
                if not keep:
                    acc_words[t, t] = virtual_acc[t]
            # Retire the diagonal: derive its shift (replacing sp in
            # place — the shift of t - 1 has served its last read) and
            # its Q into the slot holding the expired Q of t - 2.
            live = cur[band]
            shifted = sp[band]
            left_shift(live, _ONE, out=shifted)
            if wl - fw > 1:
                cbuf = carry[fw:wl - 1]
                right_shift(live[:-1], _CARRY_SHIFT, out=cbuf)
                shifted[1:] |= cbuf
            if wl == words:
                shifted[-1] &= top_mask
            bitwise_and(live, shifted, out=q2[band])
            q_ping, q_pong = q_pong, q_ping

    def best(self) -> tuple[int, int] | None:
        """Smallest ``(d, start)`` with an accepting cell, or None.

        Tie-break identical to :func:`repro.align.genasm.
        genasm_distance`: smallest distance first, then the leftmost
        start position (which on diagonal coordinates is the *largest*
        ``t``).  ``start == n`` is the degenerate pure-insertion
        alignment.
        """
        n = self.n
        for d in range(self.k + 1):
            column = self.accept[d:n + d + 1, d]
            hits = np.flatnonzero(column)
            if hits.size:
                t = d + int(hits[-1])
                return d, n - t + d
        return None


class _LazyRow:
    """One ``all_r[i]`` row: decodes cells on first access."""

    __slots__ = ("_all_r", "_i")

    def __init__(self, all_r: "PackedAllR", i: int) -> None:
        self._all_r = all_r
        self._i = i

    def __getitem__(self, d: int) -> int:
        return self._all_r.cell(self._i, d)


class PackedAllR:
    """Row view over a kept-diagonal sweep: ``all_r[i][d]`` as ints.

    Indexable like the ``all_r`` list of
    :func:`repro.align.genasm._generate` (positions ``0..n``, the last
    being the virtual row).  Cells decode lazily: a traceback walks
    the text axis at a mostly-constant budget, so a miss on ``(i, d)``
    decodes a whole block of consecutive positions at that budget in
    one vectorized gather — the traceback touches O(m + k) cells out
    of the O(n * k) grid and pays for little else.

    Cell values are *band-exact* (see :class:`_Sweep`): identical to
    the reference recurrence in every bit at or above the relevance
    floor, which covers every bit an accept scan or traceback walk can
    inspect.
    """

    #: Consecutive positions decoded per miss.
    BLOCK = 64

    def __init__(self, sweep: _Sweep) -> None:
        assert sweep.alld is not None
        self._sweep = sweep
        self._rows: dict[int, _LazyRow] = {}
        self._cells: dict[int, int] = {}

    def __len__(self) -> int:
        return self._sweep.n + 1

    def __getitem__(self, i: int) -> _LazyRow:
        row = self._rows.get(i)
        if row is None:
            if not 0 <= i <= self._sweep.n:
                raise IndexError(i)
            row = self._rows[i] = _LazyRow(self, i)
        return row

    def cell(self, i: int, d: int) -> int:
        sweep = self._sweep
        key = i * (sweep.k + 1) + d
        value = self._cells.get(key)
        if value is None:
            last = min(sweep.n, i + self.BLOCK - 1)
            # Positions i..last at budget d live on consecutive
            # diagonals t = n - i' + d (descending in i').
            t_hi = sweep.n - i + d
            t_lo = sweep.n - last + d
            block = np.ascontiguousarray(
                sweep.alld[t_lo:t_hi + 1, :, d])
            raw = block.tobytes()
            stride = sweep.words * WORD_BYTES
            cells = self._cells
            for offset, position in enumerate(range(last, i - 1, -1)):
                cells[position * (sweep.k + 1) + d] = int.from_bytes(
                    raw[offset * stride:(offset + 1) * stride], "little")
            value = cells[key]
        return value

    def best(self) -> tuple[int, int] | None:
        """Best ``(distance, start)`` over all positions (incl. the
        virtual row — see :meth:`_Sweep.best`)."""
        return self._sweep.best()


class PackedChainRows(PackedAllR):
    """Packed ``all_r`` for a linear-chain window of the graph aligner.

    :func:`repro.core.bitalign.bitalign` uses this in place of its
    ``generate_bitvectors`` output when the window has no hops and the
    pattern is wide enough for the packed sweep to pay.  It
    reports ``len`` as the number of *text* positions (the virtual row
    stays internal, as in ``generate_bitvectors``) and answers the
    best-start query directly from the packed accept bits instead of
    unpacking every row.
    """

    def __len__(self) -> int:
        return self._sweep.n

    def best_start(
        self, candidates: list[int] | None = None,
    ) -> tuple[int, int] | None:
        """Packed mirror of :meth:`repro.core.bitalign.DiagonalRows.
        best_start`.

        Scans budgets in increasing order; within a budget, positions
        in ascending order (or in the caller-given ``candidates``
        order), never considering the virtual row.
        """
        sweep = self._sweep
        n = sweep.n
        if candidates is not None:
            anchor_t = n - np.asarray(candidates, dtype=np.intp)
            for d in range(sweep.k + 1):
                hits = np.flatnonzero(sweep.accept[anchor_t + d, d])
                if hits.size:
                    return d, candidates[int(hits[0])]
            return None
        for d in range(sweep.k + 1):
            # t = d is the virtual row; positions n-1..0 are above it.
            column = sweep.accept[d + 1:n + d + 1, d]
            hits = np.flatnonzero(column)
            if hits.size:
                t = d + 1 + int(hits[-1])
                return d, n - t + d
        return None


def packed_distance(text: str, pattern: str, k: int) -> tuple[int, int] | None:
    """Word-packed fitting-alignment distance scan.

    Bit-for-bit identical result to :func:`repro.align.genasm.
    genasm_distance` — ``(distance, start_position)`` with smallest
    distance then leftmost start, ``start == len(text)`` for the
    pure-insertion degenerate, None when no alignment within ``k``
    edits exists.  Memory is O(k * m / 64) regardless of text length.
    """
    return _Sweep(text, pattern, k, keep_diagonals=False).best()


def packed_generate(text: str, pattern: str, k: int,
                    max_words: int = DEFAULT_MAX_WORDS) -> PackedAllR:
    """Full packed bitvector generation with row read-back.

    The returned :class:`PackedAllR` is interchangeable with the
    ``all_r`` list of :func:`repro.align.genasm._generate` (identical
    values, positions ``0..len(text)``).  Raises
    :class:`~repro.align.dp_linear.AlignmentSizeError` when the
    diagonal storage would exceed ``max_words``.
    """
    return PackedAllR(_Sweep(text, pattern, k, keep_diagonals=True,
                             max_words=max_words))


def packed_chain_rows(chars: str, pattern: str, k: int,
                      max_words: int = DEFAULT_MAX_WORDS) -> PackedChainRows:
    """Packed ``all_r`` rows for a linear-chain graph window."""
    return PackedChainRows(_Sweep(chars, pattern, k, keep_diagonals=True,
                                  max_words=max_words))
