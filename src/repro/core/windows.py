"""Divide-and-conquer windowing for BitAlign (paper Section 7).

Bitvectors are as wide as the pattern, so the hardware processes at
most ``W`` pattern characters at a time (W = 64 bits/PE in GenASM,
128 in BitAlign).  Long reads are aligned window by window: the read
is cut into overlapping chunks, each chunk is aligned with BitAlign
against a window of the linearized subgraph, and only the first
``W - overlap`` read characters of each window's traceback are
*committed* — the overlap region is re-aligned by the next window,
which absorbs alignment drift across the cut.  The committed
tracebacks are concatenated into the final CIGAR ("after all windows'
traceback outputs are found, we merge them") as CIGAR runs: a window
commits the prefix of its runs that covers those read characters, and
the two extensions meet in one :meth:`~repro.core.alignment.Cigar.concat`.

**Seed anchoring.**  A seed gives an exact correspondence between a
read position and a graph position.  :meth:`WindowedAligner.align`
accepts that anchor and extends in both directions — forward windowing
from the anchor for the right extension, and forward windowing *on the
edge-reversed graph* for the left extension (reversing the read
prefix), mirroring the left/right extension arithmetic of paper
Fig. 9.  Without an anchor the first window searches every start
position of the whole region (fitting semantics), which is exact but
linear in the region length.

Chaining across windows preserves *graph-path validity*: each window
after the first is anchored on the graph successors of the previous
window's last consumed position, so the concatenated path is a real
walk through the graph.  Windows that fail at the configured error
threshold are rescued by doubling ``k`` (up to the chunk length, where
an alignment always exists); the rescue count is reported so callers
can see when a read is far noisier than the configuration assumes.
Committed operations are final, so an edit ``budget`` can stop an
alignment as soon as its committed edits exceed it.

**One kernel per window the string compare cannot answer.**  A window
whose answer is known without the kernel — one anchor, a chunk within
Hamming distance 2 of the hop-free text from it, and for distance 2 no
single indel that aligns it — commits its ``=`` / ``X`` run directly
(rungs 0–2 of the k ladder, a pre-alignment filter in the GateKeeper /
SHD sense that never changes the answer; the lemma is in
:func:`_hamming_rung`).  Every other window — chain or hop-bearing,
first attempt or rescue — is one call of
:func:`repro.core.bitalign.bitalign`: the systolic-diagonal kernel
described in :mod:`repro.core.bitalign` (a sweep of fields 0–8 first,
the ``k`` sweep only when that finds no start) plus its native
traceback, stopped at the window's commit point.  Both kinds of
window share one commit step over runs, and each window attempt is
one ``counters.window`` call (:meth:`WindowedAligner.align`): the
engine's :class:`~repro.core.pipeline.PipelineStats` counts it, and
the cycle simulator's :class:`~repro.hw.simulator.SimulationTrace`
charges the systolic array for either kind, as the hardware has no
string compare.
:meth:`WindowedAligner.align_many` is :meth:`WindowedAligner.align`
per item; nothing is batched across windows, so a result depends on
nothing but its own item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.alignment import Cigar
# ``traceback`` is not used here any more; benchmarks/perf/test_perf.py
# reads ``repro.core.windows.traceback`` to check its shims restore.
from repro.core.bitalign import bitalign, spell, traceback  # noqa: F401
from repro.graph.linearize import LinearizedGraph


@dataclass(frozen=True)
class WindowingConfig:
    """Windowing parameters.

    Attributes:
        window_size: read characters per window — the bitvector width
            ``W`` (paper: 64 for GenASM-class hardware, 128 for
            BitAlign).
        overlap: read characters of each window left uncommitted and
            re-aligned by the next window.  The paper's window counts
            (250 windows per 10 kbp read at W=64, 125 at W=128 —
            Section 11.3) imply a commit step of ``5W/8``, i.e. an
            overlap of ``3W/8``: 24 for GenASM, 48 for BitAlign.
        k: per-window edit-distance threshold (the number of stored
            ``R[d]`` bitvectors is ``k + 1``).
    """

    window_size: int = 128
    overlap: int = 48
    k: int = 32

    def __post_init__(self) -> None:
        if self.window_size < 2:
            raise ValueError("window_size must be >= 2")
        if not 0 <= self.overlap < self.window_size:
            raise ValueError(
                "overlap must satisfy 0 <= overlap < window_size"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class WindowedAlignment:
    """Merged result of a windowed BitAlign run.

    ``distance``/``cigar``/``path``/``chars`` and the derived
    ``reference`` follow :class:`~repro.core.bitalign.BitAlignResult`
    (``chars`` is the region's); the extra counters expose windowing
    behaviour to the benchmarks and the hardware model.
    """

    distance: int
    cigar: Cigar
    path: tuple[int, ...]
    chars: str = field(repr=False, compare=False)
    windows: int = 0
    rescues: int = 0
    dead_end_insertions: int = 0
    #: Read position of the first operation (0 unless abandoned).
    read_start: int = 0
    #: The edit budget ran out (:meth:`WindowedAligner.align`): only
    #: the committed operations, whose edits exceed the budget.
    abandoned: bool = False

    @property
    def reference(self) -> str:
        """The spelled characters of ``path`` (derived, not stored)."""
        return spell(self.chars, self.path)


def _difference(a: str, b: str) -> int:
    """``a`` XOR ``b`` (equal lengths) as one int of 32-bit groups,
    ``a[0]`` on top: ``a[j] != b[j]`` iff group ``len(a) - 1 - j``,
    counted from the low end, is not zero."""
    return int.from_bytes(a.encode("utf-32-be"), "big") \
        ^ int.from_bytes(b.encode("utf-32-be"), "big")


def _common_suffix(a: str, b: str) -> int:
    """Length of the longest common suffix of equal-length strings."""
    difference = _difference(a, b)
    if not difference:
        return len(a)
    return ((difference & -difference).bit_length() - 1) // 32


def _hamming_rung(lin: LinearizedGraph, chunk: str,
                  anchors: list[int] | None, base: int,
                  k: int) -> tuple[int, ...] | None:
    """Rungs 0–2 of the k ladder: the chunk offsets of the ``h``
    mismatches (h ∈ {0, 1, 2}) when the kernel, run at threshold
    ``k``, would answer this window with the Hamming run — ``=`` where
    ``chunk`` agrees with ``chars[base:base + m]``, ``X`` where not,
    along ``base … base + m − 1`` — and None when it might not.

    It fires only for exactly one anchor (``base``), and for h ≥ 1
    only when ``h ≤ k``, ``base + m + h + 1 ≤ len(lin)``, no position
    of ``[base, base + m + h + 1)`` is a hop source of the tables
    (:meth:`~repro.graph.linearize.LinearizedGraph.is_straight`:
    successors leaving the window or the view count) and, for h = 2,
    no single indel aligns the chunk.  Rung 0 keeps its weaker check:
    the slice ``[base, base + m)`` is a chain.

    *Why the answer is the Hamming run.*  Field ``d`` of every
    diagonal of :func:`~repro.core.bitalign.generate_bitvectors`
    depends only on fields ≤ ``d`` (``up`` moves field d − 1 into d,
    never back), :meth:`~repro.core.bitalign.DiagonalRows.best_start`
    scans budgets upward from 0 and, with the one local anchor 0 as
    its only candidate, stops at the first budget d* whose accepting
    bit is set there, and :func:`~repro.core.bitalign._walk_diagonals`
    from budget d* reads only fields ≤ d*.  So the answer is fixed by
    the set of walks from ``base`` with ≤ h edits, and:

    * *The only walk with ≤ h edits is the straight run.*  An
      alignment with ≤ h edits consumes at most m + h text
      characters, i.e. positions ``base … base + m + h − 1``, and
      every one of them has ``i + 1`` as its only successor in the
      tables, hence in the window ``[base, base + m + k)`` too (the
      last of them may be the window's dead end when k = h, but
      reaching it consumes m + h characters and so the whole chunk).
      A window's dead end only adds insertions, which the straight
      text allows anywhere, so every window alignment within h edits
      spells a prefix of ``chars[base:]`` with indels and
      substitutions.
    * *The best budget is h.*  The Hamming run is such an alignment
      with h edits, so d* ≤ h ≤ k (no rescue).  d* = 0 would need
      ``chunk == chars[base:base + m]``, i.e. h = 0.  For h = 2,
      d* = 1 would need one substitution (Hamming 1, not 2) or one
      indel — a
      deletion at chunk offset ``i`` iff ``chunk[:i]`` matches the
      text and ``chunk[i:]`` matches it shifted by +1, an insertion iff
      ``chunk[:i]`` matches the text and ``chunk[i + 1:]`` matches it
      shifted by −1.  With ``p`` the common prefix (the first
      mismatch) and ``s_del`` / ``s_ins`` the common suffixes against
      the shifted texts, some ``i`` exists iff ``p + s_del ≥ m`` or
      ``p + s_ins ≥ m − 1``: an O(m) test.
    * *The walk emits the run.*  The walk keeps the invariant that the
      unread chunk suffix is alignable within the remaining budget
      from the current position, and tries match, then substitution,
      then deletion, then insertion, successors ascending.  With
      remaining budget = the suffix's Hamming distance to the straight
      text (true at the start: d* = h), a matching character's match
      keeps the Hamming continuation within budget, and at a mismatch
      the match is barred by the pattern mask while the substitution
      leaves Hamming d − 1 for budget d − 1.  So it takes ``=`` / ``X``
      at ``base``, ``base + 1``, … and never reaches a deletion, an
      insertion or the dead end (the window holds ``base + m``).

    Rung 0 is the case h = 0: the straight run accepts at budget 0,
    and the budget-0 walk follows ``i + 1`` — first-listed, since
    successors ascend — so successors leaving the chain slice do not
    matter there.
    """
    if anchors is None or len(anchors) != 1:
        return None
    m = len(chunk)
    chars = lin.chars
    if chars.startswith(chunk, base):
        # The slice test, asked second: a straight range implies it.
        chain = lin.is_straight(base, base + m - 1) \
            or lin.slice(base, base + m).is_chain()
        return () if chain else None
    if base + m + 2 > len(lin):  # the bound below at h = 1
        return None
    cap = min(k, 2)
    difference = _difference(chunk, chars[base:base + m])
    mismatches: list[int] = []
    while difference and len(mismatches) <= cap:
        group = (difference.bit_length() - 1) // 32
        mismatches.append(m - 1 - group)
        difference &= (1 << 32 * group) - 1
    h = len(mismatches)
    if h > cap or base + m + h + 1 > len(lin) \
            or not lin.is_straight(base, base + m + h + 1):
        return None
    if h == 2:
        prefix = mismatches[0]
        if prefix + _common_suffix(
                chunk, chars[base + 1:base + m + 1]) >= m \
                or prefix + _common_suffix(
                    chunk[1:], chars[base:base + m - 1]) >= m - 1:
            return None
    return tuple(mismatches)


@dataclass
class _Extension:
    """One directional extension: committed CIGAR runs (merged across
    window cuts), consumed positions, read characters and edits."""

    runs: list[tuple[str, int]] = field(default_factory=list)
    path: list[int] = field(default_factory=list)
    read: int = 0
    edits: int = 0
    windows: int = 0
    rescues: int = 0
    dead_end_insertions: int = 0

    def commit(self, runs: Iterable[tuple[str, int]],
               positions: Sequence[int], base: int, target: int) -> int:
        """Commit the prefix of a window's ``runs`` that consumes
        ``target`` read characters (splitting the last run) and the
        window ``positions`` it consumes, shifted by ``base``.
        Returns the number of operations committed."""
        read = ref = ops = 0
        for op, length in runs:
            if read >= target:
                break
            if op != "D":
                length = min(length, target - read)
                read += length
            if op != "I":
                ref += length
            if op != "=":
                self.edits += length
            ops += length
            if self.runs and self.runs[-1][0] == op:
                length += self.runs.pop()[1]
            self.runs.append((op, length))
        self.path.extend(p + base for p in positions[:ref])
        self.read += read
        return ops


class WindowedAligner:
    """Aligns arbitrarily long reads against a linearized subgraph.

    Args:
        config: windowing parameters.  Every window runs the diagonal
            kernel of :mod:`repro.core.bitalign`.
    """

    def __init__(self, config: WindowingConfig | None = None) -> None:
        self.config = config or WindowingConfig()

    def align(
        self,
        lin: LinearizedGraph,
        read: str,
        anchor: tuple[int, int] | None = None,
        counters=None,
        budget: float | None = None,
    ) -> WindowedAlignment:
        """Windowed fitting alignment of ``read`` against ``lin``.

        Args:
            lin: the linearized candidate region.
            read: the query read.
            anchor: optional ``(graph_position, read_position)`` exact
                correspondence from a seed: the read character at
                ``read_position`` is known to occur at linearized
                position ``graph_position``.  With an anchor the
                aligner extends left and right from it; without one the
                first window searches all start positions.
            counters: optional sink of window attempts: one
                ``counters.window(lin, base, end, chunk_length, k,
                ops, kernel)`` call per attempt of a chunk on
                ``lin[base:end]`` at threshold ``k``, with ``ops`` the
                operations it committed (0 for an attempt that fails
                and is rescued) and ``kernel`` False for a rung 0–2
                commit (:meth:`repro.core.pipeline.PipelineStats.window`,
                :meth:`repro.hw.simulator.SimulationTrace.window`).
            budget: optional edit budget.  Once the committed edits
                exceed it no window runs and the result is
                ``abandoned``: only the committed operations, from
                read position ``read_start`` on.  Committed operations
                are final, so that happens exactly when the unbounded
                distance exceeds ``budget``; otherwise the result is
                the unbounded alignment.  The left extension gets what
                the right one left over.

        The reported distance is the edit distance of the *reported*
        alignment (replay-exact); like GenASM's, the heuristic may
        exceed the global optimum when an error cluster straddles a
        window cut.
        """
        return self._align_item(lin, read, anchor, counters,
                                math.inf if budget is None else budget)

    def align_many(
        self,
        items: "list[tuple[LinearizedGraph, str, tuple[int, int] | None]]",
        counters=None,
    ) -> list[WindowedAlignment]:
        """Windowed alignment of many ``(lin, read, anchor)`` items.

        Exactly :meth:`align` per item, in order: every window of every
        item goes through the one per-window kernel
        (:func:`repro.core.bitalign.bitalign`), so a result depends on
        nothing but its own item.
        """
        return [self._align_item(lin, read, anchor, counters, math.inf)
                for lin, read, anchor in items]

    def _align_item(self, lin: LinearizedGraph, read: str,
                    anchor: tuple[int, int] | None,
                    counters, budget: float) -> WindowedAlignment:
        """One item: the right extension from the anchor (the whole
        read when un-anchored), then the left extension on the
        reversed view with the budget the right one left, merged.

        Shared by :meth:`align` and :meth:`align_many` instead of one
        calling the other: the perf spine times both public methods as
        root spans, and nesting them would count the work twice.
        """
        if not read:
            raise ValueError("read must not be empty")
        if anchor is None:
            # The first window searches every start position.
            anchor_pos, anchor_read, anchors = None, 0, None
        else:
            anchor_pos, anchor_read = anchor
            if not 0 <= anchor_pos < len(lin):
                raise ValueError(
                    f"anchor position {anchor_pos} outside the region"
                )
            if not 0 <= anchor_read < len(read):
                raise ValueError(
                    f"anchor read offset {anchor_read} outside the read"
                )
            anchors = [anchor_pos]
        right = self._extend(lin, read[anchor_read:], anchors, counters,
                             budget)
        parts = [right]
        cigar, path = Cigar(tuple(right.runs)), right.path
        read_start = anchor_read
        if anchor_read > 0 and right.edits <= budget:
            rev = lin.reversed_view()
            n = len(lin)
            # In reversed coordinates the left extension starts at
            # the (reversed) successors of the anchor, i.e. the
            # original predecessors.
            left = self._extend(
                rev, read[:anchor_read][::-1],
                list(rev.successors_of(n - 1 - anchor_pos)),
                counters, budget - right.edits)
            parts.append(left)
            read_start -= left.read
            cigar = Cigar(tuple(reversed(left.runs))).concat(cigar)
            path = [n - 1 - p for p in reversed(left.path)] + path
        distance = sum(part.edits for part in parts)
        return WindowedAlignment(
            distance=distance,
            cigar=cigar,
            path=tuple(path),
            chars=lin.chars,
            windows=sum(part.windows for part in parts),
            rescues=sum(part.rescues for part in parts),
            dead_end_insertions=sum(part.dead_end_insertions
                                    for part in parts),
            read_start=read_start,
            abandoned=distance > budget,
        )

    def _extend(
        self,
        lin: LinearizedGraph,
        read: str,
        anchors: list[int] | None,
        counters,
        budget: float,
    ) -> _Extension:
        """Forward windowing loop: a window the kernel would answer
        with its Hamming run (:func:`_hamming_rung`, rungs 0–2)
        commits that ``=`` / ``X`` run; every other window attempt is
        one :func:`~repro.core.bitalign.bitalign` call.  Both commit
        through :meth:`_Extension.commit`, and each attempt is one
        ``counters.window`` call (see :meth:`WindowedAligner.align`).

        ``anchors`` restricts the allowed start positions of the first
        window (None = search every position of the whole region, the
        un-anchored fitting mode).  It stops once the committed edits
        exceed ``budget``.
        """
        extension = _Extension()
        w = self.config.window_size
        overlap = self.config.overlap
        pos_pat = 0
        base = 0
        first_window = True

        while pos_pat < len(read) and extension.edits <= budget:
            chunk = read[pos_pat:pos_pat + w]
            is_final = pos_pat + len(chunk) == len(read)
            if anchors is not None:
                base = min(anchors, default=len(lin))
            if base >= len(lin):
                # Dead end with read remaining: only insertions left.
                remaining = len(read) - pos_pat
                extension.commit((("I", remaining),), (), 0, remaining)
                extension.dead_end_insertions += remaining
                break

            k = min(self.config.k, len(chunk))
            # Commit everything for the final window, the first
            # chunk-minus-overlap read characters otherwise.
            commit_target = len(chunk) if is_final \
                else max(1, len(chunk) - overlap)
            # Rungs 0–2: the kernel's answer is the Hamming run.
            mismatches = _hamming_rung(lin, chunk, anchors, base, k)
            if mismatches is not None:
                end = min(len(lin), base + len(chunk) + k)
                ops = "=" * len(chunk)
                for offset in mismatches:
                    ops = ops[:offset] + "X" + ops[offset + 1:]
                runs, positions = Cigar.from_ops(ops), range(len(chunk))
            else:
                while True:
                    # Un-anchored start discovery searches the region.
                    end = len(lin) if first_window and anchors is None \
                        else min(len(lin), base + len(chunk) + k)
                    window = lin.slice(base, end)
                    # ``base == min(anchors)`` and the window is never
                    # empty, so local anchor 0 always survives the
                    # filter.
                    local_anchors = None if anchors is None else \
                        [a - base for a in anchors
                         if a - base < len(window)]
                    result = bitalign(window, chunk, k,
                                      anchors=local_anchors,
                                      commit=commit_target)
                    if result is not None:
                        break
                    if k >= len(chunk):
                        raise AssertionError(
                            "window alignment failed at k == chunk length"
                        )  # pragma: no cover - insertion chain guarantees it
                    if counters is not None:
                        counters.window(lin, base, end, len(chunk), k, 0,
                                        True)
                    k = min(len(chunk), k * 2)
                    extension.rescues += 1
                runs, positions = result.cigar, result.path
            committed = extension.commit(runs, positions, base,
                                         commit_target)
            extension.windows += 1
            first_window = False
            pos_pat += commit_target
            if counters is not None:
                counters.window(lin, base, end, len(chunk), k, committed,
                                mismatches is None)
            if extension.path:
                # The successors of the last consumed position; a
                # window of pure insertions leaves them as they were.
                anchors = list(lin.successors_of(extension.path[-1]))
        return extension

    def window_count(self, read_length: int) -> int:
        """Number of windows needed for a read of the given length.

        Every window commits ``window_size - overlap`` read characters
        except the last, which commits the remainder — the quantity the
        paper's cycle analysis counts (Section 11.3: 250 windows for a
        10 kbp read at W=64 vs 125 at W=128).
        """
        if read_length < 1:
            raise ValueError("read_length must be >= 1")
        step = self.config.window_size - self.config.overlap
        if read_length <= self.config.window_size:
            return 1
        return 1 + math.ceil((read_length - self.config.window_size) / step)
