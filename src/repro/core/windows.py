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
traceback outputs are found, we merge them").

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

**One kernel per non-exact window.**  A window whose answer is known
without the kernel — one anchor, a chunk equal to the hop-free text
from it — commits its ``=`` run directly (rung 0 of the k ladder; the
lemma is in :func:`_is_exact_window`).  Every other window — chain or
hop-bearing, first attempt or rescue — is one call of
:func:`repro.core.bitalign.bitalign`, i.e. one sweep of the
systolic-diagonal kernel described in :mod:`repro.core.bitalign` plus
its native traceback.  Both paths report the same
:class:`WindowEvent`: the hardware has no string compare, so its model
charges the systolic array for every window.
:meth:`WindowedAligner.align_many` is :meth:`WindowedAligner.align`
per item; nothing is batched across windows, so a result depends on
nothing but its own item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core.alignment import Cigar
# ``traceback`` is not used here any more; benchmarks/perf/test_perf.py
# reads ``repro.core.windows.traceback`` to check its shims restore.
from repro.core.bitalign import bitalign, traceback  # noqa: F401
from repro.graph.linearize import LinearizedGraph


@dataclass(frozen=True)
class WindowEvent:
    """One executed alignment window, reported to observers.

    The hardware simulator (:mod:`repro.hw.simulator`) consumes these
    to charge cycles against the real, data-dependent execution.

    Attributes:
        text_length: reference characters in the window.
        chunk_length: read characters in the window (bitvector width).
        k: the edit threshold the window ran at (after any rescue
            doubling).
        rescued: whether this execution was a rescue retry.
        hops_in_window: inter-character hops (distance > 1) the window
            contains — each one costs hop-queue reads in hardware.
        ops_committed: traceback operations committed from this window.
    """

    text_length: int
    chunk_length: int
    k: int
    rescued: bool
    hops_in_window: int
    ops_committed: int


WindowObserver = Callable[[WindowEvent], None]


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

    ``distance``/``cigar``/``path``/``reference`` follow
    :class:`~repro.core.bitalign.BitAlignResult`; the extra counters
    expose windowing behaviour to the benchmarks and the hardware
    model.
    """

    distance: int
    cigar: Cigar
    path: tuple[int, ...]
    reference: str
    windows: int = 0
    rescues: int = 0
    dead_end_insertions: int = 0
    #: Read position of the first operation (0 unless abandoned).
    read_start: int = 0
    #: The edit budget ran out (:meth:`WindowedAligner.align`): only
    #: the committed operations, whose edits exceed the budget.
    abandoned: bool = False

    @property
    def start(self) -> int:
        return self.path[0] if self.path else -1

    @property
    def end(self) -> int:
        return self.path[-1] if self.path else -1


def _count_hops(lin: LinearizedGraph) -> int:
    """Inter-character hops (successor distance > 1) in a window."""
    return sum(
        1
        for position, succs in lin.hop_sources()
        for succ in succs
        if succ - position > 1
    )


def _is_exact_window(lin: LinearizedGraph, chunk: str,
                     anchors: list[int] | None, base: int) -> bool:
    """Rung 0: whether the kernel would answer this window with ``=``
    × m along ``base … base + m − 1`` (``base`` the one anchor).

    Field ``d`` of every diagonal of :func:`~repro.core.bitalign.
    generate_bitvectors` depends only on fields ≤ ``d`` (``up`` moves
    field d − 1 into d, never back), ``DiagonalRows.best_start`` scans
    budgets upward and stops at the first accepting one, and
    :func:`~repro.core.bitalign._walk_diagonals` from budget ``d``
    reads only fields ≤ ``d``.  So a window that succeeds at k′ < k
    gives the identical start and traceback at k.  Here k′ = 0: the
    single anchor is the only candidate, and the chunk spells
    ``chars[base:base + m]`` over a stretch where every position but
    the last has ``i + 1`` as its only in-stretch successor — the first
    listed, since successors ascend.  The straight run accepts, and the
    budget-0 walk takes ``=`` after ``=`` along it.
    """
    if anchors is None or len(anchors) != 1:
        return False
    return lin.chars.startswith(chunk, base) \
        and lin.slice(base, base + len(chunk)).is_chain()


@dataclass
class _Extension:
    """One directional extension: flat ops plus consumed positions."""

    ops: list[str]
    path: list[int]
    edits: int = 0
    windows: int = 0
    rescues: int = 0
    dead_end_insertions: int = 0


class WindowedAligner:
    """Aligns arbitrarily long reads against a linearized subgraph.

    Args:
        config: windowing parameters.
        backend: alignment backend selection (a name from
            :func:`repro.align.backends.list_backends`, a backend
            instance, or None for the process default).  Windows run
            the diagonal kernel of :mod:`repro.core.bitalign` on every
            backend; a backend may take over hop-free windows above
            its ``chain_kernel_min_bits`` pattern width.  Results are
            bit-for-bit identical across backends.
    """

    def __init__(self, config: WindowingConfig | None = None,
                 backend=None) -> None:
        from repro.align.backends import resolve_backend

        self.config = config or WindowingConfig()
        self.backend = resolve_backend(backend)

    @property
    def backend_name(self) -> str:
        """Registry name of the active alignment backend."""
        return self.backend.name

    def align(
        self,
        lin: LinearizedGraph,
        read: str,
        anchor: tuple[int, int] | None = None,
        observer: WindowObserver | None = None,
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
            counters: optional stats object charged per kernel call
                (``align_calls``), window and rescue (see
                :class:`repro.core.pipeline.PipelineStats`).
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
        return self._align_item(lin, read, anchor, observer, counters,
                                math.inf if budget is None else budget)

    def align_many(
        self,
        items: "list[tuple[LinearizedGraph, str, tuple[int, int] | None]]",
        observer: WindowObserver | None = None,
        counters=None,
    ) -> list[WindowedAlignment]:
        """Windowed alignment of many ``(lin, read, anchor)`` items.

        Exactly :meth:`align` per item, in order: every window of every
        item goes through the one per-window kernel
        (:func:`repro.core.bitalign.bitalign`), so a result depends on
        nothing but its own item.
        """
        return [self._align_item(lin, read, anchor, observer, counters,
                                 math.inf)
                for lin, read, anchor in items]

    def _align_item(self, lin: LinearizedGraph, read: str,
                    anchor: tuple[int, int] | None,
                    observer: WindowObserver | None,
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
        right = self._extend(lin, read[anchor_read:], anchors,
                             observer, counters, budget)
        parts = [right]
        ops, path = right.ops, right.path
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
                observer, counters, budget - right.edits)
            parts.append(left)
            read_start -= len(left.ops) - left.ops.count("D")
            ops = list(reversed(left.ops)) + ops
            path = [n - 1 - p for p in reversed(left.path)] + path
        cigar = Cigar.from_ops(ops)
        return WindowedAlignment(
            distance=cigar.edit_distance,
            cigar=cigar,
            path=tuple(path),
            reference="".join(lin.chars[p] for p in path),
            windows=sum(part.windows for part in parts),
            rescues=sum(part.rescues for part in parts),
            dead_end_insertions=sum(part.dead_end_insertions
                                    for part in parts),
            read_start=read_start,
            abandoned=cigar.edit_distance > budget,
        )

    def _extend(
        self,
        lin: LinearizedGraph,
        read: str,
        anchors: list[int] | None,
        observer: WindowObserver | None,
        counters,
        budget: float,
    ) -> _Extension:
        """Forward windowing loop: an exact window
        (:func:`_is_exact_window`) commits its ``=`` run, charged to
        ``counters.windows_exact``; every other window attempt is one
        :func:`~repro.core.bitalign.bitalign` call, charged to
        ``counters.align_calls``.

        ``anchors`` restricts the allowed start positions of the first
        window (None = search every position of the whole region, the
        un-anchored fitting mode).  It stops once the committed edits
        exceed ``budget``.
        """
        extension = _Extension(ops=[], path=[])
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
                extension.ops.extend("I" * remaining)
                extension.edits += remaining
                extension.dead_end_insertions += remaining
                break

            k = min(self.config.k, len(chunk))
            # Commit everything for the final window, the first
            # chunk-minus-overlap read characters otherwise.
            commit_target = len(chunk) if is_final \
                else max(1, len(chunk) - overlap)
            ops_before = len(extension.ops)
            rescued = False
            # Rung 0: the kernel's answer is known, so commit it as a
            # run (the window is built for the observer only).
            if _is_exact_window(lin, chunk, anchors, base):
                if counters is not None:
                    counters.windows_exact += 1
                extension.ops.extend("=" * commit_target)
                extension.path.extend(range(base, base + commit_target))
                committed_read = commit_target
                last_consumed: int | None = base + commit_target - 1
                if observer is not None:
                    window = lin.slice(
                        base, min(len(lin), base + len(chunk) + k))
            else:
                while True:
                    if first_window and anchors is None:
                        # Un-anchored start discovery: the whole region.
                        text_end = len(lin)
                    else:
                        text_end = min(len(lin), base + len(chunk) + k)
                    window = lin.slice(base, text_end)
                    # ``base == min(anchors)`` and the window is never
                    # empty, so local anchor 0 always survives the
                    # filter.
                    local_anchors = None if anchors is None else \
                        [a - base for a in anchors
                         if a - base < len(window)]
                    if counters is not None:
                        counters.align_calls += 1
                    result = bitalign(window, chunk, k,
                                      anchors=local_anchors,
                                      backend=self.backend)
                    if result is not None:
                        break
                    if k >= len(chunk):
                        raise AssertionError(
                            "window alignment failed at k == chunk length"
                        )  # pragma: no cover - insertion chain guarantees it
                    if observer is not None:
                        observer(WindowEvent(
                            text_length=len(window),
                            chunk_length=len(chunk),
                            k=k, rescued=rescued,
                            hops_in_window=_count_hops(window),
                            ops_committed=0,
                        ))
                    k = min(len(chunk), k * 2)
                    extension.rescues += 1
                    rescued = True
                committed_read = 0
                path_cursor = 0
                last_consumed = None
                for op in result.cigar.expand():
                    if committed_read >= commit_target:
                        break
                    extension.ops.append(op)
                    if op != "=":
                        extension.edits += 1
                    if op in "=XD":
                        last_consumed = result.path[path_cursor] + base
                        extension.path.append(last_consumed)
                        path_cursor += 1
                    if op in "=XI":
                        committed_read += 1
            extension.windows += 1
            first_window = False
            pos_pat += committed_read
            if observer is not None:
                observer(WindowEvent(
                    text_length=len(window),
                    chunk_length=len(chunk),
                    k=k, rescued=rescued,
                    hops_in_window=_count_hops(window),
                    ops_committed=len(extension.ops) - ops_before,
                ))
            if last_consumed is not None:
                anchors = list(lin.successors_of(last_consumed))
            # else: nothing consumed (pure insertions) — anchors stay.

        if counters is not None:
            counters.windows += extension.windows
            counters.rescues += extension.rescues
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
