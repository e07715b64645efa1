"""Character-level linearization of (sub)graphs for BitAlign.

BitAlign operates on a *linearized, topologically sorted* subgraph in
which every element holds exactly one character (paper Fig. 12 and
Algorithm 1).  :func:`linearize` expands a multi-character-per-node
genome graph into that representation:

* characters appear in node-ID order (a topological order of the graph),
  characters within a node in sequence order;
* each character's successors are the next character of its node, or —
  for a node's last character — the first characters of the node's
  graph successors (*hops*);
* the hop distance of a successor is its linearized-position delta; the
  hardware's hop queue registers bound this distance (the *hop limit*,
  12 in the paper, covering >99 % of hops — Fig. 13).

The module also computes hop-length statistics for whole graphs, which
the Fig. 13 benchmark sweeps.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Sequence

import numpy as np

from repro.graph.genome_graph import GenomeGraph, GraphError


class _HopTables:
    """What every view of one linearization shares: the sparse
    successor table, its mirror, and the node boundaries."""

    __slots__ = ("succ", "succ_at", "pred", "pred_at",
                 "run_starts", "run_ids", "run_offsets")

    def __init__(self, size: int, succ: dict[int, tuple[int, ...]],
                 run_starts: Sequence[int], run_ids: Sequence[int],
                 run_offsets: Sequence[int]) -> None:
        self.succ = succ
        self.succ_at = sorted(succ)
        self.pred = _predecessor_table(succ, self.succ_at, size)
        self.pred_at = sorted(self.pred)
        self.run_starts = run_starts
        self.run_ids = run_ids
        self.run_offsets = run_offsets


def _predecessor_table(succ: dict[int, tuple[int, ...]],
                       succ_at: list[int],
                       size: int) -> dict[int, tuple[int, ...]]:
    """The mirror of a sparse successor table: the ascending
    predecessors of every position whose predecessor set is not
    ``(i - 1,)`` (position 0, which has none, included)."""
    sources: dict[int, list[int]] = {}
    for position in succ_at:
        for target in succ[position]:
            sources.setdefault(target, []).append(position)
    touched = sources.keys() | {p + 1 for p in succ_at if p + 1 < size}
    if size:
        touched.add(0)
    pred: dict[int, tuple[int, ...]] = {}
    for target in touched:
        # The listed sources were visited ascending and all lie below
        # ``target - 1``, which follows them when it is chain-like.
        preds = sources.get(target, [])
        if target and target - 1 not in succ:
            preds.append(target - 1)
        if preds != [target - 1]:
            pred[target] = tuple(preds)
    return pred


class LinearizedGraph:
    """A character-level linearized subgraph, or a view of one.

    **Sparse storage.**  Almost every character's only successor is
    the next character, so successors are stored *only* for the
    positions where that is not so (a node end with a hop, several
    out-edges or none) — the software form of HopBits, which the
    hardware consults only where a hop exists (paper Fig. 12–13) —
    together with the mirrored predecessor table and the sorted
    node-start positions.  :meth:`slice` and :meth:`reversed_view`
    return *views*: an address range into the same tables (paper
    Section 5, Fig. 5) plus a direction, never a copy of them.  Ask
    :meth:`successors_of`, :meth:`hop_sources` and :meth:`node_at`;
    the dense per-position lists ``successors`` / ``node_ids`` /
    ``node_offsets`` are rebuilt on every access and exist for test
    oracles and the cycle model only.

    The constructor takes that dense form (one entry per character)
    and compresses it; :func:`linearize` builds the sparse form
    directly through :meth:`from_hops`.

    Attributes:
        chars: the view's characters in order (for the root, the
            concatenated node sequences in topological order).
        hop_limit: the limit applied (None = unlimited / exact).
    """

    __slots__ = ("chars", "hop_limit", "_tables", "_lo", "_hi",
                 "_flipped", "_cut", "_counts", "_reversed")

    def __init__(self, chars: str,
                 successors: Sequence[Sequence[int]],
                 node_ids: Sequence[int],
                 node_offsets: Sequence[int],
                 total_hops: int = 0, dropped_hops: int = 0,
                 hop_limit: int | None = None) -> None:
        hops = {}
        for position, succs in enumerate(successors):
            if tuple(succs) != (position + 1,):
                hops[position] = tuple(succs)
        starts: list[int] = []
        ids: list[int] = []
        offsets: list[int] = []
        for position, (node, offset) in enumerate(zip(node_ids,
                                                      node_offsets)):
            if not starts or node != ids[-1] \
                    or offset != offsets[-1] + position - starts[-1]:
                starts.append(position)
                ids.append(node)
                offsets.append(offset)
        self._bind(chars, hop_limit,
                   _HopTables(len(chars), hops, starts, ids, offsets),
                   0, len(chars), False, None, (total_hops, dropped_hops))

    @classmethod
    def from_hops(cls, chars: str, hops: dict[int, tuple[int, ...]],
                  node_starts: Sequence[int],
                  total_hops: int = 0, dropped_hops: int = 0,
                  hop_limit: int | None = None) -> "LinearizedGraph":
        """The sparse form directly.

        ``hops`` maps every position whose successor set is not
        ``(position + 1,)`` to that (ascending) set; ``node_starts``
        are the first positions of nodes 0, 1, ... in order.
        """
        tables = _HopTables(len(chars), hops, node_starts,
                            range(len(node_starts)),
                            [0] * len(node_starts))
        return object.__new__(cls)._bind(
            chars, hop_limit, tables, 0, len(chars), False, None,
            (total_hops, dropped_hops))

    def _bind(self, chars: str, hop_limit: int | None,
              tables: _HopTables, lo: int, hi: int, flipped: bool,
              cut: "tuple[LinearizedGraph, int, int] | None",
              counts: tuple[int, int] | None) -> "LinearizedGraph":
        """Positions ``[lo, hi)`` of ``tables``, read backward when
        ``flipped``.  ``counts`` is ``(total_hops, dropped_hops)`` when
        known; otherwise ``cut`` names the ``(parent, start, end)``
        slice they are counted from on first use."""
        self.chars = chars
        self.hop_limit = hop_limit
        self._tables = tables
        self._lo, self._hi, self._flipped = lo, hi, flipped
        self._cut = cut
        self._counts = counts
        self._reversed = None
        return self

    def _view(self, chars: str, lo: int, hi: int, flipped: bool,
              cut, counts) -> "LinearizedGraph":
        """Another range and direction over this graph's tables."""
        return object.__new__(LinearizedGraph)._bind(
            chars, self.hop_limit, self._tables, lo, hi, flipped, cut,
            counts)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __repr__(self) -> str:
        return (f"LinearizedGraph({len(self)} characters, "
                f"{len(self.hop_sources())} hop sources"
                f"{', reversed' if self._flipped else ''})")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def successors_of(self, position: int) -> tuple[int, ...]:
        """Ascending successor positions of ``position``, both in
        this view's coordinates; successors outside the view are
        dropped."""
        tables, lo, hi = self._tables, self._lo, self._hi
        if self._flipped:
            # Position p of the view is table position hi - 1 - p, and
            # its successors are that position's predecessors.
            top = hi - 1
            preds = tables.pred.get(top - position)
            if preds is None:
                return (position + 1,) if top - position > lo else ()
            return tuple(top - pred for pred in reversed(preds)
                         if pred >= lo)
        succs = tables.succ.get(lo + position)
        if succs is None:
            return (position + 1,) if lo + position + 1 < hi else ()
        return tuple(succ - lo for succ in succs if succ < hi)

    def hop_sources(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(position, successors)`` of every position whose
        successor set in this view is not ``(position + 1,)``,
        ascending: the hop sources, the dead ends and — always — the
        last position.  One range query over the sorted special
        positions, so a chain window costs two bisects."""
        tables, lo, hi = self._tables, self._lo, self._hi
        if self._flipped:
            at = tables.pred_at
            special = [hi - 1 - position for position in reversed(
                at[bisect_left(at, lo):bisect_left(at, hi)])]
        else:
            at = tables.succ_at
            special = [position - lo for position in
                       at[bisect_left(at, lo):bisect_left(at, hi)]]
        last = hi - lo - 1
        if last >= 0 and (not special or special[-1] != last):
            special.append(last)
        return [(position, succs) for position in special
                if (succs := self.successors_of(position))
                != (position + 1,)]

    def is_chain(self) -> bool:
        """True when the linearization is a plain linear sequence."""
        return len(self.hop_sources()) <= 1

    def is_straight(self, start: int, end: int) -> bool:
        """True when every position in ``[start, end)`` has the next
        position as its only successor in the whole linearization this
        view reads (its reversal, for a reversed view).  Unlike
        :meth:`is_chain` of a slice, successors outside the view
        count; the view's own edges cut nothing.  Two bisects over the
        sorted special positions."""
        if not 0 <= start <= end <= len(self):
            raise GraphError(
                f"invalid range [{start}, {end}) of length {len(self)}"
            )
        tables = self._tables
        if self._flipped:
            at, lo, hi = tables.pred_at, self._hi - end, self._hi - start
        else:
            at, lo, hi = tables.succ_at, self._lo + start, self._lo + end
        return bisect_left(at, lo) == bisect_left(at, hi)

    def node_at(self, position: int) -> tuple[int, int]:
        """``(node ID, offset within the node)`` of ``position``."""
        tables = self._tables
        at = self._hi - 1 - position if self._flipped \
            else self._lo + position
        run = bisect_right(tables.run_starts, at) - 1
        return (tables.run_ids[run],
                tables.run_offsets[run] + at - tables.run_starts[run])

    # ------------------------------------------------------------------
    # Derived dense form (test oracles and the cycle model)
    # ------------------------------------------------------------------

    @property
    def successors(self) -> list[tuple[int, ...]]:
        """Per position, its ascending successor positions."""
        return [self.successors_of(position)
                for position in range(len(self))]

    @property
    def node_ids(self) -> list[int]:
        """Per position, the owning graph node ID."""
        return [self.node_at(position)[0]
                for position in range(len(self))]

    @property
    def node_offsets(self) -> list[int]:
        """Per position, the offset within its node."""
        return [self.node_at(position)[1]
                for position in range(len(self))]

    # ------------------------------------------------------------------
    # Hop statistics
    # ------------------------------------------------------------------

    def _hop_counts(self) -> tuple[int, int]:
        """``(total, dropped)``, counted on first use for a slice: the
        hops (successor distance > 1) that leave a position of the
        cut in the graph it was cut from, and those of them that end
        beyond the cut."""
        if self._counts is None:
            parent, start, end = self._cut
            targets = [succ for position, succs in parent.hop_sources()
                       if start <= position < end
                       for succ in succs if succ - position > 1]
            self._counts = (len(targets),
                            sum(succ >= end for succ in targets))
        return self._counts

    @property
    def total_hops(self) -> int:
        """Inter-node hops encountered during linearization (before
        any hop-limit truncation); for a slice, the hops leaving its
        positions in the graph it was cut from."""
        return self._hop_counts()[0]

    @property
    def dropped_hops(self) -> int:
        """Hops discarded because they exceeded the hop limit or, for
        a slice, ended beyond it."""
        return self._hop_counts()[1]

    @property
    def hop_coverage(self) -> float:
        """Fraction of inter-node hops preserved under the hop limit."""
        if self.total_hops == 0:
            return 1.0
        return 1.0 - self.dropped_hops / self.total_hops

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def slice(self, start: int, end: int) -> "LinearizedGraph":
        """The view of positions ``[start, end)``.

        Successor positions outside the window are dropped (and counted
        as dropped hops); this is what the divide-and-conquer windowing
        of BitAlign does when it cuts the linearized subgraph into
        overlapping windows (paper Section 7).  Costs one string slice
        — the tables are shared, not copied.
        """
        if not 0 <= start < end <= len(self):
            raise GraphError(
                f"invalid slice [{start}, {end}) of length {len(self)}"
            )
        if self._flipped:
            lo, hi = self._hi - end, self._hi - start
        else:
            lo, hi = self._lo + start, self._lo + end
        return self._view(self.chars[start:end], lo, hi, self._flipped,
                          cut=(self, start, end), counts=None)

    def reversed_view(self) -> "LinearizedGraph":
        """The edge-reversed view: successors become predecessors.

        Position ``p`` maps to ``len - 1 - p``; an edge (u, v) becomes
        (len-1-v, len-1-u), which stays forward-directed, so the view
        is again a valid topologically-ordered linearization.  The
        windowed aligner uses this for *left extension* from a seed:
        aligning the reversed read prefix forward on the reversed graph
        is exactly aligning the prefix backward on the original.

        The same address range read through the predecessor table;
        built once per instance (the reversed string is the only
        copy).
        """
        if self._reversed is None:
            self._reversed = self._view(
                self.chars[::-1], self._lo, self._hi,
                not self._flipped, cut=self._cut, counts=self._counts)
        return self._reversed

    def hopbits(self, max_size: int = 4096) -> np.ndarray:
        """Materialize the HopBits adjacency matrix (paper Fig. 12).

        ``hopbits[x, y]`` is True when there is an edge from linearized
        position x to position y.  Quadratic in size, so guarded by
        ``max_size`` — the hardware only ever builds this for one
        subgraph window at a time.
        """
        n = len(self)
        if n > max_size:
            raise GraphError(
                f"refusing to materialize {n}x{n} HopBits matrix "
                f"(max_size={max_size})"
            )
        bits = np.zeros((n, n), dtype=bool)
        for position, succs in enumerate(self.successors):
            for succ in succs:
                bits[position, succ] = True
        return bits


def linearize(graph: GenomeGraph,
              hop_limit: int | None = None) -> LinearizedGraph:
    """Linearize a topologically sorted graph to character level.

    Args:
        graph: a topologically sorted genome graph (every edge from a
            lower to a higher node ID).  Raises :class:`GraphError`
            otherwise, because linearized successor positions must all
            point forward.
        hop_limit: optional maximum successor distance (in linearized
            characters).  Hops longer than this are dropped, exactly as
            the hardware's bounded hop queue does; ``None`` keeps all
            hops (exact alignment).
    """
    if not graph.is_topologically_sorted():
        raise GraphError(
            "linearize requires a topologically sorted graph; call "
            "topologically_sorted() first"
        )
    if hop_limit is not None and hop_limit < 1:
        raise GraphError(f"hop_limit must be >= 1, got {hop_limit}")

    offsets = graph.offsets()
    chars: list[str] = []
    hops: dict[int, tuple[int, ...]] = {}
    total_hops = 0
    dropped_hops = 0

    for node in graph.nodes():
        # Only a node's last character can have anything but the next
        # character as its successor (length >= 1: Node rejects empty).
        last = offsets[node.node_id] + len(node.sequence) - 1
        chars.append(node.sequence)
        hop_targets = []
        for succ_node in graph.successors(node.node_id):
            target = offsets[succ_node]
            distance = target - last
            if distance > 1:
                total_hops += 1
            if hop_limit is not None and distance > hop_limit:
                dropped_hops += 1
                continue
            hop_targets.append(target)
        if hop_targets != [last + 1]:
            hops[last] = tuple(sorted(hop_targets))

    return LinearizedGraph.from_hops(
        "".join(chars), hops, offsets,
        total_hops=total_hops, dropped_hops=dropped_hops,
        hop_limit=hop_limit,
    )


def hop_length_distribution(graph: GenomeGraph) -> Counter:
    """Histogram of inter-node hop distances for a whole graph.

    The distance of an edge (u, v) is measured between the linearized
    position of u's last character and v's first character — the number
    of hop-queue slots the hardware needs to serve that edge.  Distance
    1 (adjacent characters) is *not* a hop and is excluded.
    """
    if not graph.is_topologically_sorted():
        raise GraphError("hop statistics require a topologically sorted "
                         "graph")
    offsets = graph.offsets()
    histogram: Counter = Counter()
    for src, dst in graph.edges():
        src_last = offsets[src] + len(graph.sequence_of(src)) - 1
        distance = offsets[dst] - src_last
        if distance > 1:
            histogram[distance] += 1
    return histogram


def hop_coverage(graph: GenomeGraph,
                 limits: Sequence[int]) -> dict[int, float]:
    """Fraction of hops covered at each hop limit (paper Fig. 13).

    Returns ``{limit: fraction}`` where fraction is the share of
    inter-node hops whose distance is <= limit.  With no hops at all the
    coverage is 1.0 by definition (a linear genome).
    """
    histogram = hop_length_distribution(graph)
    total = sum(histogram.values())
    coverage: dict[int, float] = {}
    for limit in limits:
        if total == 0:
            coverage[limit] = 1.0
        else:
            covered = sum(count for distance, count in histogram.items()
                          if distance <= limit)
            coverage[limit] = covered / total
    return coverage
