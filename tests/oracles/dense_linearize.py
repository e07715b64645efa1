"""Test oracle: the dense per-character linearization.

``LinearizedGraph`` used to store one successor tuple and two list
slots per base and to rebuild them for every ``slice`` and every
``reversed``, until the hop-sparse, view-based class of
:mod:`repro.graph.linearize` replaced it.  The class and
:func:`linearize` are kept here verbatim as the reference that the
property tests of ``tests/test_linearize.py`` and the pipeline parity
tests of ``tests/test_pipeline.py`` compare the sparse form against.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.genome_graph import GenomeGraph, GraphError


@dataclass
class LinearizedGraph:
    """A character-level linearized subgraph.

    Attributes:
        chars: the concatenated node sequences in topological order.
        successors: per character position, ascending linearized
            positions of successor characters.  Within-node successors
            always have distance 1; inter-node hops may be longer.
        node_ids: per character position, the owning graph node ID.
        node_offsets: per character position, the offset within its node.
        total_hops: inter-node hops encountered during linearization
            (before any hop-limit truncation).
        dropped_hops: hops discarded because they exceeded the hop limit.
        hop_limit: the limit applied (None = unlimited / exact).
    """

    chars: str
    successors: list[tuple[int, ...]]
    node_ids: list[int]
    node_offsets: list[int]
    total_hops: int = 0
    dropped_hops: int = 0
    hop_limit: int | None = None
    _reversed: "LinearizedGraph | None" = field(
        default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.chars)

    @property
    def hop_coverage(self) -> float:
        """Fraction of inter-node hops preserved under the hop limit."""
        if self.total_hops == 0:
            return 1.0
        return 1.0 - self.dropped_hops / self.total_hops

    def slice(self, start: int, end: int) -> "LinearizedGraph":
        """Clip to linearized positions ``[start, end)``.

        Successor positions outside the window are dropped (and counted
        as dropped hops); this is what the divide-and-conquer windowing
        of BitAlign does when it cuts the linearized subgraph into
        overlapping windows (paper Section 7).
        """
        if not 0 <= start < end <= len(self.chars):
            raise GraphError(
                f"invalid slice [{start}, {end}) of length {len(self.chars)}"
            )
        dropped = 0
        total = 0
        new_successors: list[tuple[int, ...]] = []
        for position in range(start, end):
            kept = []
            for succ in self.successors[position]:
                if succ - position > 1:
                    total += 1
                if succ < end:
                    kept.append(succ - start)
                elif succ - position > 1:
                    dropped += 1
            new_successors.append(tuple(kept))
        return LinearizedGraph(
            chars=self.chars[start:end],
            successors=new_successors,
            node_ids=self.node_ids[start:end],
            node_offsets=self.node_offsets[start:end],
            total_hops=total,
            dropped_hops=dropped,
            hop_limit=self.hop_limit,
        )

    def hopbits(self, max_size: int = 4096) -> np.ndarray:
        """Materialize the HopBits adjacency matrix (paper Fig. 12).

        ``hopbits[x, y]`` is True when there is an edge from linearized
        position x to position y.  Quadratic in size, so guarded by
        ``max_size`` — the hardware only ever builds this for one
        subgraph window at a time.
        """
        n = len(self.chars)
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

    def is_chain(self) -> bool:
        """True when the linearization is a plain linear sequence."""
        return all(
            succs == (position + 1,)
            for position, succs in enumerate(self.successors[:-1])
        ) and (not self.successors or self.successors[-1] == ())

    def reversed(self) -> "LinearizedGraph":
        """The edge-reversed view: successors become predecessors.

        Position ``p`` maps to ``len - 1 - p``; an edge (u, v) becomes
        (len-1-v, len-1-u), which stays forward-directed, so the view
        is again a valid topologically-ordered linearization.  The
        windowed aligner uses this for *left extension* from a seed:
        aligning the reversed read prefix forward on the reversed graph
        is exactly aligning the prefix backward on the original.

        Prefer :meth:`reversed_view` on hot paths — it memoizes the
        result on the instance, which pays off when the region cache
        reuses one linearization across many reads.
        """
        n = len(self.chars)
        successors = self.successors
        # A chain reverses onto itself — edge p -> p+1 becomes q -> q+1
        # with q = n-2-p — so start from the graph's own tuples and
        # rebuild only what the positions that are not chain-like
        # touch: O(n) C-level copying plus work per hop, where a
        # per-edge rebuild costs milliseconds on a 10 k-character
        # region.
        odd = [position for position, succs in enumerate(successors)
               if succs != (position + 1,)]
        rev_successors = list(successors)
        sources: dict[int, list[int]] = {}
        for position in odd:
            # Back to the chain's value (the last position, always
            # odd, has none) before the touched ones are redone.
            rev_successors[position] = \
                (position + 1,) if position < n - 1 else ()
            for succ in successors[position]:
                sources.setdefault(succ, []).append(position)
        chain_broken = set(odd)
        for target in sources.keys() | {p + 1 for p in odd if p + 1 < n}:
            # Predecessors in ascending order: the listed odd ones
            # (visited ascending, all below the target), then
            # target - 1 when it is chain-like.
            preds = sources.get(target, [])
            if target and target - 1 not in chain_broken:
                preds = [*preds, target - 1]
            rev_successors[n - 1 - target] = tuple(
                n - 1 - pred for pred in reversed(preds))
        return LinearizedGraph(
            chars=self.chars[::-1],
            successors=rev_successors,
            node_ids=list(reversed(self.node_ids)),
            node_offsets=list(reversed(self.node_offsets)),
            total_hops=self.total_hops,
            dropped_hops=self.dropped_hops,
            hop_limit=self.hop_limit,
        )

    def reversed_view(self) -> "LinearizedGraph":
        """Memoized :meth:`reversed` — computed once per instance."""
        if self._reversed is None:
            self._reversed = self.reversed()
        return self._reversed


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
    successors: list[tuple[int, ...]] = []
    node_ids: list[int] = []
    node_offsets: list[int] = []
    total_hops = 0
    dropped_hops = 0

    for node in graph.nodes():
        start = offsets[node.node_id]
        length = len(node.sequence)      # >= 1: Node rejects empty
        last = start + length - 1
        chars.append(node.sequence)
        node_ids.extend([node.node_id] * length)
        node_offsets.extend(range(length))
        successors.extend([(position,)
                           for position in range(start + 1, last + 1)])
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
        successors.append(tuple(sorted(hop_targets)))

    return LinearizedGraph(
        chars="".join(chars),
        successors=successors,
        node_ids=node_ids,
        node_offsets=node_offsets,
        total_hops=total_hops,
        dropped_hops=dropped_hops,
        hop_limit=hop_limit,
    )

# ----------------------------------------------------------------------
# What the kernel and the cycle simulator read off the dense successor
# lists (``repro.core.bitalign._hop_distances`` and
# ``repro.hw.simulator._count_hops`` before they took a range query).
# ----------------------------------------------------------------------

def hop_distances(
    successors: list[tuple[int, ...]],
) -> dict[int, tuple[int, ...]]:
    """Successor distances of every position that is not chain-like.

    A chain-like position has the single successor ``i + 1``; for the
    last position that is the virtual row.  Any other dead end points
    at the virtual row too, at distance ``n - i``.  Empty for a chain.
    """
    n = len(successors)
    hops: dict[int, tuple[int, ...]] = {}
    for i, succs in enumerate(successors):
        if succs != (i + 1,):
            distances = tuple(s - i for s in succs) or (n - i,)
            if distances != (1,):
                hops[i] = distances
    return hops


def count_hops(successors: list[tuple[int, ...]]) -> int:
    """Inter-character hops (successor distance > 1) in a window."""
    return sum(
        1
        for position, succs in enumerate(successors)
        for succ in succs
        if succ - position > 1
    )
