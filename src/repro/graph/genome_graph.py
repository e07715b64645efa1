"""Directed acyclic genome graph with the SeGraM memory layout.

A :class:`GenomeGraph` stores one or more base pairs per node and
directed edges between nodes (paper Fig. 1).  The accelerator-facing
representation (paper Fig. 5) consists of three tables:

* the **node table** — one 32 B entry per node holding the sequence
  length, the starting index into the character table, the outgoing edge
  count and the starting index into the edge table;
* the **character table** — 2 bits per base of node sequence;
* the **edge table** — one 4 B entry per outgoing edge.

:meth:`GenomeGraph.tables` materializes that layout (as numpy arrays)
and reports its memory footprint, which the hardware model and the
pre-processing benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro import seq as seqmod

#: Bytes per node-table entry (paper Section 5).
NODE_TABLE_ENTRY_BYTES = 32

#: Bytes per edge-table entry (paper Section 5).
EDGE_TABLE_ENTRY_BYTES = 4

#: Bits per character-table entry (paper Section 5).
CHAR_TABLE_ENTRY_BITS = 2


class GraphError(ValueError):
    """Raised on structurally invalid graph operations."""


class CycleError(GraphError):
    """Raised when a cycle prevents topological sorting."""


@dataclass(frozen=True)
class Node:
    """One graph node: an integer ID and the sequence it spells."""

    node_id: int
    sequence: str

    def __post_init__(self) -> None:
        if not self.sequence:
            raise GraphError(f"node {self.node_id} has an empty sequence")

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class GraphTables:
    """The three-table memory layout of the graph-based reference.

    Mirrors paper Fig. 5.  ``node_table`` columns are (sequence length,
    character-table start index, outgoing edge count, edge-table start
    index); ``char_table`` holds one 2-bit code per base (stored in a
    uint8 for addressability); ``edge_table`` holds destination node IDs.
    """

    node_table: np.ndarray
    char_table: np.ndarray
    edge_table: np.ndarray

    @property
    def node_table_bytes(self) -> int:
        """Footprint of the node table: #nodes * 32 B."""
        return len(self.node_table) * NODE_TABLE_ENTRY_BYTES

    @property
    def char_table_bytes(self) -> int:
        """Footprint of the character table: total length * 2 bits."""
        return (len(self.char_table) * CHAR_TABLE_ENTRY_BITS + 7) // 8

    @property
    def edge_table_bytes(self) -> int:
        """Footprint of the edge table: #edges * 4 B."""
        return len(self.edge_table) * EDGE_TABLE_ENTRY_BYTES

    @property
    def total_bytes(self) -> int:
        """Total main-memory footprint of the graph-based reference."""
        return (self.node_table_bytes + self.char_table_bytes
                + self.edge_table_bytes)


class GenomeGraph:
    """A mutable DAG of sequence nodes with forward edges.

    Nodes are identified by dense integer IDs.  The graph used by the
    aligner must be *topologically sorted*: every edge (u, v) satisfies
    u < v in node-ID order.  :meth:`topologically_sorted` returns a
    renumbered copy with that property (the ``vg ids -s`` equivalent).
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._sequences: list[str] = []
        self._out: list[list[int]] = []
        self._in: list[list[int]] = []
        # Derived from ``_sequences`` on first use; ``add_node`` resets.
        self._offsets: list[int] | None = None
        self._total_length: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, sequence: str) -> int:
        """Add a node; returns its assigned ID."""
        if not sequence:
            raise GraphError("node sequence must not be empty")
        sequence = seqmod.validate(sequence, "node sequence")
        node_id = len(self._sequences)
        self._sequences.append(sequence)
        self._out.append([])
        self._in.append([])
        self._offsets = None
        self._total_length = None
        return node_id

    def add_edge(self, src: int, dst: int) -> None:
        """Add a directed edge from ``src`` to ``dst`` (idempotent)."""
        self._check_id(src)
        self._check_id(dst)
        if src == dst:
            raise GraphError(f"self-loop on node {src} is not allowed")
        if dst not in self._out[src]:
            self._out[src].append(dst)
            self._in[dst].append(src)

    @classmethod
    def _restore(
        cls,
        name: str,
        sequences: list[str],
        out_edges: list[list[int]],
    ) -> "GenomeGraph":
        """Rebuild a graph from trusted, pre-validated parts.

        Fast path for artifact loading (:mod:`repro.io.artifact`): the
        sequences were validated ACGT at original construction and the
        checksummed artifact preserves them, so re-validating every
        base (and re-deduplicating every edge) would only slow down
        the O(ms) attach.  In-edge lists are derived, not stored.
        """
        if len(out_edges) != len(sequences):
            raise GraphError(
                f"edge lists for {len(out_edges)} nodes but "
                f"{len(sequences)} sequences"
            )
        graph = cls(name=name)
        graph._sequences = sequences
        graph._out = out_edges
        graph._in = [[] for _ in sequences]
        for src, dsts in enumerate(out_edges):
            for dst in dsts:
                graph._in[dst].append(src)
        return graph

    @classmethod
    def from_linear(cls, sequence: str, name: str = "linear",
                    node_length: int = 0) -> "GenomeGraph":
        """Build the chain graph of a linear reference.

        Sequence-to-sequence mapping is the special case of a graph where
        every node has exactly one outgoing edge (paper Section 9).  With
        ``node_length == 0`` the whole sequence becomes a single node;
        otherwise it is chunked into nodes of at most ``node_length``
        bases.
        """
        if not sequence:
            raise GraphError("linear reference must not be empty")
        graph = cls(name=name)
        if node_length <= 0:
            graph.add_node(sequence)
            return graph
        previous = None
        for start in range(0, len(sequence), node_length):
            node = graph.add_node(sequence[start:start + node_length])
            if previous is not None:
                graph.add_edge(previous, node)
            previous = node
        return graph

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def _check_id(self, node_id: int) -> None:
        if not 0 <= node_id < len(self._sequences):
            raise GraphError(f"unknown node ID {node_id}")

    @property
    def node_count(self) -> int:
        return len(self._sequences)

    @property
    def edge_count(self) -> int:
        return sum(len(dsts) for dsts in self._out)

    @property
    def total_sequence_length(self) -> int:
        """Total number of bases stored across all nodes."""
        if self._total_length is None:
            self._total_length = sum(len(s) for s in self._sequences)
        return self._total_length

    def node(self, node_id: int) -> Node:
        self._check_id(node_id)
        return Node(node_id, self._sequences[node_id])

    def sequence_of(self, node_id: int) -> str:
        self._check_id(node_id)
        return self._sequences[node_id]

    def successors(self, node_id: int) -> Sequence[int]:
        self._check_id(node_id)
        return tuple(self._out[node_id])

    def predecessors(self, node_id: int) -> Sequence[int]:
        self._check_id(node_id)
        return tuple(self._in[node_id])

    def nodes(self) -> Iterator[Node]:
        for node_id, sequence in enumerate(self._sequences):
            yield Node(node_id, sequence)

    def edges(self) -> Iterator[tuple[int, int]]:
        for src, dsts in enumerate(self._out):
            for dst in dsts:
                yield (src, dst)

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------

    def offsets(self) -> list[int]:
        """Per-node starting offset in the concatenated character space.

        Node n's bases occupy ``[offsets[n], offsets[n] + len(n))`` in a
        global coordinate system that concatenates node sequences in
        node-ID order.  Valid as a linear coordinate system only for a
        topologically sorted graph.
        """
        if self._offsets is None:
            offsets = []
            position = 0
            for sequence in self._sequences:
                offsets.append(position)
                position += len(sequence)
            self._offsets = offsets
        return list(self._offsets)

    def node_at_offset(self, offset: int) -> tuple[int, int]:
        """Map a global character offset to (node ID, offset in node)."""
        total = self.total_sequence_length
        if not 0 <= offset < total:
            raise GraphError(
                f"offset {offset} outside character space [0, {total})"
            )
        offsets = self.offsets()
        # Binary search for the rightmost node start <= offset.
        lo, hi = 0, len(offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if offsets[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo, offset - offsets[lo]

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def is_topologically_sorted(self) -> bool:
        """True when every edge goes from a lower to a higher node ID."""
        return all(src < dst for src, dst in self.edges())

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; raises :class:`CycleError` on cycles.

        Ties are broken by node ID so the order is deterministic.
        """
        indegree = [len(self._in[n]) for n in range(self.node_count)]
        import heapq

        ready = [n for n, d in enumerate(indegree) if d == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for succ in self._out[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != self.node_count:
            raise CycleError("graph contains a cycle")
        return order

    def topologically_sorted(self) -> "GenomeGraph":
        """Return a copy renumbered into topological order.

        This is the ``vg ids -s`` pre-processing step (paper Section 5):
        BitAlign requires node IDs to be a topological order so that all
        bitvectors a node depends on are produced before it is processed.
        """
        order = self.topological_order()
        rank = {old: new for new, old in enumerate(order)}
        sorted_graph = GenomeGraph(name=self.name)
        for old in order:
            sorted_graph.add_node(self._sequences[old])
        for src, dst in self.edges():
            sorted_graph.add_edge(rank[src], rank[dst])
        # Keep successor lists sorted for deterministic traversal.
        for dsts in sorted_graph._out:
            dsts.sort()
        for srcs in sorted_graph._in:
            srcs.sort()
        return sorted_graph

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError`.

        Verifies that the graph is a DAG and that adjacency lists are
        mutually consistent.
        """
        self.topological_order()
        for src, dsts in enumerate(self._out):
            if len(set(dsts)) != len(dsts):
                raise GraphError(f"duplicate out-edges on node {src}")
            for dst in dsts:
                if src not in self._in[dst]:
                    raise GraphError(
                        f"edge ({src}, {dst}) missing from in-edge list"
                    )

    # ------------------------------------------------------------------
    # Paths and extraction
    # ------------------------------------------------------------------

    def spell_path(self, path: Sequence[int]) -> str:
        """Concatenate node sequences along a path, validating edges."""
        if not path:
            return ""
        pieces = [self.sequence_of(path[0])]
        for src, dst in zip(path, path[1:]):
            if dst not in self._out[src]:
                raise GraphError(f"no edge ({src}, {dst}) on path")
            pieces.append(self.sequence_of(dst))
        return "".join(pieces)

    def extract_region(self, start_offset: int,
                       end_offset: int) -> tuple["GenomeGraph", list[int]]:
        """Extract the subgraph overlapping ``[start_offset, end_offset)``.

        Offsets are in the global character space of :meth:`offsets`.
        Returns the subgraph (IDs renumbered densely, order preserved)
        and the list of original node IDs, so callers can map alignment
        coordinates back to the full graph.  Node sequences are *not*
        trimmed: a node partially overlapping the window is included
        whole, which matches the seed-region fetch of MinSeed (the
        aligner sees whole graph nodes).
        """
        if start_offset >= end_offset:
            raise GraphError(
                f"empty region [{start_offset}, {end_offset})"
            )
        offsets = self.offsets()
        selected = [
            n for n in range(self.node_count)
            if offsets[n] < end_offset
            and offsets[n] + len(self._sequences[n]) > start_offset
        ]
        return self._extract_selected(
            selected, f"{self.name}[{start_offset}:{end_offset}]")

    def extract_node_range(self, first: int,
                           last: int) -> tuple["GenomeGraph", list[int]]:
        """Extract the subgraph of the contiguous node-ID range
        ``[first, last]`` (inclusive).

        For a topologically sorted graph, node offsets are cumulative
        in ID order, so the node set :meth:`extract_region` selects
        for a span is exactly a contiguous ID range — this method
        produces the identical subgraph in O(range) instead of the
        span variant's O(node_count) scan.  The mapping pipeline does
        not extract subgraphs (a region is a view of one whole-graph
        linearization); the tests build this subgraph as the reference
        a region view must equal.
        """
        if not 0 <= first <= last < self.node_count:
            raise GraphError(
                f"node range [{first}, {last}] outside "
                f"[0, {self.node_count})"
            )
        return self._extract_selected(
            list(range(first, last + 1)),
            f"{self.name}[nodes {first}:{last + 1}]")

    def _extract_selected(
        self, selected: list[int],
        name: str) -> tuple["GenomeGraph", list[int]]:
        """Materialize a subgraph from selected node IDs (renumbered
        densely, order preserved; edges leaving the set dropped)."""
        rank = {old: new for new, old in enumerate(selected)}
        sub = GenomeGraph(name=name)
        for old in selected:
            sub.add_node(self._sequences[old])
        for old in selected:
            for dst in self._out[old]:
                if dst in rank:
                    sub.add_edge(rank[old], rank[dst])
        return sub, selected

    # ------------------------------------------------------------------
    # Memory layout
    # ------------------------------------------------------------------

    def tables(self) -> GraphTables:
        """Materialize the node/character/edge table layout of Fig. 5."""
        node_table = np.zeros((self.node_count, 4), dtype=np.int64)
        char_codes: list[int] = []
        edge_entries: list[int] = []
        char_index = 0
        edge_index = 0
        for node_id, sequence in enumerate(self._sequences):
            out_edges = sorted(self._out[node_id])
            node_table[node_id] = (
                len(sequence), char_index, len(out_edges), edge_index,
            )
            char_codes.extend(seqmod.encode(sequence))
            edge_entries.extend(out_edges)
            char_index += len(sequence)
            edge_index += len(out_edges)
        return GraphTables(
            node_table=node_table,
            char_table=np.asarray(char_codes, dtype=np.uint8),
            edge_table=np.asarray(edge_entries, dtype=np.uint32),
        )

    def __repr__(self) -> str:
        return (
            f"GenomeGraph(name={self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count}, "
            f"bases={self.total_sequence_length})"
        )
