"""Multi-contig references: :class:`Contig` and :class:`ReferenceSet`.

Real aligners serve references made of many sequences — chromosomes,
scaffolds, decoys — yet SeGraM's machinery (one graph, one index, one
coordinate space) was hard-wired to a single contig.  This module
closes that gap without touching the paper's datapath:

* a :class:`Contig` names one reference sequence, backed either by a
  **linear** sequence (plus optional variants, built into a variation
  graph exactly like :func:`repro.graph.builder.build_graph`) or by a
  pre-built **genome graph** (e.g. loaded from GFA);
* a :class:`ReferenceSet` concatenates N contigs into **one combined
  genome graph** with no inter-contig edges.  Node IDs and the global
  character space are partitioned contiguously per contig, so *one*
  shared minimizer index (paper Section 6) covers every contig, and
  seed hits bucket back to their contig with a binary search.

Coordinate translation is the heart of the class: seeding and
alignment run in the combined graph's global character/node space,
while every user-facing coordinate is ``(contig, offset)``:

* :meth:`ReferenceSet.contig_of_node` / :meth:`contig_of_char` —
  global -> contig bucketing;
* :meth:`ReferenceSet.project` — ``(node, offset-in-node)`` to
  ``(contig name, contig-local linear position)`` (None position for
  graph-backed contigs, which have no linear projection);
* :meth:`ReferenceSet.char_span` / :meth:`char_spans` — each contig's
  half-open interval of the global character space, used by MinSeed
  to clamp seed-extension regions at contig boundaries so no
  candidate region (and therefore no alignment) ever spans two
  contigs.

A single-contig :class:`ReferenceSet` reproduces the legacy
single-reference mapper **bit for bit**: the combined graph, the
index, and the clamping all degenerate to exactly what
:meth:`repro.core.mapper.SeGraM.from_reference` builds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.graph.builder import Variant, build_graph
from repro.graph.genome_graph import GenomeGraph
from repro.io.vcf import VcfRecord


class ReferenceSetError(ValueError):
    """Raised on inconsistent contig or reference-set construction."""


@dataclass(frozen=True)
class Contig:
    """One named reference sequence of a :class:`ReferenceSet`.

    Exactly one backing must be provided:

    * **linear** — ``sequence`` (the backbone) plus optional
      ``variants``; the contig is built into a variation graph and
      mapped results in it carry a contig-local linear projection;
    * **graph** — a pre-built :class:`~repro.graph.genome_graph.
      GenomeGraph`; results have graph coordinates only
      (``linear_position`` stays None), exactly like a graph-only
      :class:`~repro.core.mapper.SeGraM`.
    """

    name: str
    sequence: str | None = None
    variants: tuple[Variant | VcfRecord, ...] = ()
    graph: GenomeGraph | None = None

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ReferenceSetError(
                f"invalid contig name {self.name!r} (empty or "
                "whitespace)"
            )
        if (self.sequence is None) == (self.graph is None):
            raise ReferenceSetError(
                f"contig {self.name!r} must be backed by exactly one "
                "of a linear sequence or a genome graph"
            )
        if self.graph is not None and self.variants:
            raise ReferenceSetError(
                f"contig {self.name!r}: variants only apply to "
                "linear-backed contigs"
            )

    @classmethod
    def linear(cls, name: str, sequence: str,
               variants: Iterable[Variant | VcfRecord] = ()) -> "Contig":
        """A linear-backed contig (reference sequence + variants)."""
        return cls(name=name, sequence=sequence,
                   variants=tuple(variants))

    @classmethod
    def from_graph(cls, name: str, graph: GenomeGraph) -> "Contig":
        """A graph-backed contig (no linear projection)."""
        return cls(name=name, graph=graph)

    @property
    def is_linear(self) -> bool:
        return self.sequence is not None

    @property
    def length(self) -> int:
        """Reference length: backbone bases (linear) or total graph
        bases (graph-backed) — the ``LN`` of the SAM ``@SQ`` line."""
        if self.sequence is not None:
            return len(self.sequence)
        assert self.graph is not None  # __post_init__ invariant
        return self.graph.total_sequence_length


@dataclass
class _BuiltContig:
    """Per-contig placement inside the combined coordinate spaces.

    Only the projection tables survive construction — the per-contig
    :class:`~repro.graph.builder.BuiltGraph` (whose node sequences
    would duplicate the combined graph's) is released once its nodes
    are merged, so a reference set costs one copy of the sequence
    data plus these integer tables.
    """

    contig: Contig
    node_base: int          # first combined-graph node ID
    node_end: int           # one past the last node ID
    char_start: int         # first global character offset
    char_end: int           # one past the last character offset
    #: Per-node contig-local reference positions (linear contigs
    #: only), indexed by ``node_id - node_base``.
    ref_positions: list[int] | None = None
    backbone: str | None = None      # the backbone (linear only)
    #: Combined-graph IDs of the contig's variant (alt) nodes.
    alt_nodes: tuple[int, ...] = field(default=())


class ReferenceSet:
    """N named contigs sharing one combined graph and index space.

    Args:
        contigs: the contigs, in reference order (the order of SAM
            ``@SQ`` lines).  Names must be unique.
        max_node_length: backbone chunking for linear contigs
            (``vg construct -m`` equivalent; 0 = one node per
            segment), forwarded to :func:`~repro.graph.builder.
            build_graph`.
    """

    def __init__(self, contigs: Sequence[Contig],
                 max_node_length: int = 0) -> None:
        contigs = tuple(contigs)
        if not contigs:
            raise ReferenceSetError("a ReferenceSet needs >= 1 contig")
        names = [contig.name for contig in contigs]
        if len(set(names)) != len(names):
            raise ReferenceSetError(f"duplicate contig names in {names}")
        self.max_node_length = max_node_length
        self.graph = GenomeGraph(
            name=contigs[0].name if len(contigs) == 1 else "refset")
        self._contigs: list[_BuiltContig] = []
        self._by_name: dict[str, int] = {}
        for contig in contigs:
            self._append(contig)
        # Bisection tables for global -> contig bucketing.
        self._node_bases = [c.node_base for c in self._contigs]
        self._char_starts = [c.char_start for c in self._contigs]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _append(self, contig: Contig) -> None:
        node_base = self.graph.node_count
        char_start = self.graph.total_sequence_length
        ref_positions: list[int] | None = None
        alt_nodes: tuple[int, ...] = ()
        if contig.sequence is not None:
            built = build_graph(
                contig.sequence, contig.variants, name=contig.name,
                max_node_length=self.max_node_length,
            )
            subgraph = built.graph
            ref_positions = built.ref_positions
            alt_nodes = tuple(n + node_base for n in built.alt_nodes)
        else:
            assert contig.graph is not None  # __post_init__ invariant
            subgraph = contig.graph
            if not subgraph.is_topologically_sorted():
                subgraph = subgraph.topologically_sorted()
        for node in subgraph.nodes():
            self.graph.add_node(node.sequence)
        for src, dst in subgraph.edges():
            self.graph.add_edge(src + node_base, dst + node_base)
        # `built` (and its duplicate node-sequence copies) is dropped
        # here; only the integer projection tables are retained.
        placed = _BuiltContig(
            contig=contig,
            node_base=node_base,
            node_end=self.graph.node_count,
            char_start=char_start,
            char_end=self.graph.total_sequence_length,
            ref_positions=ref_positions,
            backbone=contig.sequence,
            alt_nodes=alt_nodes,
        )
        self._by_name[contig.name] = len(self._contigs)
        self._contigs.append(placed)

    @classmethod
    def _restore(
        cls,
        graph: GenomeGraph,
        contigs: Sequence[_BuiltContig],
        max_node_length: int = 0,
    ) -> "ReferenceSet":
        """Rewire a reference set around pre-built parts.

        Fast path for artifact loading (:mod:`repro.io.artifact`): the
        combined graph and the per-contig placement tables were
        computed by a normal construction before serialization, so
        re-running :meth:`_append` (which re-validates and re-copies
        every node sequence) would defeat the O(ms) attach.
        """
        refs = cls.__new__(cls)
        refs.max_node_length = max_node_length
        refs.graph = graph
        refs._contigs = list(contigs)
        refs._by_name = {
            placed.contig.name: i
            for i, placed in enumerate(refs._contigs)
        }
        refs._node_bases = [c.node_base for c in refs._contigs]
        refs._char_starts = [c.char_start for c in refs._contigs]
        return refs

    @classmethod
    def from_records(
        cls,
        records: Sequence[tuple[str, str]],
        variants: Iterable[Variant | VcfRecord] = (),
        max_node_length: int = 0,
    ) -> "ReferenceSet":
        """Build from ``(name, sequence)`` records plus VCF variants.

        :class:`~repro.io.vcf.VcfRecord` variants are routed to the
        contig whose name equals their ``CHROM``; with a single contig
        any ``CHROM`` is accepted (the legacy single-reference CLI
        behaviour).  A multi-contig set rejects variants naming an
        unknown contig, and bare :class:`~repro.graph.builder.Variant`
        objects (which carry no contig) are only accepted for
        single-contig sets.
        """
        records = list(records)
        if not records:
            raise ReferenceSetError("no reference records")
        for name, sequence in records:
            if not sequence:
                raise ReferenceSetError(
                    f"contig {name!r} has an empty sequence"
                )
        names = [name for name, _ in records]
        by_chrom: dict[str, list[Variant | VcfRecord]] = {
            name: [] for name in names}
        for item in variants:
            if isinstance(item, VcfRecord):
                if item.chrom in by_chrom:
                    by_chrom[item.chrom].append(item)
                elif len(records) == 1:
                    by_chrom[names[0]].append(item)
                else:
                    raise ReferenceSetError(
                        f"variant CHROM {item.chrom!r} does not match "
                        f"any contig in {names}"
                    )
            else:
                if len(records) != 1:
                    raise ReferenceSetError(
                        "bare Variant objects carry no contig name; "
                        "use VcfRecord for multi-contig sets"
                    )
                by_chrom[names[0]].append(item)
        return cls(
            [Contig.linear(name, sequence.upper(), by_chrom[name])
             for name, sequence in records],
            max_node_length=max_node_length,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._contigs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.contig.name for c in self._contigs)

    @property
    def contigs(self) -> tuple[Contig, ...]:
        return tuple(c.contig for c in self._contigs)

    def sam_contigs(self) -> list[tuple[str, int]]:
        """``(name, length)`` pairs for the SAM ``@SQ`` header lines."""
        return [(c.contig.name, c.contig.length)
                for c in self._contigs]

    def _index_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise ReferenceSetError(
                f"unknown contig {name!r}; have {list(self.names)}"
            ) from None

    def backbone(self, name: str) -> str | None:
        """The contig's linear backbone (None for graph-backed)."""
        return self._contigs[self._index_of(name)].backbone

    def alt_nodes_of(self, name: str) -> tuple[int, ...]:
        """Combined-graph IDs of the contig's variant (alt) nodes."""
        return self._contigs[self._index_of(name)].alt_nodes

    # ------------------------------------------------------------------
    # Coordinate translation
    # ------------------------------------------------------------------

    def contig_of_node(self, node_id: int) -> str:
        """Bucket a combined-graph node ID to its contig name."""
        return self._contigs[self._contig_index_of_node(node_id)] \
            .contig.name

    def _contig_index_of_node(self, node_id: int) -> int:
        if not 0 <= node_id < self.graph.node_count:
            raise ReferenceSetError(
                f"node {node_id} outside the combined graph "
                f"[0, {self.graph.node_count})"
            )
        return bisect_right(self._node_bases, node_id) - 1

    def contig_of_char(self, offset: int) -> str:
        """Bucket a global character offset to its contig name."""
        total = self.graph.total_sequence_length
        if not 0 <= offset < total:
            raise ReferenceSetError(
                f"offset {offset} outside the character space "
                f"[0, {total})"
            )
        index = bisect_right(self._char_starts, offset) - 1
        return self._contigs[index].contig.name

    def char_span(self, name: str) -> tuple[int, int]:
        """The contig's half-open global character interval."""
        placed = self._contigs[self._index_of(name)]
        return placed.char_start, placed.char_end

    def char_spans(self) -> list[tuple[int, int]]:
        """All contig character intervals, in reference order.

        This is the clamping table MinSeed consumes: a seed's
        extension region is clipped to the span of the contig the
        seed fell in, so candidate regions never cross a contig
        boundary (the boundaries partition the character space).
        """
        return [(c.char_start, c.char_end) for c in self._contigs]

    def project(self, node_id: int,
                node_offset: int) -> tuple[str, int | None]:
        """``(node, offset)`` -> ``(contig name, local position)``.

        The local position is the contig's 0-based linear coordinate
        (what SAM POS-1 reports); graph-backed contigs return None —
        they have no linear projection, exactly like graph-only
        mappers today.
        """
        index = self._contig_index_of_node(node_id)
        placed = self._contigs[index]
        if placed.ref_positions is None:
            return placed.contig.name, None
        local = placed.ref_positions[node_id - placed.node_base] \
            + node_offset
        return placed.contig.name, local

    def __repr__(self) -> str:
        return (f"ReferenceSet({len(self)} contigs, "
                f"{self.graph.total_sequence_length} bases: "
                f"{', '.join(self.names)})")
