"""Variation-graph construction from a linear reference plus variants.

This is the functional equivalent of the paper's first pre-processing
step (Section 5): ``vg construct`` followed by ``vg ids -s``.  Given a
linear reference sequence and a set of variants (SNPs, insertions,
deletions, and larger structural variants expressed as replacements),
it produces a topologically sorted :class:`~repro.graph.GenomeGraph`
in which:

* the *backbone path* spells exactly the linear reference, and
* for every variant, some path spells the reference with that variant
  applied.

The construction splits the backbone at every variant boundary, adds one
alternate node per distinct (start, end, alt) replacement, and connects
it around the replaced reference span.  All edges point forward in
reference coordinates, so the result is a DAG by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.graph.genome_graph import GenomeGraph, GraphError
# Runtime dependency (isinstance normalization of raw VCF records in
# _normalize_all); VcfRecord is a passive row type carrying no io
# machinery, so the upward edge is accepted.  # repro: allow[layering]
from repro.io.vcf import VcfRecord


class VariantError(ValueError):
    """Raised when a variant is inconsistent with the reference."""


@dataclass(frozen=True)
class Variant:
    """A normalized variant: ``reference[start:end]`` is replaced by ``alt``.

    Coordinates are 0-based, end-exclusive.  ``start == end`` with a
    non-empty ``alt`` is a pure insertion *before* position ``start``;
    an empty ``alt`` with ``start < end`` is a pure deletion.  Both
    ``start == end`` and empty ``alt`` together are invalid (a no-op).
    """

    start: int
    end: int
    alt: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise VariantError(
                f"invalid variant span [{self.start}, {self.end})"
            )
        if self.start == self.end and not self.alt:
            raise VariantError("no-op variant (empty span, empty alt)")

    @property
    def is_insertion(self) -> bool:
        return self.start == self.end

    @property
    def is_deletion(self) -> bool:
        return bool(self.end > self.start and not self.alt)

    @property
    def is_snp(self) -> bool:
        return self.end - self.start == 1 and len(self.alt) == 1


def normalize_variant(record: VcfRecord) -> Variant | None:
    """Convert a VCF record to a normalized :class:`Variant`.

    Strips the shared prefix (the VCF anchor base) and shared suffix,
    and converts the 1-based POS to a 0-based coordinate.  Returns None
    for records whose REF and ALT are identical (no-ops).
    """
    start = record.pos - 1
    ref, alt = record.ref, record.alt
    # Strip common prefix.
    while ref and alt and ref[0] == alt[0]:
        ref, alt = ref[1:], alt[1:]
        start += 1
    # Strip common suffix.
    while ref and alt and ref[-1] == alt[-1]:
        ref, alt = ref[:-1], alt[:-1]
    if not ref and not alt:
        return None
    return Variant(start=start, end=start + len(ref), alt=alt)


@dataclass
class BuiltGraph:
    """Result of graph construction.

    Attributes:
        graph: the topologically sorted variation graph.
        backbone: node IDs of the backbone path (spells the reference).
        ref_positions: for each node ID, the 0-based reference coordinate
            the node is anchored at — backbone nodes carry their true
            start; alternate nodes carry the start of the span they
            replace.  Used to project graph positions onto the linear
            reference for accuracy evaluation.
        alt_nodes: node IDs introduced for variants (non-backbone).
    """

    graph: GenomeGraph
    backbone: list[int]
    ref_positions: list[int]
    alt_nodes: list[int] = field(default_factory=list)

    def backbone_sequence(self) -> str:
        """Spell the backbone path (must equal the input reference)."""
        return self.graph.spell_path(self.backbone)


def _as_variants(reference: str,
                 variants: Iterable[Variant | VcfRecord]) -> list[Variant]:
    normalized: list[Variant] = []
    for item in variants:
        if isinstance(item, VcfRecord):
            variant = normalize_variant(item)
            if variant is None:
                continue
        else:
            variant = item
        if variant.end > len(reference):
            raise VariantError(
                f"variant span [{variant.start}, {variant.end}) exceeds "
                f"reference length {len(reference)}"
            )
        normalized.append(variant)
    return normalized


def build_graph(
    reference: str,
    variants: Iterable[Variant | VcfRecord] = (),
    name: str = "graph",
    max_node_length: int = 0,
) -> BuiltGraph:
    """Build a topologically sorted variation graph.

    Args:
        reference: the linear reference sequence (FASTA contents).
        variants: normalized :class:`Variant` objects or raw
            :class:`~repro.io.vcf.VcfRecord` records (normalized here).
        name: graph name.
        max_node_length: when > 0, backbone segments longer than this are
            split into chunks (``vg construct -m`` equivalent).

    Returns:
        A :class:`BuiltGraph` with the graph, backbone path and
        reference-coordinate projection.
    """
    if not reference:
        raise GraphError("reference must not be empty")
    normalized = _as_variants(reference, variants)

    # 1. Breakpoints partition the backbone.
    breakpoints = {0, len(reference)}
    for variant in normalized:
        breakpoints.add(variant.start)
        breakpoints.add(variant.end)
    bounds = sorted(breakpoints)

    graph = GenomeGraph(name=name)
    ref_positions: list[int] = []

    def add_node_tracked(sequence: str, ref_pos: int) -> int:
        node_id = graph.add_node(sequence)
        assert node_id == len(ref_positions)
        ref_positions.append(ref_pos)
        return node_id

    # 2. Backbone segments (possibly chunked) and chain edges.
    backbone: list[int] = []
    segment_start_node: dict[int, int] = {}  # breakpoint -> first chunk node
    segment_end_node: dict[int, int] = {}    # breakpoint -> last chunk node
    for left, right in zip(bounds, bounds[1:]):
        if left == right:
            continue
        chunk_size = (right - left) if max_node_length <= 0 \
            else max_node_length
        first_chunk = None
        previous = backbone[-1] if backbone else None
        for chunk_start in range(left, right, chunk_size):
            chunk_end = min(chunk_start + chunk_size, right)
            node = add_node_tracked(reference[chunk_start:chunk_end],
                                    chunk_start)
            if first_chunk is None:
                first_chunk = node
            if previous is not None:
                graph.add_edge(previous, node)
            previous = node
            backbone.append(node)
        segment_start_node[left] = first_chunk
        segment_end_node[right] = previous

    # 3. Variant nodes and edges.
    alt_nodes: list[int] = []
    seen_alt: dict[tuple[int, int, str], int] = {}
    for variant in normalized:
        prev_node = segment_end_node.get(variant.start)
        next_node = segment_start_node.get(variant.end)
        if variant.is_deletion:
            # A deletion is just a skip edge; at reference boundaries
            # there is nothing to connect on one side and the alternate
            # path simply starts/ends at the surviving segment.
            if prev_node is not None and next_node is not None:
                graph.add_edge(prev_node, next_node)
            continue
        key = (variant.start, variant.end, variant.alt)
        if key in seen_alt:
            continue
        alt_node = add_node_tracked(variant.alt, variant.start)
        seen_alt[key] = alt_node
        alt_nodes.append(alt_node)
        if prev_node is not None:
            graph.add_edge(prev_node, alt_node)
        if next_node is not None:
            graph.add_edge(alt_node, next_node)

    # 4. Renumber into topological order (``vg ids -s``).
    order = graph.topological_order()
    rank = {old: new for new, old in enumerate(order)}
    sorted_graph = GenomeGraph(name=name)
    sorted_positions = [0] * graph.node_count
    for old in order:
        sorted_graph.add_node(graph.sequence_of(old))
        sorted_positions[rank[old]] = ref_positions[old]
    for src, dst in graph.edges():
        sorted_graph.add_edge(rank[src], rank[dst])

    return BuiltGraph(
        graph=sorted_graph,
        backbone=[rank[n] for n in backbone],
        ref_positions=sorted_positions,
        alt_nodes=sorted([rank[n] for n in alt_nodes]),
    )
