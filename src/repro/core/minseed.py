"""MinSeed: minimizer-based seeding (paper Section 6, Fig. 9, Fig. 10).

MinSeed turns a query read into candidate reference regions
(*subgraphs*) in four steps, mirroring the accelerator datapath:

1. compute the ``<w,k>``-minimizers of the read (single-loop O(m));
2. fetch each minimizer's occurrence frequency from the hash-table
   index and discard minimizers above the frequency threshold
   (pre-computed to drop the top 0.02 % most frequent — they would
   flood the aligner with repetitive candidates);
3. fetch all seed locations of the surviving minimizers;
4. for each seed, compute the candidate region's leftmost and
   rightmost character positions with the Fig. 9 arithmetic::

       x = c - a * (1 + E)              (left extension)
       y = d + (m - b - 1) * (1 + E)    (right extension)

   where ``a``/``b`` are the minimizer's start/end in the read,
   ``c``/``d`` the seed's start/end in the graph's character space,
   ``m`` the read length and ``E`` the expected error rate.

MinSeed performs no chaining or filtering beyond the frequency
threshold (Section 11.4) — every surviving seed region is emitted.
(The software pipeline's align stage then skips regions an earlier
alignment of the read already subsumes; see
:mod:`repro.core.pipeline`.)
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from repro.graph.genome_graph import GenomeGraph
from repro.index.hash_index import HashTableIndex
from repro.index.minimizer import Minimizer, minimizers
from repro.index.occurrence import DEFAULT_TOP_FRACTION, frequency_threshold


@dataclass(frozen=True)
class Seed:
    """One exact minimizer match between the read and the graph.

    Attributes:
        read_start: minimizer start in the read (``a`` in Fig. 9).
        read_end: minimizer end in the read, inclusive (``b``).
        node_id: graph node containing the seed.
        node_offset: seed start offset within the node.
        graph_start: seed start in global character space (``c``).
        graph_end: seed end in global character space, inclusive (``d``).
        minimizer_hash: the minimizer's hash value (index key).
        frequency: the minimizer's occurrence count in the reference —
            rarer minimizers are more locus-specific, which the mapper
            uses to prioritize regions when a per-read cap is set.
    """

    read_start: int
    read_end: int
    node_id: int
    node_offset: int
    graph_start: int
    graph_end: int
    minimizer_hash: int
    frequency: int = 1


@dataclass(frozen=True)
class SeedRegion:
    """A candidate reference region to align: ``[start, end)``."""

    seed: Seed
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"invalid seed region [{self.start}, {self.end})"
            )

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class SeedingStats:
    """Per-read seeding statistics (consumed by Section 11.4 benches
    and the hardware model's memory-access accounting)."""

    minimizer_count: int = 0
    filtered_minimizers: int = 0
    seed_count: int = 0
    region_count: int = 0
    index_accesses: int = 0

    @property
    def surviving_minimizers(self) -> int:
        return self.minimizer_count - self.filtered_minimizers

    def merge(self, other: "SeedingStats") -> None:
        """Fold another read's counters into this aggregate (used by
        the pipeline's cumulative statistics)."""
        self.minimizer_count += other.minimizer_count
        self.filtered_minimizers += other.filtered_minimizers
        self.seed_count += other.seed_count
        self.region_count += other.region_count
        self.index_accesses += other.index_accesses


class MinSeed:
    """The seeding stage of SeGraM.

    Args:
        graph: the topologically sorted genome graph.
        index: the hash-table minimizer index of that graph.
        error_rate: expected read error rate ``E`` used for the seed
            extension arithmetic (paper evaluates 1–10 %).
        freq_threshold: occurrence-frequency cutoff; minimizers with a
            higher frequency are discarded.  Defaults to the paper's
            top-0.02 % rule computed from the index itself.
        char_spans: optional half-open ``[start, end)`` intervals
            partitioning the character space into contigs (from
            :meth:`repro.refs.ReferenceSet.char_spans`).  When given,
            each seed's extension region is clamped to the span the
            seed fell in — the global index's hits bucket back to
            their contig and no candidate region crosses a contig
            boundary.  None (the default) clamps to the whole
            character space, the legacy single-reference behaviour.
    """

    def __init__(
        self,
        graph: GenomeGraph,
        index: HashTableIndex,
        error_rate: float = 0.10,
        freq_threshold: int | None = None,
        freq_top_fraction: float = DEFAULT_TOP_FRACTION,
        char_spans: Sequence[tuple[int, int]] | None = None,
    ) -> None:
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got "
                             f"{error_rate}")
        self.graph = graph
        self.index = index
        self.error_rate = error_rate
        if freq_threshold is None:
            freq_threshold = frequency_threshold(
                index.frequencies(), top_fraction=freq_top_fraction,
            )
        self.freq_threshold = freq_threshold
        self._offsets = graph.offsets()
        self._total_chars = graph.total_sequence_length
        if char_spans is not None:
            spans = sorted(tuple(span) for span in char_spans)
            if not spans or spans[0][0] != 0 \
                    or spans[-1][1] != self._total_chars \
                    or any(a[1] != b[0] for a, b in zip(spans, spans[1:])):
                raise ValueError(
                    f"char_spans {spans} must partition "
                    f"[0, {self._total_chars})"
                )
            self._span_starts = [start for start, _ in spans]
            self._spans = spans
        else:
            self._span_starts = None
            self._spans = None

    def _clamp_span(self, seed_char: int) -> tuple[int, int]:
        """The clamping interval for a seed at character ``seed_char``:
        its contig's span, or the whole character space."""
        if self._spans is None:
            return 0, self._total_chars
        index = bisect_right(self._span_starts, seed_char) - 1
        return self._spans[index]

    def find_minimizers(self, read: str) -> list[Minimizer]:
        """Step 1: the read's ``<w,k>``-minimizers."""
        return minimizers(read, w=self.index.w, k=self.index.k,
                          scoring=self.index.scoring)

    def seed(self, read: str) -> tuple[list[SeedRegion], SeedingStats]:
        """Steps 1–4: produce candidate regions plus statistics.

        Exact-duplicate regions (same span) are emitted once; beyond
        that every seed is kept — MinSeed deliberately does not chain
        or filter (Section 11.4).
        """
        if not read:
            raise ValueError("read must not be empty")
        stats = SeedingStats()
        read_minimizers = self.find_minimizers(read)
        stats.minimizer_count = len(read_minimizers)

        m = len(read)
        e = self.error_rate
        k = self.index.k
        regions: list[SeedRegion] = []
        seen_spans: set[tuple[int, int]] = set()
        for minimizer in read_minimizers:
            query = self.index.query(minimizer.score)
            stats.index_accesses += query.cost.total_accesses
            frequency = query.frequency
            if frequency == 0:
                continue
            if frequency > self.freq_threshold:
                stats.filtered_minimizers += 1
                continue
            a = minimizer.position
            b = a + k - 1
            for hit in query.hits():
                stats.seed_count += 1
                c = self._offsets[hit.node_id] + hit.offset
                d = c + k - 1
                x = int(c - a * (1 + e))
                y = int(d + (m - b - 1) * (1 + e))
                # Clamp to the seed's contig (or the whole space):
                # extension never reaches past a contig boundary.
                span_lo, span_hi = self._clamp_span(c)
                start = max(span_lo, x)
                end = min(span_hi, y + 1)
                if end <= start:
                    continue
                span = (start, end)
                if span in seen_spans:
                    continue
                seen_spans.add(span)
                regions.append(SeedRegion(
                    seed=Seed(
                        read_start=a, read_end=b,
                        node_id=hit.node_id, node_offset=hit.offset,
                        graph_start=c, graph_end=d,
                        minimizer_hash=minimizer.score,
                        frequency=frequency,
                    ),
                    start=start, end=end,
                ))
        stats.region_count = len(regions)
        return regions, stats
