"""MinSeed: minimizer-based seeding (paper Section 6, Fig. 9, Fig. 10).

MinSeed turns a query read into candidate reference regions
(*subgraphs*) in four steps, mirroring the accelerator datapath:

1. compute the ``<w,k>``-minimizers of the read;
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
(The software mapper then orders a read's regions rarest minimizer
first and caps them — :meth:`MinSeed.seed_chunk_ranked` does that on
the columns, so dropped regions never become records — and its align
stage skips regions an earlier alignment of the read already
subsumes; see :mod:`repro.core.mapper`.)

The hardware streams reads through fixed-function MinSeed units; the
software analogue is :meth:`MinSeed.seed_chunk`, which runs each step
once for a whole chunk of reads as array operations — one minimizer
scan, one index probe, one pass of the Fig. 9 arithmetic — and only
then cuts the result into per-read region lists.  A read's regions do
not depend on what it is chunked with; :meth:`MinSeed.seed` is the
chunk of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.genome_graph import GenomeGraph
from repro.index.flat_index import FlatIndex
from repro.index.minimizer import Minimizer, minimizers, scan_minimizers
from repro.index.occurrence import DEFAULT_TOP_FRACTION, frequency_threshold


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    #: Regions MinSeed emitted, before the mapper's filter.
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
        index: the minimizer index of that graph.
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
            boundary.  None (the default, for standalone seeding over
            one graph) clamps to the whole character space.
    """

    def __init__(
        self,
        graph: GenomeGraph,
        index: FlatIndex,
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
        self._offsets = np.asarray(graph.offsets(), dtype=np.int64)
        total_chars = graph.total_sequence_length
        spans = [(0, total_chars)] if char_spans is None \
            else sorted(tuple(span) for span in char_spans)
        if not spans or spans[0][0] != 0 \
                or spans[-1][1] != total_chars \
                or any(a[1] != b[0] for a, b in zip(spans, spans[1:])):
            raise ValueError(
                f"char_spans {spans} must partition [0, {total_chars})"
            )
        # Clamping intervals: each contig's span, or the whole space.
        self._span_starts, self._span_ends = (
            np.asarray(column, dtype=np.int64) for column in zip(*spans))

    def find_minimizers(self, read: str) -> list[Minimizer]:
        """Step 1: the read's ``<w,k>``-minimizers."""
        return minimizers(read, w=self.index.w, k=self.index.k,
                          scoring=self.index.scoring)

    def seed(self, read: str) -> tuple[list[SeedRegion], SeedingStats]:
        """Steps 1–4 for one read: a :meth:`seed_chunk` of one."""
        return self.seed_chunk([read])[0]

    def seed_chunk(self, reads: Sequence[str]) \
            -> list[tuple[list[SeedRegion], SeedingStats]]:
        """Steps 1–4 for every read of a chunk: candidate regions
        plus statistics, one pair per read.

        Exact-duplicate regions (same span) of a read are emitted
        once; beyond that every seed is kept — MinSeed deliberately
        does not chain or filter (Section 11.4).
        """
        return self._chunk(reads, ranked=False, cap=None)

    def seed_chunk_ranked(self, reads: Sequence[str],
                          cap: int | None = None) \
            -> list[tuple[list[SeedRegion], SeedingStats]]:
        """:meth:`seed_chunk` with the mapper's filter applied to the
        columns: each read's regions rarest minimizer first (then by
        read position; one minimizer's locations in seed order), at
        most ``cap`` of them.

        Only the kept regions become records; the statistics still
        count every region (``region_count`` is the unfiltered count).
        """
        return self._chunk(reads, ranked=True, cap=cap)

    def _chunk(self, reads: Sequence[str], ranked: bool,
               cap: int | None) \
            -> list[tuple[list[SeedRegion], SeedingStats]]:
        if not all(reads):
            raise ValueError("read must not be empty")
        index = self.index
        k = index.k
        read_count = len(reads)
        # Step 1: one scan; ``owner`` is the read of each minimizer.
        scan = scan_minimizers(reads, index.w, k, index.scoring)
        owner = scan.owners
        # Steps 2-3: one probe; frequent minimizers fetch no seeds.
        rows, frequency, scanned = index.probe(scan.scores)
        present = frequency > 0
        filtered = present & (frequency > self.freq_threshold)
        kept = np.flatnonzero(present & ~filtered)
        node, node_offset = index.locations(rows[kept])
        source = np.repeat(kept, frequency[kept])  # minimizer per seed
        reader = owner[source]
        # Step 4: the Fig. 9 arithmetic, truncated toward zero.
        m = np.fromiter(map(len, reads), dtype=np.int64,
                        count=read_count)[reader]
        stretch = 1 + self.error_rate
        a = scan.positions[source]
        b = a + (k - 1)
        c = self._offsets[node] + node_offset
        d = c + (k - 1)
        x = (c - a * stretch).astype(np.int64)
        y = (d + (m - b - 1) * stretch).astype(np.int64)
        # Clamp to the seed's contig (or the whole space): extension
        # never reaches past a contig boundary.
        span = np.searchsorted(self._span_starts, c, side="right") - 1
        start = np.maximum(self._span_starts[span], x)
        end = np.minimum(self._span_ends[span], y + 1)
        # A read's first seed of each span keeps it: a stable sort
        # brings equal spans together in seed order.
        live = np.flatnonzero(end > start)
        spans = np.stack((end[live], start[live], reader[live]))
        order = np.lexsort(spans)
        spans = spans[:, order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (spans[:, 1:] != spans[:, :-1]).any(axis=0)
        emit = np.sort(live[order[first]])
        occurrences = frequency[source]

        def per_read(which: np.ndarray, weights=None) -> list[int]:
            return np.bincount(which, weights, read_count) \
                .astype(np.int64).tolist()

        region_counts = per_read(reader[emit])
        if ranked:
            # A stable sort by read, then frequency, then read
            # position; then each read's first ``cap``.
            owners = reader[emit]
            order = np.lexsort((a[emit], occurrences[emit], owners))
            emit, owners = emit[order], owners[order]
            if cap is not None:
                rank = np.arange(len(emit)) \
                    - np.searchsorted(owners, owners)
                emit = emit[rank < cap]

        regions: list[list[SeedRegion]] = [[] for _ in range(read_count)]
        for (read, read_start, read_end, node_id, offset, graph_start,
             graph_end, minimizer_hash, seed_frequency, region_start,
             region_end) in zip(*(column[emit].tolist() for column in (
                 reader, a, b, node, node_offset, c, d,
                 scan.scores[source], occurrences, start, end))):
            regions[read].append(SeedRegion(
                Seed(read_start, read_end, node_id, offset, graph_start,
                     graph_end, minimizer_hash, seed_frequency),
                region_start, region_end))

        return [
            (found, SeedingStats(
                minimizer_count=minimizer_count,
                filtered_minimizers=filtered_count,
                seed_count=seed_count, region_count=region_count,
                index_accesses=accesses))
            for found, minimizer_count, filtered_count, seed_count,
            region_count, accesses in zip(
                regions, np.diff(scan.bounds).tolist(),
                per_read(owner[filtered]), per_read(reader),
                region_counts,
                # LookupCost.total_accesses of each minimizer's query.
                per_read(owner, 1 + scanned + frequency))
        ]
