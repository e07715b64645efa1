"""Flat (array-backed) three-level minimizer index (paper Fig. 6).

:class:`~repro.index.hash_index.HashTableIndex` keeps the index as a
Python dict catalog — convenient, but impossible to serialize as the
byte layout the paper specifies, and rebuilt from scratch by every
process that needs it.  :class:`FlatIndex` stores the *same* index as
six contiguous numpy arrays mirroring the paper's three levels:

1. **Buckets** — ``bucket_starts`` (one entry per bucket plus a
   sentinel, 4 B each): cumulative offsets into the minimizer rows,
   so bucket ``b`` owns rows ``[bucket_starts[b], bucket_starts[b+1])``.
2. **Minimizers** — ``min_hash`` / ``min_loc_start`` / ``min_loc_count``
   (8 + 4 + 4 B per distinct minimizer, the paper's 12 B rows widened
   to a 64-bit hash): rows are sorted by ``(bucket, hash)``, so a
   query binary-searches its bucket's slice.
3. **Seed locations** — ``loc_node`` / ``loc_offset`` (4 + 4 B per
   location): each row's locations are contiguous and sorted by
   ``(node, offset)``.

Because the arrays are contiguous and position-independent they can be
written to disk verbatim and attached read-only via ``mmap``
(:mod:`repro.io.artifact`), which is the point: loading an index costs
milliseconds instead of a full rebuild, and N worker processes share
one physical copy of the pages.

The query contract — :meth:`query` and its :meth:`frequency` /
:meth:`lookup` / :meth:`lookup_cost` views, :meth:`layout` and the
statistics properties — is
bit-for-bit identical to the dict index (parity-tested in
``tests/test_index_artifact.py``), so the two are interchangeable
anywhere a :class:`HashTableIndex` is accepted.
"""

from __future__ import annotations

import math
import multiprocessing
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.index.hash_index import (
    HashTableIndex,
    IndexLayout,
    IndexQuery,
    LookupCost,
    SeedHit,
)
from repro.index.minimizer import Scoring, minimizers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.genome_graph import GenomeGraph


class FlatIndex:
    """Array-backed three-level minimizer index.

    Arrays may be owned (freshly built) or borrowed read-only views
    into a memory-mapped artifact — queries never write to them.
    """

    def __init__(
        self,
        bucket_starts: np.ndarray,
        min_hash: np.ndarray,
        min_loc_start: np.ndarray,
        min_loc_count: np.ndarray,
        loc_node: np.ndarray,
        loc_offset: np.ndarray,
        w: int,
        k: int,
        bucket_bits: int,
        scoring: Scoring = "hash",
    ) -> None:
        if bucket_bits < 1:
            raise ValueError(f"bucket_bits must be >= 1, got {bucket_bits}")
        if len(bucket_starts) != (1 << bucket_bits) + 1:
            raise ValueError(
                f"bucket_starts has {len(bucket_starts)} entries, "
                f"expected 2^{bucket_bits} + 1"
            )
        self.w = w
        self.k = k
        self.bucket_bits = bucket_bits
        self.scoring = scoring
        self.bucket_starts = bucket_starts
        self.min_hash = min_hash
        self.min_loc_start = min_loc_start
        self.min_loc_count = min_loc_count
        self.loc_node = loc_node
        self.loc_offset = loc_offset
        self._mask = (1 << bucket_bits) - 1
        # Queries read scalars, and every scalar read through
        # ``np.memmap.__getitem__`` pays for building a memmap object;
        # plain ndarray views over the same (possibly mapped) buffers
        # read the same bytes without it.
        self._starts = bucket_starts.view(np.ndarray)
        self._hashes = min_hash.view(np.ndarray)
        self._loc_starts = min_loc_start.view(np.ndarray)
        self._loc_counts = min_loc_count.view(np.ndarray)
        self._nodes = loc_node.view(np.ndarray)
        self._offsets = loc_offset.view(np.ndarray)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_occurrences(
        cls,
        hashes: np.ndarray,
        nodes: np.ndarray,
        offsets: np.ndarray,
        w: int,
        k: int,
        bucket_bits: int,
        scoring: Scoring = "hash",
    ) -> "FlatIndex":
        """Build the three levels from raw (hash, node, offset) triples.

        One vectorized lexsort by ``(bucket, hash, node, offset)``
        produces the paper's layout in one pass: equal hashes become
        one minimizer row whose locations are already contiguous and
        sorted, and the per-bucket row counts prefix-sum into the
        bucket directory.
        """
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        nodes = np.ascontiguousarray(nodes, dtype=np.uint32)
        offsets = np.ascontiguousarray(offsets, dtype=np.uint32)
        bucket_count = 1 << bucket_bits
        if len(hashes) == 0:
            empty32 = np.zeros(0, dtype=np.uint32)
            return cls(
                bucket_starts=np.zeros(bucket_count + 1, dtype=np.uint32),
                min_hash=np.zeros(0, dtype=np.uint64),
                min_loc_start=empty32, min_loc_count=empty32,
                loc_node=empty32, loc_offset=empty32.copy(),
                w=w, k=k, bucket_bits=bucket_bits, scoring=scoring,
            )
        buckets = hashes & np.uint64(bucket_count - 1)
        order = np.lexsort((offsets, nodes, hashes, buckets))
        hashes, nodes, offsets = hashes[order], nodes[order], offsets[order]
        is_first = np.empty(len(hashes), dtype=bool)
        is_first[0] = True
        np.not_equal(hashes[1:], hashes[:-1], out=is_first[1:])
        loc_start = np.flatnonzero(is_first).astype(np.uint32)
        loc_count = np.diff(
            np.append(loc_start, np.uint32(len(hashes)))
        ).astype(np.uint32)
        min_hash = hashes[is_first]
        row_buckets = (min_hash & np.uint64(bucket_count - 1)) \
            .astype(np.int64)
        counts = np.bincount(row_buckets, minlength=bucket_count)
        bucket_starts = np.zeros(bucket_count + 1, dtype=np.uint32)
        np.cumsum(counts, out=bucket_starts[1:])
        return cls(
            bucket_starts=bucket_starts,
            min_hash=np.ascontiguousarray(min_hash),
            min_loc_start=loc_start, min_loc_count=loc_count,
            loc_node=np.ascontiguousarray(nodes),
            loc_offset=np.ascontiguousarray(offsets),
            w=w, k=k, bucket_bits=bucket_bits, scoring=scoring,
        )

    @classmethod
    def from_hash_index(cls, index: HashTableIndex) -> "FlatIndex":
        """Flatten an existing dict-catalog index (same entries)."""
        hashes: list[int] = []
        nodes: list[int] = []
        offsets: list[int] = []
        for hash_value, hits in index.iter_entries():
            for hit in hits:
                hashes.append(hash_value)
                nodes.append(hit.node_id)
                offsets.append(hit.offset)
        return cls.from_occurrences(
            np.asarray(hashes, dtype=np.uint64),
            np.asarray(nodes, dtype=np.uint32),
            np.asarray(offsets, dtype=np.uint32),
            w=index.w, k=index.k, bucket_bits=index.bucket_bits,
            scoring=index.scoring,
        )

    # ------------------------------------------------------------------
    # Queries (contract-identical to HashTableIndex)
    # ------------------------------------------------------------------

    def query(self, hash_value: int) -> IndexQuery:
        """Frequency, access cost and (lazily) hits from one probe.

        One bucket-directory read and one binary search of the
        bucket's rows answer all three.  The cost charges the same
        linear in-bucket scan as the dict index: up to and including
        the first row whose hash is >= the query.
        """
        bucket = hash_value & self._mask
        lo = int(self._starts[bucket])
        hi = int(self._starts[bucket + 1])
        row = -1
        scanned = 0
        if lo != hi:
            position = lo + int(self._hashes[lo:hi].searchsorted(
                np.uint64(hash_value)))
            scanned = min(position + 1, hi) - lo
            if position < hi and int(self._hashes[position]) == hash_value:
                row = position
        frequency = int(self._loc_counts[row]) if row >= 0 else 0
        return IndexQuery(
            LookupCost(bucket_probe=1, minimizers_scanned=scanned,
                       locations_fetched=frequency),
            lambda: self._hits_of(row),
        )

    def _hits_of(self, row: int) -> tuple[SeedHit, ...]:
        """Seed locations of minimizer row ``row`` (-1: absent)."""
        if row < 0:
            return ()
        start = int(self._loc_starts[row])
        stop = start + int(self._loc_counts[row])
        return tuple(
            SeedHit(node_id=node, offset=offset)
            for node, offset in zip(self._nodes[start:stop].tolist(),
                                    self._offsets[start:stop].tolist())
        )

    def frequency(self, hash_value: int) -> int:
        """Occurrence count of a minimizer (0 when absent)."""
        return self.query(hash_value).frequency

    def lookup(self, hash_value: int) -> tuple[SeedHit, ...]:
        """All seed locations of a minimizer, sorted (node, offset)."""
        return self.query(hash_value).hits()

    def lookup_cost(self, hash_value: int) -> LookupCost:
        """Memory accesses a hardware query would issue for this hash."""
        return self.query(hash_value).cost

    # ------------------------------------------------------------------
    # Statistics / layout
    # ------------------------------------------------------------------

    @property
    def distinct_minimizers(self) -> int:
        return len(self.min_hash)

    @property
    def total_locations(self) -> int:
        return len(self.loc_node)

    def frequencies(self) -> list[int]:
        """Occurrence counts of all distinct minimizers."""
        return self.min_loc_count.tolist()

    def layout(self, bucket_bits: int | None = None) -> IndexLayout:
        """Compute the Fig. 7 footprint curves for a bucket width."""
        bits = self.bucket_bits if bucket_bits is None else bucket_bits
        if bits < 1:
            raise ValueError(f"bucket_bits must be >= 1, got {bits}")
        if len(self.min_hash):
            buckets = (self.min_hash
                       & np.uint64((1 << bits) - 1)).astype(np.int64)
            max_per_bucket = int(np.bincount(buckets).max())
            max_locations = int(self.min_loc_count.max())
        else:
            max_per_bucket = 0
            max_locations = 0
        return IndexLayout(
            bucket_bits=bits,
            distinct_minimizers=self.distinct_minimizers,
            total_locations=self.total_locations,
            max_minimizers_per_bucket=max_per_bucket,
            max_locations_per_minimizer=max_locations,
        )

    def __repr__(self) -> str:
        return (f"FlatIndex(<w={self.w},k={self.k}>, "
                f"2^{self.bucket_bits} buckets, "
                f"{self.distinct_minimizers} minimizers, "
                f"{self.total_locations} locations)")


# ----------------------------------------------------------------------
# Construction by scanning a graph (optionally sharded per contig)
# ----------------------------------------------------------------------

def scan_minimizer_occurrences(
    graph: "GenomeGraph",
    w: int,
    k: int,
    scoring: Scoring = "hash",
    node_lo: int = 0,
    node_hi: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hash, node, offset) triples of nodes ``[node_lo, node_hi)``.

    The same per-node minimizer enumeration as
    :func:`~repro.index.hash_index.build_index`, returned as arrays;
    ranges partition cleanly because minimizers never span nodes.
    """
    if node_hi is None:
        node_hi = graph.node_count
    hashes: list[int] = []
    nodes: list[int] = []
    offsets: list[int] = []
    for node_id in range(node_lo, node_hi):
        for minimizer in minimizers(graph.sequence_of(node_id),
                                    w=w, k=k, scoring=scoring):
            hashes.append(minimizer.score)
            nodes.append(node_id)
            offsets.append(minimizer.position)
    return (np.asarray(hashes, dtype=np.uint64),
            np.asarray(nodes, dtype=np.uint32),
            np.asarray(offsets, dtype=np.uint32))


_SCAN_STATE: "tuple | None" = None


def _scan_worker_init(graph, w: int, k: int, scoring: Scoring) -> None:
    global _SCAN_STATE
    # Per-process cache by design: each scan worker installs its own
    # arguments once at pool start; nothing reads this parent-side.
    _SCAN_STATE = (graph, w, k, scoring)  # repro: allow[fork-safety]


def _scan_worker_run(node_range: tuple[int, int]):
    graph, w, k, scoring = _SCAN_STATE
    return scan_minimizer_occurrences(graph, w, k, scoring,
                                      node_lo=node_range[0],
                                      node_hi=node_range[1])


def _split_ranges(ranges: Sequence[tuple[int, int]],
                  pieces: int) -> list[tuple[int, int]]:
    """Subdivide node ranges into ~``pieces`` same-size chunks.

    Contig boundaries are respected (a chunk never spans two input
    ranges), so per-contig construction shards stay per-contig.
    """
    total = sum(hi - lo for lo, hi in ranges)
    if total == 0:
        return [r for r in ranges if r[1] > r[0]]
    target = max(1, math.ceil(total / max(1, pieces)))
    chunks: list[tuple[int, int]] = []
    for lo, hi in ranges:
        start = lo
        while start < hi:
            stop = min(hi, start + target)
            chunks.append((start, stop))
            start = stop
    return chunks


def build_flat_index(
    graph: "GenomeGraph",
    w: int = 10,
    k: int = 15,
    bucket_bits: int = 14,
    scoring: Scoring = "hash",
    jobs: int = 1,
    node_ranges: Iterable[tuple[int, int]] | None = None,
) -> FlatIndex:
    """Index a graph directly into the flat layout.

    ``node_ranges`` (half-open, e.g. the per-contig node ranges of a
    :class:`~repro.refs.ReferenceSet`) shards the scan; with
    ``jobs > 1`` and a ``fork``-capable platform the shards run in
    parallel worker processes (the graph is shared copy-on-write) and
    their occurrence arrays are merged by the same global sort the
    sequential path uses — the result is identical for any sharding.
    """
    ranges = list(node_ranges) if node_ranges is not None \
        else [(0, graph.node_count)]
    jobs = max(1, jobs)
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        jobs = 1
    chunks = _split_ranges(ranges, jobs * 2 if jobs > 1 else 1)
    if jobs == 1 or len(chunks) <= 1:
        parts = [scan_minimizer_occurrences(graph, w, k, scoring, lo, hi)
                 for lo, hi in chunks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(jobs, len(chunks)),
                      initializer=_scan_worker_init,
                      initargs=(graph, w, k, scoring)) as pool:
            parts = pool.map(_scan_worker_run, chunks)
    if parts:
        hashes = np.concatenate([p[0] for p in parts])
        nodes = np.concatenate([p[1] for p in parts])
        offsets = np.concatenate([p[2] for p in parts])
    else:
        hashes = np.zeros(0, dtype=np.uint64)
        nodes = np.zeros(0, dtype=np.uint32)
        offsets = np.zeros(0, dtype=np.uint32)
    return FlatIndex.from_occurrences(
        hashes, nodes, offsets,
        w=w, k=k, bucket_bits=bucket_bits, scoring=scoring,
    )
