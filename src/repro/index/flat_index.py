"""Three-level minimizer index of a genome graph (paper Fig. 6).

The index maps minimizer hash values to their exact-match locations in
the graph's nodes.  :class:`FlatIndex` stores it as six contiguous
numpy arrays mirroring the paper's three levels:

1. **Buckets** — ``bucket_starts`` (one entry per bucket plus a
   sentinel, 4 B each): cumulative offsets into the minimizer rows,
   so bucket ``b`` (``hash & (2^bucket_bits - 1)``) owns rows
   ``[bucket_starts[b], bucket_starts[b+1])``.
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

The bucket count trades memory footprint against hash collisions
(minimizers per bucket — more collisions mean more memory lookups per
query); the paper's Fig. 7 sweeps it and settles on 2^24 for the human
genome.  :meth:`FlatIndex.layout` reproduces both curves for any
bucket width.

:meth:`FlatIndex.query` (and its :meth:`~FlatIndex.frequency` /
:meth:`~FlatIndex.lookup` / :meth:`~FlatIndex.lookup_cost` views)
answers one hash.  MinSeed does not ask one hash at a time:
:meth:`FlatIndex.probe` answers a whole chunk's minimizers with one
``np.searchsorted`` and :meth:`FlatIndex.locations` gathers their seed
locations.

:func:`build_flat_index` is the build: the node sequences of a graph
go through :func:`~repro.index.minimizer.scan_minimizers` and one sort
lays the occurrences out as the three levels.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.index.minimizer import (
    Scoring,
    check_minimizer_parameters,
    scan_minimizers,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.genome_graph import GenomeGraph

#: Bytes per first-level bucket entry (paper Section 5).
BUCKET_ENTRY_BYTES = 4

#: Bytes per second-level minimizer entry (paper Section 5).
MINIMIZER_ENTRY_BYTES = 12

#: Bytes per third-level seed-location entry (paper Section 5).
LOCATION_ENTRY_BYTES = 8


@dataclass(frozen=True, order=True)
class SeedHit:
    """One seed location: a node ID and the offset within that node."""

    node_id: int
    offset: int


@dataclass(frozen=True)
class IndexLayout:
    """Memory-footprint view of the index at a given bucket width.

    Reproduces the two series of paper Fig. 7: the total footprint and
    the maximum number of minimizers falling into one bucket.
    """

    bucket_bits: int
    distinct_minimizers: int
    total_locations: int
    max_minimizers_per_bucket: int
    max_locations_per_minimizer: int

    @property
    def bucket_count(self) -> int:
        return 1 << self.bucket_bits

    @property
    def first_level_bytes(self) -> int:
        return self.bucket_count * BUCKET_ENTRY_BYTES

    @property
    def second_level_bytes(self) -> int:
        return self.distinct_minimizers * MINIMIZER_ENTRY_BYTES

    @property
    def third_level_bytes(self) -> int:
        return self.total_locations * LOCATION_ENTRY_BYTES

    @property
    def total_bytes(self) -> int:
        return (self.first_level_bytes + self.second_level_bytes
                + self.third_level_bytes)


@dataclass(frozen=True)
class LookupCost:
    """Memory-access accounting for one index query.

    The hardware model charges one main-memory access for the bucket
    probe, one per minimizer entry scanned within the bucket, and one
    per seed location fetched (paper Section 8.1's frequency and seed
    lookups).
    """

    bucket_probe: int
    minimizers_scanned: int
    locations_fetched: int

    @property
    def total_accesses(self) -> int:
        return self.bucket_probe + self.minimizers_scanned \
            + self.locations_fetched


@dataclass(frozen=True)
class IndexQuery:
    """Everything one bucket probe answers about a minimizer hash.

    MinSeed needs a minimizer's frequency, the memory accesses the
    hardware would spend on it, and — only if the frequency filter
    lets it through — its seed locations.  All three follow from one
    probe of the bucket, so :meth:`FlatIndex.query` answers them
    together; the locations are materialized only when ``hits`` is
    called.

    Attributes:
        cost: the memory accesses a hardware query would issue.
        hits: call it for all seed locations of the minimizer, sorted
            ``(node, offset)``.
    """

    cost: LookupCost
    hits: Callable[[], "tuple[SeedHit, ...]"]

    @property
    def frequency(self) -> int:
        """Occurrence count of the minimizer (0 when absent)."""
        return self.cost.locations_fetched


#: Rows of the probe key derived per step (512 kB of temporaries).
_KEY_SLICE_ROWS = 1 << 16


class IndexWidthError(ValueError):
    """A value does not fit its fixed-width field of the Fig. 6
    layout (32-bit node ids and offsets, 2k-bit hashes)."""


def _as_uint32(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as ``uint32``, refusing to wrap: ``astype`` alone
    would silently truncate the scan's ``int64`` arrays."""
    values = np.asarray(values, dtype=np.int64)
    if len(values) and (int(values.min()) < 0
                        or int(values.max()) > 0xFFFF_FFFF):
        raise IndexWidthError(
            f"{what} {int(values.max())} does not fit the index's "
            f"32-bit field"
        )
    return np.ascontiguousarray(values, dtype=np.uint32)


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
        # Rows are sorted by (bucket, hash); this key is monotone in
        # that order, so one searchsorted over it finds a hash's place
        # in its bucket (see _probe_keys).  Derived here, not stored.
        self._keys = self._probe_keys(self._hashes)

    def _probe_keys(self, hashes: np.ndarray) -> np.ndarray:
        """``(bucket, hash)`` order as one ``uint64`` per hash: the
        2k-bit hash rotated so its bucket bits lead.  When a hash is
        narrower than the bucket field it *is* its bucket."""
        spare = 2 * self.k - self.bucket_bits
        if spare <= 0:
            return hashes
        # A slice of rows at a time into the one output array: at
        # attach time a full-length temporary per term would double or
        # triple the key array's footprint in the process's peak RSS.
        keys = np.empty(len(hashes), dtype=np.uint64)
        for start in range(0, len(hashes), _KEY_SLICE_ROWS):
            rows = hashes[start:start + _KEY_SLICE_ROWS]
            out = keys[start:start + _KEY_SLICE_ROWS]
            np.bitwise_and(rows, np.uint64(self._mask), out=out)
            out <<= np.uint64(spare)
            out |= rows >> np.uint64(self.bucket_bits)
        return keys

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
        check_minimizer_parameters(w, k)
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        nodes = _as_uint32(nodes, "node id")
        offsets = _as_uint32(offsets, "in-node offset")
        if 2 * k < 64 and len(hashes) \
                and int(hashes.max()) >> (2 * k):
            raise IndexWidthError(
                f"minimizer hash {int(hashes.max())} is wider than "
                f"2k = {2 * k} bits"
            )
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

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, hash_value: int) -> IndexQuery:
        """Frequency, access cost and (lazily) hits of one hash: a
        :meth:`probe` of one.

        The cost charges the paper's linear in-bucket scan: up to and
        including the first row whose hash is >= the query.
        """
        rows, frequency, scanned = self.probe(
            np.array([hash_value], dtype=np.uint64))
        row = int(rows[0]) if frequency[0] else -1
        return IndexQuery(
            LookupCost(bucket_probe=1, minimizers_scanned=int(scanned[0]),
                       locations_fetched=int(frequency[0])),
            lambda: self._hits_of(row),
        )

    def _hits_of(self, row: int) -> tuple[SeedHit, ...]:
        """Seed locations of minimizer row ``row`` (-1: absent)."""
        if row < 0:
            return ()
        nodes, offsets = self.locations(np.array([row], dtype=np.int64))
        return tuple(SeedHit(node_id=node, offset=offset)
                     for node, offset in zip(nodes.tolist(),
                                             offsets.tolist()))

    def probe(self, hashes: np.ndarray) \
            -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`query` for an array of hashes, in one search.

        Returns ``(rows, frequency, scanned)``, one ``int64`` entry
        per hash: the row where the hash is or would be in its
        bucket, its occurrence count (0 when absent) and the
        ``minimizers_scanned`` of its :class:`LookupCost` (whose
        ``bucket_probe`` is 1 and ``locations_fetched`` the
        frequency).  Pass the rows of present hashes to
        :meth:`locations`.
        """
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        buckets = (hashes & np.uint64(self._mask)).astype(np.int64)
        lo = self._starts[buckets].astype(np.int64)
        hi = self._starts[buckets + 1].astype(np.int64)
        rows = np.searchsorted(self._keys, self._probe_keys(hashes))
        if 2 * self.k < 64:
            # Wider than any stored hash: past every row of its bucket.
            rows = np.where(hashes >> np.uint64(2 * self.k), hi, rows)
        present = np.flatnonzero(rows < hi)
        present = present[self._hashes[rows[present]] == hashes[present]]
        frequency = np.zeros(len(hashes), dtype=np.int64)
        frequency[present] = self._loc_counts[rows[present]]
        return rows, frequency, np.minimum(rows + 1, hi) - lo

    def locations(self, rows: np.ndarray) \
            -> tuple[np.ndarray, np.ndarray]:
        """Seed locations ``(node, offset)`` of minimizer rows, row
        after row (``int64``; ``min_loc_count[rows]`` entries each)."""
        counts = self._loc_counts[rows].astype(np.int64)
        first = self._loc_starts[rows].astype(np.int64) \
            - (np.cumsum(counts) - counts)
        take = np.repeat(first, counts) \
            + np.arange(counts.sum(), dtype=np.int64)
        return (self._nodes[take].astype(np.int64),
                self._offsets[take].astype(np.int64))

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

    One :func:`~repro.index.minimizer.scan_minimizers` over the node
    sequences of the range; ranges partition cleanly because
    minimizers never span nodes.
    """
    if node_hi is None:
        node_hi = graph.node_count
    scan = scan_minimizers(
        [graph.sequence_of(node_id)
         for node_id in range(node_lo, node_hi)],
        w, k, scoring)
    return scan.scores, node_lo + scan.owners, scan.positions


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
    """Index the ``<w,k>``-minimizers of every node sequence of a graph.

    Minimizers are computed *within* node sequences (the paper indexes
    "the minimizers' exact matching locations in the graphs' nodes",
    Section 5); seeds spanning node boundaries are not indexed.  Nodes
    shorter than ``k`` contribute no minimizers.

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
