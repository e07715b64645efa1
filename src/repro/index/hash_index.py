"""Three-level hash-table index of graph minimizers (paper Fig. 6).

The index maps minimizer hash values to their exact-match locations in
the graph's nodes.  Its memory layout is three levels:

1. **Buckets** — ``2^bucket_bits`` entries of 4 B each; a minimizer hash
   is assigned to bucket ``hash & (2^bucket_bits - 1)``.  Each entry
   stores the start and count of its minimizers in level 2.
2. **Minimizers** — 12 B per distinct minimizer: the hash value, the
   start of its locations in level 3, and the location count, sorted by
   hash within each bucket.
3. **Seed locations** — 8 B per location: (node ID, offset in node).

The bucket count trades memory footprint against hash collisions
(minimizers per bucket — more collisions mean more memory lookups per
query); the paper's Fig. 7 sweeps it and settles on 2^24 for the human
genome.  :meth:`HashTableIndex.layout` reproduces both curves for any
bucket width.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.graph.genome_graph import GenomeGraph
from repro.index.minimizer import Scoring, scan_minimizers

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
    probe of the bucket, so both index kinds answer them together
    (``query``); the locations are materialized only when ``hits`` is
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


class HashTableIndex:
    """Queryable three-level minimizer index of a genome graph."""

    def __init__(
        self,
        catalog: Mapping[int, Sequence[SeedHit]],
        w: int,
        k: int,
        bucket_bits: int,
        scoring: Scoring = "hash",
    ) -> None:
        if bucket_bits < 1:
            raise ValueError(f"bucket_bits must be >= 1, got {bucket_bits}")
        self.w = w
        self.k = k
        self.bucket_bits = bucket_bits
        self.scoring = scoring
        self._catalog: dict[int, tuple[SeedHit, ...]] = {
            h: tuple(sorted(hits)) for h, hits in catalog.items()
        }
        self._buckets: dict[int, list[int]] = {}
        self._mask = (1 << bucket_bits) - 1
        for hash_value in self._catalog:
            self._buckets.setdefault(hash_value & self._mask,
                                     []).append(hash_value)
        for bucket in self._buckets.values():
            bucket.sort()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, hash_value: int) -> IndexQuery:
        """Frequency, access cost and (lazily) hits from one probe.

        The cost charges the paper's linear in-bucket scan — up to and
        including the first entry whose hash is >= the query — which a
        bisect of the sorted bucket counts without walking it.
        """
        hits = self._catalog.get(hash_value, ())
        bucket = self._buckets.get(hash_value & self._mask, ())
        scanned = min(bisect_left(bucket, hash_value) + 1, len(bucket))
        return IndexQuery(
            LookupCost(bucket_probe=1, minimizers_scanned=scanned,
                       locations_fetched=len(hits)),
            lambda: hits,
        )

    def frequency(self, hash_value: int) -> int:
        """Occurrence count of a minimizer (0 when absent).

        This is MinSeed's first memory round trip per minimizer
        (step 3 in paper Fig. 4): fetch the frequency, then decide
        whether to fetch the locations at all.
        """
        return self.query(hash_value).frequency

    def lookup(self, hash_value: int) -> tuple[SeedHit, ...]:
        """All seed locations of a minimizer (step 5 in paper Fig. 4)."""
        return self.query(hash_value).hits()

    def lookup_cost(self, hash_value: int) -> LookupCost:
        """Memory accesses a hardware query would issue for this hash."""
        return self.query(hash_value).cost

    def iter_entries(self) -> Iterator[tuple[int, tuple[SeedHit, ...]]]:
        """Yield every ``(hash, sorted seed hits)`` catalog entry.

        The full index contents in a stable, query-free form — used by
        :meth:`repro.index.FlatIndex.from_hash_index` to flatten the
        dict catalog into the array layout.
        """
        yield from self._catalog.items()

    # ------------------------------------------------------------------
    # Statistics / layout
    # ------------------------------------------------------------------

    @property
    def distinct_minimizers(self) -> int:
        return len(self._catalog)

    @property
    def total_locations(self) -> int:
        return sum(len(hits) for hits in self._catalog.values())

    def frequencies(self) -> list[int]:
        """Occurrence counts of all distinct minimizers."""
        return [len(hits) for hits in self._catalog.values()]

    def layout(self, bucket_bits: int | None = None) -> IndexLayout:
        """Compute the Fig. 7 footprint curves for a bucket width."""
        bits = self.bucket_bits if bucket_bits is None else bucket_bits
        if bits < 1:
            raise ValueError(f"bucket_bits must be >= 1, got {bits}")
        mask = (1 << bits) - 1
        per_bucket: dict[int, int] = {}
        for hash_value in self._catalog:
            bucket = hash_value & mask
            per_bucket[bucket] = per_bucket.get(bucket, 0) + 1
        max_per_bucket = max(per_bucket.values(), default=0)
        max_locations = max(
            (len(hits) for hits in self._catalog.values()), default=0,
        )
        return IndexLayout(
            bucket_bits=bits,
            distinct_minimizers=self.distinct_minimizers,
            total_locations=self.total_locations,
            max_minimizers_per_bucket=max_per_bucket,
            max_locations_per_minimizer=max_locations,
        )


def build_index(
    graph: GenomeGraph,
    w: int = 10,
    k: int = 15,
    bucket_bits: int = 14,
    scoring: Scoring = "hash",
) -> HashTableIndex:
    """Index the ``<w,k>``-minimizers of every node sequence of a graph.

    Minimizers are computed *within* node sequences (the paper indexes
    "the minimizers' exact matching locations in the graphs' nodes",
    Section 5); seeds spanning node boundaries are not indexed, which
    is why variation-dense regions rely on the alignment step's
    tolerance.  Nodes shorter than ``k`` contribute no minimizers.

    Defaults follow minimap2's short-read-profile ``<w,k>`` scaled-down
    bucket width; the paper uses 2^24 buckets for the 3.1 Gbp human
    genome, and the Fig. 7 benchmark sweeps this parameter.

    This is the dict *view* of the index, kept for the tests and the
    Fig. 7 experiments; mapping builds
    :func:`~repro.index.flat_index.build_flat_index` and never goes
    through it.
    """
    scan = scan_minimizers(
        [graph.sequence_of(node_id)
         for node_id in range(graph.node_count)],
        w, k, scoring)
    bounds = scan.bounds.tolist()
    scores = scan.scores.tolist()
    positions = scan.positions.tolist()
    catalog: dict[int, list[SeedHit]] = {}
    for node_id in range(graph.node_count):
        for at in range(bounds[node_id], bounds[node_id + 1]):
            catalog.setdefault(scores[at], []).append(
                SeedHit(node_id=node_id, offset=positions[at]))
    return HashTableIndex(
        catalog=catalog, w=w, k=k, bucket_bits=bucket_bits, scoring=scoring,
    )
