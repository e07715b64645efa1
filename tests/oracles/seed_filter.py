"""MinSeed and the mapper's region filter, one read and one record at a
time.

:func:`reference_seed` is MinSeed the way the hardware datapath is
described (paper Section 6, Fig. 9): the nested-loop minimizer oracle,
one ``index.query`` per minimizer, the Fig. 9 arithmetic in Python
floats, a set of seen spans; its regions come in seed order.
:func:`filter_regions` is the filter: a stable Python ``sorted`` on
``(seed.frequency, seed.read_start)`` — rarest minimizer first — then
the ``max_seeds_per_read`` cap.  ``filter_regions(reference_seed(...),
cap)`` is what :meth:`~repro.core.minseed.MinSeed.seed_chunk` must
return for each read of any chunk.

:class:`RecordFilterSeGraM` is the engine around the two: its seed
stage builds a record for every region :func:`reference_seed` emits,
its own filter stage sorts and caps them, and ``map_seeded`` aligns
the orientation with the longer unfiltered region list first.
"""

from __future__ import annotations

import math

from repro.core.mapper import SeededRead, SeGraM
from repro.core.minseed import MinSeed, Seed, SeedingStats, SeedRegion
from repro.core.pipeline import timed
from repro.index.minimizer import brute_force_minimizers


def reference_seed(minseed: MinSeed, index, read: str):
    """Steps 1–4 of MinSeed for one read: ``(regions, stats)``, the
    regions in seed order (minimizer by minimizer, each one's
    locations in index order), exact-duplicate spans once."""
    stats = SeedingStats()
    found = brute_force_minimizers(read, index.w, index.k, index.scoring)
    stats.minimizer_count = len(found)
    m, e, k = len(read), minseed.error_rate, index.k
    offsets = minseed.graph.offsets()
    spans = list(zip(minseed._span_starts.tolist(),
                     minseed._span_ends.tolist()))
    regions, seen = [], set()
    for minimizer in found:
        query = index.query(minimizer.score)
        stats.index_accesses += query.cost.total_accesses
        if query.frequency == 0:
            continue
        if query.frequency > minseed.freq_threshold:
            stats.filtered_minimizers += 1
            continue
        a = minimizer.position
        b = a + k - 1
        for hit in query.hits():
            stats.seed_count += 1
            c = offsets[hit.node_id] + hit.offset
            d = c + k - 1
            x = int(c - a * (1 + e))
            y = int(d + (m - b - 1) * (1 + e))
            lo, hi = next(s for s in spans if s[0] <= c < s[1])
            start, end = max(lo, x), min(hi, y + 1)
            if end <= start or (start, end) in seen:
                continue
            seen.add((start, end))
            regions.append(SeedRegion(
                Seed(read_start=a, read_end=b, node_id=hit.node_id,
                     node_offset=hit.offset, graph_start=c, graph_end=d,
                     minimizer_hash=minimizer.score,
                     frequency=query.frequency),
                start=start, end=end))
    stats.region_count = len(regions)
    return regions, stats


def filter_regions(regions, cap):
    """Rarest minimizer first, then read position (ties in seed
    order), at most ``cap`` (None: all)."""
    ordered = sorted(regions,
                     key=lambda r: (r.seed.frequency, r.seed.read_start))
    return ordered if cap is None else ordered[:cap]


class RecordFilterSeGraM(SeGraM):
    """:class:`~repro.core.mapper.SeGraM` with seeding by
    :func:`reference_seed` and the filter on records, in a stage of its
    own."""

    def seed_stage(self, tasks):
        stats = self.stats.stage("seed")
        with timed(stats):
            seeded = [
                SeededRead(task, *reference_seed(self.minseed, self.index,
                                                 task.sequence))
                for task in tasks
            ]
            for read in seeded:
                stats.items_out += len(read.regions)
                self.stats.regions_seeded += len(read.regions)
                self.stats.seeding.merge(read.stats)
            stats.items_in += len(seeded)
        return seeded

    def filter_stage(self, seeded):
        stats = self.stats.stage("filter")
        with timed(stats):
            n_in = len(seeded.regions)
            stats.items_in += n_in
            regions = filter_regions(seeded.regions,
                                     self.config.max_seeds_per_read)
            stats.items_out += len(regions)
            stats.dropped += n_in - len(regions)
        return SeededRead(task=seeded.task, regions=regions,
                          stats=seeded.stats)

    def map_seeded(self, forward, reverse, bounded=True):
        best = math.inf if bounded else None
        results = {}
        oriented = [s for s in (forward, reverse) if s is not None]
        for seeded in sorted(oriented, key=lambda s: -len(s.regions)):
            results[seeded.task.strand] = result = self.align_stage(
                self.filter_stage(seeded), best)
            if best is not None and result.mapped:
                best = min(best, result.distance)
        return self.select_stage(results["+"], results.get("-"))
