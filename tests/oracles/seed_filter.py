"""The mapper's region filter on records, as it ran before it moved
onto MinSeed's numpy columns.

:func:`filter_regions` is the filter itself: a stable Python ``sorted``
on ``(seed.frequency, seed.read_start)`` — rarest minimizer first —
then the ``max_seeds_per_read`` cap.  :class:`RecordFilterSeGraM` is
the engine around it: the seed stage builds a record for every region
:meth:`~repro.core.minseed.MinSeed.seed_chunk` emits, the filter stage
sorts and caps them, and ``map_seeded`` aligns the orientation with
the longer unfiltered region list first.
"""

from __future__ import annotations

import math

from repro.core.mapper import SeededRead, SeGraM
from repro.core.pipeline import timed


def filter_regions(regions, cap):
    """Rarest minimizer first, then read position (ties in seed
    order), at most ``cap`` (None: all)."""
    ordered = sorted(regions,
                     key=lambda r: (r.seed.frequency, r.seed.read_start))
    return ordered if cap is None else ordered[:cap]


class RecordFilterSeGraM(SeGraM):
    """:class:`~repro.core.mapper.SeGraM` with the filter on records."""

    def seed_stage(self, tasks):
        stats = self.stats.stage("seed")
        with timed(stats):
            seeded = [
                SeededRead(task=task, regions=regions, stats=seed_stats)
                for task, (regions, seed_stats) in zip(
                    tasks, self.minseed.seed_chunk(
                        [task.sequence for task in tasks]))
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
            self.stats.regions_chained += len(regions)
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
