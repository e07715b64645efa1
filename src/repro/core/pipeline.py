"""Pipeline statistics, candidate selection and the shard pool.

The staged drive itself — ``seed -> filter -> extract -> align
-> select``, the software mirror of paper Fig. 2 — is
:class:`~repro.core.mapper.SeGraM`'s own (:meth:`~repro.core.mapper.
SeGraM.map_reads`).  This module holds what the drive does not own:

* the typed counters every stage times into: one
  :class:`StageStats` row per stage in a :class:`PipelineStats`, the
  software analogue of the paper's per-unit utilization counters;
* the candidate helpers: :func:`commit_candidates` (order, collapse
  per locus, truncate to the top N) and :func:`best_of` (the
  forward-wins-ties choice between two orientations);
* the **batch engine**: :func:`run_sharded` shards a read set — or a
  set of read pairs — across the engine's standing
  :class:`PersistentPool`, forked once, after the linearization is
  built, so the workers share the index and the linearization with
  the parent copy-on-write.  A shard is ``(pair_config, items)``;
  every shard, in a worker or in-process, runs :func:`map_local`,
  which returns the shard's results with its own
  :class:`PipelineStats` (pair counters included), and the caller
  merges that into its own.

Sharding changes *when* work happens, never *what* is computed: a
read maps to the same result alone, at any position of any batch,
and on any worker.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import warnings
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.minseed import SeedingStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mapper import AlignmentCandidate, MappingResult, \
        SeGraM
    from repro.core.pairing import PairStats


#: Stage names in execution order (also the row order of stats tables).
STAGE_ORDER = ("seed", "filter", "extract", "align", "select")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def _pair_stats() -> "PairStats":
    # Imported here: repro.core.pairing imports the engine, which
    # imports this module.
    from repro.core.pairing import PairStats

    return PairStats()


@dataclass
class StageStats:
    """Counters for one pipeline stage.

    Attributes:
        name: stage name (one of :data:`STAGE_ORDER`).
        items_in: work items entering the stage (reads for ``seed`` and
            ``select``, regions for the middle stages).
        items_out: items surviving the stage.
        dropped: items discarded by the stage (the filter's cap,
            or, in ``align``, regions subsumed by an earlier alignment
            plus regions skipped by the early-exit knob).
        seconds: wall time spent inside the stage.
    """

    name: str
    items_in: int = 0
    items_out: int = 0
    dropped: int = 0
    seconds: float = 0.0

    def merge(self, other: "StageStats") -> None:
        self.items_in += other.items_in
        self.items_out += other.items_out
        self.dropped += other.dropped
        self.seconds += other.seconds


@dataclass
class PipelineStats:
    """Aggregate pipeline statistics over any number of reads.

    Mergeable (:meth:`merge`) so per-shard statistics from batch
    workers fold into one report, and picklable so they survive the
    ``multiprocessing`` result queue.
    """

    reads: int = 0
    reads_mapped: int = 0
    #: The ``seed`` row's ``items_out`` (and the ``filter`` row's
    #: ``items_in``); kept because ``benchmarks/perf/run.py`` reads it
    #: by key.
    regions_seeded: int = 0
    #: Kept regions (the ``filter`` row's ``items_out``) never
    #: extracted or aligned because an earlier alignment of the same
    #: oriented read already passes through their seed
    #: (:meth:`~repro.core.mapper.SeGraM._mark_subsumed`).  Without
    #: ``early_exit_distance``, kept ``== regions_subsumed +
    #: regions_aligned``; with it the remainder left with the exit.
    regions_subsumed: int = 0
    #: The ``align`` row's ``items_out``; kept because
    #: ``benchmarks/perf/run.py`` reads it by key.
    regions_aligned: int = 0
    #: Aligned regions given up once they provably cannot matter
    #: (:meth:`~repro.core.mapper.SeGraM.align_stage`); counted in
    #: ``regions_aligned`` too.
    regions_abandoned: int = 0
    #: Never written — there is no region cache.  Deleted with ROADMAP
    #: item 1, whose benchmark PR stops ``run.py`` indexing these four.
    cache_hits: int = 0
    cache_misses: int = 0
    pair_cache_hits: int = 0
    pair_cache_misses: int = 0
    windows: int = 0
    rescues: int = 0
    #: Windows committed without the kernel, rungs 0–2: the chunk is
    #: within Hamming distance 2 of the hop-free text from the
    #: window's one anchor and the kernel would answer with that
    #: ``=`` / ``X`` run (:func:`repro.core.windows._hamming_rung`).
    windows_exact: int = 0
    #: Alignment-kernel sweeps: one per window attempt not committed
    #: without the kernel (rungs 0–2), so
    #: ``align_calls + windows_exact == windows + rescues``.  It
    #: measures dispatch work, never what is computed.
    align_calls: int = 0
    #: Never written: ``benchmarks/perf/run.py::stage_values`` reads
    #: this key until the span-rename benchmark PR drops it.
    align_windows_batched: int = 0
    seeding: SeedingStats = field(default_factory=SeedingStats)
    stages: "OrderedDict[str, StageStats]" = field(default_factory=OrderedDict)
    #: Pair-level counters (:class:`~repro.core.pairing.PairStats`);
    #: zeros until pairs map.
    pairs: "PairStats" = field(default_factory=_pair_stats)

    @classmethod
    def empty(cls) -> "PipelineStats":
        stats = cls()
        for name in STAGE_ORDER:
            stats.stages[name] = StageStats(name=name)
        return stats

    def stage(self, name: str) -> StageStats:
        if name not in self.stages:
            self.stages[name] = StageStats(name=name)
        return self.stages[name]

    def merge(self, other: "PipelineStats") -> None:
        self.reads += other.reads
        self.reads_mapped += other.reads_mapped
        self.regions_seeded += other.regions_seeded
        self.regions_subsumed += other.regions_subsumed
        self.regions_aligned += other.regions_aligned
        self.regions_abandoned += other.regions_abandoned
        self.windows += other.windows
        self.rescues += other.rescues
        self.windows_exact += other.windows_exact
        self.align_calls += other.align_calls
        self.seeding.merge(other.seeding)
        self.pairs.merge(other.pairs)
        for name, stage in other.stages.items():
            self.stage(name).merge(stage)

    def stage_rows(self) -> list[dict]:
        """Rows for :func:`repro.eval.report.format_table`.

        The ``calls`` column surfaces the kernel-call count on the
        align row (blank elsewhere).  The align row's ``dropped`` is
        ``regions_subsumed`` plus the regions an early exit left
        unvisited.
        """
        return [
            {"stage": s.name, "in": s.items_in, "out": s.items_out,
             "dropped": s.dropped,
             "calls": self.align_calls if s.name == "align" else None,
             "seconds": round(s.seconds, 4)}
            for s in self.stages.values()
        ]

    def summary_lines(self) -> list[str]:
        """Human-readable roll-up printed by ``python -m repro map``."""
        return [
            f"reads: {self.reads} total, {self.reads_mapped} mapped",
            f"regions: {self.regions_seeded} seeded -> "
            f"{self.stage('filter').items_out} kept -> "
            f"{self.regions_subsumed} subsumed -> "
            f"{self.regions_aligned} aligned "
            f"({self.regions_abandoned} abandoned)",
            f"alignment work: {self.windows} windows "
            f"({self.windows_exact} exact), {self.rescues} rescues, "
            f"{self.align_calls} kernel calls",
        ]


@contextmanager
def timed(stage: StageStats):
    """Add the wall time of the ``with`` body to ``stage.seconds``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        stage.seconds += time.perf_counter() - start


def _same_locus(a: "AlignmentCandidate", b: "AlignmentCandidate",
                read_length: int) -> bool:
    """Whether two candidates describe the same reference locus.

    Overlapping seed regions of one read re-derive the same placement
    (possibly shifted by an indel); counting them as independent
    candidates would fake a repeat tie and zero out MAPQ on unique
    reads.  Two placements on the same strand whose starts are within
    half a read length are one locus; with no linear projection
    (graph-backed contigs) the exact ``(node_id, node_offset)`` anchor
    decides.
    """
    if a.strand != b.strand:
        return False
    if a.contig != b.contig:
        return False
    if a.linear_position is not None and b.linear_position is not None:
        return abs(a.linear_position - b.linear_position) \
            < max(1, read_length // 2)
    return (a.node_id, a.node_offset) == (b.node_id, b.node_offset)


def commit_candidates(result: "MappingResult",
                      candidates: "list[AlignmentCandidate]",
                      top_n: int) -> None:
    """Order, deduplicate, truncate, and commit candidates.

    Candidates are sorted by the stable ``(distance, strand,
    position)`` key, collapsed per locus (best survivor wins), and
    the top ``top_n`` retained.  The best candidate's placement is
    written onto ``result``; ``second_best_distance`` /
    ``candidate_count`` record the calibration signal.
    """
    ordered = sorted(candidates, key=lambda c: c.sort_key)
    kept: "list[AlignmentCandidate]" = []
    for candidate in ordered:
        if any(_same_locus(candidate, existing, result.read_length)
               for existing in kept):
            continue
        kept.append(candidate)
    result.candidate_count = len(kept)
    result.candidates = tuple(kept[:top_n])
    if not kept:
        return
    best = kept[0]
    result.mapped = True
    result.distance = best.distance
    result.cigar = best.cigar
    result.node_id = best.node_id
    result.node_offset = best.node_offset
    result.path_nodes = best.path_nodes
    result.linear_position = best.linear_position
    result.contig = best.contig
    result.windows = best.windows
    result.rescues = best.rescues
    # From the full deduplicated list, not the truncated tuple: the
    # runner-up locus calibrates MAPQ even at top_n_alignments=1.
    result.second_best_distance = kept[1].distance \
        if len(kept) >= 2 else None


def best_of(forward: "MappingResult",
            reverse: "MappingResult | None") -> "MappingResult":
    """None-safe best-of-two orientations; forward wins ties.

    An unmapped result never beats a mapped one; between two mapped
    results the lower edit distance wins, and on equal distance (or a
    missing distance on either side) the forward orientation is kept —
    the deterministic tie-break the strand-reporting contract relies
    on.  The same ordering governs candidate lists (the
    ``AlignmentCandidate.sort_key`` tuple ``(distance, strand,
    position)``), so the selected placement, the candidate ranking,
    and therefore MAPQ are identical under ``--jobs`` sharding and
    any region-enumeration order.
    """
    if reverse is None or not reverse.mapped:
        return forward
    if not forward.mapped:
        return reverse
    if forward.distance is None:
        return reverse if reverse.distance is not None else forward
    if reverse.distance is None:
        return forward
    return reverse if reverse.distance < forward.distance else forward


# ----------------------------------------------------------------------
# Batch engine
# ----------------------------------------------------------------------

def effective_jobs(jobs: int, read_count: int) -> int:
    """Worker processes that will actually run for this batch; at 1
    the batch maps in-process and no pool is touched.

    Bounded by the read count, and 1 on platforms without the ``fork``
    start method (an engine's standing pool inherits the index and the
    linearization through ``fork``).
    """
    jobs = max(1, min(jobs, read_count))
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return jobs


def map_local(engine: "SeGraM", items: Sequence,
              pair_config=None) -> tuple:
    """Map one shard of ``items`` in this process.

    Reads are ``(name, sequence)``; with a
    :class:`~repro.core.pairing.PairedEndConfig` they are
    ``(name, read1, read2)`` pairs, mapped by
    :func:`~repro.core.pairing.map_pairs_local` under that config.
    Returns ``(results, PipelineStats)`` with the statistics of
    exactly this shard; the engine's own statistics are left as they
    were, for :func:`run_sharded` to merge into.
    """
    outer = engine.stats
    engine.reset_stats()
    try:
        if pair_config is None:
            return engine.map_reads(items), engine.stats
        from repro.core.pairing import map_pairs_local

        return map_pairs_local(engine, items, pair_config), engine.stats
    finally:
        engine.stats = outer


# ----------------------------------------------------------------------
# Standing worker pools
# ----------------------------------------------------------------------

_POOL_ENGINE = None


def _pool_worker_init(engine_ref) -> None:
    """Pool initializer: resolve the engine this worker inherited (see
    :class:`PersistentPool`)."""
    global _POOL_ENGINE
    # Per-process by design: each worker resolves its engine once at
    # start-up; nothing ever reads it parent-side.
    _POOL_ENGINE = engine_ref()  # repro: allow[fork-safety]


def _pool_worker_run(payload):
    pair_config, items = payload
    assert _POOL_ENGINE is not None, "persistent pool not initialized"
    return map_local(_POOL_ENGINE, items, pair_config)


class PersistentPool:
    """An engine's standing pool of forked worker processes.

    The workers fork once and then serve any number of batches: the
    engine, index and linearization they inherited stay resident, as
    in SeGraM's replicated MinSeed + BitAlign units, and only items,
    results and statistics payloads travel.  They fork during a call
    on the engine, so the weak reference each worker starts from —
    which keeps the pool from keeping its engine alive — resolves in
    every worker.  :meth:`~repro.core.mapper.SeGraM.worker_pool` owns
    the one pool of an engine.

    :meth:`run` cuts a batch into at most ``jobs`` contiguous shards of
    ``ceil(n / jobs)`` items.  A worker that dies mid-batch breaks the
    pool: :meth:`run` closes it and raises
    :class:`~concurrent.futures.process.BrokenProcessPool` instead of
    waiting for results that will never come.
    """

    def __init__(self, engine: "SeGraM", jobs: int) -> None:
        # Imported on first use, so a process that never maps at
        # jobs > 1 does not load the executor (about 1.3 MB of RSS).
        from concurrent.futures import ProcessPoolExecutor

        self.jobs = jobs
        self._executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_pool_worker_init,
            initargs=(weakref.ref(engine),),
        )

    @property
    def closed(self) -> bool:
        return self._executor is None

    def run(self, items: Sequence, pair_config=None) -> list:
        """Map shards of ``items`` across the standing workers.

        Returns each shard's :func:`map_local` pair, in shard order;
        :func:`run_sharded` flattens and merges them.
        """
        from concurrent.futures.process import BrokenProcessPool

        if self._executor is None:
            raise RuntimeError("persistent pool is closed")
        chunk = math.ceil(len(items) / self.jobs)
        payloads = [(pair_config, items[i:i + chunk])
                    for i in range(0, len(items), chunk)]
        try:
            return list(self._executor.map(_pool_worker_run, payloads))
        except BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        """Stop the workers and wait for them to exit (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


def run_sharded(engine: "SeGraM", items: Sequence, jobs: int = 1,
                pair_config=None) -> list:
    """Map ``items`` on ``engine``, sharded across its standing pool of
    ``jobs`` workers (:meth:`~repro.core.mapper.SeGraM.worker_pool`).

    ``pair_config`` is the :class:`~repro.core.pairing.
    PairedEndConfig` when the items are read pairs.  When one worker
    would run (:func:`effective_jobs`), the items map in-process as
    one shard.  Each shard's statistics merge into ``engine.stats``,
    and results come back in input order, identical either way.
    ``jobs`` below 1 raises :class:`ValueError` before any item is
    read.

    The engine's workers see the engine as it was when they forked:
    a change to it reaches them only through a new pool, after
    :meth:`~repro.core.mapper.SeGraM.close`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if effective_jobs(jobs, len(items)) == 1:
        if jobs > 1 and len(items) > 1:
            warnings.warn(
                "multiprocessing start method 'fork' is "
                "unavailable on this platform; mapping "
                "sequentially", RuntimeWarning, stacklevel=3,
            )
        shards = [map_local(engine, items, pair_config)]
    else:
        shards = engine.worker_pool(jobs).run(items, pair_config)
    results: list = []
    for shard_results, stats in shards:
        results.extend(shard_results)
        engine.stats.merge(stats)
    return results
