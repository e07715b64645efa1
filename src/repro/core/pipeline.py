"""Staged mapping pipeline engine (software mirror of paper Fig. 2).

SeGraM's hardware is an explicit pipeline: MinSeed units produce
candidate regions that flow through queues into BitAlign units, with
per-stage scratchpads acting as caches (Sections 6-8).  This module
expresses the same decomposition in software.  Mapping one oriented
read is a pass over four composable stages::

    seed -> filter/chain -> extract+linearize -> align

followed by a fifth *select* stage that folds the per-orientation
results (forward / reverse-complement) into the final
:class:`~repro.core.mapper.MappingResult`.  Each stage reports typed
counters (items in/out, dropped, wall time) into a
:class:`PipelineStats` object, the software analogue of the paper's
per-unit utilization counters.

Every mapping call — one read, a batch, a pool shard, a daemon
dispatch, a mate of a pair — takes the same drive,
:meth:`MappingPipeline.map_reads`, which is four plain nested loops:
read -> oriented read -> region -> window.  Stage 1 seeds the call's
oriented reads a chunk at a time (:meth:`MappingPipeline.seed_reads`
— the one place batching across reads pays, as in the hardware's
MinSeed units); stage 2 runs per oriented read; the align stage then
walks that read's regions in order, extracting and aligning one at a
time
(:meth:`~repro.core.windows.WindowedAligner.align`, every window of
which is one call of the diagonal BitAlign kernel).

**Each locus is aligned once.**  MinSeed sends every surviving seed
region to BitAlign (paper Section 11.4), which a hardware BitAlign
makes nearly free; here a region costs milliseconds and most regions
of a read re-derive one placement from another minimizer.  So, the
way BWA-MEM skips seeds contained in an alignment it already has, a
region is **subsumed** — neither extracted nor aligned — when an
earlier alignment of the same oriented read matches (``=``) read
position ``seed.read_start`` to graph character ``seed.graph_start``
*and* that earlier region's node range contains this region's
(:meth:`AlignStage._mark_subsumed`).  A repeat copy sits on another
diagonal, so it is never subsumed and MAPQ keeps its competitors.
This deviates from Section 11.4 in software only; the hardware models
of :mod:`repro.hw` call the aligner directly and keep the paper's
align-every-seed accounting.

**A region that cannot win stops aligning.**  A runner-up
:data:`~repro.core.alignment.MAPQ_SATURATION_GAP` (5) edits behind
the best changes no MAPQ, and single-end output shows only the best
placement, so once a read has a completed alignment a region is
abandoned as soon as its committed edits exceed ``best + 4``
(:meth:`AlignStage.run`).  The better-seeded orientation goes first,
to set that budget early.  Pairs are not budgeted.

**Extraction is an address range.**  In SeGraM a seed's candidate
region is a range of addresses into the topologically sorted node /
character / edge tables (paper Section 5, Fig. 5) — nothing is copied
out of them.  Here the whole graph is linearized **once** per
pipeline (:meth:`MappingPipeline.linearization`, a hop-sparse
:class:`~repro.graph.linearize.LinearizedGraph`), and the extract
stage turns a region into the node range it selects (nodes that
partially overlap the span are taken whole, as MinSeed's fetch does)
and that range into a *view* of the one linearization: two bisects, a
string slice and the seed anchor.  BitAlign's windows are views of
that view.  There is nothing to memoize, so there is no region cache.

A **batch engine** (:func:`run_sharded`) shards a read set — or a
set of read pairs — across the engine's standing
:class:`PersistentPool`, forked once, after the linearization is
built, so the workers share the index and the linearization with the
parent copy-on-write.  A shard is ``(pair_config, items)``; every
shard, in a worker or in-process, runs :func:`map_local`, which
returns the shard's results with its own :class:`PipelineStats` (and
pair statistics), and the caller merges those into its own.

Stage boundaries and sharding change *when* work happens, never
*what* is computed: a read maps to the same result alone, at any
position of any batch, and on any worker.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import warnings
import weakref
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import seq as seqmod
from repro.core.alignment import MAPQ_SATURATION_GAP, READ_CONSUMING, \
    REF_CONSUMING
from repro.core.chaining import chain_regions
from repro.core.minseed import SeedRegion, SeedingStats
from repro.graph.linearize import LinearizedGraph, linearize
from repro.index.minimizer import SCAN_BLOCK_BASES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mapper import AlignmentCandidate, MappingResult, \
        SeGraM


#: Stage names in execution order (also the row order of stats tables).
STAGE_ORDER = ("seed", "filter", "extract", "align", "select")

#: Read bases (one orientation) the seed stage takes in one chunk: a
#: block of the scan itself — enough reads (80 of 100 bp) for the
#: per-call cost of the array operations to vanish, few enough that a
#: chunk's regions and temporaries stay under a megabyte.
SEED_CHUNK_BASES = SCAN_BLOCK_BASES


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

@dataclass
class StageStats:
    """Counters for one pipeline stage.

    Attributes:
        name: stage name (one of :data:`STAGE_ORDER`).
        items_in: work items entering the stage (reads for ``seed`` and
            ``select``, regions for the middle stages).
        items_out: items surviving the stage.
        dropped: items discarded by the stage (filter cap / chaining,
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
    regions_seeded: int = 0
    regions_chained: int = 0
    #: Kept regions never extracted or aligned because an earlier
    #: alignment of the same oriented read already passes through
    #: their seed (:meth:`AlignStage._mark_subsumed`).  Without
    #: ``early_exit_distance``, ``regions_chained == regions_subsumed
    #: + regions_aligned``; with it the remainder left with the exit.
    regions_subsumed: int = 0
    regions_aligned: int = 0
    #: Aligned regions given up once they provably cannot matter
    #: (:meth:`AlignStage.run`); counted in ``regions_aligned`` too.
    regions_abandoned: int = 0
    #: Never written — there is no region cache.  Deleted with ROADMAP
    #: item 1, whose benchmark PR stops ``run.py`` indexing these four.
    cache_hits: int = 0
    cache_misses: int = 0
    pair_cache_hits: int = 0
    pair_cache_misses: int = 0
    windows: int = 0
    rescues: int = 0
    #: Windows committed without the kernel: the chunk equals the
    #: hop-free text from the window's one anchor (rung 0,
    #: :func:`repro.core.windows._is_exact_window`).
    windows_exact: int = 0
    #: Alignment-kernel sweeps: one per non-exact window attempt, so
    #: ``align_calls + windows_exact == windows + rescues``.  It
    #: measures dispatch work, never what is computed.
    align_calls: int = 0
    #: Never written: ``benchmarks/perf/run.py::stage_values`` reads
    #: this key until the span-rename benchmark PR drops it.
    align_windows_batched: int = 0
    seeding: SeedingStats = field(default_factory=SeedingStats)
    stages: "OrderedDict[str, StageStats]" = field(default_factory=OrderedDict)

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
        self.regions_chained += other.regions_chained
        self.regions_subsumed += other.regions_subsumed
        self.regions_aligned += other.regions_aligned
        self.regions_abandoned += other.regions_abandoned
        self.windows += other.windows
        self.rescues += other.rescues
        self.windows_exact += other.windows_exact
        self.align_calls += other.align_calls
        self.seeding.merge(other.seeding)
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
            f"{self.regions_chained} kept -> "
            f"{self.regions_subsumed} subsumed -> "
            f"{self.regions_aligned} aligned "
            f"({self.regions_abandoned} abandoned)",
            f"alignment work: {self.windows} windows "
            f"({self.windows_exact} exact), {self.rescues} rescues, "
            f"{self.align_calls} kernel calls",
        ]


@contextmanager
def _timed(stage: StageStats):
    start = time.perf_counter()
    try:
        yield
    finally:
        stage.seconds += time.perf_counter() - start


# ----------------------------------------------------------------------
# Stage payloads
# ----------------------------------------------------------------------

@dataclass
class ReadTask:
    """One oriented read entering the pipeline."""

    name: str
    sequence: str
    strand: str


@dataclass
class SeededRead:
    """Output of the seed (and filter) stage."""

    task: ReadTask
    regions: list[SeedRegion]
    stats: SeedingStats


@dataclass
class PreparedRegion:
    """Output of the extract stage: one alignable region.

    ``index`` is the region's position in its read's filtered list
    (``SeededRead.regions``): everything after it is still unvisited.
    ``lin`` is the view of nodes ``first_node .. last_node`` of the
    pipeline's whole-graph linearization; its position 0 is global
    character ``start``, and ``anchor`` is in its coordinates.
    """

    index: int
    region: SeedRegion
    lin: LinearizedGraph
    first_node: int
    last_node: int
    start: int
    anchor: tuple[int, int]


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

class SeedStage:
    """Step 1 (paper Section 6): MinSeed candidate-region generation,
    for a chunk of oriented reads at a time."""

    name = "seed"

    def run(self, tasks: Sequence[ReadTask],
            pipe: "MappingPipeline") -> list[SeededRead]:
        stats = pipe.stats.stage(self.name)
        with _timed(stats):
            seeded = [
                SeededRead(task=task, regions=regions, stats=seed_stats)
                for task, (regions, seed_stats) in zip(
                    tasks, pipe.minseed.seed_chunk(
                        [task.sequence for task in tasks]))
            ]
            for read in seeded:
                stats.items_out += len(read.regions)
                pipe.stats.regions_seeded += len(read.regions)
                pipe.stats.seeding.merge(read.stats)
            stats.items_in += len(seeded)
        return seeded


class ChainFilterStage:
    """Step 2 (paper Fig. 2): optional chaining, ordering, and cap.

    Regions are ordered rarest-minimizer-first so a per-read cap, the
    early-exit knob and the align stage's subsumption rule all see the
    likeliest candidates early, then truncated to
    ``max_seeds_per_read`` — a cap on the regions *considered*:
    subsumed ones are not replaced by deeper seeds.
    """

    name = "filter"

    def run(self, seeded: SeededRead,
            pipe: "MappingPipeline") -> SeededRead:
        stats = pipe.stats.stage(self.name)
        config = pipe.config
        with _timed(stats):
            regions = seeded.regions
            n_in = len(regions)
            stats.items_in += n_in
            if config.chaining and regions:
                regions = chain_regions(
                    regions,
                    read_length=len(seeded.task.sequence),
                    error_rate=config.error_rate,
                    total_chars=pipe.graph.total_sequence_length,
                    top_n=config.max_seeds_per_read,
                )
            regions = sorted(
                regions,
                key=lambda r: (r.seed.frequency, r.seed.read_start),
            )
            if config.max_seeds_per_read is not None:
                regions = regions[:config.max_seeds_per_read]
            stats.items_out += len(regions)
            stats.dropped += max(0, n_in - len(regions))
            pipe.stats.regions_chained += len(regions)
        return SeededRead(task=seeded.task, regions=regions,
                          stats=seeded.stats)


class ExtractStage:
    """Step 3: subgraph extraction, as an address range.

    Runs per region, on demand of the align stage — a region that is
    subsumed, or that follows an early exit, is never extracted.  One
    run finds the node range the region's span selects, takes the
    view of those nodes out of the pipeline's whole-graph
    linearization and computes the seed anchor in the view's
    coordinates.
    """

    name = "extract"

    def run(self, index: int, region: SeedRegion,
            pipe: "MappingPipeline") -> PreparedRegion:
        stats = pipe.stats.stage(self.name)
        with _timed(stats):
            lo, hi = pipe.node_range(region.start, region.end)
            bounds = pipe.node_bounds
            start = bounds[lo]
            lin = pipe.linearization().slice(start, bounds[hi + 1])
            # The seed is an exact match: anchor the windowed aligner
            # at its position (paper Fig. 9's left/right extensions).
            seed = region.seed
            anchor = (bounds[seed.node_id] + seed.node_offset - start,
                      seed.read_start)
            stats.items_in += 1
            stats.items_out += 1
        return PreparedRegion(index=index, region=region, lin=lin,
                              first_node=lo, last_node=hi,
                              start=start, anchor=anchor)


class AlignStage:
    """Step 4 (paper Section 7): windowed BitAlign over each region
    no earlier alignment subsumes, keeping the ``top_n_alignments``
    best alignments by edit distance.

    Every aligned region yields an
    :class:`~repro.core.mapper.AlignmentCandidate`; candidates are
    ordered by the stable ``(distance, strand, position)`` key,
    deduplicated by locus (regions the subsumption rule could not
    collapse may still re-derive one placement — only distinct loci
    may count as MAPQ competitors), and truncated to the configured
    top N.  The best candidate becomes the result's reported placement.
    """

    name = "align"

    def run(self, seeded: SeededRead, pipe: "MappingPipeline",
            best: float | None = None) -> "MappingResult":
        """Align the regions of one oriented read, in filter order.

        Each region that no earlier alignment subsumed is extracted
        and aligned, and its alignment marks the later regions it
        makes redundant (:meth:`_mark_subsumed`).  With
        ``early_exit_distance`` the walk stops at the first region
        that aligns at or below the threshold.

        ``best`` is the lowest distance a completed alignment of this
        read has, either orientation (``math.inf`` before the first;
        None: no budget).  A region is abandoned — no candidate — once
        its committed edits exceed ``best + MAPQ_SATURATION_GAP - 1``
        and the exit threshold: it would finish the saturation gap
        behind, so it can neither win nor lower MAPQ.
        """
        from repro.core.mapper import MappingResult

        stats = pipe.stats.stage(self.name)
        task = seeded.task
        exit_distance = pipe.config.early_exit_distance
        subsumed: set[int] = set()
        found: "list[AlignmentCandidate]" = []
        aligned_count = 0
        for index, seed_region in enumerate(seeded.regions):
            if index in subsumed:
                pipe.stats.regions_subsumed += 1
                continue
            region = pipe.extract_stage.run(index, seed_region, pipe)
            budget = None if best is None else max(
                best + MAPQ_SATURATION_GAP - 1, exit_distance or 0)
            with _timed(stats):
                aligned = pipe.aligner.align(
                    region.lin, task.sequence, region.anchor,
                    counters=pipe.stats, budget=budget)
            stats.items_out += 1
            pipe.stats.regions_aligned += 1
            aligned_count += 1
            if aligned.abandoned:
                pipe.stats.regions_abandoned += 1
            else:
                if best is not None:
                    best = min(best, aligned.distance)
                found.append(self._candidate(aligned, region,
                                             task.strand, pipe))
                if exit_distance is not None \
                        and aligned.distance <= exit_distance:
                    break
            with _timed(stats):
                self._mark_subsumed(aligned, region, seeded.regions,
                                    subsumed, pipe)
        result = MappingResult(
            read_name=task.name, read_length=len(task.sequence),
            mapped=False, strand=task.strand, seeding=seeded.stats,
            regions_aligned=aligned_count,
        )
        stats.items_in += len(seeded.regions)
        stats.dropped += len(seeded.regions) - aligned_count
        commit_candidates(result, found, pipe.config.top_n_alignments)
        return result

    @staticmethod
    def _mark_subsumed(aligned, region: PreparedRegion,
                       regions: "list[SeedRegion]",
                       subsumed: set[int],
                       pipe: "MappingPipeline") -> None:
        """Add to ``subsumed`` the indices of the unvisited ``regions``
        that ``aligned`` (the alignment of ``region``) makes redundant.

        A later region is subsumed when both hold:

        * the alignment matches (``=``) read position
          ``seed.read_start`` to graph character ``seed.graph_start``
          — i.e. to ``(seed.node_id, seed.node_offset)`` — so aligning
          from that seed would anchor on this very path;
        * this region's node range contains the later region's, so
          the later alignment could not have seen graph that this one
          did not (a truncated region gives a worse extension).

        A repeat copy, tandem or dispersed, matches the seed's read
        position to a *different* graph character and stays.  The walk
        is over CIGAR runs, then one bisect per later seed.  An
        abandoned alignment's operations are final, so what they mark
        the finished alignment would mark too.
        """
        later = regions[region.index + 1:]
        if not later:
            return
        run_starts: list[int] = []
        runs: list[tuple[int, int]] = []
        read_at, path_at = aligned.read_start, 0
        for op, length in aligned.cigar.ops:
            if op == "=":
                run_starts.append(read_at)
                runs.append((read_at + length, path_at))
            if op in READ_CONSUMING:
                read_at += length
            if op in REF_CONSUMING:
                path_at += length
        bounds = pipe.node_bounds
        for index, other in enumerate(later, region.index + 1):
            if index in subsumed:
                continue
            seed = other.seed
            run = bisect_right(run_starts, seed.read_start) - 1
            if run < 0:
                continue
            run_end, run_path = runs[run]
            if seed.read_start >= run_end:
                continue
            position = region.start + aligned.path[
                run_path + seed.read_start - run_starts[run]]
            if position != bounds[seed.node_id] + seed.node_offset:
                continue
            lo, hi = pipe.node_range(other.start, other.end)
            if region.first_node <= lo and hi <= region.last_node:
                subsumed.add(index)

    @staticmethod
    def _candidate(aligned, region: PreparedRegion, strand: str,
                   pipe: "MappingPipeline") -> "AlignmentCandidate":
        """Materialize one aligned region as a candidate placement."""
        from repro.core.mapper import AlignmentCandidate

        node_id = node_offset = linear_position = contig = None
        path_nodes: tuple[int, ...] = ()
        path = aligned.path
        if path:
            # The path ascends, so it crosses the node boundaries in
            # order: one bisect per node visited, not a step per base.
            bounds = pipe.node_bounds
            nodes: list[int] = []
            at = 0
            while at < len(path):
                node = bisect_right(bounds, region.start + path[at]) - 1
                nodes.append(node)
                at = bisect_left(path, bounds[node + 1] - region.start,
                                 at)
            path_nodes = tuple(nodes)
            node_id = nodes[0]
            node_offset = region.start + path[0] - bounds[node_id]
            if pipe.refs is not None:
                contig, linear_position = pipe.refs.project(
                    node_id, node_offset,
                )
            elif pipe.built is not None:
                linear_position = pipe.built.project_to_reference(
                    node_id, node_offset,
                )
        return AlignmentCandidate(
            distance=aligned.distance, cigar=aligned.cigar,
            strand=strand, node_id=node_id, node_offset=node_offset,
            path_nodes=path_nodes, linear_position=linear_position,
            contig=contig,
            windows=aligned.windows, rescues=aligned.rescues,
        )


def _same_locus(a: "AlignmentCandidate", b: "AlignmentCandidate",
                read_length: int) -> bool:
    """Whether two candidates describe the same reference locus.

    Overlapping seed regions of one read re-derive the same placement
    (possibly shifted by an indel); counting them as independent
    candidates would fake a repeat tie and zero out MAPQ on unique
    reads.  Two placements on the same strand whose starts are within
    half a read length are one locus; with no linear projection
    (graph-only mappers) the exact ``(node_id, node_offset)`` anchor
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


class SelectStage:
    """Step 5: fold per-orientation results into the final one.

    Beyond picking the winning orientation (:func:`best_of`), the
    candidate lists of both orientations merge under the same
    ``(distance, strand, position)`` key, so the final result's
    ``second_best_distance`` sees cross-strand competitors too — a
    reverse-strand repeat copy is as real a MAPQ threat as a
    forward-strand one.
    """

    name = "select"

    def run(self, forward: "MappingResult",
            reverse: "MappingResult | None",
            pipe: "MappingPipeline") -> "MappingResult":
        stats = pipe.stats.stage(self.name)
        with _timed(stats):
            stats.items_in += 1 if reverse is None else 2
            stats.items_out += 1
            best = best_of(forward, reverse)
            if reverse is not None and (forward.candidates
                                        or reverse.candidates):
                merged = sorted(
                    forward.candidates + reverse.candidates,
                    key=lambda c: c.sort_key,
                )[:pipe.config.top_n_alignments]
                loser = reverse if best is forward else forward
                # The cross-orientation runner-up is either the
                # winner's own second locus or the other strand's
                # best — strands never share a locus.
                second = best.second_best_distance
                if loser.mapped and loser.distance is not None:
                    second = loser.distance if second is None \
                        else min(second, loser.distance)
                best.candidates = tuple(merged)
                best.candidate_count = (forward.candidate_count
                                        + reverse.candidate_count)
                best.second_best_distance = second
            pipe.stats.reads += 1
            if best.mapped:
                pipe.stats.reads_mapped += 1
        return best


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
# The pipeline driver
# ----------------------------------------------------------------------

class MappingPipeline:
    """Composable staged mapping engine.

    Owns the stage list, the whole-graph linearization, and the
    cumulative :class:`PipelineStats`.  ``SeGraM`` delegates all
    mapping to an instance of this class.
    """

    def __init__(self, graph, config, minseed, aligner,
                 built=None, refs=None) -> None:
        self.graph = graph
        self.config = config
        self.minseed = minseed
        self.aligner = aligner
        self.built = built
        self.refs = refs
        #: Node starts in the global character space, then the total
        #: length: node ``n`` is characters ``[node_bounds[n],
        #: node_bounds[n + 1])``.
        self.node_bounds = graph.offsets()
        self.node_bounds.append(graph.total_sequence_length)
        self._linearization: LinearizedGraph | None = None
        self.seed_stage = SeedStage()
        self.filter_stage = ChainFilterStage()
        self.extract_stage = ExtractStage()
        self.align_stage = AlignStage()
        self.select = SelectStage()
        self.reset_stats()

    def node_range(self, start: int, end: int) -> tuple[int, int]:
        """Inclusive node-ID range a character span selects.

        Mirrors :meth:`~repro.graph.genome_graph.GenomeGraph.
        extract_region`'s selection rule (nodes overlapping
        ``[start, end)``, included whole), so the range identifies the
        extracted region exactly.
        """
        bounds, nodes = self.node_bounds, len(self.node_bounds) - 1
        lo = max(0, bisect_right(bounds, start, 0, nodes) - 1)
        hi = max(lo, bisect_right(bounds, end - 1, 0, nodes) - 1)
        return lo, hi

    def linearization(self) -> LinearizedGraph:
        """The whole graph, linearized on the first call.

        Every region and window is a view of it.  The mapping entry
        points call this before they fork workers, which then share it
        copy-on-write; building it is not part of constructing a
        mapper, so attaching to an index artifact stays O(ms).
        """
        if self._linearization is None:
            self._linearization = linearize(
                self.graph, hop_limit=self.config.hop_limit)
        return self._linearization

    def reset_stats(self) -> None:
        self.stats = PipelineStats.empty()

    def map_reads(
        self, reads: Sequence[tuple[str, str]],
    ) -> "list[MappingResult]":
        """Map single-end ``(name, sequence)`` reads — the one drive
        behind every single-end entry point.

        Each sequence is validated (``N`` allowed).  Per read: the
        forward orientation through stages 1-4, the reverse
        complement too when ``config.both_strands``, then stage 5
        selects.  A read's result does not depend on what it is
        batched with.
        """
        reads = [(name, seqmod.validate(sequence, "read",
                                        allow_ambiguous=True))
                 for name, sequence in reads]
        return [self.map_seeded(forward, reverse)
                for forward, reverse in self.seed_reads(
                    reads, self.config.both_strands)]

    def seed_reads(
        self, reads: Sequence[tuple[str, str]], both_strands: bool,
    ) -> "Iterator[tuple[SeededRead, SeededRead | None]]":
        """Stage 1 for the reads of a call: the seeded forward and
        (when ``both_strands``) reverse-complement orientation of each
        read, in order.

        Seeding is the one stage that batches across reads — the
        MinSeed units consume a read *stream* — so the oriented reads
        go through the seed stage a chunk at a time, the next chunk
        only once the caller has consumed the last: a whole-file call
        holds one chunk's regions, not the file's.
        """
        tasks: list[ReadTask] = []
        bases = 0
        for name, sequence in reads:
            tasks.append(ReadTask(name, sequence, "+"))
            if both_strands:
                tasks.append(ReadTask(
                    name, seqmod.reverse_complement(sequence), "-"))
            bases += len(sequence)
            if bases >= SEED_CHUNK_BASES:
                yield from self._seed_chunk(tasks, both_strands)
                tasks, bases = [], 0
        if tasks:
            yield from self._seed_chunk(tasks, both_strands)

    def _seed_chunk(self, tasks: list[ReadTask], both_strands: bool):
        seeded = iter(self.seed_stage.run(tasks, self))
        return zip(seeded, seeded) if both_strands \
            else ((forward, None) for forward in seeded)

    def map_seeded(self, forward: SeededRead,
                   reverse: "SeededRead | None",
                   bounded: bool = True) -> "MappingResult":
        """Stages 2-5 for one seeded read.

        The orientation with more seeded regions is aligned first
        (forward on ties); with ``bounded`` its best distance starts
        the other's budget (:meth:`AlignStage.run`).  Selection does
        not depend on the order.  Mates are mapped unbounded: a proper
        pair outranks a better score, so any mate candidate can win.
        """
        best = math.inf if bounded else None
        results = {}
        oriented = [s for s in (forward, reverse) if s is not None]
        for seeded in sorted(oriented, key=lambda s: -len(s.regions)):
            results[seeded.task.strand] = result = self.align_stage.run(
                self.filter_stage.run(seeded, self), self, best)
            if best is not None and result.mapped:
                best = min(best, result.distance)
        return self.select.run(results["+"], results.get("-"), self)


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
    ``(name, read1, read2)`` pairs, mapped by a
    :class:`~repro.core.pairing.PairedEndMapper` of that config.
    Returns ``(results, PipelineStats, PairStats | None)`` with the
    statistics of exactly this shard; the engine's own statistics are
    left as they were, for :func:`run_sharded` to merge into.
    """
    pipeline = engine.pipeline
    outer = pipeline.stats
    pipeline.reset_stats()
    try:
        if pair_config is None:
            return pipeline.map_reads(items), pipeline.stats, None
        from repro.core.pairing import PairedEndMapper

        pairs = PairedEndMapper(engine, pair_config)
        return pairs.map_pairs_local(items), pipeline.stats, pairs.stats
    finally:
        pipeline.stats = outer


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

        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
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

        Returns each shard's :func:`map_local` triple, in shard order;
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
                pairs=None) -> list:
    """Map ``items`` on ``engine``, sharded across its standing pool of
    ``jobs`` workers (:meth:`~repro.core.mapper.SeGraM.worker_pool`).

    ``pairs`` is the calling :class:`~repro.core.pairing.
    PairedEndMapper` when the items are read pairs.  When one worker
    would run (:func:`effective_jobs`), the items map in-process as
    one shard.  Each shard's statistics merge into
    ``engine.pipeline.stats`` (and ``pairs.stats``), and results come
    back in input order, identical either way.

    The engine's workers see the engine as it was when they forked:
    a change to it reaches them only through a new pool, after
    :meth:`~repro.core.mapper.SeGraM.close`.
    """
    items = list(items)
    pair_config = pairs.config if pairs is not None else None
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
    for shard_results, stats, pair_stats in shards:
        results.extend(shard_results)
        engine.pipeline.stats.merge(stats)
        if pairs is not None:
            pairs.stats.merge(pair_stats)
    return results
