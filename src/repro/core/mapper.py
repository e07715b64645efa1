"""SeGraM: the end-to-end universal mapper (paper Sections 4 and 9).

A :class:`SeGraM` instance couples MinSeed (seeding) with BitAlign
(windowed alignment) over the combined genome graph of a
:class:`~repro.refs.ReferenceSet` — one contig per chromosome, each a
linear sequence plus variants or a genome graph — and supports all
three use cases of Section 9:

* **end-to-end sequence-to-graph mapping** — contigs built from a
  reference plus variants (:meth:`SeGraM.from_reference` builds a
  one-contig set), or graph-backed contigs;
* **sequence-to-sequence mapping** — linear contigs with no variants;
  the graph degenerates to a chain and the identical machinery runs
  (S2S is "a special and simpler variant" of S2G);
* **standalone seeding / alignment** — the underlying
  :class:`~repro.core.minseed.MinSeed` and
  :class:`~repro.core.windows.WindowedAligner` objects are exposed as
  attributes.

Mapping is the engine's own staged drive, the software mirror of
paper Fig. 2: every mapping call — one read, a batch, a pool shard, a
daemon dispatch, a mate of a pair — takes :meth:`SeGraM.map_reads`,
which is four plain nested loops: read -> oriented read -> region ->
window.  Four stage methods run inside it and book five rows, ``seed
-> filter -> extract -> align -> select``, of the engine's
:class:`~repro.core.pipeline.PipelineStats` (``SeGraM.stats``), the
analogue of the paper's per-unit utilization counters.  The seed
stage seeds the call's oriented reads a chunk at a time
(:meth:`SeGraM.seed_reads` — the one place batching across reads
pays, as in the hardware's MinSeed units); MinSeed hands each read's
regions back already in filter order and capped, so the seed stage
books the ``filter`` row too.  The align stage then walks an oriented
read's regions in order, extracting and aligning one at a time
(:meth:`~repro.core.windows.WindowedAligner.align`, every window of
which is one call of the diagonal BitAlign kernel); the select stage
folds the two orientations into the final :class:`MappingResult`.

**Each locus is aligned once.**  MinSeed sends every surviving seed
region to BitAlign (paper Section 11.4), which a hardware BitAlign
makes nearly free; here a region costs milliseconds and most regions
of a read re-derive one placement from another minimizer.  So, the
way BWA-MEM skips seeds contained in an alignment it already has, a
region is **subsumed** — neither extracted nor aligned — when its
seed's diagonal lies within the diagonals an earlier alignment of the
same oriented read takes over the seed's read span *and* that earlier
region's node range contains this region's
(:meth:`SeGraM._mark_subsumed`).  A repeat copy sits on another
diagonal, so it is never subsumed and MAPQ keeps its competitors.
This deviates from Section 11.4 in software only; the hardware models
of :mod:`repro.hw` call the aligner directly and keep the paper's
align-every-seed accounting.

**A region that cannot win stops aligning.**  A runner-up
:data:`~repro.core.alignment.MAPQ_SATURATION_GAP` (5) edits behind
the best changes no MAPQ, and single-end output shows only the best
placement, so once a read has a completed alignment a region is
abandoned as soon as its committed edits exceed ``best + 4``
(:meth:`SeGraM.align_stage`).  The better-seeded orientation goes
first, to set that budget early.  Pairs are not budgeted.

**Extraction is an address range.**  In SeGraM a seed's candidate
region is a range of addresses into the topologically sorted node /
character / edge tables (paper Section 5, Fig. 5) — nothing is copied
out of them.  Here the whole graph is linearized **once** per engine
(:meth:`SeGraM.linearization`, a hop-sparse
:class:`~repro.graph.linearize.LinearizedGraph`), and the extract
stage turns a region into the node range it selects (nodes that
partially overlap the span are taken whole, as MinSeed's fetch does)
and that range into a *view* of the one linearization: two bisects, a
string slice and the seed anchor.  BitAlign's windows are views of
that view.  There is nothing to memoize, so there is no region cache.

:meth:`SeGraM.map_batch` shards a read set across the engine's
standing pool (:func:`~repro.core.pipeline.run_sharded`), each worker
running the same drive; :meth:`SeGraM.map_read` is a one-read batch.
:meth:`SeGraM.map_pairs` shards read pairs the same way, on the same
pool: each shard maps both mates through this drive and pairs them
(:func:`~repro.core.pairing.map_pairs_local`), counting into
``stats.pairs``.  Stage boundaries and sharding change *when* work
happens, never *what* is computed: a read maps to the same result
alone, at any position of any batch, and on any worker.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro import seq as seqmod
from repro.core.alignment import MAPQ_SATURATION_GAP, READ_CONSUMING, \
    REF_CONSUMING, Cigar, mapq_from_candidates
from repro.core.minseed import MinSeed, SeedingStats, SeedRegion
from repro.core.pipeline import PersistentPool, PipelineStats, \
    best_of, commit_candidates, run_sharded, timed
from repro.core.windows import WindowedAligner, WindowingConfig
from repro.graph.builder import Variant
from repro.graph.genome_graph import GraphError
from repro.graph.linearize import LinearizedGraph, linearize
from repro.index.flat_index import FlatIndex, build_flat_index
from repro.index.minimizer import SCAN_BLOCK_BASES, \
    check_minimizer_parameters
from repro.index.occurrence import DEFAULT_TOP_FRACTION
from repro.refs.reference import Contig, ReferenceSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pairing import PairedEndConfig, PairResult


#: Read bases (one orientation) the seed stage takes in one chunk: a
#: block of the scan itself — enough reads (80 of 100 bp) for the
#: per-call cost of the array operations to vanish, few enough that a
#: chunk's regions and temporaries stay under a megabyte.
SEED_CHUNK_BASES = SCAN_BLOCK_BASES


@dataclass(frozen=True)
class SeGraMConfig:
    """End-to-end mapper configuration.

    Attributes:
        w, k: minimizer window and k-mer length (Section 6).
        bucket_bits: hash-index bucket width (2^24 in the paper for the
            human genome; smaller for scaled-down graphs).
        error_rate: expected read error rate ``E`` for seed extension.
        freq_top_fraction: fraction of most-frequent minimizers to
            discard (paper: 0.02 %).
        windowing: BitAlign windowing parameters.
        hop_limit: hardware hop-queue depth (12 in the paper); None
            aligns exactly with unlimited hops.
        max_seeds_per_read: optional cap on candidate regions
            considered per read (the paper aligns all; benchmarks use
            a cap to bound pure-Python runtime — always stated where
            used).  Regions the align stage finds subsumed by an
            earlier alignment count against the cap: they are not
            replaced by deeper seeds.
        top_n_alignments: how many of the best alignments per
            orientation survive the align stage (paper: MinSeed keeps
            multiple seed regions alive so BitAlign can pick the true
            locus among repeats).  The runner-up distances calibrate
            MAPQ, and paired-end scoring searches the full candidate
            grid of both mates, so repeat ties pair correctly without
            a rescue alignment.  1 reproduces the old single-winner
            behaviour.
        early_exit_distance: stop trying further regions once an
            alignment at or below this distance is found (None = try
            every region no earlier alignment subsumes).  Regions
            skipped by the early exit contribute no candidates, so
            second-best distances — and therefore MAPQ calibration —
            only see the regions aligned before the exit fired.
        both_strands: also map the reverse-complemented read and keep
            the better orientation.
        region_cache_size: accepted and ignored — there is no region
            cache (regions are views of one linearization).
        align_backend: accepted and ignored — every alignment runs
            the one kernel of :mod:`repro.core.bitalign`.
    """

    w: int = 10
    k: int = 15
    bucket_bits: int = 14
    error_rate: float = 0.10
    freq_top_fraction: float = DEFAULT_TOP_FRACTION
    windowing: WindowingConfig = field(default_factory=WindowingConfig)
    hop_limit: int | None = None
    max_seeds_per_read: int | None = None
    top_n_alignments: int = 5
    early_exit_distance: int | None = None
    both_strands: bool = False
    #: Ignored.  Deleted with ROADMAP item 1, whose benchmark PR stops
    #: ``benchmarks/perf/workloads.py`` passing it.
    region_cache_size: int = 128
    #: Ignored.  Deleted with ROADMAP item 1's follow-up ``src/`` PR,
    #: once ``benchmarks/perf/workloads.py`` stops passing it.
    align_backend: str | None = None

    def __post_init__(self) -> None:
        check_minimizer_parameters(self.w, self.k, self.bucket_bits)
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError(
                f"error_rate must be in [0, 1), got {self.error_rate}"
            )
        if self.max_seeds_per_read is not None \
                and self.max_seeds_per_read < 1:
            # 0 would keep no region; a negative cap would slice off
            # the last ones.
            raise ValueError(
                f"max_seeds_per_read must be >= 1, "
                f"got {self.max_seeds_per_read}"
            )
        if self.hop_limit is not None and self.hop_limit < 1:
            # The linearization would reject it only at the first
            # mapping call.
            raise ValueError(
                f"hop_limit must be >= 1, got {self.hop_limit}"
            )
        if self.top_n_alignments < 1:
            raise ValueError(
                f"top_n_alignments must be >= 1, "
                f"got {self.top_n_alignments}"
            )
        if self.early_exit_distance is not None \
                and self.early_exit_distance < 0:
            # No alignment has a negative distance: the exit could
            # never fire.
            raise ValueError(
                f"early_exit_distance must be >= 0, "
                f"got {self.early_exit_distance}"
            )


@dataclass(frozen=True)
class AlignmentCandidate:
    """One retained alignment of a read at one candidate locus.

    The align stage keeps the ``top_n_alignments`` best of these per
    orientation (deduplicated by locus), and the select stage merges
    both orientations' lists.  Candidates carry everything needed to
    (a) calibrate MAPQ from the runner-up distances and (b) let the
    paired-end driver re-select a non-best locus when the insert-size
    model prefers it.

    Attributes mirror the placement fields of :class:`MappingResult`.
    """

    distance: int
    cigar: Cigar
    strand: str
    node_id: int | None = None
    node_offset: int | None = None
    path_nodes: tuple[int, ...] = ()
    linear_position: int | None = None
    contig: str | None = None
    windows: int = 0
    rescues: int = 0

    @property
    def sort_key(self) -> tuple:
        """Deterministic candidate order: ``(distance, strand,
        contig, position)``.

        Lower edit distance first; on ties the forward strand wins
        (matching :func:`repro.core.pipeline.best_of`), then the
        first contig in reference-name order, then the leftmost
        placement.  The key is total and input-order-free, so
        candidate lists are identical under ``--jobs`` sharding and
        region-order changes.
        """
        if self.linear_position is not None:
            position = (self.linear_position, 0, 0)
        else:
            position = (0, self.node_id or 0, self.node_offset or 0)
        return (self.distance, 0 if self.strand == "+" else 1,
                self.contig or "", position)


@dataclass
class MappingResult:
    """The outcome of mapping one read.

    Attributes:
        read_name: identifier of the read.
        read_length: length of the read.
        mapped: whether any candidate region produced an alignment.
        distance: edit distance of the best alignment (None if
            unmapped).
        cigar: CIGAR of the best alignment (None if unmapped).
        node_id / node_offset: graph position of the first consumed
            reference character.
        path_nodes: distinct graph node IDs visited, in order.
        linear_position: the **contig-local** 0-based position of the
            placement on a linear-backed contig (``contig`` names
            which one); None for graph-backed contigs, which have no
            linear projection.
        contig: name of the reference contig the placement is on
            (None when unmapped).
        strand: '+' or '-' (reverse-complement mapping).
        seeding: MinSeed statistics for this read.
        regions_aligned: candidate regions BitAlign processed, even if
            abandoned — the kept regions minus those an earlier alignment of
            the same orientation subsumed (counted in
            ``PipelineStats.regions_subsumed``) and those past an
            ``early_exit_distance`` exit.
        windows / rescues: windowed-alignment counters summed over the
            best alignment.
        candidates: the top-N retained alignments (both orientations,
            deduplicated by locus, best first); ``candidates[0]`` is
            the reported placement.
        second_best_distance: edit distance of the runner-up candidate
            locus (None when the placement is unique) — the MAPQ
            calibration signal.
        candidate_count: distinct candidate loci that survived
            deduplication, before top-N truncation.
    """

    read_name: str
    read_length: int
    mapped: bool
    distance: int | None = None
    cigar: Cigar | None = None
    node_id: int | None = None
    node_offset: int | None = None
    path_nodes: tuple[int, ...] = ()
    linear_position: int | None = None
    contig: str | None = None
    strand: str = "+"
    seeding: SeedingStats = field(default_factory=SeedingStats)
    regions_aligned: int = 0
    windows: int = 0
    rescues: int = 0
    candidates: tuple[AlignmentCandidate, ...] = ()
    second_best_distance: int | None = None
    candidate_count: int = 0

    @property
    def identity(self) -> float | None:
        """Fraction of read bases matching the reference (None if
        unmapped)."""
        if not self.mapped or self.cigar is None:
            return None
        return self.cigar.matches / self.read_length

    @property
    def mapq(self) -> int:
        """Calibrated mapping quality (see
        :func:`repro.core.alignment.mapq_from_candidates`)."""
        return self.mapq_with()

    def mapq_with(self, proper_pair: bool = False) -> int:
        """Calibrated MAPQ, optionally with the proper-pair bonus."""
        return mapq_from_candidates(
            self.identity, self.distance, self.second_best_distance,
            proper_pair=proper_pair,
        )

    def with_candidate(self, index: int) -> "MappingResult":
        """A copy of this result re-pointed at ``candidates[index]``.

        The paired-end driver scores the full candidate grid of both
        mates; when the insert-size model selects a non-best locus,
        the reported mate result is rebuilt from that candidate.  The
        copy's ``second_best_distance`` is the best distance among the
        *other* candidate loci: for the primary candidate that is the
        already-recorded runner-up (computed before top-N truncation,
        so a repeat tie survives even at ``top_n_alignments=1``); for
        a non-best selection it is the primary candidate itself, so
        MAPQ correctly reflects that a better single-end placement
        existed.
        """
        chosen = self.candidates[index]
        if index == 0:
            second = self.second_best_distance
        else:
            # The primary candidate is always retained, so the best
            # "other" locus is in the truncated tuple.
            second = min(c.distance
                         for i, c in enumerate(self.candidates)
                         if i != index)
        return replace(
            self,
            mapped=True,
            distance=chosen.distance,
            cigar=chosen.cigar,
            node_id=chosen.node_id,
            node_offset=chosen.node_offset,
            path_nodes=chosen.path_nodes,
            linear_position=chosen.linear_position,
            contig=chosen.contig,
            strand=chosen.strand,
            windows=chosen.windows,
            rescues=chosen.rescues,
            second_best_distance=second,
        )


@dataclass
class ReadTask:
    """One oriented read entering the drive."""

    name: str
    sequence: str
    strand: str


@dataclass
class SeededRead:
    """Output of the seed stage: ``regions`` are the ones the filter
    keeps, in its order; ``stats.region_count`` counts every region
    seeded."""

    task: ReadTask
    regions: list[SeedRegion]
    stats: SeedingStats


@dataclass
class PreparedRegion:
    """Output of the extract stage: one alignable region.

    ``index`` is the region's position in its read's filtered list
    (``SeededRead.regions``): everything after it is still unvisited.
    ``lin`` is the view of nodes ``first_node .. last_node`` of the
    engine's whole-graph linearization; its position 0 is global
    character ``start``, and ``anchor`` is in its coordinates.
    """

    index: int
    region: SeedRegion
    lin: LinearizedGraph
    first_node: int
    last_node: int
    start: int
    anchor: tuple[int, int]


class SeGraM:
    """Universal sequence-to-graph / sequence-to-sequence mapper.

    Owns MinSeed, the windowed aligner, the whole-graph linearization,
    the cumulative :class:`~repro.core.pipeline.PipelineStats`
    (``stats``) and the staged drive that maps with them.

    ``refs`` is the reference: one shared minimizer index covers its
    concatenated contig space, candidate regions are clamped at contig
    boundaries, and every mapped result carries ``(contig,
    contig-local position)`` coordinates.  A graph on its own maps as
    ``ReferenceSet([Contig.from_graph(name, graph)])``.  ``index``
    skips the in-process index build — e.g. a
    :class:`~repro.index.FlatIndex` attached from an artifact
    (:mod:`repro.io.artifact`).
    """

    def __init__(
        self,
        refs: ReferenceSet,
        config: SeGraMConfig | None = None,
        index: FlatIndex | None = None,
    ) -> None:
        graph = refs.graph
        if not graph.is_topologically_sorted():
            raise GraphError(
                "SeGraM requires a topologically sorted graph "
                "(pre-processing step of Section 5)"
            )
        self.refs = refs
        self.graph = graph
        self.config = config or SeGraMConfig()
        self.index = index if index is not None else build_flat_index(
            graph, w=self.config.w, k=self.config.k,
            bucket_bits=self.config.bucket_bits,
        )
        self.minseed = MinSeed(
            graph, self.index,
            error_rate=self.config.error_rate,
            freq_top_fraction=self.config.freq_top_fraction,
            char_spans=refs.char_spans(),
        )
        self.aligner = WindowedAligner(self.config.windowing)
        #: Node starts in the global character space, then the total
        #: length: node ``n`` is characters ``[node_bounds[n],
        #: node_bounds[n + 1])``.
        self.node_bounds = graph.offsets()
        self.node_bounds.append(graph.total_sequence_length)
        self._linearization: LinearizedGraph | None = None
        self._pool: PersistentPool | None = None
        self.reset_stats()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_reference(
        cls,
        reference: str,
        variants: Iterable[Variant] = (),
        config: SeGraMConfig | None = None,
        name: str = "reference",
        max_node_length: int = 0,
    ) -> "SeGraM":
        """Map over one linear contig called ``name``: the reference
        plus variants.

        With no variants this constructs the chain graph and the mapper
        performs classical sequence-to-sequence mapping.
        """
        return cls(ReferenceSet([Contig.linear(name, reference, variants)],
                                max_node_length=max_node_length),
                   config=config)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map_read(self, read: str, name: str = "read") -> MappingResult:
        """Map one read (a one-read :meth:`map_batch`); returns the
        best alignment over all regions.

        Reads may contain ``N`` (the read-side ambiguity policy of
        :mod:`repro.seq`): seeding skips k-mers containing ``N`` and
        each ``N`` costs one edit in alignment.
        """
        return self.map_batch([(name, read)])[0]

    def map_batch(self, reads: Iterable[tuple[str, str]],
                  jobs: int = 1) -> list[MappingResult]:
        """Map a batch of (name, sequence) pairs, optionally sharded
        across ``jobs`` worker processes.

        ``jobs > 1`` shards the batch across this engine's standing
        pool (:meth:`worker_pool`); per-shard stage statistics are
        merged into ``self.stats``.  Results are returned in input
        order and a read maps to the same result alone or in any
        batch, for any ``jobs`` — the parity contract the tests
        enforce.
        """
        return run_sharded(self, reads, jobs)

    def map_pairs(self, pairs: Iterable[tuple[str, str, str]],
                  config: PairedEndConfig,
                  jobs: int = 1) -> list[PairResult]:
        """Map ``(name, read1, read2)`` FR pairs under the insert-size
        model ``config``, sharded like :meth:`map_batch`.

        Pair counters accumulate in ``self.stats.pairs``; results come
        back in input order, identical for any ``jobs``.
        """
        return run_sharded(self, pairs, jobs, pair_config=config)

    # ------------------------------------------------------------------
    # The drive
    # ------------------------------------------------------------------

    def map_reads(
        self, reads: Sequence[tuple[str, str]],
    ) -> list[MappingResult]:
        """Map single-end ``(name, sequence)`` reads in this process —
        the one drive behind every single-end entry point.

        Each sequence is validated (``N`` allowed).  Per read: the
        forward orientation seeded, extracted and aligned, the
        reverse complement too when ``config.both_strands``, then the
        select stage.  A read's result does not depend on what it is
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
    ) -> Iterator[tuple[SeededRead, SeededRead | None]]:
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
        seeded = iter(self.seed_stage(tasks))
        return zip(seeded, seeded) if both_strands \
            else ((forward, None) for forward in seeded)

    def map_seeded(self, forward: SeededRead,
                   reverse: SeededRead | None,
                   bounded: bool = True) -> MappingResult:
        """Extract, align and select for one seeded read.

        The orientation with more seeded regions (before the cap)
        is aligned first (forward on ties); with ``bounded`` its best
        distance starts the other's budget (:meth:`align_stage`).
        Selection does not depend on the order.  Mates are mapped
        unbounded: a proper pair outranks a better score, so any mate
        candidate can win.
        """
        best = math.inf if bounded else None
        results = {}
        oriented = [s for s in (forward, reverse) if s is not None]
        for seeded in sorted(oriented,
                             key=lambda s: -s.stats.region_count):
            results[seeded.task.strand] = result = self.align_stage(
                seeded, best)
            if best is not None and result.mapped:
                best = min(best, result.distance)
        return self.select_stage(results["+"], results.get("-"))

    # ------------------------------------------------------------------
    # The stages, each timed into its row of ``stats.stages``
    # ------------------------------------------------------------------

    def seed_stage(self, tasks: Sequence[ReadTask]) -> list[SeededRead]:
        """Steps 1-2 (paper Section 6, Fig. 2): MinSeed candidate-region
        generation and the filter, for a chunk of oriented reads at a
        time.  MinSeed does no chaining (Section 11.4).

        :meth:`~repro.core.minseed.MinSeed.seed_chunk` orders each
        read's regions rarest minimizer first, so a per-read cap, the
        early-exit knob and the align stage's subsumption rule all see
        the likeliest candidates early, and keeps the first
        ``max_seeds_per_read`` — a cap on the regions *considered*:
        subsumed ones are not replaced by deeper seeds.  Only the kept
        regions become records.  The ``seed`` row counts every region
        seeded; the ``filter`` row takes those in and puts the kept
        ones out, and spends no time of its own.
        """
        stats = self.stats.stage("seed")
        filtered = self.stats.stage("filter")
        with timed(stats):
            seeded = [
                SeededRead(task=task, regions=regions, stats=seed_stats)
                for task, (regions, seed_stats) in zip(
                    tasks, self.minseed.seed_chunk(
                        [task.sequence for task in tasks],
                        self.config.max_seeds_per_read))
            ]
            for read in seeded:
                count, kept = read.stats.region_count, len(read.regions)
                stats.items_out += count
                filtered.items_in += count
                filtered.items_out += kept
                filtered.dropped += count - kept
                self.stats.regions_seeded += count
                self.stats.seeding.merge(read.stats)
            stats.items_in += len(seeded)
        return seeded

    def extract_stage(self, index: int,
                      region: SeedRegion) -> PreparedRegion:
        """Step 3: subgraph extraction, as an address range.

        Runs per region, on demand of the align stage — a region that
        is subsumed, or that follows an early exit, is never
        extracted.  One run finds the node range the region's span
        selects, takes the view of those nodes out of the whole-graph
        linearization and computes the seed anchor in the view's
        coordinates.  The first call builds the whole-graph
        linearization outside the stage's clock: as in
        :meth:`worker_pool`, which builds it before the fork, that
        build is no stage's work.
        """
        whole = self.linearization()
        stats = self.stats.stage("extract")
        with timed(stats):
            lo, hi = self.node_range(region.start, region.end)
            bounds = self.node_bounds
            start = bounds[lo]
            lin = whole.slice(start, bounds[hi + 1])
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

    def align_stage(self, seeded: SeededRead,
                    best: float | None = None) -> MappingResult:
        """Step 4 (paper Section 7): windowed BitAlign over the regions
        of one oriented read, in filter order, keeping the
        ``top_n_alignments`` best alignments by edit distance.

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

        Every aligned region yields an :class:`AlignmentCandidate`;
        :func:`~repro.core.pipeline.commit_candidates` orders them by
        the stable ``(distance, strand, position)`` key, deduplicates
        them by locus (regions the subsumption rule could not collapse
        may still re-derive one placement — only distinct loci may
        count as MAPQ competitors), and truncates them to the
        configured top N.  The best candidate becomes the result's
        reported placement.
        """
        stats = self.stats.stage("align")
        task = seeded.task
        exit_distance = self.config.early_exit_distance
        subsumed: set[int] = set()
        found: list[AlignmentCandidate] = []
        aligned_count = 0
        for index, seed_region in enumerate(seeded.regions):
            if index in subsumed:
                self.stats.regions_subsumed += 1
                continue
            region = self.extract_stage(index, seed_region)
            budget = None if best is None else max(
                best + MAPQ_SATURATION_GAP - 1, exit_distance or 0)
            with timed(stats):
                aligned = self.aligner.align(
                    region.lin, task.sequence, region.anchor,
                    counters=self.stats, budget=budget)
            stats.items_out += 1
            self.stats.regions_aligned += 1
            aligned_count += 1
            if aligned.abandoned:
                self.stats.regions_abandoned += 1
            else:
                if best is not None:
                    best = min(best, aligned.distance)
                found.append(self._candidate(aligned, region,
                                             task.strand))
                if exit_distance is not None \
                        and aligned.distance <= exit_distance:
                    break
            with timed(stats):
                self._mark_subsumed(aligned, region, seeded.regions,
                                    subsumed)
        result = MappingResult(
            read_name=task.name, read_length=len(task.sequence),
            mapped=False, strand=task.strand, seeding=seeded.stats,
            regions_aligned=aligned_count,
        )
        stats.items_in += len(seeded.regions)
        stats.dropped += len(seeded.regions) - aligned_count
        commit_candidates(result, found, self.config.top_n_alignments)
        return result

    def _mark_subsumed(self, aligned, region: PreparedRegion,
                       regions: list[SeedRegion],
                       subsumed: set[int]) -> None:
        """Add to ``subsumed`` the indices of the unvisited ``regions``
        that ``aligned`` (the alignment of ``region``) makes redundant.

        A later region is subsumed when both hold:

        * the seed's diagonal ``seed.graph_start - seed.read_start``
          lies within the diagonals (graph character minus read
          position) the alignment's ``=``/``X`` runs take over the
          seed's read span ``[read_start, read_end]`` — so aligning
          from that seed would anchor on this very path, or on one of
          the equal-cost placements of an indel inside the span that
          the windows chose between (a homopolymer indel one base off
          the diagonal, a seed across an insertion);
        * this region's node range contains the later region's, so
          the later alignment could not have seen graph that this one
          did not (a truncated region gives a worse extension).

        A repeat copy, tandem or dispersed, sits a period away from
        the diagonal — outside the band unless the alignment itself
        takes an indel of that length inside the seed's span — and
        stays.  Against the first clause's exact-character form (an
        ``=`` from ``read_start`` to ``graph_start``), the band cut
        the regions aligned on ``long-graph``'s seed-1 pool of 250
        reads from 370 to 309 and its windows from 4 353 to 3 588,
        output unchanged; the 19 re-derived placements left all fail
        the containment clause.

        The path ascends, so within one run the diagonal never falls:
        a run's lowest and highest diagonal over the span are those at
        the ends of its overlap.  The walk is over CIGAR runs, then one
        bisect per later seed plus the runs its span overlaps.  An
        abandoned alignment's operations are final, so what they mark
        the finished alignment would mark too.
        """
        later = regions[region.index + 1:]
        if not later:
            return
        # Per run of =/X operations (=X= is one run): its first read
        # position, then its end and the path index minus the read
        # position, which is constant along it.
        run_starts: list[int] = []
        runs: list[tuple[int, int]] = []
        read_at, path_at, in_run = aligned.read_start, 0, False
        for op, length in aligned.cigar.ops:
            diagonal_op = op == "=" or op == "X"
            if diagonal_op and in_run:
                runs[-1] = (read_at + length, runs[-1][1])
            elif diagonal_op:
                run_starts.append(read_at)
                runs.append((read_at + length, path_at - read_at))
            in_run = diagonal_op
            if op in READ_CONSUMING:
                read_at += length
            if op in REF_CONSUMING:
                path_at += length
        path = aligned.path
        for index, other in enumerate(later, region.index + 1):
            if index in subsumed:
                continue
            seed = other.seed
            first, last = seed.read_start, seed.read_end
            # Diagonals in the region view's coordinates.
            low, high = math.inf, -math.inf
            run = max(0, bisect_right(run_starts, first) - 1)
            while run < len(runs) and run_starts[run] <= last:
                run_end, shift = runs[run]
                if run_end > first:
                    at = max(first, run_starts[run])
                    low = min(low, path[shift + at] - at)
                    at = min(last, run_end - 1)
                    high = max(high, path[shift + at] - at)
                run += 1
            if not low <= seed.graph_start - region.start - first <= high:
                continue
            lo, hi = self.node_range(other.start, other.end)
            if region.first_node <= lo and hi <= region.last_node:
                subsumed.add(index)

    def _candidate(self, aligned, region: PreparedRegion,
                   strand: str) -> AlignmentCandidate:
        """Materialize one aligned region as a candidate placement."""
        node_id = node_offset = linear_position = contig = None
        path_nodes: tuple[int, ...] = ()
        path = aligned.path
        if path:
            # The path ascends, so it crosses the node boundaries in
            # order: one bisect per node visited, not a step per base.
            bounds = self.node_bounds
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
            contig, linear_position = self.refs.project(node_id,
                                                        node_offset)
        return AlignmentCandidate(
            distance=aligned.distance, cigar=aligned.cigar,
            strand=strand, node_id=node_id, node_offset=node_offset,
            path_nodes=path_nodes, linear_position=linear_position,
            contig=contig,
            windows=aligned.windows, rescues=aligned.rescues,
        )

    def select_stage(self, forward: MappingResult,
                     reverse: MappingResult | None) -> MappingResult:
        """Step 5: fold per-orientation results into the final one.

        Beyond picking the winning orientation
        (:func:`~repro.core.pipeline.best_of`), the candidate lists of
        both orientations merge under the same ``(distance, strand,
        position)`` key, so the final result's
        ``second_best_distance`` sees cross-strand competitors too — a
        reverse-strand repeat copy is as real a MAPQ threat as a
        forward-strand one.
        """
        stats = self.stats.stage("select")
        with timed(stats):
            stats.items_in += 1 if reverse is None else 2
            stats.items_out += 1
            best = best_of(forward, reverse)
            if reverse is not None and (forward.candidates
                                        or reverse.candidates):
                merged = sorted(
                    forward.candidates + reverse.candidates,
                    key=lambda c: c.sort_key,
                )[:self.config.top_n_alignments]
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
            self.stats.reads += 1
            if best.mapped:
                self.stats.reads_mapped += 1
        return best

    # ------------------------------------------------------------------
    # Graph addressing and statistics
    # ------------------------------------------------------------------

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
        """Start ``stats``, the cumulative pipeline statistics of this
        engine, afresh."""
        self.stats = PipelineStats.empty()

    # ------------------------------------------------------------------
    # Standing worker pool
    # ------------------------------------------------------------------

    def worker_pool(self, jobs: int) -> PersistentPool:
        """This engine's standing pool of ``jobs`` workers.

        The first ``jobs > 1`` call starts it and every later call of
        that width reuses it; a call of another width, or one after a
        worker died, replaces it.  The workers fork once, after the
        linearization is built, and inherit this engine — index and
        linearization included — copy-on-write.  :meth:`close` stops
        them, and so does dropping the last reference to the engine.
        """
        pool = self._pool
        if pool is None or pool.closed or pool.jobs != jobs:
            self.close()
            # Built before the fork, so the workers inherit it.
            self.linearization()
            pool = self._pool = PersistentPool(self, jobs)
            self._reaper = weakref.finalize(self, pool.close)
        return pool

    def close(self) -> None:
        """Stop the standing workers and wait for them to exit
        (idempotent); a later ``jobs > 1`` call starts new ones."""
        if self._pool is not None:
            self._reaper()
            self._pool = None

    def __enter__(self) -> "SeGraM":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
