"""SeGraM: the end-to-end universal mapper (paper Sections 4 and 9).

A :class:`SeGraM` instance couples MinSeed (seeding) with BitAlign
(windowed alignment) over one genome graph, supporting all three use
cases of Section 9:

* **end-to-end sequence-to-graph mapping** — construct from a
  reference plus variants (:meth:`SeGraM.from_reference`);
* **sequence-to-sequence mapping** — construct from a linear reference
  with no variants; the graph degenerates to a chain and the identical
  machinery runs (S2S is "a special and simpler variant" of S2G);
* **standalone seeding / alignment** — the underlying
  :class:`~repro.core.minseed.MinSeed` and
  :class:`~repro.core.windows.WindowedAligner` objects are exposed as
  attributes.

Mapping itself is delegated to the staged pipeline engine of
:mod:`repro.core.pipeline` (``seed -> filter/chain -> extract ->
align -> select``): :meth:`SeGraM.map_batch` shards a read set across
the engine's standing pool, each worker running the pipeline's one drive;
:meth:`SeGraM.map_read` is a one-read batch, and per-stage counters
accumulate in ``SeGraM.pipeline.stats`` (a
:class:`~repro.core.pipeline.PipelineStats`).  Read pairs map through
a :class:`~repro.core.pairing.PairedEndMapper` over the engine (or
:meth:`repro.api.Mapper.map_pairs`), on the same pool.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from repro.core.minseed import MinSeed, SeedingStats
from repro.core.pipeline import MappingPipeline, PersistentPool, \
    PipelineStats, run_sharded
from repro.core.windows import WindowedAligner, WindowingConfig
from repro.core.alignment import Cigar, mapq_from_candidates
from repro.graph.builder import BuiltGraph, Variant, build_graph
from repro.graph.genome_graph import GenomeGraph, GraphError
from repro.index.flat_index import FlatIndex, build_flat_index
from repro.index.minimizer import check_minimizer_parameters
from repro.index.occurrence import DEFAULT_TOP_FRACTION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.refs.reference import ReferenceSet


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
        chaining: enable the optional colinear-chaining filter
            (pipeline step 2 of paper Fig. 2).  Off by default —
            MinSeed's design point aligns every seed (Section 11.4).
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
    chaining: bool = False
    #: Ignored.  Deleted with ROADMAP item 1, whose benchmark PR stops
    #: ``benchmarks/perf/workloads.py`` passing it.
    region_cache_size: int = 128
    #: Ignored.  Deleted with ROADMAP item 1's follow-up ``src/`` PR,
    #: once ``benchmarks/perf/workloads.py`` stops passing it.
    align_backend: str | None = None

    def __post_init__(self) -> None:
        check_minimizer_parameters(self.w, self.k)
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
        region-order changes.  (Single-reference
        mappers carry no contig, so the contig component is constant
        and the legacy ordering is unchanged.)
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
        linear_position: projection onto the linear reference when the
            mapper was built from one (for accuracy evaluation).  For
            multi-contig mappers this is the **contig-local** 0-based
            position (``contig`` names which one); single-reference
            mappers leave ``contig`` None.
        contig: name of the reference contig the placement is on
            (None for single-reference mappers).
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


class SeGraM:
    """Universal sequence-to-graph / sequence-to-sequence mapper."""

    def __init__(
        self,
        graph: GenomeGraph,
        config: SeGraMConfig | None = None,
        built: BuiltGraph | None = None,
        index: FlatIndex | None = None,
        refs: "ReferenceSet | None" = None,
    ) -> None:
        if not graph.is_topologically_sorted():
            raise GraphError(
                "SeGraM requires a topologically sorted graph "
                "(pre-processing step of Section 5)"
            )
        self.graph = graph
        self.config = config or SeGraMConfig()
        self.built = built
        self.refs = refs
        self.index = index if index is not None else build_flat_index(
            graph, w=self.config.w, k=self.config.k,
            bucket_bits=self.config.bucket_bits,
        )
        self.minseed = MinSeed(
            graph, self.index,
            error_rate=self.config.error_rate,
            freq_top_fraction=self.config.freq_top_fraction,
            char_spans=refs.char_spans() if refs is not None else None,
        )
        self.aligner = WindowedAligner(self.config.windowing)
        self.pipeline = MappingPipeline(
            graph=self.graph, config=self.config,
            minseed=self.minseed, aligner=self.aligner,
            built=self.built, refs=self.refs,
        )
        self._pool: PersistentPool | None = None

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
        """Build the graph from a linear reference plus variants.

        With no variants this constructs the chain graph and the mapper
        performs classical sequence-to-sequence mapping.
        """
        built = build_graph(reference, variants, name=name,
                            max_node_length=max_node_length)
        return cls(built.graph, config=config, built=built)

    @classmethod
    def from_reference_set(
        cls,
        refs: "ReferenceSet",
        config: SeGraMConfig | None = None,
        index: FlatIndex | None = None,
    ) -> "SeGraM":
        """Build over a multi-contig :class:`~repro.refs.ReferenceSet`.

        One shared minimizer index covers the concatenated contig
        space; candidate regions are clamped at contig boundaries and
        every mapped result carries ``(contig, contig-local
        position)`` coordinates.  A single-contig set reproduces
        :meth:`from_reference` bit for bit (modulo the ``contig``
        annotation).  ``index`` skips the in-process index build —
        e.g. a :class:`~repro.index.FlatIndex` attached from an
        artifact (:mod:`repro.io.artifact`).
        """
        return cls(refs.graph, config=config, refs=refs, index=index)

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
        merged into ``self.pipeline.stats``.  Results are returned in
        input order and a read maps to the same result alone or in
        any batch, for any ``jobs`` — the parity contract the tests
        enforce.
        """
        return run_sharded(self, reads, jobs)

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
            self.pipeline.linearization()
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

    @property
    def stats(self) -> PipelineStats:
        """Cumulative pipeline statistics for this mapper."""
        return self.pipeline.stats
