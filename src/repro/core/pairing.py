"""Paired-end mapping driver: pair scoring and mate rescue.

Illumina FR libraries sequence a fragment from both ends: mate 1
forward, mate 2 reverse-complemented, with the fragment length (the
*insert size*) following a library-specific distribution.  This module
maps both mates through the staged pipeline (:mod:`repro.core.
pipeline`), then treats pairing as a selection problem:

1. **Candidate grid** — each mate is mapped on both strands (stages
   1-4 per orientation) and keeps its ``top_n_alignments`` best
   candidate loci (:class:`~repro.core.mapper.AlignmentCandidate`).
   Every combination in the N x N grid of the two mates' candidates
   is scored as ``d1 + d2 + insert_penalty``, where the penalty is
   the Gaussian negative log-likelihood of the observed template
   length in edit-distance units.  Combinations with *proper* FR
   geometry (opposite strands, forward mate leftmost, template length
   within ``insert_mean ± max_deviation * insert_std``) are always
   preferred over improper ones — the pairing bonus of classical
   short-read mappers.  Because runner-up loci stay in the grid,
   a mate whose single-end winner is the wrong copy of a repeat is
   re-placed at the copy the insert model supports — repeat ties pair
   correctly *without* a rescue alignment (the GenPairX observation,
   PAPERS.md).
2. **Mate rescue** — when no proper combination exists but one mate
   maps confidently, the other mate is searched for directly with a
   windowed fitting alignment over the reference span where its
   FR-consistent placement must lie (anchor position plus/minus the
   maximum template length).  The search runs
   :func:`~repro.core.bitalign.bitalign` — the same BitAlign kernel
   that serves the pipeline, pointed at a hop-free view of the rescue
   window, exactly the GenPairX co-design (PAPERS.md): rescue is one
   more BitAlign call, not a separate datapath.
3. **Discordant classification** — pairs that end up non-proper are
   classified (:func:`classify_pair`) into the structural-variant
   evidence categories downstream callers consume: wrong orientation
   (same strand, or reverse mate leftmost), template-length outlier
   (correct FR geometry but TLEN beyond ``max_deviation`` standard
   deviations), or unmapped-mate.  The category is counted in
   :class:`PairStats`, stamped on each pair's SAM records via the
   ``YC:Z:`` tag, and reported by ``--discordant-out``.

Rescue needs linear reference coordinates, so it activates when the
mapper was built from a linear reference (:class:`~repro.graph.
builder.BuiltGraph`); graph-only mappers still get candidate-pair
scoring, minus rescue.  Batch mapping shards pairs across the
engine's standing worker pool exactly like ``SeGraM.map_batch`` —
results are identical to the sequential loop, and per-shard
pipeline/pair statistics merge back into the parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro import seq as seqmod
from repro.core.bitalign import bitalign
from repro.core.mapper import MappingResult
from repro.core.pipeline import run_sharded
from repro.graph.linearize import LinearizedGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mapper import SeGraM


#: Traceback-storage budget of one rescue alignment, in 64-bit words
#: (64 M words = 512 MB): a job above it resolves to no rescue.
DEFAULT_MAX_WORDS = 64_000_000


def align_storage_words(text_length: int, pattern_length: int,
                        k: int) -> int:
    """Traceback storage of one rescue alignment, in 64-bit words.

    One ``m``-bit bitvector per ``(position, budget)`` cell:
    ``(n + k + 1)`` positions times ``k + 1`` budgets times the words
    of one bitvector.
    """
    return (text_length + k + 1) * (k + 1) * -(-pattern_length // 64)


#: Discordant-pair categories (the ``YC:Z:`` SAM tag vocabulary).
CATEGORY_PROPER = "proper"
CATEGORY_WRONG_ORIENTATION = "wrong_orientation"
CATEGORY_TLEN_OUTLIER = "tlen_outlier"
#: Mates mapped to two different reference contigs (translocation /
#: chimeric-fragment evidence); only possible with a multi-contig
#: :class:`~repro.refs.ReferenceSet` mapper.
CATEGORY_DIFFERENT_REFERENCE = "different_reference"
CATEGORY_ONE_MATE_UNMAPPED = "one_mate_unmapped"
CATEGORY_BOTH_UNMAPPED = "both_unmapped"
#: Both mates mapped but at least one has no linear projection
#: (graph-only mapper): orientation/TLEN cannot be measured.
CATEGORY_UNPLACED = "unplaced"

PAIR_CATEGORIES = (
    CATEGORY_PROPER,
    CATEGORY_WRONG_ORIENTATION,
    CATEGORY_TLEN_OUTLIER,
    CATEGORY_DIFFERENT_REFERENCE,
    CATEGORY_ONE_MATE_UNMAPPED,
    CATEGORY_BOTH_UNMAPPED,
    CATEGORY_UNPLACED,
)

#: The categories that make a pair *discordant* (structural-variant
#: evidence): everything except proper and the unclassifiable bucket.
DISCORDANT_CATEGORIES = (
    CATEGORY_WRONG_ORIENTATION,
    CATEGORY_TLEN_OUTLIER,
    CATEGORY_DIFFERENT_REFERENCE,
    CATEGORY_ONE_MATE_UNMAPPED,
    CATEGORY_BOTH_UNMAPPED,
)


@dataclass(frozen=True)
class PairedEndConfig:
    """Insert-size model and pairing/rescue knobs.

    Attributes:
        insert_mean / insert_std: Gaussian insert-size model of the
            library (template length, outer distance).
        max_deviation: proper-pair window half-width in standard
            deviations: a template length outside
            ``insert_mean ± max_deviation * insert_std`` is improper.
        rescue: enable mate rescue (windowed BitAlign near a
            confidently mapped mate).
        rescue_edit_fraction: rescue edit budget as a fraction of the
            rescued mate's length.
        min_anchor_identity: minimum alignment identity of a mate for
            it to anchor a rescue of the other.
    """

    insert_mean: float = 350.0
    insert_std: float = 50.0
    max_deviation: float = 4.0
    rescue: bool = True
    rescue_edit_fraction: float = 0.15
    min_anchor_identity: float = 0.75

    def __post_init__(self) -> None:
        if self.insert_mean <= 0:
            raise ValueError("insert_mean must be positive")
        if self.insert_std < 0:
            raise ValueError("insert_std must be >= 0")
        if self.max_deviation <= 0:
            raise ValueError("max_deviation must be positive")
        if not 0 < self.rescue_edit_fraction <= 1:
            raise ValueError(
                "rescue_edit_fraction must be in (0, 1]"
            )

    @property
    def min_template_length(self) -> int:
        return max(1, int(math.floor(
            self.insert_mean - self.max_deviation * self.insert_std)))

    @property
    def max_template_length(self) -> int:
        return int(math.ceil(
            self.insert_mean + self.max_deviation * self.insert_std))

    @property
    def unpaired_penalty(self) -> int:
        """Score penalty of an improper combination.

        One more than the worst possible proper-pair insert penalty,
        so a proper combination always outscores an improper one at
        equal edit distances.
        """
        return int(round(self.max_deviation ** 2 / 2.0)) + 1

    def insert_penalty(self, template_length: int) -> int:
        """Gaussian NLL of a template length, in edit-distance units.

        ``((tlen - mean) / std)^2 / 2`` rounded to an integer — 0 at
        the mean, ~2 at two standard deviations.
        """
        if self.insert_std == 0:
            return 0 if template_length == round(self.insert_mean) \
                else self.unpaired_penalty
        z = (template_length - self.insert_mean) / self.insert_std
        return int(round(z * z / 2.0))


@dataclass
class PairStats:
    """Pair-level counters, mergeable across batch shards.

    ``discordant`` tallies discordant pairs by category (keys from
    :data:`DISCORDANT_CATEGORIES` only, so ``pairs_discordant``
    agrees with ``PairResult.discordant`` and with the
    ``--discordant-out`` report); unclassifiable graph-only pairs
    are counted separately in ``pairs_unplaced``.
    """

    pairs: int = 0
    pairs_proper: int = 0
    pairs_both_mapped: int = 0
    rescue_attempts: int = 0
    rescue_hits: int = 0
    pairs_unplaced: int = 0
    #: Kernel calls issued for mate-rescue alignments: one per framed
    #: window that fits the traceback-storage budget.
    align_calls: int = 0
    discordant: dict = field(default_factory=dict)

    @property
    def proper_pair_rate(self) -> float:
        return self.pairs_proper / self.pairs if self.pairs else 0.0

    @property
    def rescue_hit_rate(self) -> float:
        return self.rescue_hits / self.rescue_attempts \
            if self.rescue_attempts else 0.0

    @property
    def pairs_discordant(self) -> int:
        return sum(self.discordant.values())

    def count_category(self, category: str) -> None:
        if category in DISCORDANT_CATEGORIES:
            self.discordant[category] = \
                self.discordant.get(category, 0) + 1
        elif category == CATEGORY_UNPLACED:
            self.pairs_unplaced += 1

    def merge(self, other: "PairStats") -> None:
        self.pairs += other.pairs
        self.pairs_proper += other.pairs_proper
        self.pairs_both_mapped += other.pairs_both_mapped
        self.rescue_attempts += other.rescue_attempts
        self.rescue_hits += other.rescue_hits
        self.pairs_unplaced += other.pairs_unplaced
        self.align_calls += other.align_calls
        for category, count in other.discordant.items():
            self.discordant[category] = \
                self.discordant.get(category, 0) + count

    def summary_lines(self) -> list[str]:
        breakdown = ", ".join(
            f"{category}: {self.discordant[category]}"
            for category in DISCORDANT_CATEGORIES
            if category in self.discordant
        ) or "none"
        if self.pairs_unplaced:
            breakdown += f"; unplaced: {self.pairs_unplaced}"
        return [
            f"pairs: {self.pairs} total, "
            f"{self.pairs_both_mapped} both mates mapped, "
            f"{self.pairs_proper} proper "
            f"(rate {self.proper_pair_rate:.1%})",
            f"discordant: {self.pairs_discordant} ({breakdown})",
            f"mate rescue: {self.rescue_hits} hits / "
            f"{self.rescue_attempts} attempts "
            f"(hit rate {self.rescue_hit_rate:.1%}), "
            f"{self.align_calls} kernel calls",
        ]


@dataclass
class PairResult:
    """The outcome of mapping one read pair.

    Attributes:
        name: fragment identifier.
        mate1 / mate2: per-mate mapping results (``read_name`` carries
            the ``/1`` / ``/2`` suffix).
        proper: whether the selected pair has proper FR geometry and a
            template length inside the configured window.
        template_length: observed template length (outer distance) of
            the selected pair; None unless both mates mapped with
            linear positions.
        score: combined pair score (``d1 + d2 + insert penalty``);
            None unless both mates mapped.
        rescued_mate: 1 or 2 when that mate's placement came from mate
            rescue rather than its own seeding; None otherwise.
        category: the pair's classification (one of
            :data:`PAIR_CATEGORIES`): ``proper``, or the discordant
            category describing *why* the pair is improper.
    """

    name: str
    mate1: MappingResult
    mate2: MappingResult
    proper: bool = False
    template_length: int | None = None
    score: int | None = None
    rescued_mate: int | None = None
    category: str = CATEGORY_BOTH_UNMAPPED

    @property
    def both_mapped(self) -> bool:
        return self.mate1.mapped and self.mate2.mapped

    @property
    def discordant(self) -> bool:
        return self.category in DISCORDANT_CATEGORIES


@dataclass(frozen=True)
class _Combo:
    """One scored orientation combination of the two mates."""

    mate1: MappingResult
    mate2: MappingResult
    proper: bool
    template_length: int | None
    score: int
    rescued_mate: int | None = None

    @property
    def sort_key(self) -> tuple:
        # Proper first, then lowest score, then un-rescued, then the
        # leftmost placements and the forward-first strand of mate 1 —
        # a total, input-order-free key, so the selected combination
        # is identical under --jobs sharding and any candidate
        # enumeration order.
        return (not self.proper, self.score,
                self.rescued_mate is not None,
                self.mate1.contig or "", self.mate2.contig or "",
                self.mate1.linear_position or 0,
                self.mate2.linear_position or 0,
                0 if self.mate1.strand == "+" else 1)


def _linear_span(result: MappingResult) -> tuple[int, int] | None:
    """Reference interval ``[start, end)`` of a mapped result."""
    if not result.mapped or result.linear_position is None \
            or result.cigar is None:
        return None
    start = result.linear_position
    return start, start + result.cigar.ref_consumed


def classify_pair(mate1: MappingResult, mate2: MappingResult,
                  config: PairedEndConfig,
                  proper: bool = False) -> str:
    """Classify a mapped pair into its concordance category.

    ``proper=True`` (the pair selector already established FR
    concordance) passes through; otherwise the geometry is measured
    directly — a pair with FR orientation *and* a template length
    inside ``insert_mean ± max_deviation * insert_std`` classifies as
    proper, and everything else lands in one of the discordant
    categories (:data:`DISCORDANT_CATEGORIES`):

    * ``one_mate_unmapped`` / ``both_unmapped`` — a mate (or both)
      produced no alignment at all;
    * ``different_reference`` — both mates mapped but to different
      contigs of a multi-contig reference (translocation evidence);
      orientation and template length are meaningless across contigs,
      so this is decided before either is measured;
    * ``wrong_orientation`` — both mates mapped but the geometry is
      not FR: same strand, or the reverse-strand mate is leftmost
      (everted / outward-facing pairs);
    * ``tlen_outlier`` — correct FR orientation but the template
      length falls outside ``insert_mean ± max_deviation *
      insert_std`` (deletion/insertion evidence);
    * ``unplaced`` — mapped without linear projections (graph-only
      mapper), so orientation and TLEN cannot be measured.
    """
    if proper:
        return CATEGORY_PROPER
    if not mate1.mapped and not mate2.mapped:
        return CATEGORY_BOTH_UNMAPPED
    if not (mate1.mapped and mate2.mapped):
        return CATEGORY_ONE_MATE_UNMAPPED
    if mate1.contig != mate2.contig:
        return CATEGORY_DIFFERENT_REFERENCE
    span1 = _linear_span(mate1)
    span2 = _linear_span(mate2)
    if span1 is None or span2 is None:
        return CATEGORY_UNPLACED
    if mate1.strand == mate2.strand:
        return CATEGORY_WRONG_ORIENTATION
    plus, minus = (span1, span2) if mate1.strand == "+" \
        else (span2, span1)
    if plus[0] > minus[0]:
        return CATEGORY_WRONG_ORIENTATION
    template = max(span1[1], span2[1]) - min(span1[0], span2[0])
    if config.min_template_length <= template \
            <= config.max_template_length:
        return CATEGORY_PROPER
    return CATEGORY_TLEN_OUTLIER


class PairedEndMapper:
    """Maps read pairs through one :class:`~repro.core.mapper.SeGraM`.

    Owns the pair-level configuration and statistics; pipeline-level
    statistics keep accumulating in ``mapper.pipeline.stats`` (each
    mate counts as one read).
    """

    def __init__(self, mapper: "SeGraM",
                 config: PairedEndConfig | None = None) -> None:
        self.mapper = mapper
        self.config = config or PairedEndConfig()
        self.stats = PairStats()
        # Rescue searches the linear reference; spell it once.  With a
        # multi-contig ReferenceSet the rescue window lives in the
        # *anchor's* contig (see _rescue_reference), clamping rescue at
        # contig boundaries for free.
        self._reference = mapper.built.backbone_sequence() \
            if mapper.built is not None else None

    def _rescue_reference(self, anchor: MappingResult) -> str | None:
        """The linear sequence to search for the anchor's mate.

        Single-reference mappers use the (single) backbone; a
        reference-set mapper uses the backbone of the contig the
        anchor mapped to (None for graph-backed contigs — no linear
        rescue there, exactly like graph-only mappers).
        """
        refs = self.mapper.refs
        if refs is not None:
            if anchor.contig is None:
                return None
            return refs.backbone(anchor.contig)
        return self._reference

    # ------------------------------------------------------------------
    # Single pair
    # ------------------------------------------------------------------

    def map_pair(self, read1: str, read2: str,
                 name: str = "pair") -> PairResult:
        """Map one FR read pair: a one-pair :meth:`map_pairs_local`."""
        return self.map_pairs_local([(name, read1, read2)])[0]

    def map_pairs_local(self, pairs: Sequence[tuple[str, str, str]]) \
            -> list[PairResult]:
        """Map ``(name, read1, read2)`` pairs in this process; both
        mates of every pair are seeded together
        (:meth:`~repro.core.pipeline.MappingPipeline.seed_reads`)."""
        pairs = [
            (name,
             seqmod.validate(read1, "read 1", allow_ambiguous=True),
             seqmod.validate(read2, "read 2", allow_ambiguous=True))
            for name, read1, read2 in pairs]
        seeded = self.mapper.pipeline.seed_reads(
            [(f"{name}/{mate}", read)
             for name, *reads in pairs
             for mate, read in enumerate(reads, start=1)],
            both_strands=True)
        return [self._map_seeded_pair(name, read1, read2,
                                      next(seeded), next(seeded))
                for name, read1, read2 in pairs]

    def _map_seeded_pair(self, name: str, read1: str, read2: str,
                         seeded1, seeded2) -> PairResult:
        """The best-scoring pairing of one seeded FR pair.

        Scores the full candidate grid — every retained candidate
        locus of mate 1 against every retained locus of mate 2 (up to
        ``top_n_alignments`` squared combinations, both strands
        included) — so a repeat-tied mate is re-placed at the copy
        the insert-size model supports without any rescue alignment.
        """
        pipeline = self.mapper.pipeline
        best1 = pipeline.map_seeded(*seeded1, bounded=False)
        best2 = pipeline.map_seeded(*seeded2, bounded=False)

        combos: list[_Combo] = []
        for c1 in self._candidate_results(best1):
            for c2 in self._candidate_results(best2):
                combo = self._score_combo(c1, c2)
                if combo is not None:
                    combos.append(combo)

        best_combo = min(combos, key=lambda c: c.sort_key) \
            if combos else None
        if self.config.rescue and \
                (best_combo is None or not best_combo.proper):
            combos.extend(self._rescue_combos(best1, best2,
                                              read1, read2))
            if combos:
                best_combo = min(combos, key=lambda c: c.sort_key)

        if best_combo is None:
            result = PairResult(name=name, mate1=best1, mate2=best2)
        else:
            result = PairResult(
                name=name,
                mate1=best_combo.mate1, mate2=best_combo.mate2,
                proper=best_combo.proper,
                template_length=best_combo.template_length,
                score=best_combo.score,
                rescued_mate=best_combo.rescued_mate,
            )
            if best_combo.rescued_mate is not None:
                self.stats.rescue_hits += 1
        result.category = classify_pair(result.mate1, result.mate2,
                                        self.config, result.proper)
        self.stats.pairs += 1
        self.stats.count_category(result.category)
        if result.both_mapped:
            self.stats.pairs_both_mapped += 1
        if result.proper:
            self.stats.pairs_proper += 1
        return result

    @staticmethod
    def _candidate_results(best: MappingResult) -> list[MappingResult]:
        """One :class:`MappingResult` per retained candidate locus.

        ``best.candidates`` is the merged, deduplicated, top-N list
        over both orientations (best first); each entry materializes
        as a full result via
        :meth:`~repro.core.mapper.MappingResult.with_candidate`, so
        the grid scorer and the SAM writer see ordinary mate results.
        Results without candidate lists (unmapped reads) contribute
        the bare result, preserving the mate-unmapped bookkeeping.
        """
        if not best.candidates:
            return [best]
        return [best.with_candidate(i)
                for i in range(len(best.candidates))]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _score_combo(self, c1: MappingResult,
                     c2: MappingResult,
                     rescued_mate: int | None = None) -> _Combo | None:
        """Score one orientation combination (None if unpaired).

        The insert-size model only applies *within* one contig: a
        cross-contig combination is never proper, its template length
        is undefined (None), and it carries the full unpaired penalty
        — it only wins when no intra-contig combination exists.
        """
        span1 = _linear_span(c1)
        span2 = _linear_span(c2)
        if span1 is None or span2 is None:
            return None
        config = self.config
        if c1.contig != c2.contig:
            score = ((c1.distance or 0) + (c2.distance or 0)
                     + config.unpaired_penalty)
            return _Combo(mate1=c1, mate2=c2, proper=False,
                          template_length=None, score=score,
                          rescued_mate=rescued_mate)
        template = max(span1[1], span2[1]) - min(span1[0], span2[0])
        proper = False
        if c1.strand != c2.strand:
            plus, minus = (span1, span2) if c1.strand == "+" \
                else (span2, span1)
            proper = (plus[0] <= minus[0]
                      and config.min_template_length <= template
                      <= config.max_template_length)
        penalty = config.insert_penalty(template) if proper \
            else config.unpaired_penalty
        score = (c1.distance or 0) + (c2.distance or 0) + penalty
        return _Combo(mate1=c1, mate2=c2, proper=proper,
                      template_length=template, score=score,
                      rescued_mate=rescued_mate)

    # ------------------------------------------------------------------
    # Mate rescue
    # ------------------------------------------------------------------

    def _rescue_combos(self, best1: MappingResult,
                       best2: MappingResult, read1: str,
                       read2: str) -> list[_Combo]:
        """Try to rescue each mate near the other's best placement.

        Both directions' rescue windows are framed first and then
        resolved together by :meth:`_dispatch_rescues`.
        """
        attempts = []
        for anchor, read, rescued_index in (
                (best1, read2, 2), (best2, read1, 1)):
            if not self._anchor_is_confident(anchor):
                continue
            job = self._rescue_job(anchor, read)
            if job is None:
                continue
            attempts.append((anchor, read, rescued_index, job))
        aligned_list = self._dispatch_rescues(
            [job for _, _, _, job in attempts])
        combos: list[_Combo] = []
        for (anchor, read, rescued_index, job), aligned in zip(
                attempts, aligned_list):
            if aligned is None:
                continue
            rescued = self._rescued_result(anchor, read,
                                           rescued_index, job,
                                           aligned)
            pair = (anchor, rescued) if rescued_index == 2 \
                else (rescued, anchor)
            combo = self._score_combo(*pair,
                                      rescued_mate=rescued_index)
            if combo is not None:
                combos.append(combo)
        return combos

    def _dispatch_rescues(self, jobs: list) -> list:
        """Resolve framed rescue windows, one kernel call per job.

        Each window is a hop-free view aligned by
        :func:`~repro.core.bitalign.bitalign`, the kernel every
        pipeline window runs.  A job resolves to ``(distance, start,
        cigar)``, ``start`` being the first consumed window position
        (a window is never empty, so every alignment consumes one), or
        to None: no alignment within ``k``, or traceback storage above
        :data:`DEFAULT_MAX_WORDS` — that job never runs the kernel.
        """
        results: list = []
        for window, pattern, k, _, _ in jobs:
            if align_storage_words(len(window), len(pattern),
                                   k) > DEFAULT_MAX_WORDS:
                results.append(None)
                continue
            chain = LinearizedGraph.from_hops(
                window, {len(window) - 1: ()}, [0])
            self.stats.align_calls += 1
            aligned = bitalign(chain, pattern, k)
            results.append(
                None if aligned is None
                else (aligned.distance, aligned.path[0], aligned.cigar))
        return results

    def _anchor_is_confident(self, anchor: MappingResult) -> bool:
        return (anchor.mapped
                and anchor.linear_position is not None
                and anchor.cigar is not None
                and (anchor.identity or 0.0)
                >= self.config.min_anchor_identity)

    def _rescue_job(self, anchor: MappingResult,
                    read: str) -> tuple | None:
        """Frame one mate-rescue alignment window.

        The rescued mate must sit on the opposite strand, inward of
        the anchor (FR geometry), within the maximum template length —
        one fitting alignment of the oriented mate over that reference
        window.  The window is the *anchor's contig* (multi-contig
        mappers), so rescue never crosses a contig boundary.  Returns
        ``(window, pattern, k, lo, strand)`` or None when no window
        can be framed.
        """
        reference = self._rescue_reference(anchor)
        if reference is None:
            return None
        self.stats.rescue_attempts += 1
        max_template = self.config.max_template_length
        span = _linear_span(anchor)
        assert span is not None  # _anchor_is_confident checked
        if anchor.strand == "+":
            lo = span[0]
            hi = min(len(reference), lo + max_template)
            pattern = seqmod.reverse_complement(read)
            strand = "-"
        else:
            hi = min(len(reference), span[1])
            lo = max(0, hi - max_template)
            pattern = read
            strand = "+"
        window = reference[lo:hi]
        if not window or not pattern:
            return None
        k = max(2, int(round(len(pattern)
                             * self.config.rescue_edit_fraction)))
        return window, pattern, k, lo, strand

    def _rescued_result(self, anchor: MappingResult, read: str,
                        rescued_index: int, job: tuple,
                        aligned: tuple) -> MappingResult:
        """Materialize a successful rescue alignment as a result."""
        _, _, _, lo, strand = job
        distance, start, cigar = aligned
        name = anchor.read_name.rsplit("/", 1)[0]
        return MappingResult(
            read_name=f"{name}/{rescued_index}",
            read_length=len(read),
            mapped=True,
            distance=distance,
            cigar=cigar,
            linear_position=lo + start,
            contig=anchor.contig,
            strand=strand,
        )

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------

    def map_pairs(self, pairs: Sequence[tuple[str, str, str]],
                  jobs: int = 1) -> list[PairResult]:
        """Map ``(name, read1, read2)`` pairs, optionally sharded.

        ``jobs > 1`` shards across the engine's standing pool exactly
        like ``SeGraM.map_batch``: per-shard statistics merge back,
        and results are identical to the sequential loop.
        """
        return run_sharded(self.mapper, pairs, jobs, pairs=self)
