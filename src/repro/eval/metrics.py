"""Mapping-quality metrics (sensitivity / accuracy, Section 11.4).

The paper argues MinSeed preserves sensitivity because it applies the
same frequency-filter optimization as the software tools.  These
metrics quantify that on simulated reads with known ground truth.

Beyond position accuracy, :func:`evaluate_mapq_calibration` checks
the *MAPQ contract* downstream variant callers rely on ("Accelerating
Genome Analysis" primer): a mapping reported at high MAPQ must almost
never be wrong — wrong placements should be flagged by a low MAPQ
(repeat ties score 0-3).  :func:`evaluate_paired_mappings` also
tallies the discordant-pair classification
(:func:`repro.core.pairing.classify_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.alignment import TIE_MAPQ
from repro.core.mapper import MappingResult
from repro.sim.longread import SimulatedLinearRead

if TYPE_CHECKING:  # only needed for hints
    from repro.core.pairing import PairResult
    from repro.sim.pairedend import SimulatedFragment


@dataclass(frozen=True)
class MappingAccuracy:
    """Aggregate mapping-quality counters.

    Attributes:
        total: reads evaluated.
        mapped: reads with any reported alignment.
        correct: mapped reads whose reported position is within the
            tolerance of the simulated origin.
    """

    total: int
    mapped: int
    correct: int

    @property
    def mapping_rate(self) -> float:
        return self.mapped / self.total if self.total else 0.0

    @property
    def sensitivity(self) -> float:
        """Fraction of all reads mapped to the right place."""
        return self.correct / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        """Fraction of mapped reads that are correct."""
        return self.correct / self.mapped if self.mapped else 0.0


def evaluate_linear_mappings(
    results: Sequence[MappingResult],
    truths: Sequence[SimulatedLinearRead],
    tolerance: int = 50,
) -> MappingAccuracy:
    """Score mapping results against simulated linear-read truth.

    A result is *correct* when its projected linear position is within
    ``tolerance`` bases of the read's true origin (indels shift the
    projection, hence the tolerance window).
    """
    if len(results) != len(truths):
        raise ValueError(
            f"{len(results)} results vs {len(truths)} truths"
        )
    mapped = 0
    correct = 0
    for result, truth in zip(results, truths):
        if not result.mapped:
            continue
        mapped += 1
        if result.linear_position is None:
            continue
        if abs(result.linear_position - truth.ref_start) <= tolerance:
            correct += 1
    return MappingAccuracy(total=len(results), mapped=mapped,
                           correct=correct)


@dataclass(frozen=True)
class MapqCalibration:
    """How trustworthy the reported MAPQ values are.

    Attributes:
        total_mapped: mapped reads evaluated.
        wrong: mapped reads placed outside the tolerance of their
            simulated origin.
        confident: mapped reads at or above the confident-MAPQ
            threshold.
        wrong_confident: wrong reads *reported as confident* — the
            calibration failures downstream callers cannot recover
            from.
        tied: mapped reads reported at tie-level MAPQ
            (<= :data:`repro.core.alignment.TIE_MAPQ`).
    """

    total_mapped: int
    wrong: int
    confident: int
    wrong_confident: int
    tied: int

    @property
    def wrong_at_confident_rate(self) -> float:
        """Fraction of confident calls that are wrong (the <1 %
        acceptance bar)."""
        return self.wrong_confident / self.confident \
            if self.confident else 0.0


def evaluate_mapq_calibration(
    results: Sequence[MappingResult],
    truths: Sequence[SimulatedLinearRead],
    tolerance: int = 50,
    confident_mapq: int = 30,
) -> MapqCalibration:
    """Score MAPQ calibration against simulated linear-read truth.

    Uses the same correctness rule as
    :func:`evaluate_linear_mappings`; a result's MAPQ is the
    calibrated :attr:`~repro.core.mapper.MappingResult.mapq`.
    """
    if len(results) != len(truths):
        raise ValueError(
            f"{len(results)} results vs {len(truths)} truths"
        )
    total_mapped = wrong = confident = wrong_confident = tied = 0
    for result, truth in zip(results, truths):
        if not result.mapped:
            continue
        total_mapped += 1
        mapq = result.mapq
        correct = (result.linear_position is not None
                   and abs(result.linear_position - truth.ref_start)
                   <= tolerance)
        if mapq >= confident_mapq:
            confident += 1
        if mapq <= TIE_MAPQ:
            tied += 1
        if not correct:
            wrong += 1
            if mapq >= confident_mapq:
                wrong_confident += 1
    return MapqCalibration(
        total_mapped=total_mapped, wrong=wrong, confident=confident,
        wrong_confident=wrong_confident, tied=tied,
    )


@dataclass(frozen=True)
class PairedAccuracy:
    """Aggregate paired-end mapping-quality counters.

    Attributes:
        total_pairs: pairs evaluated.
        proper_pairs: pairs reported with proper FR geometry.
        mates_mapped: mates (out of ``2 * total_pairs``) with any
            reported alignment.
        mates_correct: mates placed within tolerance of their
            simulated origin.
        pairs_correct: pairs with *both* mates placed correctly.
        pairs_wrong_orientation: pairs classified wrong-orientation.
        pairs_tlen_outlier: pairs classified template-length outlier.
        pairs_different_reference: pairs classified as mates on
            different contigs (translocation evidence).
        pairs_unmapped_mate: pairs with one or both mates unmapped.
    """

    total_pairs: int
    proper_pairs: int
    mates_mapped: int
    mates_correct: int
    pairs_correct: int
    pairs_wrong_orientation: int = 0
    pairs_tlen_outlier: int = 0
    pairs_different_reference: int = 0
    pairs_unmapped_mate: int = 0

    @property
    def proper_pair_rate(self) -> float:
        return self.proper_pairs / self.total_pairs \
            if self.total_pairs else 0.0

    @property
    def discordant_pairs(self) -> int:
        return (self.pairs_wrong_orientation
                + self.pairs_tlen_outlier
                + self.pairs_different_reference
                + self.pairs_unmapped_mate)

    @property
    def mate_accuracy(self) -> float:
        """Fraction of all mates placed correctly."""
        total = 2 * self.total_pairs
        return self.mates_correct / total if total else 0.0


def _mate_correct(result: MappingResult,
                  truth: SimulatedLinearRead,
                  tolerance: int) -> bool:
    """Position within tolerance — and on the right contig when the
    truth carries one (multi-contig simulations)."""
    if not (result.mapped and result.linear_position is not None):
        return False
    if truth.contig is not None and result.contig != truth.contig:
        return False
    return abs(result.linear_position - truth.ref_start) <= tolerance


def evaluate_paired_mappings(
    pairs: "Sequence[PairResult]",
    truths: "Sequence[SimulatedFragment]",
    tolerance: int = 50,
) -> PairedAccuracy:
    """Score pair results against simulated fragment truth.

    A mate is *correct* when its projected linear position is within
    ``tolerance`` bases of its simulated origin (same rule as
    :func:`evaluate_linear_mappings`); a pair is correct when both
    mates are.  Discordant classification counters come from each
    pair's ``category``.
    """
    from repro.core.pairing import (
        CATEGORY_BOTH_UNMAPPED,
        CATEGORY_DIFFERENT_REFERENCE,
        CATEGORY_ONE_MATE_UNMAPPED,
        CATEGORY_TLEN_OUTLIER,
        CATEGORY_WRONG_ORIENTATION,
    )

    if len(pairs) != len(truths):
        raise ValueError(
            f"{len(pairs)} pair results vs {len(truths)} truths"
        )
    proper = 0
    mates_mapped = 0
    mates_correct = 0
    pairs_correct = 0
    wrong_orientation = 0
    tlen_outlier = 0
    different_reference = 0
    unmapped_mate = 0
    for pair, truth in zip(pairs, truths):
        if pair.proper:
            proper += 1
        if pair.category == CATEGORY_WRONG_ORIENTATION:
            wrong_orientation += 1
        elif pair.category == CATEGORY_TLEN_OUTLIER:
            tlen_outlier += 1
        elif pair.category == CATEGORY_DIFFERENT_REFERENCE:
            different_reference += 1
        elif pair.category in (CATEGORY_ONE_MATE_UNMAPPED,
                               CATEGORY_BOTH_UNMAPPED):
            unmapped_mate += 1
        ok = 0
        for result, mate_truth in ((pair.mate1, truth.mate1),
                                   (pair.mate2, truth.mate2)):
            if result.mapped:
                mates_mapped += 1
            if _mate_correct(result, mate_truth, tolerance):
                mates_correct += 1
                ok += 1
        if ok == 2:
            pairs_correct += 1
    return PairedAccuracy(
        total_pairs=len(pairs), proper_pairs=proper,
        mates_mapped=mates_mapped, mates_correct=mates_correct,
        pairs_correct=pairs_correct,
        pairs_wrong_orientation=wrong_orientation,
        pairs_tlen_outlier=tlen_outlier,
        pairs_different_reference=different_reference,
        pairs_unmapped_mate=unmapped_mate,
    )
