"""MAPQ calibration, top-N candidates, and discordant-pair tests.

The MAPQ contract (ISSUE 4): a wrong placement must almost never be
reported confidently.  Unique placements earn high MAPQ; exact-repeat
ties are reported at MAPQ <= 3; over a mixed simulated suite, wrong
mappings at MAPQ >= 30 stay under 1 %.  Candidate ordering is pinned
to the stable ``(distance, strand, position)`` key, identical under
``--jobs`` sharding.  Discordant pairs round-trip their category
through SAM flags plus the ``YC:Z:`` tag and the ``--discordant-out``
report.
"""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.alignment import MAPQ_SATURATION_GAP, Cigar, \
    mapq_from_candidates
from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.core.pairing import (
    CATEGORY_BOTH_UNMAPPED,
    CATEGORY_ONE_MATE_UNMAPPED,
    CATEGORY_PROPER,
    CATEGORY_TLEN_OUTLIER,
    CATEGORY_WRONG_ORIENTATION,
    PairedEndConfig,
    PairResult,
    classify_pair,
)
from repro.core.windows import WindowingConfig
from repro.eval.metrics import (
    evaluate_mapq_calibration,
    evaluate_paired_mappings,
)
from repro.io.discordant import (
    read_discordant_report,
    write_discordant_report,
)
from repro.io.sam import SamWriter, pair_to_sam, read_sam, \
    validate_sam_pair
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.pairedend import PairedEndProfile, simulate_fragments
from repro.sim.reference import (
    random_reference,
    reference_with_exact_repeats,
)


def _mapper(reference: str, **overrides) -> SeGraM:
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.05,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=8, both_strands=True,
        **overrides,
    )
    return SeGraM.from_reference(reference, config=config, name="chr1")


class TestMapqFormula:
    def test_unmapped_is_zero(self):
        assert mapq_from_candidates(None, None, None) == 0

    def test_unique_hit_gets_identity_ceiling(self):
        assert mapq_from_candidates(1.0, 0, None) == 60
        assert mapq_from_candidates(0.95, 5, None) == 57

    def test_tie_capped_at_three(self):
        assert mapq_from_candidates(1.0, 0, 0) == 3
        assert mapq_from_candidates(1.0, 2, 1) == 3  # gap < 0 too

    def test_gap_scales_mapq(self):
        assert mapq_from_candidates(1.0, 0, 1) == 12
        assert mapq_from_candidates(1.0, 0, 2) == 24
        assert mapq_from_candidates(1.0, 0, 5) == 60

    def test_identity_caps_gap_term(self):
        # A unique-but-terrible alignment is not confident.
        assert mapq_from_candidates(0.5, 10, 50) == 30

    def test_proper_pair_bonus_clamped(self):
        assert mapq_from_candidates(1.0, 0, None,
                                    proper_pair=True) == 60
        assert mapq_from_candidates(1.0, 0, 1,
                                    proper_pair=True) == 17

    @given(identity=st.floats(0.0, 1.0), best=st.integers(0, 5_000),
           beyond=st.integers(0, 100), proper_pair=st.booleans())
    @example(identity=1.0, best=0, beyond=0, proper_pair=False)
    def test_runner_up_past_saturation_gap_equals_none(
            self, identity, best, beyond, proper_pair):
        """The lemma bounded extension rests on: a runner-up the
        saturation gap or more behind cannot change MAPQ."""
        assert mapq_from_candidates(
            identity, best, best + MAPQ_SATURATION_GAP + beyond,
            proper_pair) == mapq_from_candidates(identity, best, None,
                                                 proper_pair)

    def test_saturation_gap_is_tight(self):
        assert MAPQ_SATURATION_GAP == 5
        assert mapq_from_candidates(1.0, 0, MAPQ_SATURATION_GAP - 1) \
            < mapq_from_candidates(1.0, 0, None)


@pytest.fixture(scope="module")
def repeat_setup():
    """An exact-repeat reference plus a mapper over it."""
    rng = random.Random(0xCA1B)
    reference, copy_starts = reference_with_exact_repeats(
        12_000, rng, repeat_length=400, copies=2,
    )
    return reference, copy_starts, _mapper(reference)


class TestCandidateCalibration:
    def test_unique_read_high_mapq(self, repeat_setup):
        reference, copy_starts, mapper = repeat_setup
        read = reference[100:200]  # unique flank
        result = mapper.map_read(read, "uniq")
        assert result.mapped
        assert result.second_best_distance is None \
            or result.second_best_distance - result.distance >= 3
        assert result.mapq >= 30

    def test_exact_repeat_tie_low_mapq(self, repeat_setup):
        reference, copy_starts, mapper = repeat_setup
        start = copy_starts[0] + 50
        read = reference[start:start + 100]  # inside a copy
        result = mapper.map_read(read, "tied")
        assert result.mapped
        assert result.distance == 0
        assert result.second_best_distance == 0
        assert result.candidate_count >= 2
        assert result.mapq <= 3
        # Both copies are in the candidate list.
        positions = sorted(c.linear_position
                           for c in result.candidates
                           if c.strand == "+")
        spacing = copy_starts[1] - copy_starts[0]
        assert positions[1] - positions[0] == spacing

    def test_candidates_sorted_by_stable_key(self, repeat_setup):
        reference, copy_starts, mapper = repeat_setup
        start = copy_starts[0] + 120
        read = reference[start:start + 100]
        result = mapper.map_read(read, "tied")
        keys = [c.sort_key for c in result.candidates]
        assert keys == sorted(keys)
        # Equal-distance forward candidates: leftmost reported.
        tied = [c for c in result.candidates
                if c.distance == result.distance
                and c.strand == result.strand]
        assert result.linear_position == \
            min(c.linear_position for c in tied)

    def test_top_n_one_still_detects_ties(self, repeat_setup):
        reference, copy_starts, _ = repeat_setup
        mapper = _mapper(reference, top_n_alignments=1)
        start = copy_starts[0] + 50
        result = mapper.map_read(reference[start:start + 100], "tied")
        assert len(result.candidates) == 1
        assert result.second_best_distance == result.distance
        assert result.mapq <= 3
        # with_candidate(0) must not wipe the pre-truncation
        # runner-up (regression: the paired path at --top-n 1 used
        # to report MAPQ 60 for the same coin-flip placement).
        rebuilt = result.with_candidate(0)
        assert rebuilt.second_best_distance == \
            result.second_best_distance
        assert rebuilt.mapq == result.mapq

    def test_paired_top_n_one_keeps_tie_mapq_in_sam(self,
                                                    repeat_setup):
        """End-to-end regression for the --top-n 1 paired path: a
        repeat-tied mate's SAM MAPQ stays at tie level (plus at most
        the proper-pair bonus), never unique-level confidence."""
        reference, copy_starts, _ = repeat_setup
        from repro import seq as seqmod

        mapper = _mapper(reference, top_n_alignments=1)
        start = copy_starts[0] + 50
        read1 = reference[start:start + 100]
        read2 = seqmod.reverse_complement(
            reference[start + 250:start + 350])
        pair, = mapper.map_pairs([("tied", read1, read2)],
                                 PairedEndConfig(insert_mean=350.0,
                                                 insert_std=50.0,
                                                 rescue=False))
        tied_mate = pair.mate1
        assert tied_mate.second_best_distance == tied_mate.distance
        rec1, _ = pair_to_sam(pair, read1, read2)
        assert rec1.mapq <= 3 + 5

    def test_wrong_at_confident_mapq_under_one_percent(self,
                                                       repeat_setup):
        """The ISSUE acceptance bar: wrong mappings at MAPQ >= 30
        stay under 1 % of confident calls on a mixed suite."""
        from repro.sim.longread import SimulatedLinearRead

        reference, copy_starts, mapper = repeat_setup
        rng = random.Random(0x5EED5)
        truths = []
        # Unique-flank reads plus repeat-interior reads, 1 % error.
        starts = [rng.randint(0, len(reference) - 100)
                  for _ in range(40)]
        starts += [copy_starts[i % 2] + rng.randint(0, 300)
                   for i in range(20)]
        model = ErrorModel.illumina(0.01)
        for index, start in enumerate(starts):
            fragment = reference[start:start + 100]
            noisy, errors = apply_errors(fragment, model, rng)
            truths.append(SimulatedLinearRead(
                name=f"read{index}", sequence=noisy,
                ref_start=start, ref_end=start + 100, errors=errors))
        results = mapper.map_batch(
            [(t.name, t.sequence) for t in truths])
        calibration = evaluate_mapq_calibration(results, truths,
                                                tolerance=30)
        assert calibration.total_mapped >= 55
        assert calibration.confident > 0
        assert calibration.wrong_at_confident_rate < 0.01
        # Repeat-interior reads do get flagged as ties.
        assert calibration.tied >= 10

    def test_jobs_sharding_preserves_candidates(self, repeat_setup):
        """Batch sharding must not change candidate order, MAPQ, or
        the reported placement (the determinism satellite)."""
        reference, copy_starts, _ = repeat_setup
        rng = random.Random(0x10B5)
        reads = []
        for index in range(8):
            start = rng.choice(
                [copy_starts[0] + 40, copy_starts[1] + 40,
                 500, 5_000])
            reads.append((f"r{index}",
                          reference[start:start + 100]))
        outcomes = []
        for jobs in (1, 2):
            mapper = _mapper(reference)
            results = mapper.map_batch(reads, jobs=jobs)
            outcomes.append([
                (r.linear_position, r.strand, r.distance,
                 r.second_best_distance, r.candidate_count, r.mapq,
                 tuple(c.sort_key for c in r.candidates))
                for r in results
            ])
        assert outcomes[0] == outcomes[1]


class TestRepeatTiePairing:
    """The tentpole acceptance: the candidate grid pairs repeat ties
    correctly with rescue disabled."""

    @pytest.fixture(scope="class")
    def tie_workload(self):
        rng = random.Random(0x11E5)
        reference, copy_starts = reference_with_exact_repeats(
            14_000, rng, repeat_length=400, copies=2,
        )
        profile = PairedEndProfile.illumina(
            read_length=100, error_rate=0.01,
            insert_mean=350.0, insert_std=50.0)
        # Fragments start in the *last* copy: the leftmost tie-break
        # alone would place the ambiguous mate in the wrong copy.
        last = copy_starts[-1]
        fragments = simulate_fragments(
            reference, 12, rng, profile, name_prefix="tie",
            start_range=(last, last + 300))
        return reference, fragments

    def _run(self, reference, fragments, top_n, rescue):
        mapper = _mapper(reference, top_n_alignments=top_n)
        pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
                 for f in fragments]
        results = mapper.map_pairs(pairs, PairedEndConfig(
            insert_mean=350.0, insert_std=50.0, rescue=rescue))
        return results, mapper.stats.pairs

    def test_grid_matches_rescue_without_rescue(self, tie_workload):
        reference, fragments = tie_workload
        naive, stats_naive = self._run(reference, fragments, 1,
                                       False)
        rescued, stats_rescued = self._run(reference, fragments,
                                           1, True)
        grid, stats_grid = self._run(reference, fragments, 5, False)
        acc = {
            "naive": evaluate_paired_mappings(naive, fragments,
                                              tolerance=30),
            "rescued": evaluate_paired_mappings(rescued, fragments,
                                                tolerance=30),
            "grid": evaluate_paired_mappings(grid, fragments,
                                             tolerance=30),
        }
        # Ties genuinely break the single-candidate configuration.
        assert acc["naive"].proper_pair_rate \
            < acc["rescued"].proper_pair_rate
        assert stats_naive.discordant.get("tlen_outlier", 0) > 0
        # The grid matches rescue-level pairing at zero rescue cost.
        assert acc["grid"].proper_pair_rate \
            >= acc["rescued"].proper_pair_rate
        assert acc["grid"].mate_accuracy >= acc["rescued"].mate_accuracy
        assert stats_grid.rescue_attempts == 0
        assert stats_rescued.rescue_attempts > 0

    def test_tied_mate_mapq_stays_low_even_when_paired(self,
                                                       tie_workload):
        """Re-placing a tied mate via the insert model does not fake
        single-end confidence: its MAPQ (before the pair bonus)
        reflects that another copy tied."""
        reference, fragments = tie_workload
        grid, _ = self._run(reference, fragments, 5, False)
        tied_mates = 0
        for pair in grid:
            for mate in (pair.mate1, pair.mate2):
                if mate.mapped and \
                        mate.second_best_distance == mate.distance:
                    tied_mates += 1
                    assert mate.mapq <= 3
        assert tied_mates > 0


def _mapped_result(name, position, strand, length=100,
                   second_best=None):
    return MappingResult(
        read_name=name, read_length=length, mapped=True,
        distance=0, cigar=Cigar.from_string(f"{length}="),
        linear_position=position, contig="chr1", strand=strand,
        second_best_distance=second_best,
    )


def _unmapped_result(name, length=100):
    return MappingResult(read_name=name, read_length=length,
                         mapped=False)


class TestDiscordantClassification:
    CONFIG = PairedEndConfig(insert_mean=350.0, insert_std=50.0)

    def test_proper_passthrough(self):
        m1 = _mapped_result("p/1", 1_000, "+")
        m2 = _mapped_result("p/2", 1_250, "-")
        assert classify_pair(m1, m2, self.CONFIG, proper=True) \
            == CATEGORY_PROPER

    def test_measures_tlen_when_proper_flag_not_precomputed(self):
        # classify_pair must measure the bounds itself: an in-window
        # FR pair classifies proper even when the caller did not
        # pre-establish concordance.
        m1 = _mapped_result("p/1", 1_000, "+")
        m2 = _mapped_result("p/2", 1_250, "-")
        assert classify_pair(m1, m2, self.CONFIG) == CATEGORY_PROPER

    def test_wrong_orientation_same_strand(self):
        m1 = _mapped_result("p/1", 1_000, "+")
        m2 = _mapped_result("p/2", 1_250, "+")
        assert classify_pair(m1, m2, self.CONFIG) \
            == CATEGORY_WRONG_ORIENTATION

    def test_wrong_orientation_everted(self):
        # Reverse mate leftmost: outward-facing (RF) geometry.
        m1 = _mapped_result("p/1", 1_250, "+")
        m2 = _mapped_result("p/2", 800, "-")
        assert classify_pair(m1, m2, self.CONFIG) \
            == CATEGORY_WRONG_ORIENTATION

    def test_tlen_outlier(self):
        # FR geometry but 5 kbp apart: deletion evidence.
        m1 = _mapped_result("p/1", 1_000, "+")
        m2 = _mapped_result("p/2", 6_000, "-")
        assert classify_pair(m1, m2, self.CONFIG) \
            == CATEGORY_TLEN_OUTLIER

    def test_unmapped_categories(self):
        m1 = _mapped_result("p/1", 1_000, "+")
        assert classify_pair(m1, _unmapped_result("p/2"),
                             self.CONFIG) \
            == CATEGORY_ONE_MATE_UNMAPPED
        assert classify_pair(_unmapped_result("p/1"),
                             _unmapped_result("p/2"), self.CONFIG) \
            == CATEGORY_BOTH_UNMAPPED

    def test_mapper_emits_tlen_outlier_for_split_fragment(self):
        """End-to-end: mates drawn from loci 5 kbp apart come back
        classified as TLEN outliers (deletion evidence)."""
        rng = random.Random(0xD15C0)
        reference = random_reference(12_000, rng)
        mapper = _mapper(reference)
        from repro import seq as seqmod

        read1 = reference[2_000:2_100]
        read2 = seqmod.reverse_complement(reference[8_000:8_100])
        pair, = mapper.map_pairs([("split", read1, read2)],
                                 PairedEndConfig(insert_mean=350.0,
                                                 insert_std=50.0,
                                                 rescue=False))
        assert not pair.proper
        assert pair.category == CATEGORY_TLEN_OUTLIER
        assert mapper.stats.pairs.discordant == \
            {CATEGORY_TLEN_OUTLIER: 1}


class TestDiscordantSamRoundTrip:
    def _pair(self, category):
        if category == CATEGORY_PROPER:
            m1 = _mapped_result("p/1", 1_000, "+")
            m2 = _mapped_result("p/2", 1_250, "-")
            return PairResult(name="p", mate1=m1, mate2=m2,
                              proper=True, template_length=350,
                              score=0, category=category)
        if category == CATEGORY_WRONG_ORIENTATION:
            m1 = _mapped_result("p/1", 1_000, "+")
            m2 = _mapped_result("p/2", 1_250, "+")
        elif category == CATEGORY_TLEN_OUTLIER:
            m1 = _mapped_result("p/1", 1_000, "+")
            m2 = _mapped_result("p/2", 6_000, "-")
        else:  # one mate unmapped
            m1 = _mapped_result("p/1", 1_000, "+")
            m2 = _unmapped_result("p/2")
        return PairResult(name="p", mate1=m1, mate2=m2,
                          category=category)

    @pytest.mark.parametrize("category", [
        CATEGORY_PROPER,
        CATEGORY_WRONG_ORIENTATION,
        CATEGORY_TLEN_OUTLIER,
        CATEGORY_ONE_MATE_UNMAPPED,
    ])
    def test_category_round_trips_through_sam(self, category):
        pair = self._pair(category)
        read = "A" * 100
        rec1, rec2 = pair_to_sam(pair, read, read)
        validate_sam_pair(rec1, rec2)
        assert rec1.pair_category == category
        assert rec2.pair_category == category
        assert rec1.is_proper_pair == (category == CATEGORY_PROPER)
        assert rec2.is_mate_unmapped is False  # mate 1 always maps
        if category == CATEGORY_ONE_MATE_UNMAPPED:
            assert rec1.is_mate_unmapped
            assert rec2.is_unmapped
        buffer = io.StringIO()
        with SamWriter(buffer, [("chr1", 20_000)]) as writer:
            writer.write(rec1)
            writer.write(rec2)
        parsed = read_sam(io.StringIO(buffer.getvalue()))
        assert parsed == [rec1, rec2]
        validate_sam_pair(*parsed)

    def test_discordant_report_round_trip(self):
        pairs = [self._pair(c) for c in (
            CATEGORY_PROPER, CATEGORY_WRONG_ORIENTATION,
            CATEGORY_TLEN_OUTLIER, CATEGORY_ONE_MATE_UNMAPPED,
        )]
        buffer = io.StringIO()
        written = write_discordant_report(buffer, pairs)
        assert written == 3  # proper pairs are skipped
        records = read_discordant_report(
            io.StringIO(buffer.getvalue()))
        assert [r.category for r in records] == [
            CATEGORY_WRONG_ORIENTATION, CATEGORY_TLEN_OUTLIER,
            CATEGORY_ONE_MATE_UNMAPPED,
        ]
        outlier = records[1]
        assert outlier.pos1 == 1_001 and outlier.pos2 == 6_001
        unmapped = records[2]
        assert unmapped.pos2 is None and unmapped.strand2 == "."
