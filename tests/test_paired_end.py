"""Paired-end mapping subsystem tests.

Covers the fragment simulator's ground truth, pair scoring and the
acceptance bar (>= 95 % proper pairs on the ISSUE workload: insert
350±50, 2x100 bp, 1 % error), mate rescue beating rescue-free mapping
on a repeat-heavy reference, single-end/in-pair parity across both
alignment backends and ``jobs`` 1/2, and pair-aware SAM emission
round-tripping through the parser.
"""

from __future__ import annotations

import io
import random

import pytest

from repro import seq as seqmod
from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.pairing import PairedEndConfig, PairedEndMapper
from repro.core.windows import WindowingConfig
from repro.eval.metrics import evaluate_paired_mappings
from repro.io.sam import (
    pair_to_sam,
    read_sam,
    validate_sam_pair,
    validate_sam_record,
    write_sam,
)
from repro.sim.pairedend import PairedEndProfile, simulate_fragments
from repro.sim.reference import random_reference, reference_with_repeats

#: The ISSUE acceptance workload: insert 350±50, 2x100 bp, 1 % error.
ACCEPTANCE_PROFILE = PairedEndProfile.illumina(
    read_length=100, error_rate=0.01, insert_mean=350.0,
    insert_std=50.0,
)


def _mapper(reference: str, **overrides) -> SeGraM:
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.05,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4, both_strands=True,
        early_exit_distance=6,
        **overrides,
    )
    return SeGraM.from_reference(reference, config=config, name="chr1")


class TestFragmentSimulator:
    def test_ground_truth_geometry(self):
        rng = random.Random(11)
        reference = random_reference(5_000, rng)
        fragments = simulate_fragments(reference, 20, rng,
                                       ACCEPTANCE_PROFILE)
        assert len(fragments) == 20
        for fragment in fragments:
            assert fragment.insert_size >= 100
            assert 0 <= fragment.fragment_start
            assert fragment.fragment_end <= len(reference)
            # Mate spans sit at the fragment ends, inward-facing.
            assert fragment.mate1.ref_start == fragment.fragment_start
            assert fragment.mate2.ref_end == fragment.fragment_end
            assert fragment.mate1_strand == "+"
            assert fragment.mate2_strand == "-"

    def test_error_free_mates_spell_the_reference(self):
        rng = random.Random(12)
        reference = random_reference(3_000, rng)
        profile = PairedEndProfile.illumina(read_length=80,
                                            error_rate=0.0,
                                            insert_mean=200.0,
                                            insert_std=20.0)
        for fragment in simulate_fragments(reference, 10, rng, profile):
            m1, m2 = fragment.mate1, fragment.mate2
            assert m1.sequence == reference[m1.ref_start:m1.ref_end]
            assert m2.sequence == seqmod.reverse_complement(
                reference[m2.ref_start:m2.ref_end])
            assert m1.errors == 0 and m2.errors == 0

    def test_insert_clamped_to_reference(self):
        rng = random.Random(13)
        reference = random_reference(150, rng)
        profile = PairedEndProfile.illumina(read_length=100,
                                            insert_mean=350.0,
                                            insert_std=50.0)
        for fragment in simulate_fragments(reference, 5, rng, profile):
            assert fragment.fragment_end <= len(reference)


@pytest.fixture(scope="module")
def acceptance_workload():
    """The ISSUE acceptance workload on a unique random reference."""
    rng = random.Random(0xACCE)
    reference = random_reference(15_000, rng)
    fragments = simulate_fragments(reference, 24, rng,
                                   ACCEPTANCE_PROFILE)
    mapper = _mapper(reference)
    engine = PairedEndMapper(mapper, PairedEndConfig(
        insert_mean=350.0, insert_std=50.0))
    pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
             for f in fragments]
    results = engine.map_pairs(pairs)
    return mapper, engine, fragments, pairs, results


class TestPairedMapping:
    def test_acceptance_proper_pair_rate(self, acceptance_workload):
        _, engine, fragments, _, results = acceptance_workload
        accuracy = evaluate_paired_mappings(results, fragments)
        assert accuracy.proper_pair_rate >= 0.95
        assert accuracy.mate_accuracy >= 0.95
        assert engine.stats.pairs == len(fragments)
        assert engine.stats.pairs_proper >= 0.95 * len(fragments)

    def test_template_length_near_model(self, acceptance_workload):
        _, _, fragments, _, results = acceptance_workload
        for pair, fragment in zip(results, fragments):
            if pair.proper:
                assert pair.template_length == pytest.approx(
                    fragment.insert_size, abs=20)

    def test_single_end_parity_without_rescue(self,
                                              acceptance_workload):
        """Each mate mapped alone agrees with its in-pair alignment
        when no rescue fired (the pairing layer only *selects*)."""
        mapper, _, _, pairs, results = acceptance_workload
        for pair, (name, read1, read2) in zip(results[:10],
                                              pairs[:10]):
            if pair.rescued_mate is not None:
                continue
            for mate, read, suffix in ((pair.mate1, read1, "1"),
                                       (pair.mate2, read2, "2")):
                alone = mapper.map_read(read, f"{name}/{suffix}")
                assert alone.mapped == mate.mapped
                if mate.mapped:
                    assert alone.linear_position == \
                        mate.linear_position
                    assert alone.strand == mate.strand
                    assert alone.cigar == mate.cigar

    def test_pairs_map_through_both_backends_and_jobs(self):
        """Pair results are identical across alignment backends and
        across jobs 1/2 (the batch engine only re-schedules work)."""
        rng = random.Random(0xBEEF)
        reference = random_reference(6_000, rng)
        fragments = simulate_fragments(reference, 4, rng,
                                       ACCEPTANCE_PROFILE)
        pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
                 for f in fragments]
        outcomes = []
        for backend in ("python", "numpy"):
            for jobs in (1, 2):
                engine = PairedEndMapper(
                    _mapper(reference, align_backend=backend),
                    PairedEndConfig(insert_mean=350.0,
                                    insert_std=50.0),
                )
                results = engine.map_pairs(pairs, jobs=jobs)
                outcomes.append([
                    (r.proper, r.template_length, r.score,
                     r.rescued_mate,
                     r.mate1.linear_position, r.mate1.strand,
                     str(r.mate1.cigar),
                     r.mate2.linear_position, r.mate2.strand,
                     str(r.mate2.cigar))
                    for r in results
                ])
        for other in outcomes[1:]:
            assert other == outcomes[0]

    def test_unmappable_mate_reported_unmapped(self):
        rng = random.Random(0xD15C)
        reference = random_reference(6_000, rng)
        engine = PairedEndMapper(
            _mapper(reference),
            PairedEndConfig(insert_mean=300.0, insert_std=40.0,
                            rescue=False),
        )
        read1 = reference[1_000:1_100]
        junk = "".join(rng.choice("ACGT") for _ in range(100))
        pair = engine.map_pair(read1, junk, "odd")
        assert pair.mate1.mapped
        assert not pair.proper
        assert not pair.mate2.mapped


class TestMateRescue:
    @pytest.fixture(scope="class")
    def repeat_workload(self):
        """Fragments whose mates often land inside repeat copies —
        single-end seeding picks an arbitrary copy, pairing + rescue
        must disambiguate via the anchored mate.  Mapped once here
        with rescue off and on; both tests read the outcomes."""
        rng = random.Random(0x5EED)
        reference = reference_with_repeats(
            9_000, rng, repeat_fraction=0.35, repeat_length=300,
            family_count=2,
        )
        fragments = simulate_fragments(reference, 15, rng,
                                       ACCEPTANCE_PROFILE)
        pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
                 for f in fragments]
        mapper = _mapper(reference)
        outcomes = {}
        for rescue in (False, True):
            engine = PairedEndMapper(mapper, PairedEndConfig(
                insert_mean=350.0, insert_std=50.0, rescue=rescue))
            outcomes[rescue] = (engine.map_pairs(pairs), engine.stats)
        return reference, fragments, outcomes

    def test_rescue_strictly_improves_accuracy(self, repeat_workload):
        _, fragments, outcomes = repeat_workload
        results_off, _ = outcomes[False]
        results_on, stats_on = outcomes[True]
        accuracy_off = evaluate_paired_mappings(results_off, fragments,
                                                tolerance=30)
        accuracy_on = evaluate_paired_mappings(results_on, fragments,
                                               tolerance=30)
        # Rescue must fire on this workload and strictly improve
        # mate placement (the ISSUE acceptance bar).
        assert stats_on.rescue_hits > 0
        assert accuracy_on.mates_correct > accuracy_off.mates_correct
        assert accuracy_on.proper_pair_rate >= \
            accuracy_off.proper_pair_rate

    def test_rescued_alignment_is_real(self, repeat_workload):
        """A rescued mate's CIGAR must replay against the reference
        at its reported position."""
        from repro.core.alignment import replay_alignment

        reference, fragments, outcomes = repeat_workload
        results_on, _ = outcomes[True]
        rescued_seen = 0
        for pair, fragment in zip(results_on, fragments):
            if pair.rescued_mate is None:
                continue
            rescued_seen += 1
            mate = pair.mate1 if pair.rescued_mate == 1 else pair.mate2
            read = fragment.mate1.sequence if pair.rescued_mate == 1 \
                else fragment.mate2.sequence
            oriented = seqmod.reverse_complement(read) \
                if mate.strand == "-" else read
            span = reference[mate.linear_position:
                             mate.linear_position
                             + mate.cigar.ref_consumed]
            assert replay_alignment(mate.cigar, oriented, span) == \
                mate.distance
        assert rescued_seen > 0

    def test_rescue_is_backend_independent(self, repeat_workload):
        """The workload where rescue fires, under both alignment
        backends: identical pair results (``rescued_mate`` included)
        and identical rescue counters."""
        reference, fragments, _ = repeat_workload
        pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
                 for f in fragments]
        outcomes = {}
        for backend in ("python", "numpy"):
            engine = PairedEndMapper(
                _mapper(reference, align_backend=backend),
                PairedEndConfig(insert_mean=350.0, insert_std=50.0))
            outcomes[backend] = (engine.map_pairs(pairs), engine.stats)
        python_results, python_stats = outcomes["python"]
        numpy_results, numpy_stats = outcomes["numpy"]
        assert python_results == numpy_results
        assert any(pair.rescued_mate for pair in numpy_results)
        assert python_stats.rescue_hits > 0
        for counter in ("rescue_attempts", "rescue_hits", "align_calls"):
            assert getattr(python_stats, counter) == \
                getattr(numpy_stats, counter), counter


class TestPairSamEmission:
    def test_round_trip_and_flags(self, acceptance_workload):
        _, _, _, pairs, results = acceptance_workload
        records = []
        for pair, (_, read1, read2) in zip(results, pairs):
            rec1, rec2 = pair_to_sam(pair, read1, read2, "chr1")
            validate_sam_pair(rec1, rec2)
            records.extend((rec1, rec2))
        buffer = io.StringIO()
        write_sam(buffer, records, "chr1", 20_000)
        parsed = read_sam(io.StringIO(buffer.getvalue()))
        assert parsed == records

    def test_proper_pair_field_semantics(self, acceptance_workload):
        _, _, _, pairs, results = acceptance_workload
        checked = 0
        for pair, (_, read1, read2) in zip(results, pairs):
            if not pair.proper:
                continue
            rec1, rec2 = pair_to_sam(pair, read1, read2, "chr1")
            checked += 1
            for rec in (rec1, rec2):
                assert rec.is_paired and rec.is_proper_pair
                assert rec.rnext == "="
                assert abs(rec.tlen) == pair.template_length
                validate_sam_record(rec)
            assert rec1.is_first_in_pair
            assert rec2.is_second_in_pair
            assert rec1.is_reverse != rec2.is_reverse
            assert rec1.pnext == rec2.pos
            assert rec2.pnext == rec1.pos
            assert rec1.tlen == -rec2.tlen
            # The leftmost (forward) mate carries the positive TLEN.
            forward = rec2 if rec1.is_reverse else rec1
            assert forward.tlen > 0
            # Reverse-strand SEQ is the reverse complement of the read.
            read_of = {rec1.qname: read1, rec2.qname: read2}
            for rec in (rec1, rec2):
                expected = seqmod.reverse_complement(
                    read_of[rec.qname]) if rec.is_reverse \
                    else read_of[rec.qname]
                assert rec.seq == expected
        assert checked > 0

    def test_half_mapped_pair_flags(self):
        rng = random.Random(0xFA11)
        reference = random_reference(6_000, rng)
        engine = PairedEndMapper(
            _mapper(reference),
            PairedEndConfig(insert_mean=300.0, insert_std=40.0,
                            rescue=False),
        )
        read1 = reference[2_000:2_100]
        junk = "".join(rng.choice("ACGT") for _ in range(100))
        pair = engine.map_pair(read1, junk, "half")
        rec1, rec2 = pair_to_sam(pair, read1, junk, "chr1")
        validate_sam_pair(rec1, rec2)
        assert not rec1.is_unmapped and rec1.is_mate_unmapped
        assert rec2.is_unmapped and not rec2.is_mate_unmapped
        assert rec1.tlen == 0 and rec2.tlen == 0
        # SAM recommended practice: the unmapped mate is co-located
        # with its mapped partner so coordinate sorts keep them
        # together.
        assert rec2.rname == rec1.rname and rec2.pos == rec1.pos
        assert rec1.rnext == "=" and rec2.rnext == "="
        assert rec1.pnext == rec1.pos and rec2.pnext == rec1.pos
