"""Tests for bounded extension in the align stage.

Once a read has a completed alignment, the align stage aligns every
further region with the budget ``best + MAPQ_SATURATION_GAP - 1`` and
abandons it once its committed edits exceed that
(:meth:`repro.core.pipeline.AlignStage.run`).  The oracle is the same
drive unbounded (the ``unbounded`` fixture: an infinite saturation
gap):

* single-end results equal it in everything output can see —
  placement, strand, CIGAR, distance, MAPQ — and every candidate the
  bounded run drops is at least the saturation gap behind the best;
* an abandoned region's committed operations still mark subsumption,
  so a wrong locus with many seeds is not aligned once per seed;
* the better-seeded orientation is aligned first;
* pairs are not budgeted, and a pair built so that budgeting its mates
  would move it proves that they are not.

The kernel-level property (``align(budget=b)`` is abandoned exactly
when the unbounded distance exceeds ``b``) is in
``tests/test_windows.py``.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro import seq as seqmod
from repro.core.alignment import MAPQ_SATURATION_GAP
from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.core.pairing import PairedEndConfig, PairedEndMapper
from repro.core.pipeline import MappingPipeline
from repro.core.windows import WindowingConfig
from repro.sim.reference import random_reference, \
    reference_with_exact_repeats
from test_region_subsumption import _config, _fixture


def _unbound(monkeypatch) -> None:
    monkeypatch.setattr("repro.core.pipeline.MAPQ_SATURATION_GAP",
                        math.inf)


def _output(result: MappingResult) -> MappingResult:
    """Everything but the fields a dropped far-behind candidate may
    change."""
    return dataclasses.replace(result, candidates=(), candidate_count=0,
                               second_best_distance=None,
                               regions_aligned=0)


def _compare(kind: str, config: SeGraMConfig, monkeypatch) -> tuple:
    """Map ``kind``'s reads bounded, then unbounded; assert the results
    agree wherever output can see; return both runs' stats."""
    reference, variants, reads, _ = _fixture(kind)

    def run():
        mapper = SeGraM.from_reference(reference, variants,
                                       config=config,
                                       max_node_length=1_024)
        return mapper.map_batch(reads), mapper.stats

    bounded, stats = run()
    _unbound(monkeypatch)
    free, free_stats = run()
    for got, expected in zip(bounded, free):
        assert _output(got) == _output(expected), got.read_name
        assert got.mapq == expected.mapq
        if not expected.mapped:
            continue
        cutoff = expected.distance + MAPQ_SATURATION_GAP
        assert [c for c in got.candidates if c.distance < cutoff] \
            == [c for c in expected.candidates if c.distance < cutoff]
        assert all(c.distance >= cutoff for c in expected.candidates
                   if c not in got.candidates)
        if got.second_best_distance != expected.second_best_distance:
            for second in (got.second_best_distance,
                           expected.second_best_distance):
                assert second is None or second >= cutoff
    assert free_stats.regions_abandoned == 0
    # Abandoned regions are aligned regions, and their work counts.
    assert stats.regions_abandoned <= stats.regions_aligned
    assert stats.align_calls + stats.windows_exact \
        == stats.windows + stats.rescues
    if kind == "linear-100":
        # The chain fixture reaches rung 0 (exact windows skip the
        # kernel), so the identity above cannot hold vacuously.
        assert stats.windows_exact > 0
    return stats, free_stats


class TestSingleEnd:
    @pytest.mark.parametrize("early_exit", [False, True],
                             ids=["all_regions", "early_exit"])
    @pytest.mark.parametrize("kind",
                             ["linear-100", "graph-100", "graph-1k"])
    def test_equals_unbounded(self, kind, early_exit, monkeypatch):
        exit_distance = _fixture(kind)[3]
        stats, free_stats = _compare(kind, _config(
            early_exit_distance=exit_distance if early_exit else None),
            monkeypatch)
        if kind == "graph-1k" and not early_exit:
            # (With the exit at 48 edits the budget is at least 48,
            # which this fixture's far-behind region stays under.)
            assert stats.regions_abandoned > 0
            assert stats.align_calls < free_stats.align_calls

    def test_abandoned_prefix_subsumes(self, monkeypatch):
        """With every region kept, a wrong locus brings many seeds on
        one diagonal.  Were an abandoned alignment to mark nothing
        subsumed, each of them would be aligned in turn — more kernel
        calls than the unbounded drive; its committed operations mark
        them instead."""
        stats, free_stats = _compare(
            "graph-1k", _config(max_seeds_per_read=None), monkeypatch)
        assert stats.regions_abandoned > 100
        assert stats.align_calls < free_stats.align_calls / 2
        # Measured: 277 regions aligned against 213 unbounded; 780
        # when abandoned alignments mark nothing.
        assert stats.regions_aligned < 1.5 * free_stats.regions_aligned

    def test_budget_never_undercuts_the_exit(self, monkeypatch):
        """A region the early exit would stop at must complete, or the
        exit would fire elsewhere: no budget is below its threshold.
        The read's reverse complement sits elsewhere with 5
        substitutions — the saturation gap behind the exact forward
        placement, but inside an exit threshold of 6."""
        rng = random.Random("bounded:exit")
        reference = random_reference(3_000, rng)
        read = reference[1_000:1_100]
        copy = list(seqmod.reverse_complement(read))
        for position in range(10, 100, 20):
            copy[position] = "A" if copy[position] != "A" else "C"
        reference = reference[:2_000] + "".join(copy) \
            + reference[2_100:]
        mapper = SeGraM.from_reference(
            reference, config=_config(early_exit_distance=6))
        budgets = []
        align = mapper.pipeline.aligner.align

        def spy(*args, budget=None, **kwargs):
            budgets.append(budget)
            return align(*args, budget=budget, **kwargs)

        monkeypatch.setattr(mapper.pipeline.aligner, "align", spy)
        result = mapper.map_read(read, "exit")
        assert budgets == [math.inf, 6]
        assert (result.distance, result.second_best_distance) == (0, 5)

    def test_better_seeded_orientation_first(self, monkeypatch):
        reference, variants, reads, _ = _fixture("graph-1k")
        mapper = SeGraM.from_reference(reference, variants,
                                       config=_config(),
                                       max_node_length=1_024)
        seen = []
        run = mapper.pipeline.filter_stage.run

        def spy(seeded, pipe):
            task = seeded.task
            seen.append((task.name, task.strand, len(seeded.regions)))
            return run(seeded, pipe)

        monkeypatch.setattr(mapper.pipeline.filter_stage, "run", spy)
        mapper.map_batch(reads)
        assert len(seen) == 2 * len(reads)
        for first, second in zip(seen[::2], seen[1::2]):
            assert first[0] == second[0] and first[1] != second[1]
            assert first[2] > second[2] \
                or (first[2] == second[2] and first[1] == "+")
        # Every second read is reverse-complemented: its '-' goes first.
        assert any(strand == "-" for _, strand, _ in seen[::2])


@pytest.fixture(scope="module")
def repeat_pair():
    """A pair that budgeted mates would move.

    Mate 2 lies inside the last of seven byte-identical repeat copies,
    so its true copy falls outside its top-5 ties; mate 1 starts 60
    bases before that copy.  Aligned at any other copy, mate 1 costs
    ~30 edits in the unique flank — and that far-behind candidate is
    the only proper partner of a top-5 mate-2 copy.
    """
    rng = random.Random("bounded:pair")
    reference, starts = reference_with_exact_repeats(
        8_000, rng, repeat_length=400, copies=7)
    start = starts[-1] - 60
    mate1 = reference[start:start + 100]
    mate2 = seqmod.reverse_complement(reference[start + 250:start + 350])
    return reference, ("frag", mate1, mate2)


def _map_pair(reference: str, pair) -> tuple:
    mapper = SeGraM.from_reference(
        reference, config=SeGraMConfig(
            w=10, k=15, bucket_bits=12, error_rate=0.05,
            windowing=WindowingConfig(), both_strands=True),
        name="chr1")
    result = PairedEndMapper(mapper, PairedEndConfig()).map_pairs(
        [pair])[0]
    return result, mapper.stats


class TestPairsUnbounded:
    def test_pair_equals_unbounded(self, repeat_pair, monkeypatch):
        reference, pair = repeat_pair
        result, stats = _map_pair(reference, pair)
        assert stats.regions_abandoned == 0
        _unbound(monkeypatch)
        assert result == _map_pair(reference, pair)[0]

    def test_budgeting_mates_would_move_the_pair(self, repeat_pair,
                                                 monkeypatch):
        """The fixture discriminates: with the single-end budget on
        the mates, mate 1's far-behind candidate is abandoned and the
        pair moves."""
        reference, pair = repeat_pair
        result, _ = _map_pair(reference, pair)
        assert result.proper and result.rescued_mate is None
        assert result.mate1.distance >= MAPQ_SATURATION_GAP

        map_seeded = MappingPipeline.map_seeded
        monkeypatch.setattr(
            MappingPipeline, "map_seeded",
            lambda self, forward, reverse, bounded=True:
                map_seeded(self, forward, reverse))
        budgeted, stats = _map_pair(reference, pair)
        assert stats.regions_abandoned > 0
        assert budgeted.mate1.linear_position \
            != result.mate1.linear_position
