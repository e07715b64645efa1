"""Parity of the region filter on MinSeed's columns with the filter on
records (``tests/oracles/seed_filter.py``).

MinSeed orders each oriented read's regions rarest minimizer first
and caps them at ``max_seeds_per_read`` on its numpy columns
(:meth:`repro.core.minseed.MinSeed.seed_chunk`), so only the kept
regions become records, and the seed stage books the ``filter`` row.
On short, long and paired fixtures this must equal a stable Python
``sorted`` plus the cap over every region the one-read oracle
(``reference_seed``) emits: the kept regions in order, every
``SeedingStats`` field, the seed and filter rows' counters,
``regions_seeded``, the order in which ``map_seeded`` takes a read's
orientations (more regions before the cap first), and every result.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from oracles.seed_filter import RecordFilterSeGraM, filter_regions, \
    reference_seed
from repro import seq as seqmod
from repro.core.mapper import SeGraM
from repro.core.pairing import PairedEndConfig
from repro.sim.longread import LongReadProfile, simulate_long_reads
from repro.sim.pairedend import PairedEndProfile, simulate_fragments
from repro.sim.shortread import ShortReadProfile, simulate_short_reads
from test_region_subsumption import _config, _fixture

KINDS = ("short", "long", "paired")


@pytest.fixture(scope="module")
def fixtures():
    """Per kind, the reads (or pairs) over the graph-100 fixture's
    repeat-bearing variant graph; every second single-end read is
    reverse-complemented.  Four long reads carry an inversion, so both
    orientations seed more regions than the cap keeps, and unequally
    many: only the unfiltered counts order those."""
    reference, variants, _, _ = _fixture("graph-100")
    rng = random.Random("seed-filter")

    def oriented(simulated):
        return [(read.name, seqmod.reverse_complement(read.sequence)
                 if index % 2 else read.sequence)
                for index, read in enumerate(simulated)]

    fragments = simulate_fragments(
        reference, 30, rng, PairedEndProfile.illumina(100, 0.01))
    inverted = [
        (f"inverted{index}", reference[start:start + 400]
         + seqmod.reverse_complement(reference[start + 400:start + 1_000]))
        for index, start in enumerate((2_000, 9_000, 17_000, 30_000))]
    return reference, variants, {
        "short": oriented(simulate_short_reads(
            reference, 80, rng, ShortReadProfile.illumina(100, 0.01))),
        "long": oriented(simulate_long_reads(
            reference, 8, rng, LongReadProfile.pacbio(0.05, 1_000)))
        + inverted,
        "paired": [(f.name, f.mate1.sequence, f.mate2.sequence)
                   for f in fragments],
    }


def _engine(cls, fixtures):
    reference, variants, _ = fixtures
    return cls.from_reference(reference, variants, config=_config(),
                              max_node_length=1_024)


def _sequences(kind: str, reads) -> list[str]:
    """Every oriented sequence the seed stage sees for ``reads``."""
    if kind == "paired":
        mates = [mate for _, *pair in reads for mate in pair]
    else:
        mates = [sequence for _, sequence in reads]
    return [oriented for sequence in mates
            for oriented in (sequence,
                             seqmod.reverse_complement(sequence))]


@pytest.mark.parametrize("cap", [None, 1, 8], ids=["uncapped", "cap1",
                                                   "cap8"])
@pytest.mark.parametrize("kind", KINDS)
def test_minseed_columns_equal_sorted_and_capped(fixtures, kind, cap):
    engine = _engine(SeGraM, fixtures)
    sequences = _sequences(kind, fixtures[2][kind])
    every = [reference_seed(engine.minseed, engine.index, sequence)
             for sequence in sequences]
    assert engine.minseed.seed_chunk(sequences, cap) == \
        [(filter_regions(regions, cap), stats) for regions, stats in every]
    # The fixture reaches the order's every key: reads above the cap,
    # frequencies above one, one minimizer at several locations.
    regions = [region for found, _ in every for region in found]
    assert any(len(found) > 8 for found, _ in every)
    assert any(region.seed.frequency > 1 for region in regions)
    starts = [(index, region.seed.read_start)
              for index, (found, _) in enumerate(every)
              for region in found]
    assert len(set(starts)) < len(starts)


def _counters(engine) -> dict:
    stats = engine.stats
    rows = {name: (row.items_in, row.items_out, row.dropped)
            for name, row in ((name, stats.stage(name))
                              for name in ("seed", "filter"))}
    return {"rows": rows, "seeded": stats.regions_seeded,
            "seeding": dataclasses.asdict(stats.seeding),
            "aligned": stats.regions_aligned,
            "subsumed": stats.regions_subsumed}


@pytest.mark.parametrize("kind", KINDS)
def test_engine_equals_the_record_filter(fixtures, kind, monkeypatch):
    reads = fixtures[2][kind]
    runs = []
    for cls in (SeGraM, RecordFilterSeGraM):
        engine = _engine(cls, fixtures)
        order = []
        run = engine.align_stage

        def spy(seeded, best=None, run=run, order=order):
            order.append((seeded.task.name, seeded.task.strand,
                          seeded.stats.region_count,
                          len(seeded.regions)))
            return run(seeded, best)

        monkeypatch.setattr(engine, "align_stage", spy)
        if kind == "paired":
            results = engine.map_pairs(reads, PairedEndConfig(
                insert_mean=350.0, insert_std=50.0))
        else:
            results = engine.map_batch(reads)
        runs.append((results, order, _counters(engine)))
    (results, order, counters), expected = runs
    assert results == expected[0]
    assert order == expected[1]
    assert counters == expected[2]
    # Both orientations of a read, and in more than one order.
    firsts = {strand for _, strand, *_ in order[::2]}
    assert firsts == {"+", "-"}
    assert counters["rows"]["filter"][2] > 0
    if kind == "long":
        cap = _config().max_seeds_per_read
        assert any(second[2] > cap and first[2] > second[2]
                   and first[1] == "-"
                   for first, second in zip(order[::2], order[1::2]))
