"""Paired-end mapping engine — pairs/s, rescue, and repeat-tie pairing.

Not a paper figure: this benchmark characterizes the paired-end
subsystem (``SeGraM.map_pairs``) on the acceptance workload
(insert 350±50, 2x100 bp, 1 % error).  Three references are measured:

* a *unique* random reference — the throughput case (rescue idle);
* a *repeat-heavy* reference (diverged copies) — the accuracy case,
  where single-end seeding mismaps mates into wrong repeat copies and
  windowed mate rescue must recover them;
* a *repeat-tie* reference (byte-identical copies, fragments planted
  in the rightmost copy so the deterministic leftmost tie-break picks
  the wrong copy) — the multi-candidate case: the top-N candidate
  grid must re-place the tied mate at the copy the insert model
  supports, *without* any rescue alignment.

Acceptance checks: >= 95 % proper pairs on the unique reference; on
the repeat reference rescue fires and strictly improves mate
placement; and on the repeat-tie reference multi-candidate pairing
with rescue *disabled* reaches at least the proper-pair rate of
single-candidate pairing with rescue *enabled* (the PR 3
configuration) while issuing zero rescue alignments — same accuracy,
lower cost.

Quick mode: set ``REPRO_BENCH_QUICK=1`` (the CI bench-smoke job does)
to shrink the workloads; the acceptance assertions still hold.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.pairing import PairedEndConfig
from repro.core.windows import WindowingConfig
from repro.eval.metrics import evaluate_paired_mappings
from repro.sim.pairedend import PairedEndProfile, simulate_fragments
from repro.sim.reference import (
    random_reference,
    reference_with_exact_repeats,
    reference_with_repeats,
)

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

PROFILE = PairedEndProfile.illumina(
    read_length=100, error_rate=0.01,
    insert_mean=350.0, insert_std=50.0,
)


def _mapper(reference: str, top_n: int = 5,
            early_exit: int | None = 6) -> SeGraM:
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.05,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4, both_strands=True,
        top_n_alignments=top_n,
        early_exit_distance=early_exit,
    )
    return SeGraM.from_reference(reference, config=config, name="chr1")


def _workloads():
    rng = random.Random(0xBE9C)
    unique_pairs = 12 if QUICK else 30
    repeat_pairs = 8 if QUICK else 20
    unique = random_reference(20_000, rng)
    repeats = reference_with_repeats(
        12_000, rng, repeat_fraction=0.35, repeat_length=300,
        family_count=2,
    )
    return (
        ("unique", unique,
         simulate_fragments(unique, unique_pairs, rng, PROFILE,
                            name_prefix="uniq")),
        ("repeats", repeats,
         simulate_fragments(repeats, repeat_pairs, rng, PROFILE,
                            name_prefix="rep")),
    )


def _tie_workload():
    """Exact-repeat reference; fragments start in the *last* copy."""
    rng = random.Random(0x7E57)
    reference, copy_starts = reference_with_exact_repeats(
        14_000, rng, repeat_length=400, copies=2,
    )
    count = 8 if QUICK else 20
    last = copy_starts[-1]
    fragments = simulate_fragments(
        reference, count, rng, PROFILE, name_prefix="tie",
        start_range=(last, last + 300),
    )
    return reference, fragments


def paired_end_rows():
    rows = []
    for label, reference, fragments in _workloads():
        pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
                 for f in fragments]
        for rescue in (False, True):
            # Fresh mapper per configuration: a shared region cache
            # would warm across rows and skew the pairs/s comparison.
            mapper = _mapper(reference)
            start = time.perf_counter()
            results = mapper.map_pairs(pairs, PairedEndConfig(
                insert_mean=350.0, insert_std=50.0, rescue=rescue))
            elapsed = time.perf_counter() - start
            stats = mapper.stats.pairs
            accuracy = evaluate_paired_mappings(results, fragments,
                                                tolerance=30)
            rows.append({
                "reference": label,
                "config": "rescue on" if rescue else "rescue off",
                "pairs": len(pairs),
                "pairs_per_s": round(len(pairs) / elapsed, 2),
                "proper_rate":
                    round(accuracy.proper_pair_rate, 3),
                "mate_accuracy":
                    round(accuracy.mate_accuracy, 3),
                "rescue_attempts": stats.rescue_attempts,
                "rescue_hits": stats.rescue_hits,
                "discordant": stats.pairs_discordant,
                "kernel_calls": mapper.stats.align_calls
                + stats.align_calls,
            })
    return rows


def repeat_tie_rows():
    """The multi-candidate showcase: top-N grid vs rescue on ties.

    ``early_exit`` is disabled so the align stage visits every
    candidate region — an early exit at the first tied copy would
    hide the other copies from the candidate list.
    """
    reference, fragments = _tie_workload()
    pairs = [(f.name, f.mate1.sequence, f.mate2.sequence)
             for f in fragments]
    rows = []
    for label, top_n, rescue in (
        ("top-1, rescue off", 1, False),
        ("top-1, rescue on (PR 3)", 1, True),
        ("top-5 grid, rescue off", 5, False),
    ):
        mapper = _mapper(reference, top_n=top_n, early_exit=None)
        start = time.perf_counter()
        results = mapper.map_pairs(pairs, PairedEndConfig(
            insert_mean=350.0, insert_std=50.0, rescue=rescue))
        elapsed = time.perf_counter() - start
        stats = mapper.stats.pairs
        accuracy = evaluate_paired_mappings(results, fragments,
                                            tolerance=30)
        rows.append({
            "config": label,
            "pairs": len(pairs),
            "pairs_per_s": round(len(pairs) / elapsed, 2),
            "proper_rate": round(accuracy.proper_pair_rate, 3),
            "mate_accuracy": round(accuracy.mate_accuracy, 3),
            "rescue_alignments": stats.rescue_attempts,
            "tlen_outliers": stats.discordant.get("tlen_outlier", 0),
            "kernel_calls": mapper.stats.align_calls
            + stats.align_calls,
        })
    return rows


def test_paired_end_throughput_and_rescue(benchmark, show):
    rows = benchmark.pedantic(paired_end_rows, rounds=1, iterations=1)
    show(rows, "paired-end engine — pairs/s and rescue hit rate")

    by_key = {(row["reference"], row["config"]): row for row in rows}
    # The ISSUE acceptance bar on the clean workload.
    assert by_key[("unique", "rescue on")]["proper_rate"] >= 0.95
    # On repeats, rescue fires and does not hurt placement.
    assert by_key[("repeats", "rescue on")]["rescue_hits"] > 0
    assert by_key[("repeats", "rescue on")]["mate_accuracy"] >= \
        by_key[("repeats", "rescue off")]["mate_accuracy"]


def test_repeat_tie_multi_candidate_pairing(benchmark, show):
    rows = benchmark.pedantic(repeat_tie_rows, rounds=1, iterations=1)
    show(rows, "repeat-tie pairing — candidate grid vs mate rescue")

    by_config = {row["config"]: row for row in rows}
    naive = by_config["top-1, rescue off"]
    rescued = by_config["top-1, rescue on (PR 3)"]
    grid = by_config["top-5 grid, rescue off"]
    # Without candidates or rescue, ties mispair (discordant TLEN).
    assert naive["proper_rate"] < rescued["proper_rate"]
    assert naive["tlen_outliers"] > 0
    # The acceptance bar: the candidate grid matches (or beats) the
    # rescue configuration's proper-pair rate and accuracy...
    assert grid["proper_rate"] >= rescued["proper_rate"]
    assert grid["mate_accuracy"] >= rescued["mate_accuracy"]
    # ...at lower cost: zero rescue alignment dispatches.
    assert grid["rescue_alignments"] == 0
    assert rescued["rescue_alignments"] > 0
