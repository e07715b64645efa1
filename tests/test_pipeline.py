"""Tests for the staged mapping pipeline engine.

Covers the stage-statistics contract (regions seeded/chained/aligned,
per-stage time), extraction as views of one whole-graph linearization
(against the dense extract-and-linearize oracle), the None-safe strand
tie-break helper, the batch/sequential parity guarantee of
``SeGraM.map_batch``, and the reuse, lifetime and dead-worker handling
of the engine's standing worker pool.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracles import dense_linearize as oracle

import repro
from repro import seq as seqmod
from repro.api import Mapper
from repro.core import mapper as mapper_module
from repro.core.mapper import MappingResult, SeGraM, SeGraMConfig
from repro.core.minseed import Seed, SeedRegion
from repro.core.pairing import PairedEndConfig
from repro.core.pipeline import (
    STAGE_ORDER,
    PipelineStats,
    best_of,
)
from repro.core.windows import WindowingConfig
from repro.graph.linearize import LinearizedGraph
from repro.refs.reference import Contig, ReferenceSet
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import multi_contig_reference, random_reference
from repro.sim.variants import VariantProfile, simulate_variants


CONFIG = SeGraMConfig(
    w=10, k=15, bucket_bits=12, error_rate=0.05,
    windowing=WindowingConfig(window_size=128, overlap=48, k=16),
    max_seeds_per_read=8,
)


def _noisy_reads(reference, count, rng, length=300, error=0.02):
    reads = []
    for i in range(count):
        start = rng.randrange(0, len(reference) - length - 1)
        sequence, _ = apply_errors(
            reference[start:start + length],
            ErrorModel.illumina(error), rng,
        )
        reads.append((f"read{i}", sequence))
    return reads


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(97)
    reference = random_reference(25_000, rng)
    reads = _noisy_reads(reference, 12, rng)
    return reference, reads


def _fresh_mapper(reference, **overrides):
    config = SeGraMConfig(
        w=CONFIG.w, k=CONFIG.k, bucket_bits=CONFIG.bucket_bits,
        error_rate=CONFIG.error_rate, windowing=CONFIG.windowing,
        max_seeds_per_read=CONFIG.max_seeds_per_read, **overrides,
    )
    return SeGraM.from_reference(reference, config=config,
                                 max_node_length=4_000)


def _result_key(result: MappingResult):
    return (result.read_name, result.mapped, result.distance,
            result.cigar, result.node_id, result.node_offset,
            result.path_nodes, result.linear_position, result.strand,
            result.regions_aligned)


class TestPipelineStats:
    def test_stage_counters_after_mapping(self, workload):
        reference, reads = workload
        mapper = _fresh_mapper(reference)
        for name, sequence in reads[:4]:
            mapper.map_read(sequence, name)
        stats = mapper.stats
        assert stats.reads == 4
        assert stats.reads_mapped == 4
        assert stats.regions_seeded > 0
        kept = stats.stage("filter").items_out
        assert kept > 0
        assert stats.regions_aligned > 0
        assert kept <= stats.regions_seeded
        assert stats.regions_aligned <= kept
        assert stats.windows > 0
        assert tuple(stats.stages) == STAGE_ORDER
        seed, align = stats.stage("seed"), stats.stage("align")
        assert seed.items_in == 4
        assert seed.items_out == stats.regions_seeded
        assert align.items_in == kept
        assert align.items_out == stats.regions_aligned
        assert align.items_in == align.items_out + align.dropped
        for stage in stats.stages.values():
            assert stage.seconds >= 0.0
        # Aggregate seeding counters fold every read's stats together.
        assert stats.seeding.minimizer_count >= \
            stats.seeding.surviving_minimizers

    def test_stage_rows_and_summary(self, workload):
        reference, reads = workload
        mapper = _fresh_mapper(reference)
        mapper.map_read(reads[0][1], reads[0][0])
        stats = mapper.stats
        rows = stats.stage_rows()
        assert [row["stage"] for row in rows] == list(STAGE_ORDER)
        assert all({"in", "out", "dropped", "seconds"} <= set(row)
                   for row in rows)
        summary = "\n".join(stats.summary_lines())
        assert "seeded" in summary and "kernel calls" in summary

    def test_linearization_build_is_not_extract_time(self, workload,
                                                     monkeypatch):
        """The first mapping call builds the whole-graph linearization
        outside the ``extract`` row: a build slowed by 0.2 s leaves
        that row under 0.1 s."""
        reference, reads = workload
        build = mapper_module.linearize

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return build(*args, **kwargs)

        monkeypatch.setattr(mapper_module, "linearize", slow)
        mapper = _fresh_mapper(reference)
        mapper.map_reads(reads[:4])
        extract = mapper.stats.stage("extract")
        assert extract.items_out > 0 and extract.seconds < 0.1

    def test_merge_sums_counters(self):
        a, b = PipelineStats.empty(), PipelineStats.empty()
        a.reads, b.reads = 2, 3
        a.regions_subsumed, b.regions_subsumed = 1, 4
        a.regions_abandoned, b.regions_abandoned = 2, 6
        a.stage("align").items_in = 5
        b.stage("align").items_in = 7
        b.stage("align").seconds = 0.5
        a.merge(b)
        assert a.reads == 5
        assert a.regions_subsumed == 5
        assert a.regions_abandoned == 8
        assert "aligned (8 abandoned)" in "\n".join(a.summary_lines())
        assert a.stage("align").items_in == 12
        assert a.stage("align").seconds == pytest.approx(0.5)

    def test_early_exit_reported_as_dropped(self, workload):
        reference, _ = workload
        mapper = _fresh_mapper(reference, early_exit_distance=0)
        read = reference[4_000:4_300]
        result = mapper.map_read(read, "exact")
        assert result.distance == 0
        stats = mapper.stats
        kept = stats.stage("filter").items_out
        assert stats.regions_aligned < kept
        assert stats.stage("align").dropped == \
            kept - stats.regions_aligned


class TestRegionCache:
    """There is no region cache any more: a region is a view of the
    pipeline's one linearization.  What is left under this name pins
    the node-range rule the views are cut by, and the leftovers the
    perf spine still binds (``region_cache_size``, four counters)."""

    def test_extract_node_range_matches_extract_region(self, workload):
        """The node range a span selects names the identical subgraph
        to the span-scan extraction."""
        reference, _ = workload
        mapper = _fresh_mapper(reference)
        graph = mapper.graph
        rng = random.Random(5)
        total = graph.total_sequence_length
        for _ in range(25):
            start = rng.randrange(0, total - 2)
            end = rng.randrange(start + 1,
                                min(total, start + 9_000) + 1)
            lo, hi = mapper.node_range(start, end)
            by_span, ids_span = graph.extract_region(start, end)
            by_range, ids_range = graph.extract_node_range(lo, hi)
            assert ids_span == ids_range
            assert [by_span.sequence_of(n)
                    for n in range(by_span.node_count)] == \
                [by_range.sequence_of(n)
                 for n in range(by_range.node_count)]
            assert sorted(by_span.edges()) == sorted(by_range.edges())

    def test_node_range_key_shares_entries_across_spans(self, workload):
        """Two different spans selecting the same nodes extract the
        same address range; only the seed anchor differs."""
        reference, _ = workload
        engine = _fresh_mapper(reference)
        lo, hi = engine.node_range(6_000, 6_400)
        assert (lo, hi) == engine.node_range(6_010, 6_390)

        def extract(start, end, seed_at):
            node = engine.node_range(seed_at, seed_at + 1)[0]
            seed = Seed(read_start=3, read_end=17, node_id=node,
                        node_offset=seed_at - engine.node_bounds[node],
                        graph_start=seed_at, graph_end=seed_at + 14,
                        minimizer_hash=0)
            return engine.extract_stage(
                0, SeedRegion(seed=seed, start=start, end=end))

        left = extract(6_000, 6_400, 6_100)
        right = extract(6_010, 6_390, 6_150)
        assert (left.first_node, left.last_node, left.start) == \
            (right.first_node, right.last_node, right.start) == \
            (lo, hi, engine.node_bounds[lo])
        assert left.lin.chars == right.lin.chars == \
            reference[left.start:engine.node_bounds[hi + 1]]
        assert left.anchor == (6_100 - left.start, 3)
        assert right.anchor == (6_150 - left.start, 3)
        assert engine.stats.stage("extract").items_out == 2

    def test_cache_disabled(self, workload):
        """``region_cache_size`` is accepted and ignored, and the four
        cache counters are never written."""
        reference, _ = workload
        read = reference[6_000:6_400]
        mapper = _fresh_mapper(reference, region_cache_size=0)
        first = mapper.map_read(read, "dup")
        assert _result_key(mapper.map_read(read, "dup")) == \
            _result_key(first) == \
            _result_key(_fresh_mapper(reference).map_read(read, "dup"))
        stats = mapper.stats
        assert stats.regions_aligned > 0
        assert (stats.cache_hits, stats.cache_misses,
                stats.pair_cache_hits, stats.pair_cache_misses) == \
            (0, 0, 0, 0)


def _variant_contigs():
    """Two variant-graph contigs (SNPs, indels, a few SVs; 64-base
    backbone nodes) — regions here carry hops, several successors per
    node end and dead ends at the contig boundary."""
    rng = random.Random(0x5E6)
    profile = VariantProfile(snp_rate=0.01, insertion_rate=0.003,
                             deletion_rate=0.003, sv_rate=0.0005,
                             sv_min=20, sv_max=60)
    contigs = []
    for name, sequence in multi_contig_reference([6_000, 4_000], rng):
        contigs.append(Contig.linear(
            name, sequence, simulate_variants(sequence, rng, profile)))
    return ReferenceSet(contigs, max_node_length=64)


def _view_fixture(kind: str):
    """``(mapper, reads, pairs)`` over a multi-contig variant graph or
    a chunked linear reference."""
    rng = random.Random(0xA11)
    config = dataclasses.replace(CONFIG, both_strands=True,
                                 hop_limit=12 if kind == "graph" else None)
    if kind == "graph":
        refs = _variant_contigs()
        mapper = Mapper(refs, config=config)
        backbone = refs.backbone(refs.names[0])
    else:
        backbone = random_reference(12_000, rng)
        mapper = Mapper(backbone, name="chr1", config=config,
                        max_node_length=1_000)
    reads = _noisy_reads(backbone, 8, rng, length=260)
    reads[1::2] = [(name, seqmod.reverse_complement(sequence))
                   for name, sequence in reads[1::2]]
    pairs = []
    for index in range(4):
        start = rng.randrange(0, len(backbone) - 400)
        pairs.append((f"pair{index}", backbone[start:start + 100],
                      seqmod.reverse_complement(
                          backbone[start + 250:start + 350])))
    return mapper, reads, pairs


class TestRegionViews:
    """Extraction is an address range: every region the align stage
    extracts is a view of the one whole-graph linearization, equal to
    the dense extract-subgraph-then-linearize it replaced."""

    @pytest.mark.parametrize("kind", ["graph", "linear"])
    def test_views_match_dense_extraction(self, kind, monkeypatch):
        mapper, reads, _ = _view_fixture(kind)
        engine = mapper.engine
        extracted, aligned = [], []
        extract, align = engine.extract_stage, engine.aligner.align

        def spy_extract(*args):
            extracted.append(extract(*args))
            return extracted[-1]

        def spy_align(lin, read, anchor, **kwargs):
            aligned.append((read, align(lin, read, anchor, **kwargs)))
            return aligned[-1][1]

        monkeypatch.setattr(engine, "extract_stage", spy_extract)
        monkeypatch.setattr(engine.aligner, "align", spy_align)
        records = mapper.map_batch(reads)
        assert sum(record.mapped for record in records) >= len(reads) - 1
        assert len(extracted) == len(aligned) >= len(reads)
        graph = mapper.graph
        hop_limit = mapper.engine.config.hop_limit
        hop_sources = 0
        for region, (read, alignment) in zip(extracted, aligned):
            subgraph, ids = graph.extract_node_range(region.first_node,
                                                     region.last_node)
            dense = oracle.linearize(subgraph, hop_limit=hop_limit)
            view = region.lin
            assert view.chars == dense.chars
            assert view.successors == dense.successors
            assert view.node_ids == [ids[n] for n in dense.node_ids]
            assert view.node_offsets == dense.node_offsets
            seed = region.region.seed
            assert region.anchor == (
                subgraph.offsets()[ids.index(seed.node_id)]
                + seed.node_offset, seed.read_start)
            assert region.start == graph.offsets()[region.first_node]
            # The dense content as a graph of its own (no view, no
            # shared tables) aligns to the same WindowedAlignment.
            assert align(LinearizedGraph(
                dense.chars, dense.successors, dense.node_ids,
                dense.node_offsets, hop_limit=dense.hop_limit),
                read, region.anchor) == alignment
            hop_sources += len(view.hop_sources()) - 1
        assert (hop_sources > 0) == (kind == "graph")

    @pytest.mark.parametrize("kind", ["graph", "linear"])
    def test_linearize_called_once_per_pipeline(self, kind, monkeypatch):
        """One linearization serves ``map_batch`` and ``map_pairs`` at
        every ``jobs``: built by the first mapping call, in the
        calling process, before any fork."""
        mapper, reads, pairs = _view_fixture(kind)
        parent = os.getpid()
        calls = []

        def counting(graph, hop_limit=None):
            assert os.getpid() == parent, "linearized in a worker"
            calls.append(graph)
            return real(graph, hop_limit=hop_limit)

        real = mapper_module.linearize
        monkeypatch.setattr(mapper_module, "linearize", counting)
        assert mapper.engine._linearization is None
        expected = mapper.map_batch(reads, jobs=2)
        assert calls == [mapper.graph]
        assert mapper.map_batch(reads, jobs=1) == expected
        paired = mapper.map_pairs(pairs, jobs=1)
        assert mapper.map_pairs(pairs, jobs=2) == paired
        assert all(record.mapped for mates in paired for record in mates)
        assert calls == [mapper.graph]

    def test_hot_path_never_builds_dense_lists(self, monkeypatch):
        """The per-position lists are derived for oracles only: a
        mapping run passes with them patched to raise."""
        mapper, reads, pairs = _view_fixture("graph")
        expected = mapper.map_batch(reads), mapper.map_pairs(pairs)

        def dense(self):
            raise AssertionError("dense list built on the hot path")

        for name in ("successors", "node_ids", "node_offsets"):
            monkeypatch.setattr(LinearizedGraph, name, property(dense))
        fresh, _, _ = _view_fixture("graph")
        assert (fresh.map_batch(reads), fresh.map_pairs(pairs)) == expected
        with pytest.raises(AssertionError):
            fresh.engine.linearization().successors


def _mapped(strand: str, distance: int | None) -> MappingResult:
    return MappingResult(read_name="r", read_length=100, mapped=True,
                         distance=distance, strand=strand)


def _unmapped(strand: str) -> MappingResult:
    return MappingResult(read_name="r", read_length=100, mapped=False,
                         strand=strand)


class TestFrozenConfigs:
    """A stage never writes through its configuration: the three
    config types are frozen, so any such write raises at run time
    (in-process and in every pool worker alike)."""

    @pytest.mark.parametrize("config", [
        SeGraMConfig(), WindowingConfig(), PairedEndConfig()],
        ids=lambda config: type(config).__name__)
    def test_every_field_is_read_only(self, config):
        for field in dataclasses.fields(config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, field.name, getattr(config, field.name))


class TestBestOf:
    def test_no_reverse(self):
        forward = _mapped("+", 3)
        assert best_of(forward, None) is forward

    def test_unmapped_reverse_never_wins(self):
        forward = _unmapped("+")
        assert best_of(forward, _unmapped("-")) is forward

    def test_mapped_reverse_beats_unmapped_forward(self):
        reverse = _mapped("-", 9)
        assert best_of(_unmapped("+"), reverse) is reverse

    def test_lower_distance_wins(self):
        assert best_of(_mapped("+", 5), _mapped("-", 2)).strand == "-"
        assert best_of(_mapped("+", 1), _mapped("-", 2)).strand == "+"

    def test_forward_wins_ties(self):
        assert best_of(_mapped("+", 0), _mapped("-", 0)).strand == "+"
        assert best_of(_mapped("+", 7), _mapped("-", 7)).strand == "+"

    def test_none_distance_is_safe(self):
        # A mapped result with no distance loses to one with a real
        # distance — and never trips a None comparison.
        assert best_of(_mapped("+", None), _mapped("-", 4)).strand == "-"
        assert best_of(_mapped("+", 4), _mapped("-", None)).strand == "+"
        assert best_of(_mapped("+", None),
                       _mapped("-", None)).strand == "+"


class TestBatchParity:
    """`map_batch(reads, jobs=N)` must be bit-for-bit identical to a
    sequential `map_read` loop for every N, whatever the ignored
    ``region_cache_size`` says."""

    @pytest.fixture(scope="class")
    def sequential(self, workload):
        reference, reads = workload
        mapper = _fresh_mapper(reference)
        return [mapper.map_read(sequence, name)
                for name, sequence in reads]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("cache_size", [0, 128])
    def test_parity(self, workload, sequential, jobs, cache_size):
        reference, reads = workload
        mapper = _fresh_mapper(reference,
                               region_cache_size=cache_size)
        batch = mapper.map_batch(reads, jobs=jobs)
        assert [_result_key(r) for r in batch] == \
            [_result_key(r) for r in sequential]
        assert all(result.mapped for result in batch)

    def test_batch_merges_worker_stats(self, workload):
        reference, reads = workload
        mapper = _fresh_mapper(reference)
        mapper.map_batch(reads, jobs=2)
        stats = mapper.stats
        assert stats.reads == len(reads)
        assert stats.reads_mapped > 0
        assert stats.regions_aligned > 0
        assert stats.stage("seed").items_in == len(reads)

    def test_empty_batch(self, workload):
        reference, _ = workload
        mapper = _fresh_mapper(reference)
        assert mapper.map_batch([], jobs=4) == []


def _worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def _untimed(stats) -> dict:
    """Every statistic except stage wall time."""
    fields = dataclasses.asdict(stats)
    for stage in fields["stages"].values():
        stage["seconds"] = 0.0
    return fields


#: A worker that dies mid-batch, run as a child process: the call must
#: raise ``BrokenProcessPool``, not hang, and the next call must fork a
#: fresh pool.  ``map_local`` is patched before the first ``jobs=2``
#: call, so the forked workers inherit the patch.
_DEAD_WORKER_SCRIPT = """
import os, random
from concurrent.futures.process import BrokenProcessPool
from repro.api import Mapper
from repro.core import pipeline
from repro.sim.reference import random_reference

reference = random_reference(6_000, random.Random(5))
reads = [(f"read{i}", reference[i * 500:i * 500 + 150]) for i in range(8)]
mapper = Mapper(reference, name="chr1")
expected = mapper.map_batch(reads)
real = pipeline.map_local

def map_local(engine, items, pair_config=None):
    if any(name == "poison" for name, _ in items):
        os._exit(1)
    return real(engine, items, pair_config)

pipeline.map_local = map_local
try:
    mapper.map_batch(reads + [("poison", reads[0][1])], jobs=2)
except BrokenProcessPool:
    print("broken")
assert mapper.map_batch(reads, jobs=2) == expected
mapper.close()
print("recovered")
"""


class TestStandingPool:
    """``jobs > 1`` shards across one pool per engine, forked by the
    first such call: later calls reuse its workers, a width change or
    a dead worker replaces it, and closing or dropping the mapper
    reaps it."""

    def test_workers_persist_across_calls(self):
        before = _worker_pids()
        mapper, reads, _ = _view_fixture("linear")
        expected = mapper.map_batch(reads)
        seen = []
        for _ in range(5):
            assert mapper.map_batch(reads, jobs=2) == expected
            seen.append(_worker_pids() - before)
        assert len(seen[0]) == 2
        assert all(pids == seen[0] for pids in seen)
        mapper.close()

    def test_mixed_modes_and_widths_match_jobs_1(self):
        """One mapper alternates single-end and pair calls across
        widths 2 → 3 → 1 → 2: every record, ``PipelineStats`` and
        ``PairStats`` equal a mapper that ran each call at jobs=1."""
        mapper, reads, pairs = _view_fixture("linear")
        alone, _, _ = _view_fixture("linear")
        for jobs in (2, 3, 1, 2):
            records = mapper.map_batch(reads, jobs=jobs)
            expected = alone.map_batch(reads)
            assert [(r, r.result) for r in records] == \
                [(r, r.result) for r in expected], jobs
            mates = mapper.map_pairs(pairs, jobs=jobs)
            expected_mates = alone.map_pairs(pairs)
            assert [(r1, r1.pair) for r1, _ in mates] == \
                [(r1, r1.pair) for r1, _ in expected_mates], jobs
        assert _untimed(mapper.stats) == _untimed(alone.stats)
        assert mapper.pair_stats == alone.pair_stats
        mapper.close()

    @pytest.mark.parametrize("how", ["close", "with", "drop"])
    def test_workers_reaped(self, how):
        """``close()``, leaving ``with mapper:`` and dropping the last
        reference (no ``gc.collect()``) each stop the workers."""
        before = _worker_pids()
        mapper, reads, _ = _view_fixture("linear")
        if how == "with":
            with mapper:
                mapper.map_batch(reads, jobs=2)
                assert len(_worker_pids() - before) == 2
        else:
            mapper.map_batch(reads, jobs=2)
            assert len(_worker_pids() - before) == 2
            if how == "close":
                mapper.close()
            else:
                del mapper
        assert _worker_pids() == before

    def test_dead_worker_raises_and_next_call_recovers(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-c", _DEAD_WORKER_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["broken", "recovered"]


class TestCoalescedParity:
    """Coalescing reads into one batch (one engine call, one pool
    dispatch) must not change any read's result: a batch equals
    one-read calls for every jobs count and strand setting, under
    each (ignored) ``align_backend`` name."""

    @pytest.fixture(scope="class")
    def sequential(self, workload):
        reference, reads = workload
        mapper = _fresh_mapper(reference)
        return [mapper.map_read(sequence, name)
                for name, sequence in reads]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_parity(self, workload, sequential, jobs, backend):
        reference, reads = workload
        mapper = _fresh_mapper(reference, align_backend=backend)
        batch = mapper.map_batch(reads, jobs=jobs)
        assert [_result_key(r) for r in batch] == \
            [_result_key(r) for r in sequential]

    def test_parity_both_strands(self, workload):
        reference, reads = workload
        per_read = _fresh_mapper(reference, both_strands=True)
        coalesced = _fresh_mapper(reference, both_strands=True)
        assert [_result_key(r) for r in coalesced.map_batch(reads)] == \
            [_result_key(per_read.map_read(sequence, name))
             for name, sequence in reads]

    def test_coalesced_shares_kernel_dispatches(self, workload):
        """Every non-exact window is one kernel call however the reads
        are batched, so the call count is a function of the windows
        alone."""
        reference, reads = workload
        per_read = _fresh_mapper(reference)
        for name, sequence in reads:
            per_read.map_read(sequence, name)
        coalesced = _fresh_mapper(reference)
        coalesced.map_batch(reads)
        assert coalesced.stats.windows == per_read.stats.windows
        _assert_one_call_per_window(coalesced.stats)
        _assert_one_call_per_window(per_read.stats)


def _counter_key(stats: PipelineStats):
    """Every pipeline counter except wall time."""
    return (
        stats.reads, stats.reads_mapped, stats.regions_seeded,
        stats.regions_subsumed,
        stats.regions_aligned, stats.windows, stats.rescues,
        stats.windows_exact,
        tuple((name, s.items_in, s.items_out, s.dropped)
              for name, s in stats.stages.items()),
    )


def _assert_one_call_per_window(stats: PipelineStats):
    """The window path's contract: one kernel call per non-exact
    window attempt (a rescue is a retried window); an
    exact window commits without one.  Every caller maps this file's
    chain reference, where rung 0 must fire."""
    assert stats.windows > 0
    assert stats.windows_exact > 0
    assert stats.align_calls + stats.windows_exact \
        == stats.windows + stats.rescues


class TestGroupWidthIndependence:
    """Which reads a read is batched with, and where in the batch it
    sits, must never show: a 70-read batch equals one-read calls on
    every result and every result-bearing counter, with and without
    the early exit, and a read's whole record is the same first, in
    the middle and last of a batch, on every way to run one."""

    READS = 70

    @pytest.fixture(scope="class")
    def short_reads(self, workload):
        reference, _ = workload
        return _noisy_reads(reference, self.READS, random.Random(41),
                            length=100)

    @pytest.mark.parametrize("early_exit_distance", [None, 1])
    def test_batch_equals_one_read_calls(self, workload, short_reads,
                                         early_exit_distance):
        reference, _ = workload
        overrides = dict(both_strands=True,
                         early_exit_distance=early_exit_distance)
        alone = _fresh_mapper(reference, **overrides)
        expected = [alone.map_read(sequence, name)
                    for name, sequence in short_reads]
        batched = _fresh_mapper(reference, **overrides)
        assert batched.map_batch(short_reads) == expected
        assert _counter_key(batched.stats) == _counter_key(alone.stats)
        _assert_one_call_per_window(batched.stats)
        _assert_one_call_per_window(alone.stats)
        if early_exit_distance is not None:
            assert batched.stats.stage("align").dropped > 0

    def test_position_in_batch_never_shows(self, workload, short_reads,
                                           tmp_path):
        """Rotating the batch puts every read at a new position (the
        first read first, in the middle, last).  Records carry the
        whole ``MappingResult`` — placement, CIGAR, candidates,
        ``regions_aligned``, ``windows``, ``rescues`` — plus MAPQ."""
        reference, _ = workload
        config = dataclasses.replace(CONFIG, both_strands=True)
        artifact = Mapper(reference, name="chr1", config=config,
                          max_node_length=4_000
                          ).save_index(tmp_path / "ref.sgidx")

        def attach() -> Mapper:
            return Mapper.from_artifact(artifact, config=config)

        alone = attach()
        expected = {name: alone.map(sequence, name)
                    for name, sequence in short_reads}
        assert sum(record.mapped for record in expected.values()) \
            > self.READS // 2
        for first_at in (0, self.READS // 2, self.READS - 1):
            batch = short_reads[-first_at:] + short_reads[:-first_at]
            assert batch[first_at] == short_reads[0]
            for jobs in (1, 2):
                with attach() as mapper:
                    records = mapper.map_batch(batch, jobs=jobs)
                assert records == [expected[name]
                                   for name, _ in batch], \
                    (first_at, jobs)


class TestBatchedAlignPath:
    """The align stage's kernel-call counter.

    ``align_calls`` is deliberately NOT part of :func:`_counter_key` —
    it counts kernel calls, not results: ``align_calls +
    windows_exact == windows + rescues`` (mate rescue counts its own
    kernel calls on ``PairStats``).
    """

    @pytest.mark.parametrize("backend,both_strands",
                             [("numpy", True), ("python", False)])
    def test_dispatch_counters_per_backend(self, workload, backend,
                                           both_strands):
        """Neither the ignored ``align_backend`` name nor mapping both
        strands changes how many kernel calls the window path makes."""
        reference, reads = workload
        mapper = _fresh_mapper(reference, align_backend=backend,
                               both_strands=both_strands)
        mapper.map_batch(reads, jobs=1)
        _assert_one_call_per_window(mapper.stats)

    def test_counters_surface_in_rows_and_summary(self, workload):
        reference, reads = workload
        mapper = _fresh_mapper(reference)
        mapper.map_batch(reads[:4], jobs=1)
        stats = mapper.stats
        rows = {row["stage"]: row for row in stats.stage_rows()}
        assert rows["align"]["calls"] == stats.align_calls
        assert rows["seed"]["calls"] is None
        summary = "\n".join(stats.summary_lines())
        assert f"{stats.align_calls} kernel calls" in summary
        assert f"{stats.windows} windows ({stats.windows_exact} exact)" \
            in summary

    def test_dispatch_counters_merge(self):
        merged = PipelineStats()
        part = PipelineStats()
        part.align_calls = 3
        part.windows_exact = 2
        merged.merge(part)
        merged.merge(part)
        assert merged.align_calls == 6
        assert merged.windows_exact == 4
