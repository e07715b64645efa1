"""Tests for the cycle-level accelerator simulator."""

from __future__ import annotations

import random

import pytest
from oracles import dense_linearize as oracle

from repro.core import windows
from repro.graph.builder import Variant, build_graph
from repro.graph.genome_graph import GenomeGraph
from repro.graph.linearize import linearize
from repro.hw.bitalign_unit import BitAlignCycleModel
from repro.hw.config import BitAlignUnitConfig, SeGraMSystemConfig
from repro.hw.simulator import SeGraMAcceleratorSim
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import random_reference


@pytest.fixture(scope="module")
def chain_3kb():
    rng = random.Random(42)
    text = random_reference(4_000, rng)
    return text, linearize(GenomeGraph.from_linear(text,
                                                   node_length=256))


class TestSimulator:
    def test_functional_result_unchanged_by_simulation(self, chain_3kb):
        text, lin = chain_3kb
        read = text[500:1_500]
        sim = SeGraMAcceleratorSim()
        result, trace = sim.run_seed_task(lin, read, anchor=(500, 0))
        assert result.distance == 0
        assert trace.windows_executed > 0

    def test_cycles_close_to_analytical_model(self, chain_3kb):
        """The simulator and the spreadsheet model must agree on the
        paper's design point for a clean exact read (within 15 %)."""
        text, lin = chain_3kb
        read = text[200:3_200]  # 3 kbp exact read
        sim = SeGraMAcceleratorSim()
        _, trace = sim.run_seed_task(lin, read, anchor=(200, 0))
        analytical = BitAlignCycleModel().alignment_cycles(len(read))
        assert trace.compute_cycles == \
            pytest.approx(analytical, rel=0.15)

    def test_window_count_matches_model(self, chain_3kb):
        text, lin = chain_3kb
        read = text[200:3_200]
        sim = SeGraMAcceleratorSim()
        _, trace = sim.run_seed_task(lin, read, anchor=(200, 0))
        assert trace.windows_executed == \
            BitAlignCycleModel().window_count(len(read))

    def test_noisy_reads_cost_more_cycles(self, chain_3kb):
        """Data-dependence the analytical model folds into its
        overhead term: noise can trigger rescues, never fewer
        cycles."""
        text, lin = chain_3kb
        rng = random.Random(7)
        fragment = text[200:2_200]
        noisy, _ = apply_errors(fragment, ErrorModel.nanopore(0.12), rng)
        sim = SeGraMAcceleratorSim()
        _, clean_trace = sim.run_seed_task(lin, fragment,
                                           anchor=(200, 0))
        _, noisy_trace = sim.run_seed_task(lin, noisy, anchor=(200, 0))
        assert noisy_trace.total_cycles >= \
            clean_trace.total_cycles * 0.9

    def test_memory_stall_charged(self, chain_3kb):
        text, lin = chain_3kb
        sim = SeGraMAcceleratorSim()
        _, trace = sim.run_seed_task(lin, text[100:400],
                                     anchor=(100, 0))
        assert trace.memory_stall_cycles > 0

    def test_bitvector_traffic_counted(self, chain_3kb):
        text, lin = chain_3kb
        sim = SeGraMAcceleratorSim()
        _, trace = sim.run_seed_task(lin, text[100:400],
                                     anchor=(100, 0))
        # Each window writes (k+1) x chunk bitvectors of 16 B.
        assert trace.bitvector_bytes_written > 0
        assert trace.bitvector_bytes_written % 16 == 0

    def test_hops_generate_queue_reads(self):
        built = build_graph("ACGTACGTACGTACGTACGTACGT" * 8,
                            [Variant(20, 21, "C"), Variant(50, 53, "")])
        lin = linearize(built.graph)
        sim = SeGraMAcceleratorSim()
        read = built.backbone_sequence()[10:80]
        _, trace = sim.run_seed_task(lin, read, anchor=(10, 0))
        assert trace.hop_queue_reads > 0

    def test_hop_queue_capacity_check(self):
        # A 30-base deletion: one hop of length 31, beyond depth 12.
        built = build_graph("A" * 20 + "C" * 30 + "G" * 20,
                            [Variant(20, 50, "")])
        lin = linearize(built.graph)
        sim = SeGraMAcceleratorSim()
        coverage = sim.hop_queue_capacity_ok(lin)
        assert coverage < 1.0
        deep = SeGraMAcceleratorSim(SeGraMSystemConfig(
            bitalign=BitAlignUnitConfig(hop_queue_depth=64),
        ))
        assert deep.hop_queue_capacity_ok(lin) == 1.0

    def test_hops_in_window_match_dense_enumeration(self, chain_3kb,
                                                    monkeypatch):
        """``WindowEvent.hops_in_window`` comes from the window view's
        range query; on this file's fixtures it equals the count over
        the window's dense successor lists."""
        text, chain = chain_3kb
        snp = build_graph("ACGTACGTACGTACGTACGTACGT" * 8,
                          [Variant(20, 21, "C"), Variant(50, 53, "")])
        deletion = build_graph("A" * 20 + "C" * 30 + "G" * 20,
                               [Variant(20, 50, "")])
        count_hops = windows._count_hops
        seen = []

        def checked(window):
            seen.append(count_hops(window))
            assert seen[-1] == oracle.count_hops(window.successors)
            return seen[-1]

        monkeypatch.setattr(windows, "_count_hops", checked)
        sim = SeGraMAcceleratorSim()
        _, trace = sim.run_seed_task(chain, text[200:2_200],
                                     anchor=(200, 0))
        assert trace.hop_queue_reads == 0 and set(seen) == {0}
        for built, span in ((snp, (10, 80)), (deletion, (5, 65))):
            del seen[:]
            read = built.backbone_sequence()[span[0]:span[1]]
            _, trace = sim.run_seed_task(linearize(built.graph), read,
                                         anchor=(span[0], 0))
            assert trace.hop_queue_reads > 0 and max(seen) > 0

    def test_exact_windows_charged_like_kernel_windows(self, chain_3kb,
                                                      monkeypatch):
        """The accelerator has no string compare: a read of exact
        windows, which software commits without the kernel, costs the
        same cycles as when every window runs it."""
        text, lin = chain_3kb
        read = text[200:1_500]
        sim = SeGraMAcceleratorSim()
        exact_skipped = []
        is_exact = windows._is_exact_window

        def spy(*args):
            exact_skipped.append(is_exact(*args))
            return exact_skipped[-1]

        monkeypatch.setattr(windows, "_is_exact_window", spy)
        _, trace = sim.run_seed_task(lin, read, anchor=(200, 0))
        assert len(exact_skipped) > 5 and all(exact_skipped)
        monkeypatch.setattr(windows, "_is_exact_window",
                            lambda *args: False)
        _, kernel_trace = sim.run_seed_task(lin, read, anchor=(200, 0))
        assert trace == kernel_trace
        assert (trace.windows_executed, trace.compute_cycles,
                trace.total_cycles) == (kernel_trace.windows_executed,
                                        kernel_trace.compute_cycles,
                                        kernel_trace.total_cycles)

    def test_windowing_config_derived_from_hw(self):
        sim = SeGraMAcceleratorSim()
        config = sim.windowing_config()
        assert config.window_size == 128
        assert config.overlap == 48
