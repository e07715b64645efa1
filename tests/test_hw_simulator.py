"""Tests for the cycle-level accelerator simulator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_linearize as oracle

from repro.core import windows
from repro.core.pipeline import PipelineStats
from repro.core.windows import WindowedAligner
from repro.graph.builder import Variant, build_graph
from repro.graph.genome_graph import GenomeGraph
from repro.graph.linearize import linearize
from repro.hw import simulator
from repro.hw.bitalign_unit import BitAlignCycleModel
from repro.hw.config import BitAlignUnitConfig, SeGraMSystemConfig
from repro.hw.simulator import SeGraMAcceleratorSim, SimulationTrace
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants


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
        """The hops a window attempt is charged for come from the
        window view's range query; on this file's fixtures they equal
        the count over the window's dense successor lists."""
        text, chain = chain_3kb
        snp = build_graph("ACGTACGTACGTACGTACGTACGT" * 8,
                          [Variant(20, 21, "C"), Variant(50, 53, "")])
        deletion = build_graph("A" * 20 + "C" * 30 + "G" * 20,
                               [Variant(20, 50, "")])
        count_hops = simulator._count_hops
        seen = []

        def checked(window):
            seen.append(count_hops(window))
            assert seen[-1] == oracle.count_hops(window.successors)
            return seen[-1]

        monkeypatch.setattr(simulator, "_count_hops", checked)
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
        rungs = []
        rung = windows._hamming_rung

        def spy(*args):
            rungs.append(rung(*args))
            return rungs[-1]

        monkeypatch.setattr(windows, "_hamming_rung", spy)
        _, trace = sim.run_seed_task(lin, read, anchor=(200, 0))
        assert len(rungs) > 5 and all(r == () for r in rungs)
        monkeypatch.setattr(windows, "_hamming_rung",
                            lambda *args: None)
        _, kernel_trace = sim.run_seed_task(lin, read, anchor=(200, 0))
        assert trace == kernel_trace
        assert (trace.windows_executed, trace.compute_cycles,
                trace.total_cycles) == (kernel_trace.windows_executed,
                                        kernel_trace.compute_cycles,
                                        kernel_trace.total_cycles)

    # The example count comes from the hypothesis profile (tier-1 or
    # ``--hypothesis-profile=deep``, see ``conftest.py``).
    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_hamming_windows_charged_like_kernel_windows(self, chain_3kb,
                                                         seed):
        """Rungs 1 and 2 too: a read with one or two substitutions in
        every window commits ``=`` / ``X`` runs without the kernel and
        still costs the cycles of the kernel-only run.  Each 80-base
        commit step gets its substitutions in its last 32 bases, so a
        128-base window sees only its own step's."""
        text, lin = chain_3kb
        rng = random.Random(seed)
        start = rng.randrange(0, 2_000)
        read = list(text[start:start + rng.randint(400, 900)])
        for step, block in enumerate(range(0, len(read) - 80, 80)):
            count = 1 + step % 2 if step < 2 else rng.randint(1, 2)
            for at in rng.sample(range(block + 48, block + 80), count):
                read[at] = rng.choice([c for c in "ACGT"
                                       if c != read[at]])
        read = "".join(read)
        sim = SeGraMAcceleratorSim()
        rungs = []
        rung = windows._hamming_rung

        def spy(*args):
            rungs.append(rung(*args))
            return rungs[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(windows, "_hamming_rung", spy)
            got, trace = sim.run_seed_task(lin, read, anchor=(start, 0))
            assert {1, 2} <= {len(r) for r in rungs if r is not None}
            patch.setattr(windows, "_hamming_rung", lambda *args: None)
            want, kernel_trace = sim.run_seed_task(lin, read,
                                                   anchor=(start, 0))
        assert got == want
        assert trace == kernel_trace
        assert (trace.compute_cycles, trace.total_cycles) \
            == (kernel_trace.compute_cycles, kernel_trace.total_cycles)

    def test_windowing_config_derived_from_hw(self):
        sim = SeGraMAcceleratorSim()
        config = sim.windowing_config()
        assert config.window_size == 128
        assert config.overlap == 48


@pytest.fixture(scope="module")
def trace_inputs():
    """The pinned traces' inputs: a chain and a ``simulate_variants``
    graph over one 2.6 kb text, and a 2 kb fragment of it clean, at
    PacBio 5 % and at ONT 12 %, each with the first exact 15-mer of
    its second half as the anchor."""
    rng = random.Random(59)
    text = random_reference(2_600, rng)
    variants = simulate_variants(text, rng, VariantProfile(
        snp_rate=0.01, insertion_rate=0.002, deletion_rate=0.002,
        sv_rate=0.0, small_indel_max=6))
    graphs = {
        "chain": linearize(GenomeGraph.from_linear(text,
                                                   node_length=256)),
        "variants": linearize(build_graph(text, variants).graph),
    }
    fragment = text[300:2_300]
    reads = {
        "clean": fragment,
        "pacbio": apply_errors(fragment, ErrorModel.pacbio(0.05),
                               rng)[0],
        "ont": apply_errors(fragment, ErrorModel.nanopore(0.12), rng)[0],
    }
    inputs = {}
    for graph, lin in graphs.items():
        for name, read in reads.items():
            anchor = next(
                (lin.chars.find(read[offset:offset + 15]), offset)
                for offset in range(len(read) // 2, len(read) - 15)
                if read[offset:offset + 15] in lin.chars)
            inputs[graph, name] = lin, read, anchor
    return inputs


#: The paper's design point (k = 32) and an 8-PE array (k = 4), where
#: ONT windows are rescued up to k = 16 and take three passes.
SIMS = {
    "pe64": SeGraMAcceleratorSim(),
    "pe8": SeGraMAcceleratorSim(SeGraMSystemConfig(
        bitalign=BitAlignUnitConfig(pe_count=8))),
}

#: Every counter of every trace, in field order: (windows_executed,
#: rescues, setup_cycles, edit_cycles, traceback_cycles,
#: memory_stall_cycles, hop_queue_reads, bitvector_bytes_written).
PINNED_TRACES = {
    ("chain", "clean", False, "pe64"):
        (25, 0, 1650, 3152, 2000, 117.39583333333333, 0, 1664256),
    ("chain", "clean", False, "pe8"):
        (25, 0, 250, 3152, 2000, 117.39583333333333, 0, 252160),
    ("chain", "clean", True, "pe64"):
        (24, 0, 1584, 3056, 2000, 117.39583333333333, 0, 1613568),
    ("chain", "clean", True, "pe8"):
        (24, 0, 240, 3056, 2000, 117.39583333333333, 0, 244480),
    ("chain", "pacbio", False, "pe64"):
        (25, 0, 1650, 3179, 2056, 117.39583333333333, 0, 1678512),
    ("chain", "pacbio", False, "pe8"):
        (50, 25, 500, 10219, 2056, 117.39583333333333, 0, 797040),
    ("chain", "pacbio", True, "pe64"):
        (25, 0, 1650, 3131, 2056, 117.39583333333333, 0, 1653168),
    ("chain", "pacbio", True, "pe8"):
        (46, 21, 460, 9019, 2056, 117.39583333333333, 0, 703088),
    ("chain", "ont", False, "pe64"):
        (25, 0, 1650, 3130, 2063, 117.39583333333333, 0, 1652640),
    ("chain", "ont", False, "pe8"):
        (82, 57, 820, 23516, 2063, 117.39583333333333, 0, 2058336),
    ("chain", "ont", True, "pe64"):
        (24, 0, 1584, 3034, 2063, 117.39583333333333, 0, 1601952),
    ("chain", "ont", True, "pe8"):
        (77, 53, 770, 21520, 2063, 117.39583333333333, 0, 1860768),
    ("variants", "clean", False, "pe64"):
        (25, 0, 1650, 3152, 2000, 171.52777777777777, 5181, 1664256),
    ("variants", "clean", False, "pe8"):
        (25, 0, 250, 3152, 2000, 171.52777777777777, 715, 252160),
    ("variants", "clean", True, "pe64"):
        (24, 0, 1584, 3056, 2000, 171.52777777777777, 2970, 1613568),
    ("variants", "clean", True, "pe8"):
        (24, 0, 240, 3056, 2000, 171.52777777777777, 370, 244480),
    ("variants", "pacbio", False, "pe64"):
        (25, 0, 1650, 3179, 2056, 171.52777777777777, 5313, 1678512),
    ("variants", "pacbio", False, "pe8"):
        (50, 25, 500, 10219, 2056, 171.52777777777777, 2201, 797040),
    ("variants", "pacbio", True, "pe64"):
        (25, 0, 1650, 3131, 2056, 171.52777777777777, 2904, 1653168),
    ("variants", "pacbio", True, "pe8"):
        (47, 22, 470, 9275, 2056, 171.52777777777777, 904, 721520),
    ("variants", "ont", False, "pe64"):
        (25, 0, 1650, 3130, 2063, 171.52777777777777, 5214, 1652640),
    ("variants", "ont", False, "pe8"):
        (82, 57, 820, 23516, 2063, 171.52777777777777, 5325, 2058336),
    ("variants", "ont", True, "pe64"):
        (24, 0, 1584, 3034, 2063, 171.52777777777777, 2838, 1601952),
    ("variants", "ont", True, "pe8"):
        (77, 53, 770, 21520, 2063, 171.52777777777777, 3136, 1860768),
}


@pytest.mark.parametrize(
    "case", list(PINNED_TRACES),
    ids=["-".join(str(part) if not isinstance(part, bool)
                  else ("anchored" if part else "unanchored")
                  for part in case) for case in PINNED_TRACES])
def test_trace_is_pinned(trace_inputs, case):
    """Every field of every trace is pinned; and the engine's
    counters, charged from the same window attempts, agree with it:
    every attempt is a window or a rescue, and the rescues match."""
    graph, name, anchored, sim_name = case
    lin, read, anchor = trace_inputs[graph, name]
    anchor = anchor if anchored else None
    sim = SIMS[sim_name]
    _, trace = sim.run_seed_task(lin, read, anchor=anchor)
    assert trace == SimulationTrace(*PINNED_TRACES[case])
    stats = PipelineStats()
    WindowedAligner(sim.windowing_config()).align(lin, read, anchor,
                                                  counters=stats)
    assert stats.windows + stats.rescues == trace.windows_executed
    assert stats.rescues == trace.rescues
