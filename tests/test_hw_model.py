"""Tests for the hardware model: every published anchor must hold."""

from __future__ import annotations

import pytest

from repro.hw.area_power import AreaPowerModel
from repro.hw.bitalign_unit import (
    WORD_BITS,
    BitAlignCycleModel,
    PackedLayout,
    words_for,
)
from repro.hw.config import (
    BitAlignUnitConfig,
    MinSeedUnitConfig,
    SeGraMSystemConfig,
)
from repro.hw.hbm import HbmChannelModel, HbmStackModel
from repro.hw.minseed_unit import MinSeedCycleModel, expected_minimizer_count
from repro.hw.pipeline import SeGraMPerformanceModel, WorkloadProfile
from repro.hw import baselines


class TestConfig:
    def test_paper_design_point(self):
        system = SeGraMSystemConfig()
        assert system.total_accelerators == 32
        assert system.bitalign.pe_count == 64
        assert system.bitalign.bits_per_pe == 128
        assert system.bitalign.hop_queue_depth == 12
        assert system.frequency_ghz == 1.0

    def test_minseed_scratchpads_fit_stated_limits(self):
        # Section 8.1: 6 kB read, 40 kB minimizer, 4 kB seed
        # scratchpads hold double-buffered worst cases.
        MinSeedUnitConfig().validate()

    def test_bitalign_derived_sizes(self):
        ba = BitAlignUnitConfig()
        assert ba.bitvector_bytes == 16  # 128 bits
        assert ba.total_bitvector_scratchpad_bytes == 128 * 1024
        assert ba.total_hop_queue_bytes == 12 * 1024  # 192 B x 64 PEs

    def test_validation(self):
        with pytest.raises(ValueError):
            BitAlignUnitConfig(pe_count=0)
        with pytest.raises(ValueError):
            BitAlignUnitConfig(window_overlap=128)
        with pytest.raises(ValueError):
            SeGraMSystemConfig(frequency_ghz=0)


class TestBitAlignCycleModel:
    def test_window_cycle_anchors(self):
        """Section 11.3: 169 cycles at W=64, 272 cycles at W=128."""
        model = BitAlignCycleModel()
        assert model.cycles_per_window(64) == 169
        assert model.cycles_per_window(128) == 272

    def test_window_count_anchors(self):
        """Section 11.3: 250 windows (GenASM) vs 125 (BitAlign) for a
        10 kbp read."""
        bitalign = BitAlignCycleModel(BitAlignUnitConfig())
        genasm = BitAlignCycleModel(BitAlignUnitConfig.genasm())
        assert bitalign.window_count(10_000) == 125
        assert genasm.window_count(10_000) == 250

    def test_per_read_cycle_anchors(self):
        """Section 11.3: 34.0 k vs 42.3 k cycles per 10 kbp read."""
        bitalign = BitAlignCycleModel(BitAlignUnitConfig())
        genasm = BitAlignCycleModel(BitAlignUnitConfig.genasm())
        assert bitalign.alignment_cycles(10_000) == 34_000
        assert genasm.alignment_cycles(10_000) == 42_250  # "42.3 k"

    def test_speedup_vs_genasm(self):
        """Section 11.3: BitAlign beats GenASM by 24 % (1.2x)."""
        bitalign = BitAlignCycleModel(BitAlignUnitConfig())
        genasm = BitAlignCycleModel(BitAlignUnitConfig.genasm())
        speedup = bitalign.speedup_vs(genasm, 10_000)
        assert speedup == pytest.approx(1.24, abs=0.01)

    def test_short_read_single_window(self):
        model = BitAlignCycleModel()
        assert model.window_count(100) == 1
        assert model.alignment_cycles(100) == 272

    def test_scratchpad_traffic(self):
        # Section 8.2: 16 B written per PE per cycle.
        model = BitAlignCycleModel()
        assert model.scratchpad_write_bytes_per_cycle() == 64 * 16

    def test_footprint_saving(self):
        assert BitAlignCycleModel().memory_footprint_saving_vs_genasm() \
            == 3.0

    def test_validation(self):
        model = BitAlignCycleModel()
        with pytest.raises(ValueError):
            model.window_count(0)
        with pytest.raises(ValueError):
            model.cycles_per_window(1)
        with pytest.raises(ValueError):
            model.bitvectors_stored_per_window(-1)


class TestHbm:
    def test_channel_timing_monotone(self):
        channel = HbmChannelModel()
        assert channel.random_access_ns(8) < channel.random_access_ns(512)
        assert channel.stream_ns(1_000) < channel.stream_ns(100_000)

    def test_random_access_includes_latency(self):
        channel = HbmChannelModel()
        assert channel.random_access_ns(8) >= \
            channel.random_access_latency_ns

    def test_paper_content_fits_one_stack(self):
        """Section 8.3: 11.2 GB of graph+index per stack, within
        16 GB HBM2E capacity."""
        stack = HbmStackModel()
        paper_bytes = int(11.2 * (1 << 30))
        assert stack.fits(paper_bytes)
        assert 0.5 < stack.utilization(paper_bytes) < 1.0

    def test_stack_bandwidth(self):
        stack = HbmStackModel()
        assert stack.stack_bandwidth_gb_per_s == \
            pytest.approx(8 * 57.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            HbmChannelModel(bandwidth_gb_per_s=0)
        with pytest.raises(ValueError):
            HbmChannelModel().random_access_ns(-1)


class TestMinSeedCycleModel:
    def test_extraction_is_linear(self):
        model = MinSeedCycleModel()
        assert model.minimizer_extraction_cycles(10_000) == 10_000

    def test_lookup_costs_scale(self):
        model = MinSeedCycleModel()
        assert model.frequency_lookup_cycles(100) == \
            pytest.approx(10 * model.frequency_lookup_cycles(10))
        assert model.seed_fetch_cycles(0, 0) == 0.0

    def test_seeding_hidden_under_alignment_for_long_reads(self):
        """Section 8.3/11.2: the pipeline hides MinSeed latency."""
        minseed = MinSeedCycleModel()
        bitalign = BitAlignCycleModel()
        minimizers = int(expected_minimizer_count(10_000, w=10))
        front = minseed.seeding_cycles(10_000, minimizers, minimizers,
                                       3_500)
        align_phase = 3_500 * bitalign.alignment_cycles(10_000)
        assert front < align_phase

    def test_expected_minimizer_density(self):
        assert expected_minimizer_count(11_000, w=10) == \
            pytest.approx(2_000)

    def test_minimizer_batching(self):
        """Section 8.3: a 10 kbp read's ~1.8 k expected minimizers fit
        one 2,050-entry batch; pathological reads need more."""
        model = MinSeedCycleModel()
        expected = int(expected_minimizer_count(10_000, w=10))
        assert model.minimizer_batches(expected) == 1
        assert model.minimizer_batches(2_050) == 1
        assert model.minimizer_batches(2_051) == 2
        assert model.minimizer_batches(0) == 1

    def test_seed_batching(self):
        model = MinSeedCycleModel()
        assert model.seed_batches(242) == 1
        assert model.seed_batches(243) == 2

    def test_validation(self):
        model = MinSeedCycleModel()
        with pytest.raises(ValueError):
            model.minimizer_extraction_cycles(0)
        with pytest.raises(ValueError):
            model.minimizer_batches(-1)
        with pytest.raises(ValueError):
            model.seed_batches(-1)


class TestPerformanceModel:
    def test_seed_task_latency_anchors(self):
        """Section 11.2: one execution takes 35.9 us at 5 % error and
        37.5 us at 10 %."""
        model = SeGraMPerformanceModel()
        assert model.seed_task_latency_us(10_000, 0.05) == \
            pytest.approx(35.9, abs=0.05)
        assert model.seed_task_latency_us(10_000, 0.10) == \
            pytest.approx(37.5, abs=0.05)

    def test_long_read_throughput_scale(self):
        model = SeGraMPerformanceModel()
        rps = model.reads_per_second(WorkloadProfile.pacbio(0.05))
        # 32 accel x 1 GHz / (3500 seeds x 35.9 k cycles) ~ 255 r/s.
        assert rps == pytest.approx(254.7, rel=0.02)

    def test_error_rate_changes_latency_not_throughput_much(self):
        """Section 11.2: throughput barely differs between 5 % and
        10 % datasets (same seed statistics)."""
        model = SeGraMPerformanceModel()
        fast = model.reads_per_second(WorkloadProfile.pacbio(0.05))
        slow = model.reads_per_second(WorkloadProfile.ont(0.10))
        assert 1.0 < fast / slow < 1.10

    def test_short_reads_much_faster(self):
        model = SeGraMPerformanceModel()
        short = model.reads_per_second(WorkloadProfile.illumina(150))
        long = model.reads_per_second(WorkloadProfile.pacbio(0.05))
        assert short / long > 1_000

    def test_throughput_decreases_with_read_length(self):
        """Fig. 16 trend: longer short-reads -> more seeds+windows ->
        lower throughput."""
        model = SeGraMPerformanceModel()
        r100 = model.reads_per_second(WorkloadProfile.illumina(100))
        r150 = model.reads_per_second(WorkloadProfile.illumina(150))
        r250 = model.reads_per_second(WorkloadProfile.illumina(250))
        assert r100 > r150 > r250

    def test_throughput_scales_with_accelerators(self):
        small = SeGraMPerformanceModel(SeGraMSystemConfig(stacks=1))
        full = SeGraMPerformanceModel(SeGraMSystemConfig(stacks=4))
        wl = WorkloadProfile.pacbio()
        assert full.reads_per_second(wl) == \
            pytest.approx(4 * small.reads_per_second(wl))

    def test_dataset_runtime(self):
        model = SeGraMPerformanceModel()
        wl = WorkloadProfile.pacbio(0.05)
        assert model.dataset_runtime_s(wl) == \
            pytest.approx(10_000 / model.reads_per_second(wl))

    def test_bandwidth_per_read_is_low(self):
        """Section 11.2: per-read bandwidth demand stays in the
        single-digit GB/s range, so read-level parallelism scales."""
        model = SeGraMPerformanceModel()
        bw = model.bandwidth_per_read_gb_s(WorkloadProfile.pacbio())
        assert 0.0 < bw < 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SeGraMPerformanceModel().overhead_cycles(1.5)


class TestAreaPower:
    def test_table1_accelerator_totals(self):
        """Table 1: 0.867 mm2 and 758 mW per accelerator."""
        model = AreaPowerModel()
        assert model.accelerator_area_mm2 == pytest.approx(0.867,
                                                           abs=1e-6)
        assert model.accelerator_power_mw == pytest.approx(758.0,
                                                           abs=1e-6)

    def test_table1_system_totals(self):
        """Table 1: 27.7 mm2, 24.3 W for 32 accelerators, 28.1 W with
        HBM."""
        model = AreaPowerModel()
        assert model.system_area_mm2 == pytest.approx(27.7, abs=0.05)
        assert model.system_power_w == pytest.approx(24.3, abs=0.05)
        assert model.system_power_with_hbm_w == pytest.approx(28.1,
                                                              abs=0.1)

    def test_hop_queues_dominate_edit_logic(self):
        """Section 11.1: hop queues are >60 % of the edit-distance
        logic's area and power."""
        area_share, power_share = \
            AreaPowerModel().hop_queue_share_of_edit_logic()
        assert area_share > 0.60
        assert power_share > 0.60

    def test_ablation_scaling(self):
        """Halving the hop-queue depth must shrink area and power."""
        small_queues = SeGraMSystemConfig(
            bitalign=BitAlignUnitConfig(hop_queue_bytes_per_pe=96),
        )
        base = AreaPowerModel()
        ablated = AreaPowerModel(small_queues)
        assert ablated.accelerator_area_mm2 < base.accelerator_area_mm2
        assert ablated.accelerator_power_mw < base.accelerator_power_mw

    def test_table1_rows_shape(self):
        rows = AreaPowerModel().table1_rows()
        assert any("hop queue" in r["block"] for r in rows)
        assert rows[-1]["block"] == "Total + HBM"


class TestBaselines:
    def test_power_cross_check(self):
        """CPU power / published reduction lands at SeGraM's ~28 W
        system power — two independent routes to the same number."""
        model = AreaPowerModel()
        for key in baselines.SEGRAM_POWER_REDUCTION:
            implied = baselines.derived_segram_power_w(*key)
            assert implied == pytest.approx(
                model.system_power_with_hbm_w, rel=0.05,
            )

    def test_derived_throughputs_ordered(self):
        segram = 254.7
        graphaligner = baselines.derived_baseline_throughput(
            segram, "GraphAligner", "long")
        vg = baselines.derived_baseline_throughput(segram, "vg", "long")
        assert graphaligner < vg < segram

    def test_seed_count_tables(self):
        assert baselines.SEED_COUNTS_LONG["MinSeed kept"] == 35_000_000
        assert baselines.SEED_COUNTS_SHORT["GraphAligner extended"] \
            == 11_000


class TestPackedLayout:
    def test_words_and_padding(self):
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2
        layout = PackedLayout(128)
        assert (layout.words, layout.bytes_per_bitvector,
                layout.padded_bits) == (2, 16, 128)
        layout = PackedLayout(100)
        assert (layout.words, layout.bytes_per_bitvector,
                layout.padded_bits) == (2, 16, 128)
        with pytest.raises(ValueError):
            PackedLayout(0)

    def test_cycle_model_reads_packed_layout(self):
        model = BitAlignCycleModel()
        layout = model.packed_layout()
        assert layout.pattern_bits == model.config.bits_per_pe
        assert layout.words == words_for(model.config.bits_per_pe)
        assert model.scratchpad_write_bytes_per_cycle() == \
            layout.bytes_per_bitvector * model.config.pe_count
        # An odd window width is charged for its padded words.
        assert model.packed_layout(100).bytes_per_bitvector == 16

    def test_word_bits_constant(self):
        assert WORD_BITS == 64
