"""Cycle-level simulator of one SeGraM accelerator.

The paper drives its performance analysis with "an in-house
cycle-accurate simulator and a spreadsheet-based analytical model"
(Section 10).  :mod:`repro.hw.pipeline` is the spreadsheet;
this module is the simulator: it runs the *functional* windowed
BitAlign on real data and charges cycles window by window against the
microarchitecture of Section 8.2.  The trace is the aligner's
``counters``, as the engine's :class:`~repro.core.pipeline.
PipelineStats` is: :meth:`SimulationTrace.window` takes each window
attempt once.  The charges:

* **window setup** — 2 cycles of control plus the systolic fill/drain
  of the PE array (``pe_count`` cycles);
* **edit-distance phase** — the array consumes one window character
  per cycle (each PE handles one ``d``-level; levels beyond the PE
  count fold into extra passes);
* **traceback phase** — one cycle per committed traceback operation
  (regenerating intermediate bitvectors on demand);
* **rescued windows** — re-execute and are charged again (this is
  data-dependent behaviour the analytical model folds into its
  calibrated overhead term);
* **exact windows** — charged like any other: software commits a
  window within Hamming distance 2 without the kernel, but the
  hardware has no string compare;
* **memory** — the subgraph fetch is charged via the HBM channel
  model; hop-queue reads and scratchpad writes are counted.

Unlike the analytical model, the simulator sees real reads: error
bursts cause rescues, dense variation causes hop traffic, and the
resulting cycle counts can be compared with the model's predictions
(the test suite keeps them within a tight band on the paper's design
point).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.windows import (
    WindowedAligner,
    WindowedAlignment,
    WindowingConfig,
)
from repro.graph.linearize import LinearizedGraph
from repro.hw.config import BitAlignUnitConfig, SeGraMSystemConfig
from repro.hw.hbm import HbmChannelModel
from repro.hw.minseed_unit import CHAR_BITS, NODE_ENTRY_BYTES

#: Control cycles charged per window execution.
WINDOW_SETUP_CYCLES = 2


def _count_hops(lin: LinearizedGraph) -> int:
    """Inter-character hops (successor distance > 1) in a window."""
    return sum(
        1
        for position, succs in lin.hop_sources()
        for succ in succs
        if succ - position > 1
    )


@dataclass
class SimulationTrace:
    """Cycle and traffic accounting of one simulated seed task, on
    the BitAlign ``unit`` it charges."""

    windows_executed: int = 0
    rescues: int = 0
    setup_cycles: int = 0
    edit_cycles: int = 0
    traceback_cycles: int = 0
    memory_stall_cycles: float = 0.0
    hop_queue_reads: int = 0
    bitvector_bytes_written: int = 0
    unit: BitAlignUnitConfig = field(default_factory=BitAlignUnitConfig,
                                     repr=False, compare=False)

    @property
    def compute_cycles(self) -> int:
        return self.setup_cycles + self.edit_cycles \
            + self.traceback_cycles

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.memory_stall_cycles

    def window(self, lin: LinearizedGraph, base: int, end: int,
               chunk_length: int, k: int, ops: int,
               kernel: bool) -> None:
        """Charge one window attempt on ``lin[base:end]`` (the
        ``counters`` hook of :meth:`WindowedAligner.align`): ``ops ==
        0`` is a failed attempt, rescued by the next; ``kernel`` is
        ignored, every window runs on the systolic array."""
        unit = self.unit
        self.windows_executed += 1
        if not ops:
            self.rescues += 1
        # Levels beyond the PE count fold into extra passes over the
        # window.
        passes = -(-(k + 1) // unit.pe_count)
        self.setup_cycles += WINDOW_SETUP_CYCLES + unit.pe_count
        self.edit_cycles += chunk_length * passes
        self.traceback_cycles += ops
        # Each hop is read from the hop queues at every d-level.
        self.hop_queue_reads += _count_hops(lin.slice(base, end)) \
            * (k + 1)
        # Each PE writes one R[d] bitvector per window character.
        self.bitvector_bytes_written += \
            chunk_length * (k + 1) * unit.bitvector_bytes


@dataclass
class SeGraMAcceleratorSim:
    """One accelerator: functional execution with cycle charging."""

    system: SeGraMSystemConfig = field(
        default_factory=SeGraMSystemConfig)
    channel: HbmChannelModel = field(default_factory=HbmChannelModel)

    def windowing_config(self) -> WindowingConfig:
        """The windowing the hardware configuration implies."""
        ba = self.system.bitalign
        return WindowingConfig(
            window_size=ba.bits_per_pe,
            overlap=ba.window_overlap,
            k=min(ba.pe_count // 2, ba.bits_per_pe - 1),
        )

    def run_seed_task(
        self,
        lin: LinearizedGraph,
        read: str,
        anchor: tuple[int, int] | None = None,
    ) -> tuple[WindowedAlignment, SimulationTrace]:
        """Align one read against one candidate region, with cycles.

        Returns the functional alignment result plus the cycle trace.
        """
        trace = SimulationTrace(unit=self.system.bitalign)

        # Subgraph fetch from HBM into the input scratchpad (charged
        # up front; the pipeline model treats it as hidden, the
        # simulator reports it explicitly as stall cycles).
        region_nodes = len(set(lin.node_ids))
        fetch_bytes = region_nodes * NODE_ENTRY_BYTES \
            + (len(lin) * CHAR_BITS + 7) // 8
        trace.memory_stall_cycles += self.channel.stream_ns(fetch_bytes) \
            * self.system.frequency_ghz
        result = WindowedAligner(self.windowing_config()).align(
            lin, read, anchor=anchor, counters=trace)
        return result, trace

    def hop_queue_capacity_ok(self, lin: LinearizedGraph) -> float:
        """Fraction of the region's hops the configured hop queue
        depth can serve (the Fig. 13 coverage, per region)."""
        total = 0
        covered = 0
        depth = self.system.bitalign.hop_queue_depth
        for position, succs in enumerate(lin.successors):
            for succ in succs:
                distance = succ - position
                if distance > 1:
                    total += 1
                    if distance <= depth:
                        covered += 1
        return covered / total if total else 1.0
