"""Hardware model of the SeGraM accelerator (paper Sections 8, 10, 11).

This package reproduces the paper's hardware-level results with an
analytical model:

* :mod:`repro.hw.config` — the accelerator configuration (64 PEs x
  128 bits, scratchpad sizes, 4 HBM2E stacks x 8 channels, 1 GHz);
* :mod:`repro.hw.hbm` — the HBM2E channel model (latency, bandwidth,
  capacity checks);
* :mod:`repro.hw.bitalign_unit` — the BitAlign systolic-array cycle
  model, calibrated to both published window-cycle anchors (169 cycles
  at W=64, 272 at W=128);
* :mod:`repro.hw.minseed_unit` — the MinSeed datapath and memory-access
  cycle model;
* :mod:`repro.hw.pipeline` — SeGraM module/system throughput with
  MinSeed/BitAlign pipelining and double buffering;
* :mod:`repro.hw.area_power` — the Table 1 area/power block model;
* :mod:`repro.hw.baselines` — published comparison points
  (GraphAligner, vg, HGA, PaSGAL, Darwin/GACT, GenAx/SillaX, GenASM)
  with provenance.

The model recomputes results from configuration (window counts, PE
fill/drain, channel counts); the paper's published numbers are used
only to fix unit costs, and every anchor is unit-tested.
"""

from repro.hw.config import (
    BitAlignUnitConfig,
    MinSeedUnitConfig,
    SeGraMSystemConfig,
)
from repro.hw.hbm import HbmChannelModel, HbmStackModel
from repro.hw.bitalign_unit import BitAlignCycleModel
from repro.hw.minseed_unit import MinSeedCycleModel
from repro.hw.pipeline import SeGraMPerformanceModel, WorkloadProfile
from repro.hw.area_power import AreaPowerModel, BlockBudget
from repro.hw.simulator import SeGraMAcceleratorSim, SimulationTrace
from repro.hw.placement import ChannelPlacement, contig_resident_bytes, \
    place_chromosomes

__all__ = [
    "ChannelPlacement",
    "contig_resident_bytes",
    "place_chromosomes",
    "BitAlignUnitConfig",
    "MinSeedUnitConfig",
    "SeGraMSystemConfig",
    "HbmChannelModel",
    "HbmStackModel",
    "BitAlignCycleModel",
    "MinSeedCycleModel",
    "SeGraMPerformanceModel",
    "WorkloadProfile",
    "AreaPowerModel",
    "BlockBudget",
    "SeGraMAcceleratorSim",
    "SimulationTrace",
]
