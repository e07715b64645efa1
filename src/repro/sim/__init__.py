"""Data-simulation substrate.

The paper evaluates on GRCh38 + GIAB variants with PBSIM2 (PacBio/ONT
long reads) and Mason (Illumina short reads) simulated read sets.
Neither the 3.1 Gbp human genome nor those tools are available offline,
so this package provides scaled equivalents that exercise the same
code paths (docs/scenarios.md sweeps them as one case matrix):

* :mod:`repro.sim.reference` — synthetic reference genomes, optionally
  with repeat structure (repeats drive realistic minimizer-frequency
  skew);
* :mod:`repro.sim.variants` — GIAB-like variant sets (SNPs, indels,
  structural variants) at configurable rates;
* :mod:`repro.sim.errors` — the shared sequencing-error channel;
* :mod:`repro.sim.longread` — PBSIM2-like long reads (10 kbp,
  5 %/10 % error);
* :mod:`repro.sim.shortread` — Mason-like short reads (100–250 bp,
  1 % error);
* :mod:`repro.sim.pairedend` — Illumina FR paired-end fragments
  (Gaussian insert-size model, inward-facing mates, per-mate errors);
* :mod:`repro.sim.graphsim` — ``vg sim`` equivalent: reads sampled
  from random paths of a genome graph (used by the HGA/BRCA1
  comparison).
"""

from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import random_reference, reference_with_repeats
from repro.sim.variants import VariantProfile, simulate_variants
from repro.sim.longread import LongReadProfile, simulate_long_reads
from repro.sim.shortread import ShortReadProfile, simulate_short_reads
from repro.sim.pairedend import (
    PairedEndProfile,
    SimulatedFragment,
    simulate_fragments,
)
from repro.sim.graphsim import SimulatedRead, sample_path, simulate_graph_reads

__all__ = [
    "ErrorModel",
    "apply_errors",
    "random_reference",
    "reference_with_repeats",
    "VariantProfile",
    "simulate_variants",
    "LongReadProfile",
    "simulate_long_reads",
    "ShortReadProfile",
    "simulate_short_reads",
    "PairedEndProfile",
    "SimulatedFragment",
    "simulate_fragments",
    "SimulatedRead",
    "sample_path",
    "simulate_graph_reads",
]
