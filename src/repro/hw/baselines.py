"""Published comparison points used by the evaluation (paper §10–11).

The paper compares SeGraM/BitAlign against seven systems.  For the
software tools it measures wall-clock throughput and wall power on a
Xeon E5-2630v4 / RTX 2080 Ti; for the hardware accelerators it uses
the numbers reported in their papers.  None of those artifacts exist
in this offline reproduction, so — exactly like the paper does for
Darwin/GenAx/GenASM — we pin the published numbers as calibration
tables, each with provenance, and derive baseline absolute values from
the model's SeGraM numbers plus the published ratios.

Every constant here is quoted from the paper text (Sections 1, 11.2,
11.3, 11.4); nothing is invented.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# End-to-end S2G mapping (Section 11.2, Figs. 15 and 16)
# ----------------------------------------------------------------------

#: SeGraM speedup over CPU software (throughput ratio, avg).
SEGRAM_SPEEDUP = {
    ("GraphAligner", "long"): 5.9,
    ("vg", "long"): 3.9,
    ("GraphAligner", "short"): 106.0,
    ("vg", "short"): 742.0,
}

#: SeGraM power reduction over CPU software.
SEGRAM_POWER_REDUCTION = {
    ("GraphAligner", "long"): 4.1,
    ("vg", "long"): 4.4,
    ("GraphAligner", "short"): 3.0,
    ("vg", "short"): 3.2,
}

#: Measured CPU wall power of the software baselines (W).
CPU_POWER_W = {
    ("GraphAligner", "long"): 115.0,
    ("vg", "long"): 124.0,
    ("GraphAligner", "short"): 85.0,
    ("vg", "short"): 91.0,
}

#: Short-read speedup floor: "still stays above 52x" as read length
#: grows to 250 bp.
SHORT_READ_SPEEDUP_FLOOR = 52.0

# ----------------------------------------------------------------------
# GPU comparison: HGA on BRCA1 (Section 11.2)
# ----------------------------------------------------------------------

#: (read length, read count) of the three BRCA1 read sets.
HGA_DATASETS = {
    "BRCA1-R1": (128, 278_528),
    "BRCA1-R2": (1_024, 34_816),
    "BRCA1-R3": (8_192, 4_352),
}

#: SeGraM throughput improvement over HGA.
HGA_SPEEDUP = {
    "BRCA1-R1": 523.0,
    "BRCA1-R2": 85.0,
    "BRCA1-R3": 17.0,
}

#: SeGraM power reduction over HGA (dynamic GPU power).
HGA_POWER_REDUCTION = {
    "BRCA1-R1": 2.2,
    "BRCA1-R2": 2.1,
    "BRCA1-R3": 1.9,
}

# ----------------------------------------------------------------------
# S2G alignment: PaSGAL (Section 11.3, Fig. 17)
# ----------------------------------------------------------------------

#: (read length, read count) of the PaSGAL datasets.
PASGAL_DATASETS = {
    "LRC-L1": (100, 317_600),
    "MHC1-M1": (100, 497_000),
    "LRC-L2": (10_000, 3_200),
    "MHC1-M2": (10_000, 4_900),
}

#: BitAlign speedup over 48-thread AVX-512 PaSGAL (traceback step).
PASGAL_SPEEDUP = {
    "LRC-L1": 41.0,
    "MHC1-M1": 539.0,
    "LRC-L2": 67.0,
    "MHC1-M2": 513.0,
}

# ----------------------------------------------------------------------
# S2S alignment accelerators (Section 11.3)
# ----------------------------------------------------------------------

#: BitAlign throughput improvement over S2S accelerators
#: (workload key: which read class the comparison uses).
S2S_ACCELERATOR_SPEEDUP = {
    ("GACT (Darwin)", "long"): 4.8,
    ("SillaX (GenAx)", "short"): 2.4,
    ("GenASM", "long"): 1.2,
    ("GenASM", "short"): 1.3,
}

#: BitAlign's cost versus those accelerators (x more than baseline).
S2S_ACCELERATOR_POWER_COST = {
    "GACT (Darwin)": 2.7,
    "GenASM": 7.5,
}
S2S_ACCELERATOR_AREA_COST = {
    "GACT (Darwin)": 1.5,
    "GenASM": 2.6,
}

# ----------------------------------------------------------------------
# Seeding statistics (Section 11.4)
# ----------------------------------------------------------------------

#: Seeds before/after each tool's reduction step, long-read dataset:
#: GraphAligner chains 77 M seeds down to 48 k extensions; MinSeed's
#: frequency filter keeps 35 M.
SEED_COUNTS_LONG = {
    "initial": 77_000_000,
    "GraphAligner extended": 48_000,
    "MinSeed kept": 35_000_000,
}

#: Same for a short-read dataset.
SEED_COUNTS_SHORT = {
    "initial": 828_000,
    "GraphAligner extended": 11_000,
    "MinSeed kept": 375_000,
}

PROVENANCE = (
    "All constants quoted from Senol Cali et al., ISCA 2022, Sections "
    "1, 11.2, 11.3 and 11.4; software numbers were measured by the "
    "authors on a Xeon E5-2630v4 (40 threads) and an RTX 2080 Ti, "
    "accelerator numbers taken from the cited papers."
)


def derived_baseline_throughput(
    segram_reads_per_s: float,
    baseline: str,
    workload: str,
) -> float:
    """Baseline absolute throughput implied by the published ratio."""
    return segram_reads_per_s / SEGRAM_SPEEDUP[(baseline, workload)]


def derived_segram_power_w(baseline: str, workload: str) -> float:
    """SeGraM power implied by CPU power / published reduction.

    Cross-checks the area/power model: 115 W / 4.1 ~ 28 W, consistent
    with Table 1's 28.1 W system power.
    """
    return CPU_POWER_W[(baseline, workload)] \
        / SEGRAM_POWER_REDUCTION[(baseline, workload)]
