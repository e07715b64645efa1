"""Whole-genome mapping: per-chromosome graphs + HBM channel placement.

The paper builds one graph and one index per chromosome (Section 5)
and distributes all 24 across each HBM stack's eight channels by size
(Section 8.3).  This example assembles a miniature multi-chromosome
genome, maps reads genome-wide (best chromosome wins), and shows the
channel placement the hardware would use — including at real GRCh38
proportions.

Run:  python examples/whole_genome_mapping.py
"""

from __future__ import annotations

import random

from repro.core.mapper import SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.eval.report import format_table
from repro.core.genome import ReferenceGenome
from repro.hw.placement import (
    GRCH38_CHROMOSOME_MBP,
    place_chromosomes,
)
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants


def main() -> None:
    rng = random.Random(3)
    print("1. building a 4-chromosome genome ...")
    profile = VariantProfile(snp_rate=0.003, insertion_rate=0.0005,
                             deletion_rate=0.0005, sv_rate=0.0)
    references = {}
    variants = {}
    for name, length in (("chr1", 30_000), ("chr2", 22_000),
                         ("chr3", 15_000), ("chrX", 18_000)):
        sequence = random_reference(length, rng)
        references[name] = sequence
        variants[name] = simulate_variants(sequence, rng, profile)
    genome = ReferenceGenome.build(
        references, variants,
        config=SeGraMConfig(
            w=10, k=15, bucket_bits=12, error_rate=0.02,
            windowing=WindowingConfig(window_size=128, overlap=48,
                                      k=16),
            max_seeds_per_read=4,
        ),
        max_node_length=4_096,
    )
    for chromosome in genome.chromosomes:
        print(f"   {chromosome.name}: "
              f"{chromosome.graph.node_count} nodes, "
              f"{chromosome.resident_bytes / 1024:.0f} KiB resident")

    print("\n2. mapping reads of known origin genome-wide ...")
    for name, sequence in references.items():
        read = sequence[5_000:5_300]
        result = genome.map_read(read, f"read-from-{name}")
        marker = "OK " if result.chromosome == name else "??? "
        print(f"   [{marker}] read from {name} -> mapped to "
              f"{result.chromosome} at distance {result.distance}")
        assert result.chromosome == name

    print("\n3. channel placement of this mini genome ...")
    placement = place_chromosomes(genome.resident_bytes(), channels=2)
    for channel, (members, load) in enumerate(
            zip(placement.channels, placement.loads)):
        print(f"   channel {channel}: {', '.join(members)} "
              f"({load / 1024:.0f} KiB)")
    print(f"   imbalance: {placement.imbalance:.3f}")

    print("\n4. placement at real GRCh38 proportions "
          "(paper Section 8.3) ...")
    placement = place_chromosomes(GRCH38_CHROMOSOME_MBP, channels=8)
    rows = [
        {"channel": channel,
         "chromosomes": ", ".join(members),
         "load_Mbp": load}
        for channel, (members, load) in enumerate(
            zip(placement.channels, placement.loads))
    ]
    print(format_table(rows, title="GRCh38 chromosomes over 8 HBM "
                                   "channels"))
    print(f"imbalance: {placement.imbalance:.3f} "
          "(max channel / mean channel)")
    assert placement.imbalance < 1.10


if __name__ == "__main__":
    main()
