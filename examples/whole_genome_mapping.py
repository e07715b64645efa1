"""Whole-genome mapping: one multi-contig reference + HBM channel placement.

The paper builds one graph and one index per chromosome (Section 5)
and distributes all 24 across each HBM stack's eight channels by size
(Section 8.3).  This example assembles a miniature multi-chromosome
genome as one reference set with one shared index, maps reads
genome-wide through one multi-contig ``Mapper`` (best chromosome
wins), and shows the channel placement of each chromosome's share of
that graph and index — including at real GRCh38 proportions.

Run:  python examples/whole_genome_mapping.py
"""

from __future__ import annotations

import random

from repro.api import Mapper
from repro.core.mapper import SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.eval.report import format_table
from repro.hw.placement import (
    GRCH38_CHROMOSOME_MBP,
    contig_resident_bytes,
    place_chromosomes,
)
from repro.refs import Contig, ReferenceSet
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
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=12, error_rate=0.02,
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4,
    )
    mapper = Mapper(ReferenceSet(
        [Contig.linear(name, sequence, variants[name])
         for name, sequence in references.items()],
        max_node_length=4_096), config=config)
    sizes, shared = contig_resident_bytes(mapper.engine.refs,
                                          mapper.engine.index)
    for name, size in sizes.items():
        print(f"   {name}: {size / 1024:.0f} KiB resident")
    print(f"   index bucket + minimizer levels (shared): "
          f"{shared / 1024:.0f} KiB")

    print("\n2. mapping reads of known origin genome-wide ...")
    for name, sequence in references.items():
        read = sequence[5_000:5_300]
        record = mapper.map(read, f"read-from-{name}")
        marker = "OK " if record.contig == name else "??? "
        print(f"   [{marker}] read from {name} -> mapped to "
              f"{record.contig} at distance {record.edit_distance}")
        assert record.contig == name

    print("\n3. channel placement of this mini genome ...")
    placement = place_chromosomes(sizes, channels=2)
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
