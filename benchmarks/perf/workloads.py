"""Workload definitions and seeded input generators of the perf spine.

Four workloads cover the shapes SeGraM claims one pipeline serves:
sequence-to-graph and sequence-to-sequence, short and long reads,
offline and served.  Every input byte derives from
``random.Random(f"{seed}:{inputs}")``; the program under test only
ever sees the generated files (reference FASTA, VCF, read files) —
the truth table stays with the harness.

The engine configuration is fixed here and passed explicitly (never
read from the environment): the ``repro map`` CLI defaults plus
``--both-strands --align-backend numpy``.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

from repro import seq as seqmod
from repro.core.mapper import SeGraMConfig
from repro.core.pairing import PairedEndConfig
from repro.core.windows import WindowingConfig
from repro.io.fasta import (
    FastaRecord,
    FastqRecord,
    write_fasta,
    write_fastq,
)
from repro.io.vcf import VcfRecord, write_vcf
from repro.sim.longread import LongReadProfile, simulate_long_reads
from repro.sim.pairedend import PairedEndProfile, simulate_fragments
from repro.sim.reference import reference_with_repeats
from repro.sim.shortread import ShortReadProfile, simulate_short_reads
from repro.sim.variants import VariantProfile, simulate_variants

#: A placement within this many bases of the simulated origin counts
#: as correct (indels shift the projected position).
TOLERANCE = 40

#: One contig; 10 % of it planted repeats, so accuracy is not
#: trivially 1.0 (reads inside a repeat copy have tied placements).
CONTIG = "chr1"
REFERENCE_LENGTH = 1_000_000
SMOKE_REFERENCE_LENGTH = 100_000
REPEATS = {"repeat_fraction": 0.1, "repeat_length": 300,
           "family_count": 50}

#: Insert-size model shared by the pair simulator and the engine.
INSERT_MEAN = 350.0
INSERT_STD = 50.0

#: The read pool holds this many times the reads the nominal rate
#: maps in the run, so a timed run ends on its deadline, not on end
#: of input, until the program is this much faster than today.
POOL_HEADROOM = 5.0


def engine_config() -> SeGraMConfig:
    """The one engine configuration every workload maps with."""
    return SeGraMConfig(
        w=10, k=15, bucket_bits=14, error_rate=0.05,
        windowing=WindowingConfig(),
        max_seeds_per_read=8, top_n_alignments=5,
        both_strands=True, region_cache_size=128,
        align_backend="numpy",
    )


def pair_config() -> PairedEndConfig:
    """The engine's insert-size model: the pair simulator's own."""
    return PairedEndConfig(insert_mean=INSERT_MEAN,
                           insert_std=INSERT_STD)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name ``BENCHMARK.json`` lists.
        kind: ``single`` (``map_batch`` → GAF), ``paired``
            (``map_pairs`` → SAM) or ``serve`` (NDJSON daemon).
        inputs: RNG key of the inputs; ``serve-short`` names
            ``short-graph`` so both map byte-identical reads.
        graph: whether the reference carries simulated variants.
        read_length / error_rate / long_reads: the read simulator.
        jobs: ``jobs=`` of the timed run.
        chunk: units (reads, or pairs) per mapping call; also the
            granularity at which the deadline is checked.
        rate: nominal units mapped per second on the sizing box; it
            sizes the read pool and the fixed traced segment, never
            a reported number.
        accuracy_floor: outputs are rejected below this accuracy.
    """

    name: str
    kind: str
    inputs: str
    graph: bool
    read_length: int
    error_rate: float
    long_reads: bool
    jobs: int
    chunk: int
    rate: float
    accuracy_floor: float

    @property
    def paired(self) -> bool:
        return self.kind == "paired"

    def pool_units(self, seconds: float) -> int:
        """Units generated for a run of ``seconds``."""
        return _whole_chunks(self.rate * seconds * POOL_HEADROOM,
                             self.chunk)

    def segment_units(self, seconds: float) -> int:
        """Units of the fixed-work traced segment, sized so that the
        passes of a traced run together take about ``seconds``: two
        passes at the nominal rate, or for the pair workload one at
        the nominal (jobs=2) rate and two at about half of it."""
        share = 5 if self.paired else 2
        return _whole_chunks(self.rate * seconds / share, self.chunk)


def _whole_chunks(units: float, chunk: int) -> int:
    return max(1, math.ceil(units / chunk)) * chunk


WORKLOADS = {w.name: w for w in (
    Workload("short-graph", "single", "short-graph", graph=True,
             read_length=100, error_rate=0.01, long_reads=False,
             jobs=1, chunk=32, rate=75.0, accuracy_floor=0.93),
    Workload("long-graph", "single", "long-graph", graph=True,
             read_length=1_000, error_rate=0.05, long_reads=True,
             jobs=1, chunk=1, rate=5.0, accuracy_floor=0.95),
    Workload("pe-linear", "paired", "pe-linear", graph=False,
             read_length=100, error_rate=0.01, long_reads=False,
             jobs=2, chunk=32, rate=50.0, accuracy_floor=0.97),
    Workload("serve-short", "serve", "short-graph", graph=True,
             read_length=100, error_rate=0.01, long_reads=False,
             jobs=1, chunk=32, rate=105.0, accuracy_floor=0.93),
)}


@dataclass(frozen=True)
class Inputs:
    """Generated files of one run, plus the harness-side truth.

    ``truth`` maps a read name to its 0-based forward-strand origin
    on ``chr1`` (mates are ``<frag>/1`` and ``<frag>/2``).
    """

    reference: Path
    vcf: Path | None
    reads: tuple[Path, ...]
    truth: dict[str, int]
    sha256: str


def _vcf_records(reference: str, variants) -> list[VcfRecord]:
    """Simulated variants in VCF convention (indels carry the
    preceding base as anchor; an indel at position 0 has none and is
    dropped)."""
    records = []
    for variant in variants:
        if variant.is_insertion or variant.is_deletion:
            if variant.start == 0:
                continue
            anchor = reference[variant.start - 1]
            records.append(VcfRecord(
                CONTIG, variant.start,
                anchor + reference[variant.start:variant.end],
                anchor + variant.alt))
        else:
            records.append(VcfRecord(
                CONTIG, variant.start + 1,
                reference[variant.start:variant.end], variant.alt))
    return records


def _fastq(reads) -> list[FastqRecord]:
    return [FastqRecord(name, sequence, "I" * len(sequence))
            for name, sequence in reads]


def _write_fastq_gz(path: Path, records: list[FastqRecord]) -> None:
    # mtime pinned so the same seed gives the same bytes.
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        text = io.TextIOWrapper(gz, encoding="ascii")
        write_fastq(text, records)
        text.flush()
        text.detach()


def generate(workload: Workload, seed: int, seconds: float,
             workdir: Path, smoke: bool = False) -> Inputs:
    """Write the workload's inputs under ``workdir``.

    Same ``(workload.inputs, seed, seconds, smoke)`` gives identical
    files; the reference and variants depend on the seed only, the
    read pool grows with ``seconds``.
    """
    rng = random.Random(f"{seed}:{workload.inputs}")
    length = SMOKE_REFERENCE_LENGTH if smoke else REFERENCE_LENGTH
    reference = reference_with_repeats(length, rng, **REPEATS)
    reference_path = workdir / "ref.fa"
    write_fasta(reference_path, [FastaRecord(CONTIG, reference)])
    vcf_path = None
    if workload.graph:
        variants = simulate_variants(reference, rng, VariantProfile())
        vcf_path = workdir / "ref.vcf"
        write_vcf(vcf_path, _vcf_records(reference, variants))

    units = workload.pool_units(seconds)
    truth: dict[str, int] = {}
    if workload.paired:
        fragments = simulate_fragments(
            reference, units, rng,
            PairedEndProfile.illumina(
                read_length=workload.read_length,
                error_rate=workload.error_rate,
                insert_mean=INSERT_MEAN, insert_std=INSERT_STD),
            name_prefix="frag")
        mates = ([], [])
        for fragment in fragments:
            for side, mate in zip(mates, (fragment.mate1,
                                          fragment.mate2)):
                side.append((mate.name, mate.sequence))
                truth[mate.name] = mate.ref_start
        read_paths = (workdir / "reads_1.fq.gz",
                      workdir / "reads_2.fq.gz")
        for path, side in zip(read_paths, mates):
            _write_fastq_gz(path, _fastq(side))
    else:
        if workload.long_reads:
            simulated = simulate_long_reads(
                reference, units, rng,
                LongReadProfile.pacbio(workload.error_rate,
                                       workload.read_length),
                name_prefix="read")
        else:
            simulated = simulate_short_reads(
                reference, units, rng,
                ShortReadProfile.illumina(workload.read_length,
                                          workload.error_rate),
                name_prefix="read")
        # The simulators emit forward-strand reads only; every
        # second read is reverse-complemented so both orientations
        # of the engine do real work.
        reads = []
        for index, read in enumerate(simulated):
            sequence = read.sequence if index % 2 == 0 \
                else seqmod.reverse_complement(read.sequence)
            reads.append((read.name, sequence))
            truth[read.name] = read.ref_start
        if workload.long_reads:
            read_paths = (workdir / "reads.fa",)
            write_fasta(read_paths[0],
                        [FastaRecord(n, s) for n, s in reads])
        else:
            read_paths = (workdir / "reads.fq",)
            write_fastq(read_paths[0], _fastq(reads))

    truth_path = workdir / "truth.tsv"
    truth_path.write_text(
        "".join(f"{name}\t{start}\n" for name, start in truth.items()),
        encoding="ascii")
    digest = hashlib.sha256()
    for path in (reference_path, vcf_path, *read_paths, truth_path):
        if path is not None:
            digest.update(path.name.encode("ascii"))
            digest.update(path.read_bytes())
    return Inputs(reference=reference_path, vcf=vcf_path,
                  reads=read_paths, truth=truth,
                  sha256=digest.hexdigest())
