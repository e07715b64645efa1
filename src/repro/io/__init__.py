"""File-format substrate: FASTA/FASTQ and VCF-subset readers and writers.

The SeGraM pre-processing pipeline (paper Section 5) consumes a linear
reference genome as FASTA and known variations as VCF.  These modules
implement the subset of both formats that the pipeline needs, with no
third-party dependencies.
"""

from repro.io.fasta import (
    FastaRecord,
    FastqRecord,
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)
from repro.io.vcf import VcfRecord, read_vcf, write_vcf
from repro.io.sam import (
    SamRecord,
    SamWriter,
    read_sam,
    result_to_sam,
)
from repro.io.gaf import (
    GafRecord,
    GafWriter,
    read_gaf,
    result_to_gaf,
)
from repro.io.stream import (
    ReadChunker,
    TruncatedInputError,
    iter_mate_pairs,
    iter_reads,
)
from repro.io.artifact import (
    ArtifactError,
    LoadedArtifact,
    is_index_artifact,
    load_index_artifact,
    write_index_artifact,
)

__all__ = [
    "ArtifactError",
    "LoadedArtifact",
    "is_index_artifact",
    "load_index_artifact",
    "write_index_artifact",
    "FastaRecord",
    "FastqRecord",
    "read_fasta",
    "read_fastq",
    "write_fasta",
    "write_fastq",
    "VcfRecord",
    "read_vcf",
    "write_vcf",
    "SamRecord",
    "SamWriter",
    "read_sam",
    "result_to_sam",
    "GafRecord",
    "GafWriter",
    "read_gaf",
    "result_to_gaf",
    "ReadChunker",
    "TruncatedInputError",
    "iter_mate_pairs",
    "iter_reads",
]
