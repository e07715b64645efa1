"""Command-line interface: the SeGraM pipeline as a tool.

Subcommands mirror the vg-style workflow of the paper's Section 5:

* ``construct`` — build a variation graph from FASTA + VCF, emit GFA
  (``vg construct`` + ``vg ids -s`` + ``vg view`` in one step);
* ``index`` — ``index build`` writes a reference (FASTA, + VCF, or
  GFA) and its minimizer flat index as a versioned ``.sgidx``
  artifact, and ``index inspect`` prints an artifact's Fig. 6 layout;
* ``map`` — map FASTA/FASTQ reads against a reference (+ optional
  VCF) or a pre-built ``--index`` artifact (mmap attach, no rebuild),
  emitting GAF (graph) or SAM (linear) records;
* ``stats`` — graph statistics including the Fig. 13 hop profile;
* ``model`` — query the hardware performance/area/power model.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.api import Mapper
from repro.core.mapper import SeGraMConfig
from repro.core.pipeline import effective_jobs
from repro.core.windows import WindowingConfig
from repro.eval.report import format_table
from repro.graph.builder import VariantError, build_graph
from repro.graph.genome_graph import GraphError
from repro.graph.linearize import hop_coverage, hop_length_distribution
from repro.index.minimizer import check_minimizer_parameters
from repro.io.artifact import ArtifactError
from repro.io.fasta import FastaFormatError, read_fasta
from repro.io.gaf import GafWriter, result_to_gaf
from repro.io.gfa import GfaFormatError, read_gfa, write_gfa
from repro.io.sam import SamWriter, result_to_sam
from repro.io.stream import (
    DEFAULT_CHUNK_SIZE,
    ReadChunker,
    iter_mate_pairs,
    iter_reads,
)
from repro.io.vcf import VcfFormatError, read_vcf
from repro.refs.reference import ReferenceSetError
from repro.seq import InvalidBaseError

#: Typed input and I/O failures a command reports as one ``error:``
#: line.  A bare ``ValueError`` is a bug and keeps its traceback.
_INPUT_ERRORS = (
    OSError, FastaFormatError, VcfFormatError, GfaFormatError,
    GraphError, VariantError, ReferenceSetError, InvalidBaseError,
    ArtifactError,
)


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Mapping-engine configuration flags, shared by ``map`` and
    ``serve`` so a daemon and an offline run built from the same
    flags produce byte-identical output."""
    parser.add_argument("--error-rate", type=float, default=0.05)
    parser.add_argument("-w", type=int, default=10)
    parser.add_argument("-k", type=int, default=15)
    parser.add_argument("--max-seeds", type=int, default=8)
    parser.add_argument("--top-n", type=int, default=5,
                        help="best alignments kept per read for MAPQ "
                             "calibration and candidate-grid pairing "
                             "(default 5; 1 = single winner)")
    parser.add_argument("--hop-limit", type=int, default=None)
    parser.add_argument("--both-strands", action="store_true")
    parser.add_argument("--bucket-bits", type=int, default=14,
                        help="hash-index bucket width (default 14)")
    parser.add_argument("--early-exit-distance", type=int,
                        default=None,
                        help="stop scanning regions once an alignment "
                             "at or below this distance is found")
    # Ignored.  Deleted with ROADMAP item 1's follow-up src/ PR, once
    # benchmarks/perf/serve.py stops passing it.
    parser.add_argument("--align-backend", choices=("python", "numpy"),
                        default=None,
                        help="ignored: every alignment runs the one "
                             "BitAlign kernel")


def _check_minimizer_args(args: argparse.Namespace) -> None:
    """``-w`` / ``-k`` / ``--bucket-bits`` the index cannot hold end in
    a clean error."""
    try:
        check_minimizer_parameters(args.w, args.k, args.bucket_bits)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _engine_config(args: argparse.Namespace) -> SeGraMConfig:
    """The :class:`SeGraMConfig` described by :func:`_add_engine_args`
    flags (``w``/``k``/``bucket_bits`` are overridden by the artifact
    when attaching to one)."""
    if args.early_exit_distance is not None \
            and args.early_exit_distance < 0:
        raise SystemExit("error: --early-exit-distance must be >= 0")
    if args.max_seeds < 1:
        raise SystemExit("error: --max-seeds must be >= 1")
    if args.top_n < 1:
        raise SystemExit("error: --top-n must be >= 1")
    if args.hop_limit is not None and args.hop_limit < 1:
        raise SystemExit("error: --hop-limit must be >= 1")
    if not 0.0 <= args.error_rate < 1.0:
        raise SystemExit("error: --error-rate must be in [0, 1)")
    _check_minimizer_args(args)
    return SeGraMConfig(
        w=args.w, k=args.k, bucket_bits=args.bucket_bits,
        error_rate=args.error_rate,
        windowing=WindowingConfig(),
        max_seeds_per_read=args.max_seeds,
        top_n_alignments=args.top_n,
        hop_limit=args.hop_limit,
        both_strands=args.both_strands,
        early_exit_distance=args.early_exit_distance,
    )


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    """Service endpoint flags shared by ``serve`` and ``client``."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port (0 = ephemeral for serve)")
    parser.add_argument("--socket", type=Path, default=None,
                        help="unix-domain socket path (instead of "
                             "--port)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SeGraM reproduction: sequence-to-graph and "
                    "sequence-to-sequence mapping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser(
        "construct", help="build a variation graph (FASTA + VCF -> GFA)")
    construct.add_argument("--reference", required=True, type=Path)
    construct.add_argument("--vcf", type=Path, default=None)
    construct.add_argument("--output", required=True, type=Path,
                           help="GFA path (gzip-compressed if it "
                                "ends in .gz)")
    construct.add_argument("--max-node-length", type=int, default=0)

    index = sub.add_parser(
        "index",
        help="build or inspect an on-disk .sgidx minimizer index "
             "artifact")
    index_sub = index.add_subparsers(dest="index_command",
                                     required=True)

    index_build = index_sub.add_parser(
        "build",
        help="build a reference + flat index into a .sgidx artifact")
    index_build.add_argument("reference", type=Path,
                             help="reference FASTA (or GFA graph)")
    index_build.add_argument("-o", "--output", required=True,
                             type=Path, help="artifact path (.sgidx)")
    index_build.add_argument("--vcf", type=Path, default=None,
                             help="variants to build into the graph")
    index_build.add_argument("-w", type=int, default=10,
                             help="minimizer window (default 10)")
    index_build.add_argument("-k", type=int, default=15,
                             help="k-mer length (default 15)")
    index_build.add_argument("--bucket-bits", type=int, default=14)
    index_build.add_argument("--max-node-length", type=int,
                             default=4_096,
                             help="backbone chunking for linear "
                                  "contigs (default 4096)")

    index_inspect = index_sub.add_parser(
        "inspect", help="print a .sgidx artifact's layout and contigs")
    index_inspect.add_argument("artifact", type=Path)

    map_cmd = sub.add_parser(
        "map", help="map reads to a reference (+ optional VCF) or a "
                    "pre-built .sgidx index artifact")
    map_cmd.add_argument("--reference", type=Path, default=None,
                         help="reference FASTA (an .sgidx artifact "
                              "here is auto-detected and attached)")
    map_cmd.add_argument("--index", type=Path, default=None,
                         help="pre-built .sgidx artifact ('repro "
                              "index build'); mmap-attached instead "
                              "of rebuilding the index")
    map_cmd.add_argument("--vcf", type=Path, default=None)
    map_cmd.add_argument("--reads", required=True, type=Path,
                         help="reads (FASTA/FASTQ); R1 when --paired "
                              "is given")
    map_cmd.add_argument("--paired", type=Path, default=None,
                         metavar="R2",
                         help="R2 mate file: map FR read pairs with "
                              "insert-size scoring and mate rescue "
                              "(forces --format sam)")
    map_cmd.add_argument("--insert-mean", type=float, default=350.0,
                         help="insert-size model mean (template "
                              "length; default 350)")
    map_cmd.add_argument("--insert-std", type=float, default=50.0,
                         help="insert-size model std dev (default 50)")
    map_cmd.add_argument("--no-mate-rescue", action="store_true",
                         help="disable windowed mate rescue near a "
                              "confidently mapped mate (the top-N "
                              "candidate grid usually resolves repeat "
                              "ties without it)")
    map_cmd.add_argument("--discordant-out", type=Path, default=None,
                         metavar="TSV",
                         help="with --paired: also write a TSV report "
                              "of discordant pairs (category, mate "
                              "placements, TLEN) for SV calling")
    map_cmd.add_argument("--output", required=True, type=Path,
                         help="GAF or SAM path (gzip-compressed if "
                              "it ends in .gz)")
    map_cmd.add_argument("--format", choices=("gaf", "sam"),
                         default=None,
                         help="output format (default: gaf, or sam "
                              "with --paired)")
    map_cmd.add_argument("--jobs", type=int, default=1,
                         help="worker processes for batch mapping "
                              "(default 1 = sequential)")
    map_cmd.add_argument("--chunk-size", type=int,
                         default=DEFAULT_CHUNK_SIZE,
                         help="reads per mapping batch; peak memory "
                              "is one batch, output bytes do not "
                              "depend on it (default "
                              f"{DEFAULT_CHUNK_SIZE})")
    map_cmd.add_argument("--sort-sam", action="store_true",
                         help="coordinate-sort SAM output (@SQ order, "
                              "then POS) via a bounded-memory "
                              "external merge; implies SO:coordinate "
                              "in the header (SAM output only)")
    map_cmd.add_argument("--qualified-paths", action="store_true",
                         help="emit GAF path segments as "
                              "<contig>#<node-id> so mixed GFA+FASTA "
                              "reference sets stay self-describing "
                              "(GAF output only)")
    _add_engine_args(map_cmd)

    stats = sub.add_parser("stats", help="graph statistics")
    stats.add_argument("--graph", required=True, type=Path)

    model = sub.add_parser(
        "model", help="hardware model: throughput / area / power")
    model.add_argument("--workload",
                       choices=("pacbio", "ont", "illumina"),
                       default="pacbio")
    model.add_argument("--read-length", type=int, default=None)
    model.add_argument("--error-rate", type=float, default=None)
    model.add_argument("--table1", action="store_true",
                       help="print the Table 1 area/power breakdown")

    serve = sub.add_parser(
        "serve",
        help="long-lived mapping daemon over a .sgidx artifact "
             "(line-oriented JSON protocol; see docs/service.md)")
    serve.add_argument("--index", required=True, type=Path,
                       help="pre-built .sgidx artifact ('repro index "
                            "build'); loaded once, mmap-attached")
    _add_endpoint_args(serve)
    serve.add_argument("--jobs", type=int, default=1,
                       help="standing worker processes sharding "
                            "each coalesced batch (default 1 = "
                            "in-process)")
    serve.add_argument("--batch-window-ms", type=float, default=2.0,
                       help="micro-batch coalescing window in "
                            "milliseconds (default 2)")
    serve.add_argument("--batch-size", type=int, default=64,
                       help="max reads per coalesced dispatch "
                            "(default 64)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="bounded-queue capacity in reads; "
                            "beyond it requests get a typed "
                            "'overloaded' error (default 1024)")
    serve.add_argument("--timeout-s", type=float, default=30.0,
                       help="per-request queue-wait timeout in "
                            "seconds (0 disables; default 30)")
    _add_engine_args(serve)

    client = sub.add_parser(
        "client",
        help="talk to a running 'repro serve' daemon")
    client_sub = client.add_subparsers(dest="client_command",
                                       required=True)

    client_map = client_sub.add_parser(
        "map", help="map reads through the daemon (SAM output "
                    "byte-identical to offline 'repro map --index')")
    _add_endpoint_args(client_map)
    client_map.add_argument("--reads", required=True, type=Path,
                            help="reads (FASTA/FASTQ)")
    client_map.add_argument("--output", required=True, type=Path,
                            help="SAM output path")
    client_map.add_argument("--window", type=int, default=64,
                            help="pipelined requests kept in flight "
                                 "(default 64); the daemon coalesces "
                                 "whatever is queued")
    client_map.add_argument("--chunk-size", type=int,
                            default=DEFAULT_CHUNK_SIZE,
                            help="reads streamed per dispatch "
                                 f"(default {DEFAULT_CHUNK_SIZE}); "
                                 "peak client memory stays bounded "
                                 "by one chunk")

    for name, help_text in (
            ("ping", "health-check the daemon"),
            ("stats", "print the daemon's service + pipeline "
                      "statistics (JSON)"),
            ("shutdown", "ask the daemon to drain and stop")):
        client_op = client_sub.add_parser(name, help=help_text)
        _add_endpoint_args(client_op)

    return parser


def _load_reference(path: Path) -> tuple[str, str]:
    records = read_fasta(path)
    if not records:
        raise SystemExit(f"error: no FASTA records in {path}")
    if len(records) > 1:
        print(f"warning: {path} has {len(records)} records; using the "
              f"first ({records[0].name})", file=sys.stderr)
    return records[0].name, records[0].sequence.upper()


def cmd_construct(args: argparse.Namespace) -> int:
    _, reference = _load_reference(args.reference)
    variants = read_vcf(args.vcf) if args.vcf else []
    built = build_graph(reference, variants,
                        name=args.reference.stem,
                        max_node_length=args.max_node_length)
    write_gfa(built.graph, args.output)
    graph = built.graph
    print(f"wrote {args.output}: {graph.node_count} nodes, "
          f"{graph.edge_count} edges, "
          f"{graph.total_sequence_length} bases "
          f"({len(built.alt_nodes)} alt nodes)")
    return 0


def _layout_table(layout, title: str) -> str:
    """The three levels of a flat index (paper Fig. 6) and their total,
    as a table of entries and bytes."""
    return format_table([
        {"level": "1 (buckets)", "entries": layout.bucket_count,
         "bytes": layout.first_level_bytes},
        {"level": "2 (minimizers)",
         "entries": layout.distinct_minimizers,
         "bytes": layout.second_level_bytes},
        {"level": "3 (locations)", "entries": layout.total_locations,
         "bytes": layout.third_level_bytes},
        {"level": "total", "entries": None,
         "bytes": layout.total_bytes},
    ], title=title)


def cmd_index(args: argparse.Namespace) -> int:
    if args.index_command == "build":
        return cmd_index_build(args)
    return cmd_index_inspect(args)


def cmd_index_build(args: argparse.Namespace) -> int:
    """``repro index build <ref> -o ref.sgidx``: reference + flat
    index into a versioned, checksummed artifact."""
    _check_minimizer_args(args)
    config = SeGraMConfig(w=args.w, k=args.k,
                          bucket_bits=args.bucket_bits)
    if args.reference.name.lower().endswith((".gfa", ".gfa.gz")):
        if args.vcf is not None:
            raise SystemExit("error: --vcf cannot be applied to a "
                             "GFA graph reference")
        mapper = Mapper.from_gfa(args.reference, config=config)
    else:
        mapper = Mapper.from_fasta(args.reference, args.vcf,
                                   config=config,
                                   max_node_length=args.max_node_length)
    mapper.save_index(args.output)
    index = mapper.engine.index
    size = args.output.stat().st_size
    print(f"wrote {args.output}: {len(mapper.reference)} contigs, "
          f"{mapper.graph.total_sequence_length} bases, "
          f"{index.distinct_minimizers} minimizers, "
          f"{index.total_locations} locations ({size} bytes)")
    return 0


def cmd_index_inspect(args: argparse.Namespace) -> int:
    """``repro index inspect ref.sgidx``: artifact layout report."""
    from repro.io.artifact import load_index_artifact

    loaded = load_index_artifact(args.artifact)
    index = loaded.index
    layout = index.layout()
    print(f"artifact {args.artifact}: "
          f"<w={index.w},k={index.k}> scoring={index.scoring}")
    print(_layout_table(layout, "three-level index (paper Fig. 6)"))
    print(f"max minimizers per bucket: "
          f"{layout.max_minimizers_per_bucket}")
    print(format_table(
        [{"contig": name, "length": length}
         for name, length in loaded.refs.sam_contigs()],
        title="contigs"))
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise SystemExit("error: --jobs must be >= 1")
    if args.discordant_out is not None and args.paired is None:
        raise SystemExit("error: --discordant-out requires --paired")
    if args.chunk_size < 1:
        raise SystemExit("error: --chunk-size must be >= 1")
    if args.insert_mean <= 0:
        raise SystemExit("error: --insert-mean must be > 0")
    if args.insert_std < 0:
        raise SystemExit("error: --insert-std must be >= 0")
    # --paired always emits SAM; single-end defaults to GAF.
    out_format = "sam" if args.paired is not None \
        else (args.format or "gaf")
    if args.sort_sam and out_format != "sam":
        raise SystemExit("error: --sort-sam requires SAM output "
                         "(--format sam or --paired)")
    if args.qualified_paths and out_format != "gaf":
        raise SystemExit("error: --qualified-paths applies to GAF "
                         "output only")
    from repro.io.artifact import is_index_artifact

    index_path = args.index
    if index_path is None and args.reference is not None \
            and is_index_artifact(args.reference):
        index_path = args.reference
    if index_path is None and args.reference is None:
        raise SystemExit("error: provide --reference or --index")
    if index_path is not None and args.vcf is not None:
        raise SystemExit("error: --vcf cannot be combined with a "
                         "pre-built --index artifact (variants are "
                         "baked in at 'repro index build' time)")
    config = _engine_config(args)
    pair_config = None
    if args.paired is not None:
        from repro.core.pairing import PairedEndConfig

        pair_config = PairedEndConfig(
            insert_mean=args.insert_mean,
            insert_std=args.insert_std,
            rescue=not args.no_mate_rescue,
        )
    if index_path is not None:
        mapper = Mapper.from_artifact(index_path, config=config,
                                      pair_config=pair_config)
    else:
        mapper = Mapper.from_fasta(args.reference, args.vcf,
                                   config=config,
                                   pair_config=pair_config)
    try:
        return _map_reads(args, mapper)
    finally:
        mapper.close()


def _map_reads(args: argparse.Namespace, mapper: Mapper) -> int:
    """The mapping half of ``cmd_map`` (mapper already constructed).

    Reads are consumed in ``--chunk-size`` batches and records
    written as each batch completes, so peak memory is one chunk
    regardless of input size.  Chunk boundaries never change output
    bytes (``map_batch`` is order-preserving and per-read
    deterministic).
    """
    if args.paired is not None:
        return _map_paired(args, mapper)
    out_format = args.format or "gaf"
    refs = mapper.reference if args.qualified_paths else None
    total = 0
    mapped = 0
    mapped_by_contig: dict[str, int] = {}
    writer: GafWriter | SamWriter
    if out_format == "gaf":
        writer = GafWriter(args.output)
    else:
        writer = SamWriter(args.output, contigs=mapper.contigs,
                           sort=args.sort_sam)
    try:
        for chunk in ReadChunker(args.chunk_size).chunks(
                iter_reads(args.reads)):
            records = mapper.map_batch(chunk, jobs=args.jobs)
            for record, (_, seq) in zip(records, chunk):
                total += 1
                if record.mapped:
                    mapped += 1
                    mapped_by_contig[record.contig] = \
                        mapped_by_contig.get(record.contig, 0) + 1
                if out_format == "gaf":
                    gaf = result_to_gaf(record.result, mapper.graph,
                                        seq, refs=refs)
                    if gaf is not None:
                        writer.write(gaf)
                else:
                    writer.write(result_to_sam(record.result, seq))
    finally:
        writer.close()
    print(f"mapped {mapped}/{total} reads -> {args.output} "
          f"({out_format})")
    _print_contig_rows(mapper, mapped_by_contig)
    stats = mapper.stats
    jobs = effective_jobs(args.jobs, total)
    print(format_table(
        stats.stage_rows(),
        title=f"pipeline stages (jobs={jobs})"))
    for line in stats.summary_lines():
        print(f"  {line}")
    return 0


def _print_contig_rows(mapper: Mapper,
                       mapped_by_contig: dict[str, int],
                       proper_by_contig: dict | None = None) -> None:
    """The per-contig breakdown table of ``map`` / ``map --paired``.

    Takes pre-accumulated counts (not the records themselves) so the
    streaming paths never have to hold every record in memory.
    """
    rows = []
    for name, length in mapper.contigs:
        row = {"contig": name, "length": length,
               "mapped": mapped_by_contig.get(name, 0)}
        if proper_by_contig is not None:
            row["proper pairs"] = proper_by_contig.get(name, 0)
        rows.append(row)
    print(format_table(rows, title="per-contig"))


def _map_paired(args: argparse.Namespace, mapper: Mapper) -> int:
    """The ``map --paired`` flow: FR pairs to pair-aware SAM.

    The insert-size model (``--insert-mean``/``--insert-std``/
    ``--no-mate-rescue``) was already handed to the :class:`Mapper`
    constructor in :func:`cmd_map`.  Both mate files stream in
    lockstep, ``--chunk-size`` pairs at a time; only the (rare)
    discordant pair results are retained when ``--discordant-out``
    asks for the report.
    """
    from repro.io.sam import pair_to_sam

    if args.format == "gaf":
        print("note: --paired emits SAM (pair flags have no GAF "
              "equivalent); writing SAM", file=sys.stderr)
    total = 0
    proper = 0
    proper_by_contig: dict[str, int] = {}
    mapped_by_contig: dict[str, int] = {}
    discordant: list = []
    writer = SamWriter(args.output, contigs=mapper.contigs,
                       sort=args.sort_sam)
    try:
        for raw_chunk in ReadChunker(args.chunk_size).chunks(
                iter_mate_pairs(args.reads, args.paired)):
            chunk = [(name, r1.upper(), r2.upper())
                     for name, r1, r2 in raw_chunk]
            records = mapper.map_pairs(chunk, jobs=args.jobs)
            for (rec1, rec2), (_, read1, read2) in zip(records,
                                                       chunk):
                total += 1
                for sam_record in pair_to_sam(rec1.pair, read1,
                                              read2):
                    writer.write(sam_record)
                for rec in (rec1, rec2):
                    if rec.mapped:
                        mapped_by_contig[rec.contig] = \
                            mapped_by_contig.get(rec.contig, 0) + 1
                if rec1.proper_pair:
                    proper_by_contig[rec1.contig] = \
                        proper_by_contig.get(rec1.contig, 0) + 1
                if rec1.pair.proper:
                    proper += 1
                if args.discordant_out is not None \
                        and rec1.pair.discordant:
                    discordant.append(rec1.pair)
    finally:
        writer.close()
    print(f"mapped {proper}/{total} proper pairs -> "
          f"{args.output} (sam)")
    if args.discordant_out is not None:
        from repro.io.discordant import write_discordant_report

        written = write_discordant_report(args.discordant_out,
                                          discordant)
        print(f"wrote {written} discordant pairs -> "
              f"{args.discordant_out}")
    _print_contig_rows(mapper, mapped_by_contig, proper_by_contig)
    stats = mapper.stats
    jobs = effective_jobs(args.jobs, total)
    print(format_table(
        stats.stage_rows(),
        title=f"pipeline stages (jobs={jobs})"))
    for line in stats.summary_lines():
        print(f"  {line}")
    for line in mapper.pair_stats.summary_lines():
        print(f"  {line}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    graph = read_gfa(args.graph)
    if not graph.is_topologically_sorted():
        graph = graph.topologically_sorted()
    tables = graph.tables()
    print(f"graph {args.graph}:")
    print(f"  nodes: {graph.node_count}")
    print(f"  edges: {graph.edge_count}")
    print(f"  bases: {graph.total_sequence_length}")
    print(f"  memory layout: node table {tables.node_table_bytes} B, "
          f"char table {tables.char_table_bytes} B, "
          f"edge table {tables.edge_table_bytes} B")
    histogram = hop_length_distribution(graph)
    coverage = hop_coverage(graph, [2, 4, 8, 12, 16])
    print(f"  hops (distance > 1): {sum(histogram.values())}")
    for limit in (2, 4, 8, 12, 16):
        print(f"  hop coverage @ limit {limit}: "
              f"{coverage[limit]:.3f}")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    from repro.hw.area_power import AreaPowerModel
    from repro.hw.pipeline import SeGraMPerformanceModel, \
        WorkloadProfile

    if args.table1:
        print(format_table(AreaPowerModel().table1_rows(),
                           title="Table 1 — area/power"))
        return 0
    if args.workload == "pacbio":
        workload = WorkloadProfile.pacbio(args.error_rate or 0.05)
    elif args.workload == "ont":
        workload = WorkloadProfile.ont(args.error_rate or 0.10)
    else:
        workload = WorkloadProfile.illumina(args.read_length or 150)
    model = SeGraMPerformanceModel()
    print(f"workload: {workload.name}")
    print(f"  seed task latency: "
          f"{model.seed_task_latency_us(workload.read_length, workload.error_rate):.1f} us")
    print(f"  system throughput: "
          f"{model.reads_per_second(workload):,.0f} reads/s")
    print(f"  10k-read dataset runtime: "
          f"{model.dataset_runtime_s(workload):.2f} s")
    return 0


def _client_connect(args: argparse.Namespace):
    """Connect a :class:`~repro.service.client.ServiceClient` to the
    endpoint named by ``--socket`` or ``--host``/``--port``."""
    from repro.service.client import ServiceClient

    if args.socket is not None:
        return ServiceClient.connect_unix(str(args.socket))
    if args.port is None:
        raise SystemExit("error: provide --port or --socket")
    return ServiceClient.connect(args.host, args.port)


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve --index ref.sgidx``: the mapping daemon."""
    import signal

    from repro.service.core import ServiceCore
    from repro.service.server import ServiceServer

    if args.port is None and args.socket is None:
        raise SystemExit("error: provide --port or --socket")
    if args.port is not None and args.socket is not None:
        raise SystemExit("error: --port and --socket are exclusive")
    for flag in ("jobs", "batch_size", "max_queue"):
        if getattr(args, flag) < 1:
            raise SystemExit(f"error: --{flag.replace('_', '-')} "
                             f"must be >= 1")
    mapper = Mapper.from_artifact(args.index,
                                  config=_engine_config(args))
    core = ServiceCore(
        mapper,
        jobs=args.jobs,
        batch_window_s=args.batch_window_ms / 1000.0,
        batch_size=args.batch_size,
        max_queue=args.max_queue,
        timeout_s=args.timeout_s if args.timeout_s > 0 else None,
    )
    if args.socket is not None:
        server = ServiceServer.unix(core, args.socket)
    else:
        server = ServiceServer.tcp(core, args.host, args.port)
    # Restore the previous dispositions on exit: leaving the
    # daemon's handlers installed in an embedding process (tests,
    # programmatic ``main()`` callers) would also leak into every
    # later ``fork`` — a pool worker inheriting this handler ignores
    # ``Pool.terminate()``'s SIGTERM and never exits.
    previous = {
        signum: signal.signal(signum,
                              lambda *_: server.begin_shutdown())
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    print(f"serving {args.index} on {server.address} "
          f"(jobs={args.jobs}, batch={args.batch_size}, "
          f"window={args.batch_window_ms}ms)", flush=True)
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    snapshot = core.counters.snapshot()
    print(f"stopped after {snapshot['requests_total']} requests "
          f"({snapshot['reads_mapped']} reads, "
          f"{snapshot['pairs_mapped']} pairs mapped)")
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """``repro client <op>``: drive a running daemon."""
    from repro.service.protocol import ServiceError

    try:
        return _run_client(args)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"error: cannot reach the daemon: {exc}") from None


def _run_client(args: argparse.Namespace) -> int:
    import json

    from repro.io.sam import SamRecord

    if args.client_command == "ping":
        with _client_connect(args) as client:
            print(json.dumps(client.ping(), sort_keys=True))
        return 0
    if args.client_command == "stats":
        with _client_connect(args) as client:
            print(json.dumps(client.stats(), sort_keys=True,
                             indent=2))
        return 0
    if args.client_command == "shutdown":
        with _client_connect(args) as client:
            client.shutdown()
        print("daemon stopping")
        return 0

    # client map: reads stream through in --chunk-size batches, SAM
    # records land as each batch returns — peak client memory is one
    # chunk regardless of input size.
    if args.chunk_size < 1:
        raise SystemExit("error: --chunk-size must be >= 1")
    if args.window < 1:
        raise SystemExit("error: --window must be >= 1")
    total = 0
    mapped = 0
    with _client_connect(args) as client:
        contigs = client.contigs()
        with SamWriter(args.output, contigs=contigs) as writer:
            chunker = ReadChunker(args.chunk_size)
            for chunk in chunker.chunks(iter_reads(args.reads)):
                for payload in client.map_stream(chunk,
                                                 window=args.window):
                    writer.write(SamRecord(**payload["sam"]))
                    total += 1
                    if payload["record"]["mapped"]:
                        mapped += 1
    print(f"mapped {mapped}/{total} reads -> {args.output} "
          f"(sam, via daemon)")
    return 0


_COMMANDS = {
    "construct": cmd_construct,
    "index": cmd_index,
    "map": cmd_map,
    "stats": cmd_stats,
    "model": cmd_model,
    "serve": cmd_serve,
    "client": cmd_client,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
