"""End-to-end tests of the command-line interface.

These are the integration tests of the whole pipeline: FASTA + VCF on
disk -> construct -> GFA -> index/stats, and FASTA + reads -> map ->
GAF/SAM, all through the public CLI.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.cli import main
from repro.io.gfa import read_gfa
from repro.io.fasta import FastaRecord, FastqRecord, write_fasta, \
    write_fastq
from repro.io.gaf import read_gaf
from repro.io.sam import read_sam
from repro.io.vcf import VcfRecord, write_vcf
from repro.sim.reference import random_reference


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = random.Random(5)
    reference = random_reference(8_000, rng)
    write_fasta(root / "ref.fa", [FastaRecord("chr1", reference)])
    snp_pos = 500
    alt = "G" if reference[snp_pos] != "G" else "C"
    write_vcf(root / "vars.vcf", [
        VcfRecord("chr1", snp_pos + 1, reference[snp_pos], alt),
        VcfRecord("chr1", 1_001,
                  reference[1_000:1_004], reference[1_000]),
    ])
    reads = [
        FastqRecord(f"read{i}",
                    reference[i * 1_500:i * 1_500 + 300],
                    "I" * 300)
        for i in range(1, 4)
    ]
    write_fastq(root / "reads.fq", reads)
    return root, reference, alt, snp_pos


class TestConstruct:
    def test_builds_gfa(self, workspace, capsys):
        root, reference, _, _ = workspace
        code = main([
            "construct", "--reference", str(root / "ref.fa"),
            "--vcf", str(root / "vars.vcf"),
            "--output", str(root / "graph.gfa"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        graph = read_gfa(root / "graph.gfa")
        assert graph.total_sequence_length > len(reference)  # alt node

    def test_without_vcf_linear_graph(self, workspace, capsys):
        root, reference, _, _ = workspace
        code = main([
            "construct", "--reference", str(root / "ref.fa"),
            "--output", str(root / "linear.gfa"),
            "--max-node-length", "1000",
        ])
        assert code == 0
        graph = read_gfa(root / "linear.gfa")
        assert graph.total_sequence_length == len(reference)
        assert graph.node_count == 8


class TestIndexAndStats:
    def test_index_prints_levels(self, workspace, capsys):
        root, *_ = workspace
        main(["construct", "--reference", str(root / "ref.fa"),
              "--vcf", str(root / "vars.vcf"),
              "--output", str(root / "graph.gfa")])
        assert main(["index", "build", str(root / "graph.gfa"),
                     "-o", str(root / "graph.sgidx")]) == 0
        capsys.readouterr()
        code = main(["index", "inspect", str(root / "graph.sgidx")])
        assert code == 0
        out = capsys.readouterr().out
        assert "buckets" in out
        assert "minimizers" in out
        assert "max minimizers per bucket" in out

    def test_stats_prints_hop_profile(self, workspace, capsys):
        root, *_ = workspace
        main(["construct", "--reference", str(root / "ref.fa"),
              "--vcf", str(root / "vars.vcf"),
              "--output", str(root / "graph.gfa")])
        capsys.readouterr()
        code = main(["stats", "--graph", str(root / "graph.gfa")])
        assert code == 0
        out = capsys.readouterr().out
        assert "hop coverage @ limit 12" in out

    def test_gzipped_gfa(self, workspace, capsys, tmp_path):
        """``stats --graph`` and ``index build`` read a ``.gfa.gz``
        as they read the plain file."""
        import gzip

        root, *_ = workspace
        plain = tmp_path / "graph.gfa"
        main(["construct", "--reference", str(root / "ref.fa"),
              "--vcf", str(root / "vars.vcf"), "--output", str(plain)])
        packed = tmp_path / "graph.gfa.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        capsys.readouterr()
        reports = []
        for graph in (plain, packed):
            assert main(["stats", "--graph", str(graph)]) == 0
            reports.append(capsys.readouterr().out.replace(
                str(graph), "GRAPH"))
            assert main(["index", "build", str(graph), "-o",
                         f"{graph}.sgidx"]) == 0
            capsys.readouterr()
        assert reports[0] == reports[1]
        assert "hop coverage @ limit 12" in reports[1]
        assert (tmp_path / "graph.gfa.sgidx").read_bytes() == \
            (tmp_path / "graph.gfa.gz.sgidx").read_bytes()


class TestInputErrors:
    """A bad input file or output path ends in one ``error:`` line
    from ``cli.main``, never a traceback."""

    @pytest.mark.parametrize("case", [
        "missing-reads", "short-quality", "vcf-four-columns",
        "stats-bad-gfa", "stats-bad-gfa-names-file", "index-build-bad-gfa",
        "index-build-missing-dir",
    ])
    def test_typed_input_error_is_one_line(self, workspace, tmp_path,
                                           case):
        root, *_ = workspace
        ref, reads = str(root / "ref.fa"), str(root / "reads.fq")
        out = str(tmp_path / "x.gaf")
        bad_gfa = tmp_path / "bad.gfa"
        bad_gfa.write_text("S\t1\n")
        (tmp_path / "short.fq").write_text("@r1\nACGTACGT\n+\nIIII\n")
        (tmp_path / "bad.vcf").write_text("chr1\t10\t.\tA\n")
        argv, fragment = {
            "missing-reads": (
                ["map", "--reference", ref, "--output", out,
                 "--reads", str(tmp_path / "missing.fq")],
                "missing.fq"),
            "short-quality": (
                ["map", "--reference", ref, "--output", out,
                 "--reads", str(tmp_path / "short.fq")],
                "quality length 4"),
            "vcf-four-columns": (
                ["map", "--reference", ref, "--reads", reads,
                 "--vcf", str(tmp_path / "bad.vcf"), "--output", out],
                "columns, found 4"),
            "stats-bad-gfa": (
                ["stats", "--graph", str(bad_gfa)],
                "S line needs name and sequence"),
            "stats-bad-gfa-names-file": (
                ["stats", "--graph", str(bad_gfa)],
                f"error: {bad_gfa}: line 1: S line needs name"),
            "index-build-bad-gfa": (
                ["index", "build", str(bad_gfa),
                 "-o", str(tmp_path / "x.sgidx")],
                "S line needs name and sequence"),
            "index-build-missing-dir": (
                ["index", "build", ref,
                 "-o", str(tmp_path / "nodir" / "x.sgidx")],
                "nodir"),
        }[case]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str)
        assert message.startswith("error: ")
        assert fragment in message and "\n" not in message


class TestMap:
    def test_map_to_gaf(self, workspace, capsys):
        root, *_ = workspace
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--vcf", str(root / "vars.vcf"),
            "--reads", str(root / "reads.fq"),
            "--output", str(root / "out.gaf"),
            "--error-rate", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mapped 3/3" in out
        records = read_gaf(root / "out.gaf")
        assert len(records) == 3
        assert all(r.matches == r.query_length for r in records)

    def test_map_to_sam(self, workspace, capsys):
        root, reference, _, _ = workspace
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(root / "reads.fq"),
            "--output", str(root / "out.sam"),
            "--format", "sam",
            "--error-rate", "0.02",
        ])
        assert code == 0
        records = read_sam(root / "out.sam")
        assert len(records) == 3
        for i, record in enumerate(records, start=1):
            assert record.pos == i * 1_500 + 1  # exact origin, 1-based
            assert record.edit_distance == 0

    def test_map_fasta_reads(self, workspace, capsys, tmp_path):
        root, reference, _, _ = workspace
        write_fasta(tmp_path / "reads.fa",
                    [FastaRecord("fa_read", reference[2_000:2_200])])
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(tmp_path / "reads.fa"),
            "--output", str(tmp_path / "out.gaf"),
        ])
        assert code == 0
        assert len(read_gaf(tmp_path / "out.gaf")) == 1

    def test_map_reports_pipeline_stats(self, workspace, capsys,
                                        tmp_path):
        root, *_ = workspace
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(root / "reads.fq"),
            "--output", str(tmp_path / "out.gaf"),
            "--error-rate", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline stages" in out
        for stage in ("seed", "filter", "extract", "align", "select"):
            assert stage in out
        assert "seeded" in out
        assert "kernel calls" in out

    def test_map_pipeline_flags(self, workspace, capsys, tmp_path):
        """--jobs/--bucket-bits reach the mapper and results stay
        identical to the default sequential run."""
        root, *_ = workspace
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(root / "reads.fq"),
            "--output", str(tmp_path / "default.gaf"),
            "--error-rate", "0.02",
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(root / "reads.fq"),
            "--output", str(tmp_path / "tuned.gaf"),
            "--error-rate", "0.02",
            "--jobs", "2", "--bucket-bits", "12",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mapped 3/3" in out
        assert "jobs=2" in out
        default = [(r.query_name, r.path, r.matches)
                   for r in read_gaf(tmp_path / "default.gaf")]
        tuned = [(r.query_name, r.path, r.matches)
                 for r in read_gaf(tmp_path / "tuned.gaf")]
        assert tuned == default

    def test_map_early_exit(self, workspace, capsys, tmp_path):
        """--early-exit-distance reaches the mapper; there is no
        --chaining flag (MinSeed does no chaining)."""
        root, *_ = workspace
        args = [
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(root / "reads.fq"),
            "--output", str(tmp_path / "early.gaf"),
            "--error-rate", "0.02", "--early-exit-distance", "0",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "mapped 3/3" in out
        assert len(read_gaf(tmp_path / "early.gaf")) == 3
        with pytest.raises(SystemExit) as exc:
            main(args + ["--chaining"])
        assert exc.value.code == 2


class TestMapPaired:
    @pytest.fixture(scope="class")
    def paired_workspace(self, tmp_path_factory):
        from repro.sim.pairedend import (
            PairedEndProfile,
            simulate_fragments,
        )

        root = tmp_path_factory.mktemp("cli_paired")
        rng = random.Random(0xCAFE)
        reference = random_reference(10_000, rng)
        write_fasta(root / "ref.fa", [FastaRecord("chr1", reference)])
        profile = PairedEndProfile.illumina(
            read_length=100, error_rate=0.01,
            insert_mean=350.0, insert_std=50.0,
        )
        fragments = simulate_fragments(reference, 8, rng, profile)
        for index, path in ((1, "r1.fq"), (2, "r2.fq")):
            write_fastq(root / path, [
                FastqRecord(getattr(f, f"mate{index}").name,
                            getattr(f, f"mate{index}").sequence,
                            "I" * len(getattr(f,
                                              f"mate{index}").sequence))
                for f in fragments
            ])
        return root, reference, fragments

    def test_map_paired_smoke(self, paired_workspace, capsys):
        from repro.io.sam import validate_sam_pair

        root, _, fragments = paired_workspace
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(root / "r1.fq"),
            "--paired", str(root / "r2.fq"),
            "--output", str(root / "out.sam"),
            "--format", "sam",
            "--insert-mean", "350", "--insert-std", "50",
            "--error-rate", "0.05",
            "--early-exit-distance", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "proper pairs" in out
        assert "mate rescue" in out
        records = read_sam(root / "out.sam")
        assert len(records) == 2 * len(fragments)
        for rec1, rec2 in zip(records[::2], records[1::2]):
            assert rec1.is_paired and rec2.is_paired
            assert rec1.is_first_in_pair and rec2.is_second_in_pair
            validate_sam_pair(rec1, rec2)

    def test_paired_rescue_flag_and_jobs(self, paired_workspace,
                                         capsys):
        root, _, fragments = paired_workspace
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(root / "r1.fq"),
            "--paired", str(root / "r2.fq"),
            "--output", str(root / "out2.sam"),
            "--format", "sam",
            "--no-mate-rescue", "--jobs", "2",
            "--error-rate", "0.05",
            "--early-exit-distance", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert "0 hits / 0 attempts" in out
        assert len(read_sam(root / "out2.sam")) == 2 * len(fragments)


class TestStreamingMap:
    """Any chunk size and gzip input must produce output
    byte-identical to one whole-file batch, across worker counts and
    either value of the ignored ``--align-backend`` flag."""

    @pytest.fixture(scope="class")
    def stream_workspace(self, tmp_path_factory):
        import gzip

        from repro.sim.pairedend import (
            PairedEndProfile,
            simulate_fragments,
        )

        root = tmp_path_factory.mktemp("cli_stream")
        rng = random.Random(0xFEED)
        reference = random_reference(8_000, rng)
        write_fasta(root / "ref.fa", [FastaRecord("chr1", reference)])

        reads = [
            FastqRecord(f"sr{i}",
                        reference[start:start + 200], "I" * 200)
            for i, start in enumerate(range(200, 6_200, 750))
        ]
        write_fastq(root / "reads.fq", reads)
        with gzip.open(root / "reads.fq.gz", "wt",
                       encoding="ascii") as handle:
            write_fastq(handle, reads)

        profile = PairedEndProfile.illumina(
            read_length=100, error_rate=0.0,
            insert_mean=350.0, insert_std=50.0,
        )
        fragments = simulate_fragments(reference, 6, rng, profile)
        for index, name in ((1, "r1.fq"), (2, "r2.fq")):
            mates = [getattr(f, f"mate{index}") for f in fragments]
            records = [FastqRecord(m.name, m.sequence,
                                   "I" * len(m.sequence))
                       for m in mates]
            write_fastq(root / name, records)
            with gzip.open(root / f"{name}.gz", "wt",
                           encoding="ascii") as handle:
                write_fastq(handle, records)
        return root, reads, fragments

    def _map(self, root, out, reads, chunk_size, jobs, extra=()):
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(reads),
            "--output", str(out),
            "--jobs", str(jobs),
            "--chunk-size", chunk_size,
            "--error-rate", "0.02",
            *extra,
        ])
        assert code == 0
        return out.read_bytes()

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_single_end_modes_byte_identical(self, stream_workspace,
                                             capsys, tmp_path,
                                             backend, jobs):
        root, reads, _ = stream_workspace
        for fmt, suffix in (("sam", ".sam"), ("gaf", ".gaf")):
            extra = ("--format", fmt, "--align-backend", backend)
            whole = self._map(root, tmp_path / f"whole{suffix}",
                              root / "reads.fq", "100000",
                              jobs, extra)
            chunked = self._map(root, tmp_path / f"str{suffix}",
                                root / "reads.fq", "3",
                                jobs, extra)
            gz = self._map(root, tmp_path / f"gz{suffix}",
                           root / "reads.fq.gz", "3",
                           jobs, extra)
            assert whole == chunked == gz
            assert len(whole) > 0
        out = capsys.readouterr().out
        assert f"mapped {len(reads)}/{len(reads)}" in out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_paired_modes_byte_identical(self, stream_workspace,
                                         capsys, tmp_path, jobs):
        root, _, fragments = stream_workspace

        def run(out, r2, chunk_size):
            code = main([
                "map", "--reference", str(root / "ref.fa"),
                "--reads", str(root / "r1.fq"),
                "--paired", str(r2),
                "--output", str(out),
                "--jobs", str(jobs),
                "--chunk-size", chunk_size,
                "--error-rate", "0.05",
                "--early-exit-distance", "6",
            ])
            assert code == 0
            return out.read_bytes()

        whole = run(tmp_path / "whole.sam", root / "r2.fq", "100000")
        chunked = run(tmp_path / "str.sam", root / "r2.fq", "2")
        gz = run(tmp_path / "gz.sam", root / "r2.fq.gz", "2")
        assert whole == chunked == gz
        assert len(read_sam(tmp_path / "whole.sam")) == \
            2 * len(fragments)

    @pytest.mark.parametrize("paired", [False, True],
                             ids=["single", "paired"])
    def test_chunk_size_bounds_reads_pulled(self, stream_workspace,
                                            monkeypatch, capsys,
                                            tmp_path, paired):
        """``--chunk-size N`` holds one chunk, not the input: when a
        chunk reaches ``map_batch`` / ``map_pairs``, the source has
        yielded at most N reads past those handed over before it.  A
        route that materialises the whole file fails on the first
        call."""
        import repro.cli as cli
        from repro.api import Mapper

        root, reads, fragments = stream_workspace
        chunk_size = 2 if paired else 3
        source = "iter_mate_pairs" if paired else "iter_reads"
        method = "map_pairs" if paired else "map_batch"
        real_source = getattr(cli, source)
        real_method = getattr(Mapper, method)
        pulled = handed = 0

        def counted(*paths):
            nonlocal pulled
            for item in real_source(*paths):
                pulled += 1
                yield item

        def spy(self, chunk, *args, **kwargs):
            nonlocal handed
            assert pulled - handed <= chunk_size
            handed += len(chunk)
            return real_method(self, chunk, *args, **kwargs)

        monkeypatch.setattr(cli, source, counted)
        monkeypatch.setattr(Mapper, method, spy)
        argv = ["map", "--reference", str(root / "ref.fa"),
                "--output", str(tmp_path / "out.sam"),
                "--format", "sam", "--chunk-size", str(chunk_size)]
        if paired:
            argv += ["--reads", str(root / "r1.fq"),
                     "--paired", str(root / "r2.fq")]
        else:
            argv += ["--reads", str(root / "reads.fq")]
        assert main(argv) == 0
        expected = len(fragments) if paired else len(reads)
        assert pulled == handed == expected > chunk_size

    def test_sort_sam_orders_by_coordinate(self, stream_workspace,
                                           capsys, tmp_path):
        root, reads, _ = stream_workspace
        data = self._map(root, tmp_path / "sorted.sam",
                         root / "reads.fq", "3", 1,
                         ("--format", "sam", "--sort-sam"))
        header = data.decode("ascii").splitlines()[0]
        assert "SO:coordinate" in header
        records = read_sam(tmp_path / "sorted.sam")
        keys = [(r.rname, r.pos) for r in records]
        assert keys == sorted(keys)
        assert len(records) == len(reads)

    def test_qualified_paths_round_trip(self, stream_workspace,
                                        capsys, tmp_path):
        root, reads, _ = stream_workspace
        data = self._map(root, tmp_path / "q.gaf",
                         root / "reads.fq", "3", 1,
                         ("--format", "gaf", "--qualified-paths"))
        assert b">chr1#" in data
        records = read_gaf(tmp_path / "q.gaf")
        assert len(records) == len(reads)
        for record in records:
            assert record.segments
            assert all(s.startswith("chr1#")
                       for s in record.segments)

    def test_stream_flag_validation(self, stream_workspace,
                                    tmp_path):
        root, *_ = stream_workspace
        base = ["map", "--reference", str(root / "ref.fa"),
                "--reads", str(root / "reads.fq"),
                "--output", str(tmp_path / "x.out")]
        with pytest.raises(SystemExit, match="--chunk-size"):
            main([*base, "--chunk-size", "0"])
        with pytest.raises(SystemExit,
                           match="--sort-sam requires SAM"):
            main([*base, "--sort-sam"])
        with pytest.raises(SystemExit, match="--qualified-paths"):
            main([*base, "--format", "sam", "--qualified-paths"])


class TestModel:
    def test_workload_report(self, capsys):
        code = main(["model", "--workload", "pacbio"])
        assert code == 0
        out = capsys.readouterr().out
        assert "35.9 us" in out
        assert "reads/s" in out

    def test_table1(self, capsys):
        code = main(["model", "--table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hop queue" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestIndexArtifact:
    """``repro index build`` / ``inspect`` and ``repro map --index``."""

    def test_build_then_map_matches_in_memory(self, workspace,
                                              capsys):
        root, *_ = workspace
        code = main([
            "index", "build", str(root / "ref.fa"),
            "--vcf", str(root / "vars.vcf"),
            "-o", str(root / "ref.sgidx"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "minimizers" in out
        main([
            "map", "--reference", str(root / "ref.fa"),
            "--vcf", str(root / "vars.vcf"),
            "--reads", str(root / "reads.fq"),
            "--output", str(root / "mem.sam"), "--format", "sam",
        ])
        code = main([
            "map", "--index", str(root / "ref.sgidx"),
            "--reads", str(root / "reads.fq"),
            "--output", str(root / "idx.sam"), "--format", "sam",
        ])
        assert code == 0
        assert (root / "idx.sam").read_bytes() == \
            (root / "mem.sam").read_bytes()

    def test_artifact_autodetected_as_reference(self, workspace,
                                                capsys):
        root, *_ = workspace
        main(["index", "build", str(root / "ref.fa"),
              "--vcf", str(root / "vars.vcf"),
              "-o", str(root / "auto.sgidx")])
        capsys.readouterr()
        code = main([
            "map", "--reference", str(root / "auto.sgidx"),
            "--reads", str(root / "reads.fq"),
            "--output", str(root / "auto.gaf"),
        ])
        assert code == 0
        assert "mapped 3/3" in capsys.readouterr().out

    def test_persistent_pool_matches_fork(self, workspace, capsys):
        """``map --index --jobs 2`` (the engine's standing pool over
        the attached artifact) writes the bytes ``map --reference
        --vcf --jobs 1`` writes."""
        root, *_ = workspace
        main(["index", "build", str(root / "ref.fa"),
              "--vcf", str(root / "vars.vcf"),
              "-o", str(root / "pool.sgidx")])
        for source, jobs, name in (
                (["--index", str(root / "pool.sgidx")], "2", "pool.sam"),
                (["--reference", str(root / "ref.fa"),
                  "--vcf", str(root / "vars.vcf")], "1", "seq.sam")):
            code = main([
                "map", *source,
                "--reads", str(root / "reads.fq"),
                "--output", str(root / name), "--format", "sam",
                "--jobs", jobs,
            ])
            assert code == 0
        assert (root / "pool.sam").read_bytes() == \
            (root / "seq.sam").read_bytes()

    def test_build_from_gfa_and_parallel_jobs(self, workspace,
                                              capsys, tmp_path):
        root, *_ = workspace
        main(["construct", "--reference", str(root / "ref.fa"),
              "--vcf", str(root / "vars.vcf"),
              "--output", str(tmp_path / "graph.gfa")])
        code = main([
            "index", "build", str(tmp_path / "graph.gfa"),
            "-o", str(tmp_path / "graph.sgidx"),
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "map", "--index", str(tmp_path / "graph.sgidx"),
            "--reads", str(root / "reads.fq"),
            "--output", str(tmp_path / "graph.gaf"),
        ])
        assert code == 0
        assert "mapped 3/3" in capsys.readouterr().out

    def test_inspect_reports_three_levels(self, workspace, capsys):
        root, *_ = workspace
        main(["index", "build", str(root / "ref.fa"),
              "-o", str(root / "inspect.sgidx")])
        capsys.readouterr()
        code = main(["index", "inspect", str(root / "inspect.sgidx")])
        assert code == 0
        out = capsys.readouterr().out
        assert "paper Fig. 6" in out
        assert "buckets" in out and "locations" in out
        assert "chr1" in out

    def test_inspect_rejects_corrupt_artifact(self, workspace,
                                              tmp_path):
        bad = tmp_path / "bad.sgidx"
        bad.write_bytes(b"not an artifact at all, far too short")
        with pytest.raises(SystemExit, match="error"):
            main(["index", "inspect", str(bad)])

    def test_map_requires_reference_or_index(self, workspace):
        root, *_ = workspace
        with pytest.raises(SystemExit,
                           match="--reference or --index"):
            main(["map", "--reads", str(root / "reads.fq"),
                  "--output", str(root / "x.gaf")])

    def test_vcf_with_index_rejected(self, workspace):
        root, *_ = workspace
        main(["index", "build", str(root / "ref.fa"),
              "-o", str(root / "novcf.sgidx")])
        with pytest.raises(SystemExit, match="--vcf"):
            main(["map", "--index", str(root / "novcf.sgidx"),
                  "--vcf", str(root / "vars.vcf"),
                  "--reads", str(root / "reads.fq"),
                  "--output", str(root / "x.gaf")])

    def test_persistent_pool_requires_index(self, workspace):
        """``--pool`` is gone: every ``--jobs > 1`` run uses the
        engine's standing pool, so argparse rejects the option."""
        root, *_ = workspace
        with pytest.raises(SystemExit) as excinfo:
            main(["map", "--reference", str(root / "ref.fa"),
                  "--reads", str(root / "reads.fq"),
                  "--output", str(root / "x.gaf"),
                  "--pool", "persistent"])
        assert excinfo.value.code == 2

    def test_k_wider_than_the_index_row_is_a_clean_error(self,
                                                         workspace):
        # Used to die in `index build` with a bare OverflowError and
        # to map silently with a hash no artifact could store.
        root, *_ = workspace
        with pytest.raises(SystemExit, match="k must be <= 32"):
            main(["index", "build", str(root / "ref.fa"), "-k", "33",
                  "-o", str(root / "k33.sgidx")])
        with pytest.raises(SystemExit, match="k must be <= 32"):
            main(["map", "--reference", str(root / "ref.fa"),
                  "--reads", str(root / "reads.fq"), "-k", "33",
                  "--output", str(root / "x.gaf")])

    def test_index_without_subcommand_or_graph_errors(self):
        with pytest.raises(SystemExit):
            main(["index"])


class TestServeClient:
    """``repro serve`` + ``repro client``: the daemon through the CLI.

    The daemon runs in the test's main thread (``serve`` installs
    signal handlers, which only works there); a helper thread plays
    the operator, driving ``repro client`` against the unix socket
    and finally requesting shutdown so ``serve`` returns.
    """

    def test_serve_client_sam_byte_identical(self, workspace,
                                             capsys, tmp_path):
        import signal
        import threading
        import time as time_mod

        root, *_ = workspace
        main(["index", "build", str(root / "ref.fa"),
              "-o", str(tmp_path / "serve.sgidx")])
        main(["map", "--index", str(tmp_path / "serve.sgidx"),
              "--reads", str(root / "reads.fq"),
              "--output", str(tmp_path / "offline.sam"),
              "--format", "sam"])
        socket_path = tmp_path / "svc.sock"
        codes = {}

        def operator():
            for _ in range(200):
                if socket_path.exists():
                    break
                time_mod.sleep(0.05)
            codes["ping"] = main(
                ["client", "ping", "--socket", str(socket_path)])
            codes["map"] = main(
                ["client", "map", "--socket", str(socket_path),
                 "--reads", str(root / "reads.fq"),
                 "--output", str(tmp_path / "served.sam")])
            codes["window1"] = main(
                ["client", "map", "--socket", str(socket_path),
                 "--reads", str(root / "reads.fq"), "--window", "1",
                 "--output", str(tmp_path / "served_window1.sam")])
            codes["stats"] = main(
                ["client", "stats", "--socket", str(socket_path)])
            codes["shutdown"] = main(
                ["client", "shutdown", "--socket",
                 str(socket_path)])

        handlers_before = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
        thread = threading.Thread(target=operator)
        thread.start()
        code = main(["serve", "--index",
                     str(tmp_path / "serve.sgidx"),
                     "--socket", str(socket_path),
                     "--batch-window-ms", "3"])
        thread.join()
        assert code == 0
        # serve must restore the process signal dispositions: its
        # handler leaking into this (embedding) process would also be
        # inherited by every later fork, where it swallows the
        # SIGTERM that Pool.terminate() relies on.
        for signum, handler in handlers_before.items():
            assert signal.getsignal(signum) is handler
        assert codes == {"ping": 0, "map": 0, "window1": 0,
                         "stats": 0, "shutdown": 0}
        offline = (tmp_path / "offline.sam").read_bytes()
        assert (tmp_path / "served.sam").read_bytes() == offline
        assert (tmp_path / "served_window1.sam").read_bytes() \
            == offline
        out = capsys.readouterr().out
        assert "serving" in out and "stopped after" in out

    def test_serve_requires_endpoint(self, workspace, tmp_path):
        root, *_ = workspace
        main(["index", "build", str(root / "ref.fa"),
              "-o", str(tmp_path / "ep.sgidx")])
        with pytest.raises(SystemExit, match="--port or --socket"):
            main(["serve", "--index", str(tmp_path / "ep.sgidx")])
        with pytest.raises(SystemExit, match="exclusive"):
            main(["serve", "--index", str(tmp_path / "ep.sgidx"),
                  "--port", "0", "--socket",
                  str(tmp_path / "x.sock")])

    def test_negative_early_exit_rejected(self, workspace, tmp_path):
        """A negative threshold can never be met; ``map`` and
        ``serve`` share the flag and both refuse it up front."""
        root, *_ = workspace
        with pytest.raises(SystemExit, match="--early-exit-distance"):
            main(["map", "--reference", str(root / "ref.fa"),
                  "--reads", str(root / "reads.fq"),
                  "--output", str(tmp_path / "x.gaf"),
                  "--early-exit-distance", "-1"])
        main(["index", "build", str(root / "ref.fa"),
              "-o", str(tmp_path / "neg.sgidx")])
        with pytest.raises(SystemExit, match="--early-exit-distance"):
            main(["serve", "--index", str(tmp_path / "neg.sgidx"),
                  "--port", "0", "--early-exit-distance", "-1"])

    @pytest.mark.parametrize("flag,value", [
        ("--max-seeds", "0"), ("--max-seeds", "-2"),
        ("--error-rate", "-1"), ("--error-rate", "1")])
    def test_engine_flags_out_of_range_rejected(self, tmp_path, flag,
                                                value):
        """``map`` and ``serve`` refuse them in one ``error:`` line
        before any index is loaded: the missing reference and artifact
        are never opened."""
        message = re.escape({"--max-seeds": "--max-seeds must be >= 1",
                             "--error-rate": "--error-rate must be in "
                                             "[0, 1)"}[flag])
        with pytest.raises(SystemExit, match=f"^error: {message}$"):
            main(["map", "--reference", str(tmp_path / "missing.fa"),
                  "--reads", str(tmp_path / "reads.fq"),
                  "--output", str(tmp_path / "x.gaf"), flag, value])
        with pytest.raises(SystemExit, match=f"^error: {message}$"):
            main(["serve", "--index", str(tmp_path / "missing.sgidx"),
                  "--socket", str(tmp_path / "x.sock"), flag, value])
        assert not (tmp_path / "x.gaf").exists()
        assert not (tmp_path / "x.sock").exists()

    @pytest.mark.parametrize("command,name", [
        ("map-reads", "bad.fa"), ("map-vcf", "bad.vcf"),
        ("index-vcf", "bad.vcf"), ("stats-graph", "bad.gfa")])
    def test_non_ascii_input_rejected(self, workspace, tmp_path, command,
                                      name):
        """A non-ASCII byte in a read, variant or graph file ends in one
        ``error:`` line naming the line (and the file, where the reader
        knows it), not a ``UnicodeDecodeError`` traceback."""
        data = {".fa": b">r1\nACGT\xc3TTT\n",
                ".vcf": b"##fileformat=VCFv4.2\nchr1\t5\t.\tA\tC\xc3\n",
                ".gfa": b"H\tVN:Z:1.0\nS\t1\tAC\xc3GT\n"}
        root, *_ = workspace
        bad = tmp_path / name
        bad.write_bytes(data[bad.suffix])
        ref = str(root / "ref.fa")
        out = str(tmp_path / "out")
        argv = {
            "map-reads": ["map", "--reference", ref, "--reads", str(bad),
                          "--output", out],
            "map-vcf": ["map", "--reference", ref, "--vcf", str(bad),
                        "--reads", str(root / "reads.fq"),
                        "--output", out],
            "index-vcf": ["index", "build", ref, "--vcf", str(bad),
                          "-o", out],
            "stats-graph": ["stats", "--graph", str(bad)],
        }[command]
        where = re.escape(str(bad))
        with pytest.raises(SystemExit, match=f"^error: {where}: line 2: "
                                             "non-ASCII character$"):
            main(argv)

    @pytest.mark.parametrize("command,flag,value,message", [
        ("index", "--bucket-bits", "0", "bucket_bits must be in [1, 32], "
                                        "got 0"),
        ("map", "--bucket-bits", "0", "bucket_bits must be in [1, 32], "
                                      "got 0"),
        ("map", "--bucket-bits", "40", "bucket_bits must be in [1, 32], "
                                       "got 40"),
        ("map", "--bucket-bits", "70", "bucket_bits must be in [1, 32], "
                                       "got 70"),
        ("paired", "--insert-mean", "0", "--insert-mean must be > 0"),
        ("paired", "--insert-std", "-1", "--insert-std must be >= 0"),
    ], ids=["index-bucket-bits-0", "map-bucket-bits-0",
            "map-bucket-bits-40", "map-bucket-bits-70",
            "insert-mean-0", "insert-std-neg"])
    def test_index_and_pair_flags_out_of_range_rejected(
            self, tmp_path, command, flag, value, message):
        """A bucket width the index cannot hold and an insert-size
        model ``PairedEndConfig`` refuses end in one ``error:`` line
        before any file is opened: the missing reference and reads are
        never read and nothing is written."""
        ref = str(tmp_path / "missing.fa")
        out = tmp_path / "out"
        if command == "index":
            argv = ["index", "build", ref, "-o", str(out)]
        else:
            argv = ["map", "--reference", ref,
                    "--reads", str(tmp_path / "r1.fq"),
                    "--output", str(out)]
            if command == "paired":
                argv += ["--paired", str(tmp_path / "r2.fq")]
        with pytest.raises(SystemExit,
                           match=f"^error: {re.escape(message)}$"):
            main(argv + [flag, value])
        assert not out.exists()

    def test_client_requires_endpoint(self):
        with pytest.raises(SystemExit, match="--port or --socket"):
            main(["client", "ping"])

    def test_client_unreachable_daemon(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["client", "ping", "--socket",
                  str(tmp_path / "nowhere.sock")])

    @pytest.mark.parametrize("flag,value", [
        ("--jobs", "0"), ("--jobs", "-2"), ("--batch-size", "0"),
        ("--max-queue", "0")])
    def test_serve_rejects_non_positive_flags(self, tmp_path, flag,
                                              value):
        """Checked before the artifact is attached: the missing
        ``--index`` is never opened and nothing is served."""
        with pytest.raises(SystemExit,
                           match=f"error: {flag} must be >= 1"):
            main(["serve", "--index", str(tmp_path / "missing.sgidx"),
                  "--socket", str(tmp_path / "x.sock"), flag, value])
        assert not (tmp_path / "x.sock").exists()

    def test_client_rejects_zero_window(self, tmp_path):
        """Checked before connecting: the missing socket is never
        dialled."""
        with pytest.raises(SystemExit,
                           match="error: --window must be >= 1"):
            main(["client", "map", "--socket",
                  str(tmp_path / "nowhere.sock"),
                  "--reads", str(tmp_path / "reads.fa"),
                  "--output", str(tmp_path / "out.sam"),
                  "--window", "0"])
