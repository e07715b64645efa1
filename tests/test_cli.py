"""End-to-end tests of the command-line interface.

These are the integration tests of the whole pipeline: FASTA + VCF on
disk -> construct -> GFA -> index/stats, and FASTA + reads -> map ->
GAF/SAM, all through the public CLI.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.graph.gfa import read_gfa
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
        capsys.readouterr()
        code = main(["index", "--graph", str(root / "graph.gfa")])
        assert code == 0
        out = capsys.readouterr().out
        assert "buckets" in out
        assert "minimizers" in out

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
        """--jobs/--bucket-bits/--chaining/--early-exit-distance all
        reach the mapper and results stay identical to the default
        sequential run."""
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

    def test_map_chaining_and_early_exit(self, workspace, capsys,
                                         tmp_path):
        root, *_ = workspace
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(root / "reads.fq"),
            "--output", str(tmp_path / "chained.gaf"),
            "--error-rate", "0.02",
            "--chaining", "--early-exit-distance", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mapped 3/3" in out
        assert len(read_gaf(tmp_path / "chained.gaf")) == 3


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
    """Streamed input (--input-mode stream, gzip, any chunk size)
    must produce byte-identical output to the fully materialized
    path, across worker counts and either value of the ignored
    ``--align-backend`` flag."""

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

    def _map(self, root, out, reads, mode, jobs, extra=()):
        code = main([
            "map", "--reference", str(root / "ref.fa"),
            "--reads", str(reads),
            "--output", str(out),
            "--jobs", str(jobs),
            "--input-mode", mode, "--chunk-size", "3",
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
            mem = self._map(root, tmp_path / f"mem{suffix}",
                            root / "reads.fq", "mem",
                            jobs, extra)
            streamed = self._map(root, tmp_path / f"str{suffix}",
                                 root / "reads.fq", "stream",
                                 jobs, extra)
            gz = self._map(root, tmp_path / f"gz{suffix}",
                           root / "reads.fq.gz", "stream",
                           jobs, extra)
            assert mem == streamed == gz
            assert len(mem) > 0
        out = capsys.readouterr().out
        assert f"mapped {len(reads)}/{len(reads)}" in out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_paired_modes_byte_identical(self, stream_workspace,
                                         capsys, tmp_path, jobs):
        root, _, fragments = stream_workspace

        def run(out, r2, mode):
            code = main([
                "map", "--reference", str(root / "ref.fa"),
                "--reads", str(root / "r1.fq"),
                "--paired", str(r2),
                "--output", str(out),
                "--jobs", str(jobs),
                "--input-mode", mode, "--chunk-size", "2",
                "--error-rate", "0.05",
                "--early-exit-distance", "6",
            ])
            assert code == 0
            return out.read_bytes()

        mem = run(tmp_path / "mem.sam", root / "r2.fq", "mem")
        streamed = run(tmp_path / "str.sam", root / "r2.fq",
                       "stream")
        gz = run(tmp_path / "gz.sam", root / "r2.fq.gz", "stream")
        assert mem == streamed == gz
        assert len(read_sam(tmp_path / "mem.sam")) == \
            2 * len(fragments)

    def test_sort_sam_orders_by_coordinate(self, stream_workspace,
                                           capsys, tmp_path):
        root, reads, _ = stream_workspace
        data = self._map(root, tmp_path / "sorted.sam",
                         root / "reads.fq", "stream", 1,
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
                         root / "reads.fq", "stream", 1,
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
            "-o", str(tmp_path / "graph.sgidx"), "--jobs", "2",
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
            codes["batch"] = main(
                ["client", "map", "--socket", str(socket_path),
                 "--reads", str(root / "reads.fq"), "--batch",
                 "--output", str(tmp_path / "served_batch.sam")])
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
        assert codes == {"ping": 0, "map": 0, "batch": 0,
                         "stats": 0, "shutdown": 0}
        offline = (tmp_path / "offline.sam").read_bytes()
        assert (tmp_path / "served.sam").read_bytes() == offline
        assert (tmp_path / "served_batch.sam").read_bytes() == offline
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

    def test_client_requires_endpoint(self):
        with pytest.raises(SystemExit, match="--port or --socket"):
            main(["client", "ping"])

    def test_client_unreachable_daemon(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["client", "ping", "--socket",
                  str(tmp_path / "nowhere.sock")])
