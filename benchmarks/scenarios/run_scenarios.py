"""Scenario benchmark runner: the cases.json matrix, one CSV row each.

SeGraM's evaluation (PAPER.md Section 8) sweeps read type x error
rate x graph density; this runner reproduces that sweep shape over
the repro pipeline as a *deterministic* case matrix.  Each case in
``cases.json`` names a workload — read type {short-PE, long HiFi/ONT-
like} x error profile x graph density x jobs x input mode {mem,
stream, stream+gzip} — and produces:

* one CSV row (``scenarios.csv``) with deterministic metric columns
  (mapped counts, proper-pair rate, accuracy, align-call counters)
  followed by volatile timing columns (elapsed, reads/s, peak RSS);
* one JSON artifact (``artifacts/<case-id>.json``) holding the same
  split, plus the case parameters.

Determinism contract: every case derives its RNG from
``(defaults.seed, case id)``, so two runs at the same seed produce
identical deterministic columns — and with ``--no-timing`` (which
zeroes the volatile columns) byte-identical CSVs.  The input-mode
axis exercises the :mod:`repro.io.stream` subsystem: ``mem``
materializes the read files, ``stream`` iterates them in
``chunk_size`` batches, ``stream_gzip`` does the same through gzip —
results are identical across the three by the streaming parity
contract.

Usage::

    python benchmarks/scenarios/run_scenarios.py --outdir OUT
    python benchmarks/scenarios/run_scenarios.py --outdir OUT \
        --quick            # the CI subset (cases marked quick)
    python benchmarks/scenarios/run_scenarios.py --outdir OUT \
        --only pe_clean_sparse_py_j1_mem --no-timing

``REPRO_BENCH_QUICK=1`` implies ``--quick`` (the scenario-smoke CI
job sets it).
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

from repro.api import Mapper
from repro.core.mapper import SeGraMConfig
from repro.core.pairing import PairedEndConfig
from repro.core.windows import WindowingConfig
from repro.eval.metrics import (
    evaluate_linear_mappings,
    evaluate_paired_mappings,
)
from repro.io.fasta import (
    FastqRecord,
    read_mate_pairs,
    read_sequences,
    write_fastq,
)
from repro.io.stream import ReadChunker, iter_mate_pairs, iter_reads
from repro.sim.longread import LongReadProfile, simulate_long_reads
from repro.sim.pairedend import PairedEndProfile, simulate_fragments
from repro.sim.reference import random_reference
from repro.sim.variants import VariantProfile, simulate_variants

DEFAULT_CASES = Path(__file__).parent / "cases.json"

#: Columns pinned identical across runs at a fixed seed.
DETERMINISTIC_COLUMNS = (
    "id", "read_type", "error_rate", "density", "jobs",
    "input_mode", "reads", "mapped", "proper_rate", "accuracy",
    "align_calls",
)

#: Timing/memory columns — machine- and run-dependent by nature;
#: ``--no-timing`` zeroes them so full CSVs compare byte-identical.
VOLATILE_COLUMNS = ("elapsed_s", "reads_per_s", "peak_rss_kb")

CSV_COLUMNS = DETERMINISTIC_COLUMNS + VOLATILE_COLUMNS

#: Graph-density axis: variant profiles applied to the reference
#: before graph construction.  ``dense`` is ~4x the GIAB-like
#: default rates — more alt nodes, shorter backbone runs, more hops.
DENSITY_PROFILES = {
    "none": None,
    "sparse": VariantProfile(),
    "dense": VariantProfile(
        snp_rate=0.008,
        insertion_rate=0.0007,
        deletion_rate=0.0007,
        sv_rate=0.00001,
    ),
}


def load_cases(path: Path = DEFAULT_CASES) -> tuple[dict, list[dict]]:
    """``(defaults, cases)`` from a cases.json file."""
    spec = json.loads(Path(path).read_text(encoding="ascii"))
    return spec["defaults"], spec["cases"]


def _case_rng(defaults: dict, case: dict) -> random.Random:
    """The case's private RNG, derived from ``(seed, case id)``.

    A string seed keeps the derivation stable across runs and Python
    versions (``hash()`` is salted per process; this is not).
    """
    return random.Random(f"{defaults['seed']}:{case['id']}")


def _engine_config(case: dict) -> SeGraMConfig:
    """One engine configuration for every case, so rows differ by
    workload, not by tuning."""
    return SeGraMConfig(
        w=10, k=15, bucket_bits=12,
        error_rate=max(0.05, case["error_rate"]),
        windowing=WindowingConfig(window_size=128, overlap=48, k=16),
        max_seeds_per_read=4,
        both_strands=True,
        early_exit_distance=6,
    )


def _quality(sequence: str) -> str:
    return "I" * len(sequence)


def _write_reads(path: Path, reads, gzipped: bool) -> None:
    """Write simulated reads as FASTQ (plain or gzip, mtime pinned
    to 0 so repeated runs produce identical bytes)."""
    records = [FastqRecord(r.name, r.sequence, _quality(r.sequence))
               for r in reads]
    if gzipped:
        with open(path, "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            import io

            text = io.TextIOWrapper(gz, encoding="ascii")
            write_fastq(text, records)
            text.flush()
            text.detach()
    else:
        write_fastq(path, records)


def _chunks(case: dict, defaults: dict, sources):
    """Read batches for a case, honouring its input-mode axis."""
    mode = case["input_mode"]
    chunk_size = defaults["chunk_size"]
    if case["read_type"] == "short_pe":
        r1, r2 = sources
        if mode == "mem":
            pairs = read_mate_pairs(r1, r2)
            return [pairs] if pairs else []
        return ReadChunker(chunk_size).chunks(
            iter_mate_pairs(r1, r2))
    (path,) = sources
    if mode == "mem":
        reads = read_sequences(path)
        return [reads] if reads else []
    return ReadChunker(chunk_size).chunks(iter_reads(path))


def run_case(case: dict, defaults: dict, workdir: Path,
             timing: bool = True) -> dict:
    """Simulate, map, and score one case; returns its CSV row."""
    rng = _case_rng(defaults, case)
    reference = random_reference(defaults["reference_length"], rng)
    profile = DENSITY_PROFILES[case["density"]]
    variants = simulate_variants(reference, rng, profile) \
        if profile is not None else []

    suffix = ".fq.gz" if case["input_mode"] == "stream_gzip" \
        else ".fq"
    gzipped = case["input_mode"] == "stream_gzip"
    paired = case["read_type"] == "short_pe"
    if paired:
        fragments = simulate_fragments(
            reference, case["count"], rng,
            PairedEndProfile.illumina(
                read_length=case["read_length"],
                error_rate=case["error_rate"],
                insert_mean=defaults["insert_mean"],
                insert_std=defaults["insert_std"],
            ),
            name_prefix=case["id"],
        )
        truths = fragments
        r1 = workdir / f"{case['id']}_1{suffix}"
        r2 = workdir / f"{case['id']}_2{suffix}"
        _write_reads(r1, [f.mate1 for f in fragments], gzipped)
        _write_reads(r2, [f.mate2 for f in fragments], gzipped)
        sources = (r1, r2)
    else:
        if case["read_type"] == "long_hifi":
            read_profile = LongReadProfile.pacbio(
                case["error_rate"], read_length=case["read_length"])
        else:
            read_profile = LongReadProfile.nanopore(
                case["error_rate"], read_length=case["read_length"])
        reads = simulate_long_reads(reference, case["count"], rng,
                                    read_profile,
                                    name_prefix=case["id"])
        truths = reads
        path = workdir / f"{case['id']}{suffix}"
        _write_reads(path, reads, gzipped)
        sources = (path,)

    mapper = Mapper(
        reference, variants,
        config=_engine_config(case),
        pair_config=PairedEndConfig(
            insert_mean=defaults["insert_mean"],
            insert_std=defaults["insert_std"],
        ),
        name="chr1",
    )

    records = []
    start = time.perf_counter()
    for chunk in _chunks(case, defaults, sources):
        if paired:
            records.extend(mapper.map_pairs(chunk,
                                            jobs=case["jobs"]))
        else:
            records.extend(mapper.map_batch(chunk,
                                            jobs=case["jobs"]))
    elapsed = time.perf_counter() - start

    if paired:
        read_total = 2 * len(records)
        mapped = sum(rec.mapped for pair in records for rec in pair)
        accuracy = evaluate_paired_mappings(
            [rec1.pair for rec1, _ in records], truths,
            tolerance=defaults["tolerance"])
        proper_rate = round(accuracy.proper_pair_rate, 4)
        score = round(accuracy.mate_accuracy, 4)
    else:
        read_total = len(records)
        mapped = sum(rec.mapped for rec in records)
        accuracy = evaluate_linear_mappings(
            [rec.result for rec in records], truths,
            tolerance=defaults["tolerance"])
        proper_rate = ""
        score = round(accuracy.sensitivity, 4)

    row = {
        "id": case["id"],
        "read_type": case["read_type"],
        "error_rate": case["error_rate"],
        "density": case["density"],
        "jobs": case["jobs"],
        "input_mode": case["input_mode"],
        "reads": read_total,
        "mapped": mapped,
        "proper_rate": proper_rate,
        "accuracy": score,
        "align_calls": mapper.stats.align_calls,
        "elapsed_s": round(elapsed, 4) if timing else 0,
        "reads_per_s": round(read_total / elapsed, 2)
        if timing and elapsed > 0 else 0,
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss if timing else 0,
    }
    return row


def run_cases(cases, defaults: dict, workdir: Path,
              timing: bool = True, log=None) -> list[dict]:
    """Run cases in order, returning their rows."""
    rows = []
    for case in cases:
        row = run_case(case, defaults, workdir, timing=timing)
        rows.append(row)
        if log is not None:
            log(f"  {row['id']}: {row['mapped']}/{row['reads']} "
                f"mapped, accuracy {row['accuracy']}, "
                f"{row['align_calls']} align calls")
    return rows


def write_outputs(rows: list[dict], cases, outdir: Path) -> Path:
    """Write ``scenarios.csv`` + per-case JSON artifacts; returns
    the CSV path."""
    outdir.mkdir(parents=True, exist_ok=True)
    artifact_dir = outdir / "artifacts"
    artifact_dir.mkdir(exist_ok=True)
    csv_path = outdir / "scenarios.csv"
    with open(csv_path, "w", encoding="ascii", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    by_id = {case["id"]: case for case in cases}
    for row in rows:
        artifact = {
            "case": by_id[row["id"]],
            "metrics": {key: row[key]
                        for key in DETERMINISTIC_COLUMNS},
            "timing": {key: row[key] for key in VOLATILE_COLUMNS},
        }
        (artifact_dir / f"{row['id']}.json").write_text(
            json.dumps(artifact, indent=2, sort_keys=True) + "\n",
            encoding="ascii")
    return csv_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the scenario benchmark matrix")
    parser.add_argument("--cases", type=Path, default=DEFAULT_CASES,
                        help="case matrix (default: cases.json "
                             "beside this script)")
    parser.add_argument("--outdir", type=Path, required=True,
                        help="output directory (scenarios.csv + "
                             "artifacts/)")
    parser.add_argument("--quick", action="store_true",
                        help="run only cases marked quick (the CI "
                             "subset); $REPRO_BENCH_QUICK=1 implies "
                             "this")
    parser.add_argument("--only", action="append", default=None,
                        metavar="CASE_ID",
                        help="run only this case (repeatable)")
    parser.add_argument("--no-timing", action="store_true",
                        help="zero the volatile timing columns so "
                             "two runs produce byte-identical CSVs")
    args = parser.parse_args(argv)

    defaults, cases = load_cases(args.cases)
    quick = args.quick or os.environ.get(
        "REPRO_BENCH_QUICK", "") not in ("", "0")
    if quick:
        cases = [case for case in cases if case.get("quick")]
    if args.only:
        unknown = set(args.only) - {case["id"] for case in cases}
        if unknown:
            print(f"error: unknown case id(s): "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        cases = [case for case in cases if case["id"] in args.only]
    if not cases:
        print("error: no cases selected", file=sys.stderr)
        return 2

    print(f"running {len(cases)} scenario case(s)"
          f"{' (quick)' if quick else ''}")
    with tempfile.TemporaryDirectory(prefix="scenarios-") as tmp:
        rows = run_cases(cases, defaults, Path(tmp),
                         timing=not args.no_timing, log=print)
    csv_path = write_outputs(rows, cases, args.outdir)
    print(f"wrote {csv_path} and {len(rows)} artifact(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
