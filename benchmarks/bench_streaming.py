"""Streaming input — bounded peak RSS and byte-identical output.

The ISSUE acceptance criterion for the streaming subsystem
(:mod:`repro.io.stream`): ``repro map`` on a **gzip FASTQ** in
default ``--chunk-size`` batches ("stream") must emit SAM
byte-identical to one whole-file batch ("mem", a ``--chunk-size`` of
the file's read count) while peak RSS stays bounded by the chunk
size, not the input size.

Measurement: each mode runs in a **subprocess** that reports its own
``ru_maxrss`` high-water twice — after imports + mapper construction
inputs are loaded (the shared baseline) and after mapping — so the
"extra" RSS attributable to read handling is isolated from
interpreter/numpy footprint.  The workload pads a handful of
mappable reads with a large majority of cheap unmappable junk reads:
input *bytes* grow without mapping cost, which is exactly the load
profile that separates a materializing reader from a streaming one.

Asserted:

* the two SAM outputs are byte-identical (mem vs stream, both from
  the same gzip FASTQ);
* the streaming run's extra RSS stays under an absolute ceiling
  (``STREAM_RSS_CEILING_KB``) regardless of input size;
* in full mode (larger input), the streaming run's extra RSS is
  also strictly below the materializing run's.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the input; the ceiling
and parity assertions still hold.
"""

from __future__ import annotations

import gzip
import os
import random
import subprocess
import sys
from pathlib import Path

from repro.sim.reference import random_reference
from repro.sim.shortread import ShortReadProfile, simulate_short_reads

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Absolute ceiling on the streaming run's mapping-phase RSS growth.
#: The chunk (512 reads x ~150 bp), one batch of results, and writer
#: buffers fit in a few MB; 48 MB leaves generous allocator slack
#: while still catching any return to whole-file materialization.
STREAM_RSS_CEILING_KB = 48 * 1024

JUNK_READS = 4_000 if QUICK else 16_000
REAL_READS = 40
READ_LENGTH = 150

#: Child driver: import everything heavy, snapshot RSS, map, report.
_DRIVER = """\
import resource, sys
import repro.cli
try:
    import numpy  # noqa: F401  (heaviest import, shared baseline)
except ImportError:
    pass
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
rc = repro.cli.main(sys.argv[1:])
final = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sys.stderr.write(f"RSSBASE={base} RSSFINAL={final}\\n")
sys.exit(rc)
"""


def _make_inputs(workdir: Path) -> tuple[Path, Path]:
    """A small reference plus a gzip FASTQ dominated by junk reads."""
    rng = random.Random(0x57E3)
    reference = random_reference(4_000, rng)
    ref_path = workdir / "ref.fa"
    with open(ref_path, "w", encoding="ascii") as handle:
        handle.write(">chr1\n")
        for start in range(0, len(reference), 70):
            handle.write(reference[start:start + 70] + "\n")
    real = simulate_short_reads(
        reference, REAL_READS, rng,
        ShortReadProfile.illumina(READ_LENGTH, 0.01),
        name_prefix="real")
    reads_path = workdir / "reads.fq.gz"
    quality = "I" * READ_LENGTH
    with open(reads_path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        for read in real:
            gz.write(f"@{read.name}\n{read.sequence}\n+\n"
                     f"{'I' * len(read.sequence)}\n".encode("ascii"))
        for index in range(JUNK_READS):
            junk = "".join(rng.choice("ACGT")
                           for _ in range(READ_LENGTH))
            gz.write(f"@junk_{index}\n{junk}\n+\n"
                     f"{quality}\n".encode("ascii"))
    return ref_path, reads_path


def _run_map(mode: str, ref: Path, reads: Path,
             output: Path) -> tuple[int, int]:
    """Run ``repro map`` in a subprocess; returns (base, final)
    ``ru_maxrss`` in KiB.  ``mem`` maps the whole file as one batch,
    ``stream`` in the default chunk size."""
    chunking = (["--chunk-size", str(REAL_READS + JUNK_READS)]
                if mode == "mem" else [])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER,
         "map", "--reference", str(ref), "--reads", str(reads),
         "--output", str(output), "--format", "sam", *chunking],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    marker = [line for line in proc.stderr.splitlines()
              if line.startswith("RSSBASE=")]
    assert marker, proc.stderr
    base_text, final_text = marker[-1].split()
    return (int(base_text.split("=")[1]),
            int(final_text.split("=")[1]))


def streaming_rows(workdir: Path):
    ref, reads = _make_inputs(workdir)
    rows = []
    outputs = {}
    for mode in ("mem", "stream"):
        output = workdir / f"{mode}.sam"
        base, final = _run_map(mode, ref, reads, output)
        outputs[mode] = output.read_bytes()
        rows.append({
            "mode": mode,
            "reads": REAL_READS + JUNK_READS,
            "input_kb": reads.stat().st_size // 1024,
            "rss_base_kb": base,
            "rss_final_kb": final,
            "rss_extra_kb": final - base,
            "sam_bytes": len(outputs[mode]),
        })
    assert outputs["mem"] == outputs["stream"], \
        "streamed SAM differs from in-memory SAM"
    return rows


def test_streaming_rss_and_parity(benchmark, show, tmp_path):
    rows = benchmark.pedantic(streaming_rows, args=(tmp_path,),
                              rounds=1, iterations=1)
    show(rows, "streaming map — gzip FASTQ, mem vs stream")

    by_mode = {row["mode"]: row for row in rows}
    stream_extra = by_mode["stream"]["rss_extra_kb"]
    # The acceptance ceiling: streaming's mapping-phase growth is
    # bounded by the chunk, not the input.
    assert stream_extra <= STREAM_RSS_CEILING_KB, \
        f"streaming extra RSS {stream_extra} KiB over ceiling"
    if not QUICK:
        # On the large input, materializing demonstrably costs more.
        assert stream_extra < by_mode["mem"]["rss_extra_kb"], rows
