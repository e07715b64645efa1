"""Pipeline batch engine — reads/s for jobs ∈ {1, 2, 4}.

Not a paper figure: this benchmark characterizes the software staged
pipeline itself (``SeGraM.map_batch``), the throughput lever the
hardware pipeline motivates.  A simulated long-read workload with
duplicate reads (sequencing libraries routinely contain duplicates)
is mapped with jobs ∈ {1, 2, 4}, and each configuration reports a
JSON-friendly row in the shared bench row convention (dicts rendered
via ``format_table``; pytest-benchmark adds the timing entry).

Acceptance check: every configuration maps every read, to the same
records as ``jobs=1``.

Quick mode: set ``REPRO_BENCH_QUICK=1`` (the CI bench-smoke job does)
to shrink the workload; the acceptance assertions still hold.
"""

from __future__ import annotations

import os
import random
import time

from repro.core.mapper import SeGraM, SeGraMConfig
from repro.core.windows import WindowingConfig
from repro.sim.errors import ErrorModel, apply_errors
from repro.sim.reference import random_reference

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _build_workload(read_count: int | None = None,
                    read_length: int = 1_200,
                    duplicates: int = 2):
    """A long-read batch over a small genome, with duplicate reads."""
    if read_count is None:
        read_count = 8 if QUICK else 18
    rng = random.Random(1234)
    reference = random_reference(30_000 if QUICK else 60_000, rng)
    uniques = []
    for i in range(read_count):
        start = rng.randrange(0, len(reference) - read_length - 1)
        sequence, _ = apply_errors(
            reference[start:start + read_length],
            ErrorModel.pacbio(0.05), rng,
        )
        uniques.append((f"read{i}", sequence))
    reads = []
    for name, sequence in uniques:
        reads.append((name, sequence))
        for dup in range(duplicates):
            reads.append((f"{name}.dup{dup}", sequence))
    rng.shuffle(reads)
    return reference, reads


def _mapper(reference: str) -> SeGraM:
    config = SeGraMConfig(
        w=10, k=15, bucket_bits=13, error_rate=0.05,
        windowing=WindowingConfig(window_size=128, overlap=48, k=32),
        max_seeds_per_read=4,
    )
    return SeGraM.from_reference(reference, config=config,
                                 max_node_length=4_000)


def pipeline_batch_rows():
    reference, reads = _build_workload()
    rows = []
    baseline = None
    for jobs in (1, 2, 4):
        mapper = _mapper(reference)
        start = time.perf_counter()
        results = mapper.map_batch(reads, jobs=jobs)
        elapsed = time.perf_counter() - start
        rps = len(reads) / elapsed
        if baseline is None:
            baseline = (rps, results)
        rows.append({
            "config": f"jobs={jobs}",
            "jobs": jobs,
            "reads": len(reads),
            "mapped": sum(1 for r in results if r.mapped),
            "same_as_jobs_1": results == baseline[1],
            "stage_seconds": round(sum(
                stage.seconds
                for stage in mapper.pipeline.stats.stages.values()), 3),
            "reads_per_s": round(rps, 2),
            "speedup_vs_jobs_1": round(rps / baseline[0], 2),
        })
    return rows


def test_pipeline_batch_throughput(benchmark, show):
    rows = benchmark.pedantic(pipeline_batch_rows, rounds=1,
                              iterations=1)
    show(rows, "pipeline batch engine — jobs")

    # Everything maps, to the same records, at every jobs count.
    assert all(row["mapped"] == row["reads"] for row in rows)
    assert all(row["same_as_jobs_1"] for row in rows)
