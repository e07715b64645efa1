"""Serving throughput — per-request dispatch vs coalesced batches.

Not a paper figure: this benchmark proves the mapping service's
micro-batching claim, the software analogue of the paper's
fixed-cost-amortization argument (SeGraM keeps its index and
alignment units resident and streams reads through them; the daemon
keeps the mmap-attached artifact and worker pool resident and
coalesces request arrivals into shared kernel dispatches).

Three serving paths over the same artifact-backed mapper:

* ``per-request`` — every read dispatched alone, the way a naive
  request handler would call ``map()`` per arrival (one kernel
  dispatch per window per read);
* ``coalesced`` — the micro-batcher's path: one ``map_batch(...)``
  over the whole batch, the windows of each group of reads in
  shared kernel dispatches;
* ``coalesced + pool`` — the same, sharded across a standing
  :class:`~repro.core.pipeline.PersistentPool` of
  ``min(4, cpu_count)`` artifact-attached workers (what
  ``repro serve --jobs`` runs).

Acceptance check: at batch size >= 16 the best batched path must beat
per-request dispatch by >= 3x when >= 4 cores are available (CI
runners, production hosts).  On fewer cores the pool cannot
contribute, so the bar drops to the cross-read batching share alone
(>= 1.3x) — the 3x claim is a multi-core serving claim, and the gate
records which bar applied in the meta row.

Quick mode: set ``REPRO_BENCH_QUICK=1`` (the CI bench-smoke job does)
to shrink the reference and batch; the acceptance assertions still
hold.
"""

from __future__ import annotations

import os
import random
import time

from repro.api import Mapper
from repro.core.mapper import SeGraMConfig
from repro.sim.shortread import ShortReadProfile, simulate_short_reads

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The numpy backend carries the batched multi-window kernel that
#: cross-read coalescing feeds; the python backend would serialize
#: every window anyway (results are identical either way).
CONFIG = SeGraMConfig(w=10, k=15, bucket_bits=13,
                      align_backend="numpy")

BATCH = 32 if QUICK else 64
READ_LENGTH = 100


def _workload(tmp_path):
    rng = random.Random(2024)
    length = 30_000 if QUICK else 100_000
    reference = "".join(rng.choice("ACGT") for _ in range(length))
    path = tmp_path / "service_bench.sgidx"
    Mapper(reference, config=CONFIG, name="chr1").save_index(path)
    sim = simulate_short_reads(
        reference, BATCH, random.Random(77),
        ShortReadProfile.illumina(READ_LENGTH, 0.01))
    return path, [(r.name, r.sequence) for r in sim]


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def service_rows(tmp_path):
    path, reads = _workload(tmp_path)
    repeats = 2 if QUICK else 3

    per_request = Mapper.from_artifact(path, config=CONFIG)
    per_request_s = _best_of(repeats, lambda: [
        per_request.map(sequence, name) for name, sequence in reads])

    coalesced = Mapper.from_artifact(path, config=CONFIG)
    coalesced_s = _best_of(repeats,
                           lambda: coalesced.map_batch(reads))

    cores = os.cpu_count() or 1
    jobs = min(4, cores)
    pool_s = None
    if jobs > 1:
        pooled = Mapper.from_artifact(path, config=CONFIG)
        with pooled.pool(jobs) as pool:
            pool_s = _best_of(repeats, lambda: pooled.map_batch(
                reads, jobs=jobs, pool=pool))

    # Parity spot-check: a batch returns the per-request results.
    assert coalesced.map_batch(reads) == [
        per_request.map(sequence, name) for name, sequence in reads]

    best_batched_s = min(coalesced_s,
                         pool_s if pool_s is not None else coalesced_s)
    speedup = per_request_s / best_batched_s
    multicore = cores >= 4
    required = 3.0 if multicore else 1.3

    def row(name, seconds):
        return {"path": name, "seconds": round(seconds, 4),
                "reads_per_s": round(len(reads) / seconds, 1),
                "speedup": round(per_request_s / seconds, 2)}

    rows = [row("per-request dispatch", per_request_s),
            row("coalesced batch (in-process)", coalesced_s)]
    if pool_s is not None:
        rows.append(row(f"coalesced + pool (jobs={jobs})", pool_s))
    meta = {
        "batch": len(reads),
        "cores": cores,
        "speedup": speedup,
        "required": required,
        "gate": "3x multi-core" if multicore
        else "1.3x single-core (cross-read batching only)",
    }
    return rows, meta


def test_service_batching_throughput(benchmark, show, tmp_path):
    rows, meta = benchmark.pedantic(
        lambda: service_rows(tmp_path), rounds=1, iterations=1)
    show(rows, "service micro-batching — per-request vs coalesced "
               f"(batch={meta['batch']}, cores={meta['cores']}, "
               f"gate={meta['gate']})")

    assert meta["batch"] >= 16
    assert meta["speedup"] >= meta["required"], (
        f"coalesced serving only {meta['speedup']:.2f}x over "
        f"per-request dispatch (need >= {meta['required']}x with "
        f"{meta['cores']} cores)"
    )
