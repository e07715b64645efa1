"""Serving throughput — per-request dispatch vs coalesced batches.

Not a paper figure: this benchmark sizes the mapping service's
micro-batching, the software analogue of the paper's
fixed-cost-amortization argument (SeGraM keeps its index and
alignment units resident and streams reads through them; the daemon
keeps the mmap-attached artifact and worker pool resident and
coalesces request arrivals into batched engine calls).

Three serving paths over the same artifact-backed mapper:

* ``per-request`` — every read dispatched alone, the way a naive
  request handler would call ``map()`` per arrival;
* ``coalesced`` — the micro-batcher's path: one ``map_batch(...)``
  over the whole batch (one drive; since the diagonal kernel serves
  every window there is no kernel dispatch left to share, so
  in-process this saves per-call fixed cost only);
* ``coalesced + pool`` — the same, sharded across a standing
  :class:`~repro.core.pipeline.PersistentPool` of
  ``min(4, cpu_count)`` artifact-attached workers (what
  ``repro serve --jobs`` runs).

Acceptance checks — what a batch buys: it returns exactly the
per-request results; coalescing in-process is not slower than
per-request dispatch (the ratio is ~1.0x by construction, see
above); and on >= 2 cores the pooled path is not slower than the
in-process batch.  No multiple is gated: the only remaining source of
one is the pool's cores, which a shared 2-core runner cannot show.

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

#: The backend the daemon and the perf spine run (results are
#: identical on either backend).
CONFIG = SeGraMConfig(w=10, k=15, bucket_bits=13,
                      align_backend="numpy")

BATCH = 32 if QUICK else 64
READ_LENGTH = 100

#: "Not slower" on a shared runner: timings of equal work drift
#: 10–15 % between minutes on a 2-core box (the perf spine bounds its
#: time metrics at 0.25 for the same reason).
TIMING_SLACK = 1.25


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
        "coalesced_vs_per_request": per_request_s / coalesced_s,
        "pool_vs_in_process": None if pool_s is None
        else coalesced_s / pool_s,
    }
    return rows, meta


def test_service_batching_throughput(benchmark, show, tmp_path):
    rows, meta = benchmark.pedantic(
        lambda: service_rows(tmp_path), rounds=1, iterations=1)
    show(rows, "service micro-batching — per-request vs coalesced "
               f"(batch={meta['batch']}, cores={meta['cores']})")

    assert meta["batch"] >= 16
    floor = 1.0 / TIMING_SLACK
    assert meta["coalesced_vs_per_request"] >= floor, (
        f"coalesced batch {meta['coalesced_vs_per_request']:.2f}x "
        "per-request dispatch: coalescing must not cost throughput"
    )
    if meta["pool_vs_in_process"] is not None:
        assert meta["pool_vs_in_process"] >= floor, (
            f"pooled batch {meta['pool_vs_in_process']:.2f}x the "
            f"in-process batch on {meta['cores']} cores"
        )
