"""Perf spine: one benchmark for the four mapping shapes.

Two ways to run it, both from the repository root::

    # one workload, one measurement (the form BENCHMARK.json names)
    python3 benchmarks/perf/run.py --workload short-graph --seed 1 \\
        --seconds 15 --trace 0
    # the whole suite: every workload untraced (--repeat times) and
    # traced once, merged into one result file for compare.py
    python3 benchmarks/perf/run.py --seed 1 --out BENCH.json

A run generates its inputs from the seed, sets the index up (timed,
several times), maps for ``--seconds`` in a child process (``--trace
0``: until the deadline, tracing off — the end-to-end numbers) or
maps a fixed segment with and without timing shims (``--trace 1`` —
the per-layer numbers), checks every output record, prints each
metric by name with its unit, and ends with one JSON line.

The metric names and units are read from ``BENCHMARK.json``; the
workloads, engine configuration and accuracy floors are fixed in
``workloads.py``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

SETUP_REPEATS = 3
SUITE_SECONDS = 20
SMOKE_SECONDS = 1.5
#: The named align sub-phases must explain at least this share of
#: the align span, or the shims lost track of where the work went.
MIN_ATTRIBUTED = 0.5
SERVE_SAMPLE = 100
CHILD_TIMEOUT_S = 170

#: Per-layer counts and count ratios that repeat exactly at a fixed
#: seed and ``--seconds`` on the offline workloads (the traced
#: segment is a fixed amount of work).  ``serve-short`` interleaves
#: two connections, so its cache traffic does not repeat.
EXACT = frozenset({
    "io.parse_reads", "io.write_bytes", "index.artifact_mb",
    "seed.regions_per_read", "filter.keep_ratio",
    "extract.cache_hit_rate", "align.regions", "align.windows",
    "align.windows_per_read", "align.rescues", "align.calls",
    "align.batched_frac", "align.useful_ratio", "align.slice_calls",
    "align.mask_calls", "align.sweep_batched_calls",
    "align.sweep_scalar_calls", "align.traceback_calls",
    "align.windows_scalar_frac", "pair.rescue_attempts",
    "pair.rescue_hits", "pair.align_calls", "pair.proper_rate",
    "pair.cache_hit_rate", "pair.regions_per_pair", "pool.jobs",
    "trace.reads",
})


class HarnessError(RuntimeError):
    """The benchmark could not produce a measurement."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="ascii"))


def percentile(samples: list[float], rank: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(rank / 100.0 * len(ordered)))
    return ordered[index]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Set-up: reference files on disk -> attached, ready mapper
# ----------------------------------------------------------------------

def run_setup(workload, inputs, workdir: Path, repeats: int):
    """Build, save and attach the index ``repeats`` times.

    ``Mapper.from_fasta`` is the CLI path (4 096-base nodes; a bare
    ``Mapper(...)`` would make the 1 Mb contig one node).  For the
    served workload set-up also covers daemon start to the first
    ``ping``; the last daemon is left running and returned.

    Returns ``(mapper, daemon, values)``: the attached in-process
    mapper (the harness validates outputs against its graph), the
    running daemon or None, and the median of each phase.
    """
    from repro.api import Mapper
    from serve import Daemon
    from workloads import engine_config, pair_config

    artifact = workdir / "ref.sgidx"
    socket_path = os.path.relpath(workdir / "d.sock")
    rows = []
    mapper = daemon = None
    for repeat in range(repeats):
        t0 = time.perf_counter()
        built = Mapper.from_fasta(inputs.reference, inputs.vcf,
                                  config=engine_config())
        t1 = time.perf_counter()
        built.save_index(artifact)
        t2 = time.perf_counter()
        mapper = Mapper.from_artifact(artifact, config=engine_config(),
                                      pair_config=pair_config())
        t3 = time.perf_counter()
        if workload.kind == "serve":
            daemon = Daemon(artifact, socket_path, SRC,
                            workdir / f"daemon.{repeat}.log")
            daemon.start()
            if repeat < repeats - 1:
                daemon.stop()
        rows.append((t1 - t0, t2 - t1, t3 - t2,
                     time.perf_counter() - t0))
        del built
    build, save, attach, total = (statistics.median(column)
                                  for column in zip(*rows))
    values = {
        "setup_s": total,
        "index.build_s": build,
        "index.save_s": save,
        "index.attach_s": attach,
        "index.artifact_mb": artifact.stat().st_size / 1e6,
    }
    return mapper, daemon, values


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

class Tally:
    """Attempted / failed / correctly-placed reads of one run."""

    def __init__(self, truth: dict[str, int]) -> None:
        self._truth = truth
        self.attempted = 0
        self.placed = 0
        self.failed: dict[str, str] = {}
        self.problems: list[str] = []

    def fail(self, name: str, why: str) -> None:
        if name not in self.failed:
            self.failed[name] = why
            if len(self.problems) < 10:
                self.problems.append(f"{name}: {why}")

    def problem(self, why: str) -> None:
        self.problems.append(why)

    def score(self, name: str, mapped: bool, contig, position) -> None:
        from workloads import CONTIG, TOLERANCE

        if mapped and contig == CONTIG and position is not None \
                and abs(position - self._truth[name]) <= TOLERANCE:
            self.placed += 1

    @property
    def accuracy(self) -> float:
        return self.placed / self.attempted if self.attempted else 0.0


def check_offline(workload, names: list[str], mapper, report: dict,
                  tally: Tally) -> None:
    """Check one worker pass: every read it was handed has a valid
    record in the output file, and score the placements."""
    from repro.io.gaf import GafFormatError, read_gaf, \
        validate_gaf_record
    from repro.io.sam import SamFormatError, read_sam, \
        validate_sam_pair

    rows = report["records"]
    expected = names[:len(rows)]
    tally.attempted += len(expected)
    if [row[0] for row in rows] != expected:
        tally.problem("record names do not follow the input order")
        for name in expected:
            tally.fail(name, "missing or misnamed record")
        return
    for name, mapped, contig, position, _strand in rows:
        tally.score(name, mapped, contig, position)
    output = Path(report["output"])
    if workload.paired:
        try:
            records = read_sam(output)
        except (SamFormatError, ValueError) as exc:
            records = []
            tally.problem(f"unreadable SAM: {exc}")
        by_name = {record.qname: record for record in records}
        for name1, name2 in zip(expected[0::2], expected[1::2]):
            try:
                if name1 not in by_name or name2 not in by_name:
                    raise SamFormatError("mate without SAM record")
                validate_sam_pair(by_name[name1], by_name[name2])
            except (SamFormatError, ValueError) as exc:
                tally.fail(name1, str(exc))
                tally.fail(name2, str(exc))
    else:
        try:
            records = read_gaf(output)
        except (GafFormatError, ValueError) as exc:
            records = []
            tally.problem(f"unreadable GAF: {exc}")
        by_name = {record.query_name: record for record in records}
        for name, mapped, *_ in rows:
            record = by_name.get(name)
            if record is None:
                # Unmapped reads have no GAF line.
                if mapped:
                    tally.fail(name, "mapped read without GAF record")
                continue
            try:
                validate_gaf_record(record, mapper.graph)
            except (GafFormatError, ValueError) as exc:
                tally.fail(name, str(exc))


def check_served(reads: dict[str, str], mapper, load: dict,
                 tally: Tally) -> str:
    """Check every response of the load loop, score the placements,
    and compare a sample of SAM payloads with the offline path.
    Returns the digest of the served SAM lines in input order."""
    from repro.io.sam import (
        SamFormatError,
        SamRecord,
        result_to_sam,
        sam_record_line,
        validate_sam_record,
    )

    served: dict[str, str] = {}
    for name, _sent, _received, response in load["responses"]:
        tally.attempted += 1
        try:
            if not response.get("ok"):
                raise ValueError(
                    f"error response: {response.get('error')}")
            payload = response["result"]["reads"][0]
            record = payload["record"]
            if record["read_name"] != name:
                raise ValueError(
                    f"answer names {record['read_name']!r}")
            sam = SamRecord(**payload["sam"])
            validate_sam_record(sam)
            served[name] = sam_record_line(sam)
            tally.score(name, record["mapped"], record["contig"],
                        record["position"])
        except (KeyError, IndexError, TypeError, ValueError,
                SamFormatError) as exc:
            tally.fail(name, f"{type(exc).__name__}: {exc}")
    for index in range(load["sent"] - len(load["responses"])):
        tally.attempted += 1
        tally.fail(f"unanswered-{index}", "request never answered")
    for error in load["errors"]:
        tally.problem(f"connection failed: {error}")
    sample = [(name, sequence) for name, sequence in reads.items()
              if name in served][:SERVE_SAMPLE]
    for (name, sequence), record in zip(
            sample, mapper.map_batch(sample)):
        offline = sam_record_line(result_to_sam(
            record.result, sequence, record.contig))
        if offline != served[name]:
            tally.fail(name, "served SAM differs from offline SAM")
    return hashlib.sha256("\n".join(
        served[name] for name in reads if name in served
    ).encode("ascii")).hexdigest()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def stage_values(stats: dict, reads: int) -> dict:
    """Per-layer values read from a ``PipelineStats`` dict (from
    ``Mapper.stats`` or the daemon's ``stats`` op)."""
    stages = stats["stages"]
    windows = stats["windows"]
    regions = stats["regions_aligned"]
    lookups = stats["cache_hits"] + stats["cache_misses"]
    filtered = stages["filter"]
    return {
        "seed.busy_s": stages["seed"]["seconds"],
        "seed.regions_per_read": stats["regions_seeded"] / reads,
        "filter.busy_s": filtered["seconds"],
        "filter.keep_ratio": (filtered["items_out"]
                              / filtered["items_in"]
                              if filtered["items_in"] else 0.0),
        "extract.busy_s": stages["extract"]["seconds"],
        "extract.cache_hit_rate": (stats["cache_hits"] / lookups
                                   if lookups else 0.0),
        "align.busy_s": stages["align"]["seconds"],
        "align.regions": regions,
        "align.windows": windows,
        "align.windows_per_read": windows / reads,
        "align.rescues": stats["rescues"],
        "align.calls": stats["align_calls"],
        "align.batched_frac": (stats["align_windows_batched"]
                               / windows if windows else 0.0),
        "align.useful_ratio": (stats["reads_mapped"] / regions
                               if regions else 0.0),
        "select.busy_s": stages["select"]["seconds"],
    }


def busy_s(stats: dict) -> float:
    return sum(stage["seconds"] for stage in stats["stages"].values())


def span_values(traced: dict, tally: Tally) -> dict:
    """Align sub-phase values from the traced pass's spans, with the
    integrity checks that keep them honest."""
    from shims import ROOT as ROOT_SPAN, SUB_PHASES

    spans = traced["spans"]
    root = spans[ROOT_SPAN]
    values = {}
    attributed = 0.0
    for name in SUB_PHASES:
        values[f"align.{name}_s"] = spans[name]["self_s"]
        values[f"align.{name}_calls"] = spans[name]["calls"]
        attributed += spans[name]["self_s"]
    values["align.other_s"] = root["self_s"]
    windows = traced["stats"]["windows"]
    values["align.windows_scalar_frac"] = (
        spans["sweep_scalar"]["calls"] / windows if windows else 0.0)
    stage_s = traced["stats"]["stages"]["align"]["seconds"]
    if attributed > stage_s * 1.01:
        tally.problem(
            f"align sub-phases sum to {attributed:.3f} s, more than "
            f"the align stage's own {stage_s:.3f} s")
    if root["calls"] == 0 or attributed < MIN_ATTRIBUTED * root["total_s"]:
        tally.problem(
            f"shims attribute {attributed:.3f} s of "
            f"{root['total_s']:.3f} s align time to named sub-phases "
            f"(< {MIN_ATTRIBUTED:.0%}): a shimmed callable is no "
            f"longer on the align path")
    return values


def pair_values(base: dict) -> dict:
    pairs = base["pair_stats"]
    stats = base["stats"]
    lookups = stats["pair_cache_hits"] + stats["pair_cache_misses"]
    count = pairs["pairs"]
    return {
        "pair.rescue_attempts": pairs["rescue_attempts"],
        "pair.rescue_hits": pairs["rescue_hits"],
        "pair.align_calls": pairs["align_calls"],
        "pair.proper_rate": (pairs["pairs_proper"] / count
                             if count else 0.0),
        "pair.cache_hit_rate": (stats["pair_cache_hits"] / lookups
                                if lookups else 0.0),
        "pair.regions_per_pair": (stats["regions_aligned"] / count
                                  if count else 0.0),
    }


def pool_values(report: dict) -> dict:
    """Sharding-pool values of the pass run at the workload's
    ``jobs`` (at jobs=1 they show the per-read loop's own cost)."""
    jobs = report["jobs"]
    busy = busy_s(report["stats"])
    return {
        "pool.jobs": jobs,
        "pool.child_cpu_s": report["child_cpu_s"],
        "pool.parallel_eff": busy / (jobs * report["map_s"]),
        "pool.overhead_s": report["map_s"] - busy / jobs,
    }


def turnaround_ms(workload, chunks: list) -> list[float]:
    """Per-read turnaround of an offline run: a read waits for its
    whole chunk, parse to record written."""
    per_unit = 2 if workload.paired else 1
    return [seconds * 1e3
            for units, seconds in chunks
            for _ in range(units * per_unit)]


# ----------------------------------------------------------------------
# One workload, one measurement
# ----------------------------------------------------------------------

def run_worker(workload, inputs, artifact: Path, workdir: Path,
               passes: list[dict]) -> dict:
    """Map in a child process (see ``worker.py``); its report."""
    suffix = ".sam" if workload.paired else ".gaf"
    for index, pass_spec in enumerate(passes):
        pass_spec["output"] = str(workdir / f"out.{index}{suffix}")
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC),
        "artifact": str(artifact),
        "reads": [str(path) for path in inputs.reads],
        "paired": workload.paired,
        "chunk": workload.chunk,
        "passes": passes,
    }), encoding="ascii")
    completed = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        timeout=CHILD_TIMEOUT_S, check=False)
    if completed.returncode != 0:
        raise HarnessError(
            f"mapping worker exited with {completed.returncode}")
    report = json.loads((workdir / "report.json").read_text(
        encoding="ascii"))
    for pass_spec, pass_report in zip(passes, report["passes"]):
        pass_report["output"] = pass_spec["output"]
    return report


def measure_offline(workload, inputs, mapper, workdir: Path,
                    seconds: float, trace: bool, tally: Tally) -> dict:
    names = list(inputs.truth)
    artifact = workdir / "ref.sgidx"
    if not trace:
        report = run_worker(workload, inputs, artifact, workdir, [
            {"jobs": workload.jobs, "traced": False,
             "seconds": seconds}])
        timed = report["passes"][0]
        check_offline(workload, names, mapper, timed, tally)
        latencies = turnaround_ms(workload, timed["chunks"])
        return {
            "reads_per_s": tally.attempted / timed["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "latency_p50_ms": percentile(latencies, 50),
            "latency_samples": len(latencies),
        }
    units = workload.segment_units(seconds)
    passes = [{"jobs": 1, "traced": False, "units": units},
              {"jobs": 1, "traced": True, "units": units}]
    if workload.jobs > 1:
        # Shims do not report from forked workers, so the pool is
        # measured in a pass of its own and the split at jobs=1.
        passes.insert(0, {"jobs": workload.jobs, "traced": False,
                          "units": units})
    report = run_worker(workload, inputs, artifact, workdir, passes)
    for pass_report in report["passes"]:
        check_offline(workload, names, mapper, pass_report, tally)
    *_, base, traced = report["passes"]
    pooled = report["passes"][0]
    digests = {_sha256(Path(p["output"])) for p in report["passes"]}
    if len(digests) != 1:
        tally.problem("passes over the same reads wrote different "
                      "output bytes")
    reads = len(base["records"])
    values = {
        "io.parse_s": base["parse_s"],
        "io.parse_reads": reads,
        "io.write_s": base["write_s"],
        "io.write_bytes": base["write_bytes"],
        "trace.overhead_frac": traced["wall_s"] / base["wall_s"] - 1.0,
        "trace.reads": reads,
        "output_sha256": digests.pop(),
        "spans": traced["spans"],
    }
    values.update(stage_values(base["stats"], reads))
    values.update(span_values(traced, tally))
    values.update(pool_values(pooled))
    if workload.paired:
        values.update(pair_values(base))
    return values


def measure_served(workload, inputs, mapper, daemon, seconds: float,
                   trace: bool, tally: Tally) -> dict:
    from repro.io.stream import iter_reads
    from serve import WARMUP_RESPONSES, Connection, \
        ping_latencies_ms, run_load

    reads = dict(iter_reads(inputs.reads[0]))
    pings = ping_latencies_ms(daemon.socket_path)
    if trace:
        # A fixed amount of work, like the offline traced segment.
        count = max(1, round(workload.rate * seconds))
        load = run_load(daemon.socket_path,
                        list(reads.items())[:count], None)
    else:
        load = run_load(daemon.socket_path, list(reads.items()),
                        seconds)
    with Connection(daemon.socket_path) as connection:
        stats = connection.call({"op": "stats"})["result"]
    rss = daemon.peak_rss_mb()
    digest = check_served(reads, mapper, load, tally)
    answered = len(load["responses"])
    latencies = [(received - sent) * 1e3 for _, sent, received, _
                 in load["responses"][WARMUP_RESPONSES:]]
    if not latencies:
        raise HarnessError(
            f"only {answered} responses; none left after warm-up")
    if not trace:
        return {
            "reads_per_s": answered / load["wall_s"],
            "peak_rss_mb": rss,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_samples": len(latencies),
        }
    service = stats["service"]
    engine_busy = busy_s(stats["pipeline"])
    values = {
        "service.batches": service["batches_dispatched"],
        "service.mean_batch": service["mean_batch_size"],
        "service.max_batch": service["max_batch_size"],
        "service.align_calls_per_read":
            stats["pipeline"]["align_calls"] / answered,
        "service.engine_busy_s": engine_busy,
        "service.overhead_frac": 1.0 - engine_busy / load["wall_s"],
        "service.rejected": (service["rejected_overloaded"]
                             + service["rejected_timeout"]
                             + service["rejected_shutdown"]),
        "service.ping_p50_ms": percentile(pings, 50),
        "service.server_p50_ms": service["latency_p50_s"] * 1e3,
        "service.latency_p90_ms": percentile(latencies, 90),
        "service.latency_p99_ms": percentile(latencies, 99),
        "pool.jobs": workload.jobs,
        "trace.reads": answered,
        "output_sha256": digest,
    }
    values.update(stage_values(stats["pipeline"], answered))
    return values


def run_workload(args: argparse.Namespace, benchmark: dict) -> int:
    from workloads import WORKLOADS, generate

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    workdir = HERE / ".work" / (f"{workload.name}-{args.seed}-"
                                f"{args.trace}-{os.getpid()}")
    workdir.mkdir(parents=True)
    daemon = None
    try:
        inputs = generate(workload, args.seed, args.seconds, workdir,
                          smoke=args.smoke)
        tally = Tally(inputs.truth)
        mapper, daemon, values = run_setup(
            workload, inputs, workdir,
            1 if args.smoke else SETUP_REPEATS)
        if workload.kind == "serve":
            values.update(measure_served(
                workload, inputs, mapper, daemon, args.seconds, trace,
                tally))
        else:
            values.update(measure_offline(
                workload, inputs, mapper, workdir, args.seconds,
                trace, tally))
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    values["accuracy"] = tally.accuracy
    if tally.accuracy < workload.accuracy_floor:
        tally.problem(f"accuracy {tally.accuracy:.4f} below the "
                      f"floor {workload.accuracy_floor}")
    correct = not tally.failed and not tally.problems
    group = "per_layer" if trace else "end_to_end"
    # A layer this workload does not exercise (or that cannot be
    # seen from outside, like the daemon's align split) reads 0.
    metrics = {
        spec["name"]: {"value": values.get(spec["name"], 0),
                       "unit": spec["unit"]}
        for spec in benchmark[group]
    }
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    if "latency_samples" in values:
        print(f"{workload.name} latency samples = "
              f"{values['latency_samples']}")
    for problem in tally.problems:
        print(f"{workload.name} PROBLEM {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": len(tally.failed), "metrics": metrics}
    if args.out is not None:
        detail = {
            **result,
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "problems": tally.problems,
            "inputs_sha256": inputs.sha256,
            "exact": sorted(EXACT & set(metrics))
            if trace and workload.kind != "serve" else [],
        }
        for key in ("output_sha256", "spans", "latency_samples"):
            if key in values:
                detail[key] = values[key]
        args.out.write_text(json.dumps(detail, indent=1) + "\n",
                            encoding="ascii")
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The suite: every workload, merged into one result file
# ----------------------------------------------------------------------

def _child(args: argparse.Namespace, workload: str, trace: int,
           out: Path) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--out", str(out)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, check=False,
                               stdout=subprocess.DEVNULL,
                               timeout=CHILD_TIMEOUT_S + 60)
    if not out.exists():
        raise HarnessError(
            f"{workload} --trace {trace} exited with "
            f"{completed.returncode} and no result")
    return json.loads(out.read_text(encoding="ascii"))


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None below
    two values: one run has no spread)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_suite(args: argparse.Namespace, benchmark: dict) -> int:
    scratch = HERE / ".work" / f"suite-{os.getpid()}"
    scratch.mkdir(parents=True)
    workloads = {}
    ok = True
    try:
        for spec in benchmark["workloads"]:
            name = spec["name"]
            timed = [_child(args, name, 0,
                            scratch / f"{name}.{index}.json")
                     for index in range(args.repeat)]
            traced = _child(args, name, 1, scratch / f"{name}.t.json")
            runs = [*timed, traced]
            end_to_end = {}
            for metric in benchmark["end_to_end"]:
                values = [run["metrics"][metric["name"]]["value"]
                          for run in timed]
                end_to_end[metric["name"]] = {
                    "unit": metric["unit"], "values": values,
                    "median": statistics.median(values),
                    "spread": spread(values),
                }
            workloads[name] = {
                "why": spec["why"],
                "correct": all(run["correct"] for run in runs),
                "attempted": [run["attempted"] for run in timed],
                "failed": max(run["failed"] for run in runs),
                "problems": [problem for run in runs
                             for problem in run["problems"]],
                "inputs_sha256": traced["inputs_sha256"],
                "output_sha256": traced.get("output_sha256"),
                "latency_samples": [run.get("latency_samples")
                                    for run in timed],
                "end_to_end": end_to_end,
                "per_layer": {
                    key: {**metric,
                          "exact": key in traced["exact"]}
                    for key, metric in traced["metrics"].items()},
                "trace": traced.get("spans"),
            }
            ok = ok and workloads[name]["correct"]
            for key, metric in end_to_end.items():
                print(f"{name} {key} = {metric['median']:.6g} "
                      f"{metric['unit']} (median of "
                      f"{len(metric['values'])}, spread "
                      f"{metric['spread']})")
            for key, metric in workloads[name]["per_layer"].items():
                print(f"{name} {key} = {metric['value']:.6g} "
                      f"{metric['unit']}"
                      f"{' exact' if metric['exact'] else ''}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    from workloads import engine_config

    result = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(),
                    "nproc": os.cpu_count(),
                    "python": platform.python_version()},
        "engine": repr(engine_config()),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n",
                        encoding="ascii")
    print(f"wrote {args.out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split(
        "\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload (omit for the suite)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics from a fixed "
                             "segment mapped with and without shims")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write a detailed JSON result")
    parser.add_argument("--repeat", type=int, default=None,
                        help="suite only: untraced runs per workload "
                             "(default 3; 1 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny reference, one set-up, short run: "
                             "exercises the harness, measures "
                             "nothing (compare.py refuses it)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else SUITE_SECONDS
    if args.repeat is None:
        args.repeat = 1 if args.smoke else 3
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be > 0 and --repeat >= 1")
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark maps "
              "with the repository's own sources", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    benchmark = load_benchmark()
    names = [spec["name"] for spec in benchmark["workloads"]]
    try:
        if args.workload is None:
            if args.out is None:
                parser.error("the suite needs --out")
            return run_suite(args, benchmark)
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"BENCHMARK.json lists {names}")
        return run_workload(args, benchmark)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
