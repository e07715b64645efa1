"""The mapping process of an offline workload.

Run as a child of ``run.py`` so that its peak RSS is the memory of
*mapping* (attach + map), not of input generation or index build.
It mirrors the ``repro map --index`` call chain through public
functions only: ``Mapper.from_artifact`` → ``io.stream`` reader +
``ReadChunker`` → ``map_batch`` / ``map_pairs`` → formatter +
``GafWriter`` / ``SamWriter``, timing each call from outside.

Input: a JSON spec path.  Output: a JSON report beside it.  Each
*pass* of the spec maps the read file from its start on a fresh
mapper, until its deadline (``seconds``) or its fixed amount of work
(``units``), with or without the timing shims of :mod:`shims`.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path


def _row(record) -> tuple:
    """What the harness scores a placement on."""
    return (record.read_name, record.mapped, record.contig,
            record.position, record.strand)


def _run_pass(spec: dict, pass_spec: dict) -> dict:
    from repro.api import Mapper
    from repro.io.gaf import GafWriter, result_to_gaf
    from repro.io.sam import SamWriter, pair_to_sam
    from repro.io.stream import ReadChunker, iter_mate_pairs, iter_reads

    from shims import Tracer
    from workloads import engine_config, pair_config

    paired = spec["paired"]
    jobs = pass_spec["jobs"]
    output = Path(pass_spec["output"])
    clock = time.perf_counter

    start = clock()
    mapper = Mapper.from_artifact(spec["artifact"],
                                  config=engine_config(),
                                  pair_config=pair_config())
    attach_s = clock() - start

    tracer = Tracer() if pass_spec["traced"] else None
    if tracer is not None:
        tracer.install()
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    chunks_log: list[tuple[int, float]] = []
    records: list[tuple] = []
    parse_s = map_s = write_s = 0.0
    units = 0
    try:
        opened = clock()
        deadline = opened + pass_spec["seconds"] \
            if pass_spec.get("seconds") else None
        if paired:
            source = iter_mate_pairs(*spec["reads"])
            writer = SamWriter(output, contigs=mapper.contigs)
        else:
            source = iter_reads(spec["reads"][0])
            writer = GafWriter(output)
        chunks = ReadChunker(spec["chunk"]).chunks(source)
        try:
            while True:
                t0 = clock()
                chunk = next(chunks, None)
                t1 = clock()
                parse_s += t1 - t0
                if chunk is None:
                    break
                if paired:
                    chunk = [(name, r1.upper(), r2.upper())
                             for name, r1, r2 in chunk]
                    mapped = mapper.map_pairs(chunk, jobs=jobs)
                else:
                    mapped = mapper.map_batch(chunk, jobs=jobs)
                t2 = clock()
                map_s += t2 - t1
                if paired:
                    for (rec1, rec2), (_, read1, read2) in zip(mapped,
                                                               chunk):
                        for sam in pair_to_sam(rec1.pair, read1,
                                               read2):
                            writer.write(sam)
                        records.extend(_row(r) for r in (rec1, rec2))
                else:
                    for record, (_, sequence) in zip(mapped, chunk):
                        gaf = result_to_gaf(record.result,
                                            mapper.graph, sequence)
                        if gaf is not None:
                            writer.write(gaf)
                    records.extend(_row(r) for r in mapped)
                t3 = clock()
                write_s += t3 - t2
                units += len(chunk)
                chunks_log.append((len(chunk), t3 - t0))
                if deadline is not None and t3 >= deadline:
                    break
                if pass_spec.get("units") \
                        and units >= pass_spec["units"]:
                    break
        finally:
            t0 = clock()
            writer.close()
            write_s += clock() - t0
            # Closes the read files of a run that stopped early.
            chunks.close()
            source.close()
        wall_s = clock() - opened
    finally:
        if tracer is not None:
            tracer.uninstall()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "jobs": jobs,
        "traced": tracer is not None,
        "attach_s": attach_s,
        "wall_s": wall_s,
        "parse_s": parse_s,
        "map_s": map_s,
        "write_s": write_s,
        "write_bytes": output.stat().st_size,
        "units": units,
        "chunks": chunks_log,
        "records": records,
        "stats": dataclasses.asdict(mapper.stats),
        "pair_stats": dataclasses.asdict(mapper.pair_stats),
        "child_cpu_s": (children.ru_utime + children.ru_stime
                        - children_before.ru_utime
                        - children_before.ru_stime),
        "spans": tracer.report() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    spec_path = Path(argv[0])
    spec = json.loads(spec_path.read_text(encoding="ascii"))
    sys.path.insert(0, spec["src"])
    passes = [_run_pass(spec, pass_spec)
              for pass_spec in spec["passes"]]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss of RUSAGE_SELF excludes forked workers; with jobs>1
    # the footprint is this process plus its largest child.
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {"passes": passes,
              "peak_rss_mb": (self_rss + child_rss) / 1024.0}
    spec_path.with_name("report.json").write_text(
        json.dumps(report), encoding="ascii")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
