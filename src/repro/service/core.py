"""The serving brain: requests in, batched mapper calls, payloads out.

:class:`ServiceCore` owns the loaded :class:`~repro.api.Mapper` (and
through it the engine's standing worker pool), the
:class:`~repro.service.batcher.MicroBatcher`, and the service
counters.  It is transport-agnostic: the socket server
(:mod:`repro.service.server`) and in-process tests both drive it
through :meth:`submit` / :meth:`handle`.

Every mapping response carries, per read, both the summary
``record`` (the :class:`~repro.api.MappingRecord` fields) and the
full ``sam`` record fields.  The SAM fields are produced by the same
:func:`~repro.io.sam.result_to_sam` / :func:`~repro.io.sam.pair_to_sam`
path the offline CLI uses, so a client that reconstructs
:class:`~repro.io.sam.SamRecord` objects and writes them with
:func:`~repro.io.sam.write_sam` gets output byte-identical to
``repro map --index`` on the same reads.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable

from repro import seq as seqmod
from repro.api import Mapper
from repro.io.sam import pair_to_sam, result_to_sam
from repro.service.batcher import MicroBatcher, Ticket
from repro.service.protocol import (
    ERR_INTERNAL,
    ERR_INVALID_READ,
    PROTOCOL_VERSION,
    ServiceError,
    ok_response,
    record_payload,
    response_from_error,
    sam_payload,
)
from repro.service.stats import ServiceCounters


class PendingResponse:
    """An in-order response slot for one submitted request.

    The connection writer thread calls :meth:`resolve` in request
    order; for already-answered control ops it returns immediately,
    for mapping ops it blocks on the batcher ticket.
    """

    def __init__(self, finish: Callable[[], dict],
                 is_shutdown: bool = False) -> None:
        self._finish = finish
        self.is_shutdown = is_shutdown

    def resolve(self) -> dict:
        return self._finish()


class ServiceCore:
    """Transport-independent daemon logic over one loaded mapper.

    Args:
        mapper: the artifact-backed mapper to serve.
        jobs: worker processes; ``jobs > 1`` shards every coalesced
            dispatch across the engine's standing pool, forked by
            the first such dispatch.
        batch_window_s / batch_size / max_queue / timeout_s: the
            :class:`~repro.service.batcher.MicroBatcher` knobs.
        mode: batcher mode — ``"thread"`` (production) or
            ``"manual"`` (tests call ``drain_once``).
    """

    def __init__(
        self,
        mapper: Mapper,
        *,
        jobs: int = 1,
        batch_window_s: float = 0.002,
        batch_size: int = 64,
        max_queue: int = 1024,
        timeout_s: float | None = None,
        mode: str = "thread",
    ) -> None:
        self.mapper = mapper
        self.jobs = jobs
        self.counters = ServiceCounters()
        self.batcher = MicroBatcher(
            self._dispatch_reads,
            self._dispatch_pairs,
            batch_window_s=batch_window_s,
            batch_size=batch_size,
            max_queue=max_queue,
            timeout_s=timeout_s,
            counters=self.counters,
            mode=mode,
        )
        self.started_at = time.monotonic()

    # -- batched dispatch (called only by the batcher) -----------------

    def _dispatch_reads(self,
                        items: list[tuple[str, str]]) -> list[dict]:
        records = self.mapper.map_batch(items, jobs=self.jobs)
        self.counters.record_mapped(reads=len(items))
        payloads = []
        for record, (_, sequence) in zip(records, items):
            sam = result_to_sam(record.result, sequence, record.contig)
            payloads.append({"record": record_payload(record),
                             "sam": sam_payload(sam)})
        return payloads

    def _dispatch_pairs(
            self, items: list[tuple[str, str, str]]) -> list[dict]:
        records = self.mapper.map_pairs(items, jobs=self.jobs)
        self.counters.record_mapped(pairs=len(items))
        payloads = []
        for (rec1, rec2), (_, read1, read2) in zip(records, items):
            sam1, sam2 = pair_to_sam(rec1.pair, read1, read2)
            payloads.append({
                "mates": [
                    {"record": record_payload(rec1),
                     "sam": sam_payload(sam1)},
                    {"record": record_payload(rec2),
                     "sam": sam_payload(sam2)},
                ],
                "proper": rec1.proper_pair,
                "category": rec1.pair_category,
            })
        return payloads

    # -- request handling ----------------------------------------------

    def _validate_reads(self, request: dict) -> None:
        """Reject invalid sequences *before* they join a shared batch
        (one bad read must not poison its coalesced neighbours)."""
        items = request.get("reads")
        if items is None:
            name, read1, read2 = request["pair"]
            items = [(f"{name}/1", read1), (f"{name}/2", read2)]
        for name, sequence in items:
            try:
                seqmod.validate(sequence, "read", allow_ambiguous=True)
            except ValueError as exc:
                raise ServiceError(
                    ERR_INVALID_READ,
                    f"read {name!r}: {exc}") from None

    def submit(self, request: dict) -> PendingResponse:
        """Accept one parsed request; never blocks on mapping work.

        Control ops are answered eagerly; mapping ops enqueue a
        batcher ticket.  The returned :class:`PendingResponse`
        resolves to the response dict (blocking for mapping ops), so
        a connection's writer drains slots in request order while
        the reader keeps feeding the coalescing queue.
        """
        op = request["op"]
        request_id = request["id"]
        started = time.perf_counter()

        def immediate(response: dict,
                      is_shutdown: bool = False) -> PendingResponse:
            self.counters.record_request(bool(response.get("ok")))
            self.counters.record_latency(
                time.perf_counter() - started)
            return PendingResponse(lambda: response,
                                   is_shutdown=is_shutdown)

        if op == "ping":
            return immediate(ok_response(request_id, {
                "status": "ok", "protocol": PROTOCOL_VERSION}))
        if op == "contigs":
            return immediate(ok_response(request_id, {
                "contigs": [[name, length]
                            for name, length in self.mapper.contigs],
            }))
        if op == "stats":
            return immediate(ok_response(request_id,
                                         self.stats_payload()))
        if op == "shutdown":
            return immediate(
                ok_response(request_id, {"stopping": True}),
                is_shutdown=True)

        # Mapping ops: validate, then enqueue.
        try:
            self._validate_reads(request)
            if op == "map_pair":
                ticket = self.batcher.submit_pair(request["pair"])
            else:
                ticket = self.batcher.submit_reads(request["reads"])
        except ServiceError as exc:
            return immediate(response_from_error(request_id, exc))

        def finish() -> dict:
            try:
                results = ticket.wait()
            except ServiceError as exc:
                response = response_from_error(request_id, exc)
            except Exception as exc:
                # A daemon answers every request it accepted, even on
                # unforeseen dispatch failures.
                response = response_from_error(request_id, ServiceError(
                    ERR_INTERNAL, f"{type(exc).__name__}: {exc}"))
            else:
                if op == "map_pair":
                    response = ok_response(request_id, results[0])
                else:
                    response = ok_response(request_id,
                                           {"reads": results})
            self.counters.record_request(bool(response.get("ok")))
            self.counters.record_latency(
                time.perf_counter() - started)
            return response

        return PendingResponse(finish)

    def handle(self, request: dict) -> dict:
        """Blocking convenience: submit and resolve one request."""
        return self.submit(request).resolve()

    def handle_line(self, line: str) -> dict:
        """Parse + handle one raw request line (blocking)."""
        from repro.service.protocol import parse_request

        try:
            request = parse_request(line)
        except ServiceError as exc:
            self.counters.record_request(False)
            return response_from_error(None, exc)
        return self.handle(request)

    # -- introspection -------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``stats`` op result: service + pipeline + pair stats."""
        pipeline = dataclasses.asdict(self.mapper.stats)
        pipeline["stages"] = {name: dataclasses.asdict(stage)
                              for name, stage
                              in self.mapper.stats.stages.items()}
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "service": self.counters.snapshot(
                queue_depth=self.batcher.queue_depth),
            "pipeline": pipeline,
            "pairs": dataclasses.asdict(self.mapper.pair_stats),
        }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drain queued work, stop the batcher, stop the workers."""
        self.batcher.close()
        self.mapper.close()


__all__ = ["PendingResponse", "ServiceCore", "Ticket"]
