"""Request micro-batching: coalesce arrivals into shared dispatches.

The daemon's throughput story is the same fixed-cost-amortization
argument the paper makes in hardware: each engine call has a
per-call cost (request handling, pool IPC) that batching spreads
across many reads.  :class:`MicroBatcher` is the coalescing queue that turns
a stream of independent requests into few large ``map_batch`` /
``map_pairs`` shards.

Semantics
---------
* ``submit_*`` enqueues a ticket and returns immediately.  When the
  bounded queue is full the submit is **rejected** with a typed
  ``overloaded`` error (backpressure is explicit, never silent).
* A drain cycle fires when either ``batch_size`` tickets are waiting
  or ``batch_window_s`` has elapsed since the first waiting ticket —
  whichever comes first.
* The per-request timeout covers **queue wait**: a ticket whose
  deadline expires before it is drained resolves to a ``timeout``
  error.  Once a ticket enters a dispatch shard it runs to
  completion (results are never discarded mid-kernel).
* ``close()`` stops accepting work, then drains every ticket already
  queued before returning — graceful shutdown loses nothing.

Modes
-----
``thread``
    Production mode: a background drain thread owns dispatch.
``manual``
    Nothing drains until :meth:`drain_once` is called — lets tests
    assert exactly which requests coalesced into which shard.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from typing import Any

from repro.service.protocol import (
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    ServiceError,
)
from repro.service.stats import ServiceCounters

ReadItem = tuple[str, str]
PairItem = tuple[str, str, str]


class Ticket:
    """One queued request: resolves to a result list or an error."""

    __slots__ = ("kind", "items", "deadline", "submitted_at",
                 "_event", "result", "error")

    def __init__(self, kind: str, items: Sequence[Any],
                 deadline: float | None, submitted_at: float) -> None:
        self.kind = kind              # "reads" | "pairs"
        self.items = list(items)
        self.deadline = deadline      # monotonic seconds, or None
        self.submitted_at = submitted_at
        self._event = threading.Event()
        self.result: list[Any] | None = None
        self.error: ServiceError | None = None

    def resolve(self, result: list[Any]) -> None:
        self.result = result
        self._event.set()

    def fail(self, error: ServiceError) -> None:
        self.error = error
        self._event.set()

    def wait(self) -> list[Any]:
        """Block until resolved; raise the ticket's error if failed."""
        self._event.wait()
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class MicroBatcher:
    """Bounded coalescing queue in front of batched dispatch calls.

    ``dispatch_reads`` receives a list of ``(name, sequence)`` items
    and must return one result per item, in order; ``dispatch_pairs``
    likewise for ``(name, read1, read2)`` triples.  Work items are
    counted per read/pair (not per ticket) against ``max_queue``.
    """

    def __init__(
        self,
        dispatch_reads: Callable[[list[ReadItem]], list[Any]],
        dispatch_pairs: Callable[[list[PairItem]], list[Any]],
        *,
        batch_window_s: float = 0.002,
        batch_size: int = 64,
        max_queue: int = 1024,
        timeout_s: float | None = None,
        counters: ServiceCounters | None = None,
        mode: str = "thread",
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if mode not in ("thread", "manual"):
            raise ValueError(f"unknown batcher mode {mode!r}")
        self._dispatch_reads = dispatch_reads
        self._dispatch_pairs = dispatch_pairs
        self.batch_window_s = batch_window_s
        self.batch_size = batch_size
        self.max_queue = max_queue
        self.timeout_s = timeout_s
        self.counters = counters or ServiceCounters()
        self.mode = mode
        self._queue: deque[Ticket] = deque()
        self._queued_items = 0
        self._cond = threading.Condition()
        self._closed = False
        self._thread: threading.Thread | None = None
        if mode == "thread":
            self._thread = threading.Thread(
                target=self._drain_loop,
                name="repro-service-batcher", daemon=True)
            self._thread.start()

    # -- submission ----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return self._queued_items

    def submit_reads(self, reads: Sequence[ReadItem]) -> Ticket:
        return self._submit("reads", reads)

    def submit_pair(self, pair: PairItem) -> Ticket:
        return self._submit("pairs", [pair])

    def _submit(self, kind: str, items: Sequence[Any]) -> Ticket:
        now = time.monotonic()
        deadline = (now + self.timeout_s
                    if self.timeout_s is not None else None)
        ticket = Ticket(kind, items, deadline, now)
        with self._cond:
            if self._closed:
                raise ServiceError(ERR_SHUTTING_DOWN,
                                   "server is shutting down")
            if self._queued_items + len(items) > self.max_queue:
                self.counters.record_rejection("overloaded")
                raise ServiceError(
                    "overloaded",
                    f"queue full ({self._queued_items} items "
                    f"waiting, limit {self.max_queue}); retry later",
                )
            self._queue.append(ticket)
            self._queued_items += len(items)
            self._cond.notify_all()
        return ticket

    # -- draining ------------------------------------------------------

    def _take_batch_locked(self) -> list[Ticket]:
        batch: list[Ticket] = []
        size = 0
        while self._queue and size < self.batch_size:
            ticket = self._queue.popleft()
            self._queued_items -= len(ticket.items)
            batch.append(ticket)
            size += len(ticket.items)
        return batch

    def drain_once(self) -> int:
        """Drain one batch synchronously; returns tickets resolved.

        Only meaningful in ``manual`` mode (tests); in ``thread``
        mode the background thread races this call.
        """
        with self._cond:
            batch = self._take_batch_locked()
        if batch:
            self._run_batch(batch)
        return len(batch)

    def _drain_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
                # First ticket is in: linger up to the batch window
                # for more arrivals, but never past ``batch_size``.
                window_end = time.monotonic() + self.batch_window_s
                while (self._queued_items < self.batch_size
                       and not self._closed):
                    remaining = window_end - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                batch = self._take_batch_locked()
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: list[Ticket]) -> None:
        now = time.monotonic()
        live: list[Ticket] = []
        for ticket in batch:
            if ticket.deadline is not None and now > ticket.deadline:
                self.counters.record_rejection("timeout")
                ticket.fail(ServiceError(
                    ERR_TIMEOUT,
                    f"request waited {now - ticket.submitted_at:.3f}s "
                    f"in queue, past the {self.timeout_s}s timeout",
                ))
            else:
                live.append(ticket)
        if not live:
            return
        self.counters.record_batch(
            sum(len(t.items) for t in live))
        for kind, dispatch in (("reads", self._dispatch_reads),
                               ("pairs", self._dispatch_pairs)):
            group = [t for t in live if t.kind == kind]
            if not group:
                continue
            flat: list[Any] = []
            for ticket in group:
                flat.extend(ticket.items)
            try:
                results = dispatch(flat)
            except ServiceError as exc:
                for ticket in group:
                    ticket.fail(exc)
                continue
            except Exception as exc:
                err = ServiceError(
                    "internal", f"{type(exc).__name__}: {exc}")
                for ticket in group:
                    ticket.fail(err)
                continue
            cursor = 0
            for ticket in group:
                span = len(ticket.items)
                ticket.resolve(results[cursor:cursor + span])
                cursor += span

    # -- shutdown ------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work, drain what's queued, join the thread."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # Manual mode: resolve anything still queued so no waiter
        # hangs (the thread drains its queue before it exits).
        while True:
            with self._cond:
                batch = self._take_batch_locked()
            if not batch:
                break
            self._run_batch(batch)
