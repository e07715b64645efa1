"""Blocking client for the mapping daemon.

:class:`ServiceClient` speaks the NDJSON protocol over TCP or a unix
socket.  Simple calls (:meth:`map`, :meth:`map_batch`,
:meth:`map_pair`, :meth:`stats`, ...) are strict request/response;
:meth:`map_stream` pipelines a sliding window of single-read
requests so the daemon's micro-batcher can coalesce them — the
client-side half of the batched serving story.

Mapping results come back as plain payload dicts (see
``docs/service.md``); :func:`payload_to_sam_record` reconstructs the
:class:`~repro.io.sam.SamRecord` so
:class:`~repro.io.sam.SamWriter` output is byte-identical to the
offline ``repro map --index`` run on the same reads.
"""

from __future__ import annotations

import json
import socket
from collections import deque
from collections.abc import Iterable, Sequence
from typing import Any

from repro.io.sam import SamRecord
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ServiceError,
    encode_line,
)


def payload_to_sam_record(payload: dict) -> SamRecord:
    """Rebuild the :class:`~repro.io.sam.SamRecord` a mapping
    response carried in its ``sam`` field."""
    return SamRecord(**payload)


class ServiceClient:
    """A blocking NDJSON protocol client.

    Connect with :meth:`connect` (TCP) or :meth:`connect_unix`, or
    pass any connected stream socket.  Error responses raise
    :class:`~repro.service.protocol.ServiceError` carrying the typed
    code.  Use as a context manager to close the socket.
    """

    def __init__(self, sock: socket.socket,
                 timeout_s: float | None = 30.0) -> None:
        sock.settimeout(timeout_s)
        self._sock = sock
        self._file = sock.makefile("rb")
        self._next_id = 0

    @classmethod
    def connect(cls, host: str = "127.0.0.1", port: int = 0,
                timeout_s: float | None = 30.0) -> "ServiceClient":
        sock = socket.create_connection((host, port),
                                        timeout=timeout_s)
        return cls(sock, timeout_s=timeout_s)

    @classmethod
    def connect_unix(cls, path: str,
                     timeout_s: float | None = 30.0
                     ) -> "ServiceClient":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout_s)
        sock.connect(path)
        return cls(sock, timeout_s=timeout_s)

    # -- wire plumbing -------------------------------------------------

    def _send(self, payload: dict) -> Any:
        request_id = self._next_id
        self._next_id += 1
        self._sock.sendall(encode_line({**payload, "id": request_id}))
        return request_id

    def _receive(self) -> dict:
        raw = self._file.readline()
        if not raw:
            raise ConnectionError(
                "server closed the connection mid-request")
        response = json.loads(raw.decode("utf-8"))
        if not isinstance(response, dict):
            raise ServiceError(ERR_BAD_REQUEST,
                               "server sent a non-object response")
        return response

    @staticmethod
    def _unwrap(response: dict) -> dict:
        if response.get("ok"):
            return response["result"]
        error = response.get("error") or {}
        raise ServiceError(error.get("code", "internal"),
                           error.get("message", "unknown error"))

    def call(self, op: str, **fields: Any) -> dict:
        """One strict request/response round trip."""
        self._send({"op": op, **fields})
        return self._unwrap(self._receive())

    # -- mapping -------------------------------------------------------

    def ping(self) -> dict:
        return self.call("ping")

    def map(self, read: str, name: str = "read") -> dict:
        """Map one read; returns its ``{"record", "sam"}`` payload."""
        return self.call("map", read=read, name=name)["reads"][0]

    def map_batch(self,
                  reads: Sequence[tuple[str, str]]) -> list[dict]:
        """Map ``(name, sequence)`` reads in one request."""
        result = self.call(
            "map_batch", reads=[[name, seq] for name, seq in reads])
        return result["reads"]

    def map_pair(self, read1: str, read2: str,
                 name: str = "pair") -> dict:
        """Map one FR pair; returns its ``{"mates", ...}`` payload."""
        return self.call("map_pair", read1=read1, read2=read2,
                         name=name)

    def map_stream(self, reads: Iterable[tuple[str, str]],
                   window: int = 64) -> list[dict]:
        """Map reads via pipelined single-read requests.

        Keeps up to ``window`` requests in flight; the daemon's
        micro-batcher coalesces whatever is queued into shared
        dispatches.  Results return in input order.  A per-read
        error response is re-raised after the stream drains — the
        remaining in-flight reads still complete server-side.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        results: list[dict] = []
        in_flight: deque[int] = deque()
        first_error: ServiceError | None = None

        def drain_one() -> None:
            nonlocal first_error
            response = self._receive()
            in_flight.popleft()
            try:
                result = self._unwrap(response)
            except ServiceError as exc:
                if first_error is None:
                    first_error = exc
                results.append({})
            else:
                results.append(result["reads"][0])

        for name, sequence in reads:
            if len(in_flight) >= window:
                drain_one()
            in_flight.append(
                self._send({"op": "map", "read": sequence,
                            "name": name}))
        while in_flight:
            drain_one()
        if first_error is not None:
            raise first_error
        return results

    # -- introspection / lifecycle -------------------------------------

    def stats(self) -> dict:
        return self.call("stats")

    def contigs(self) -> list[tuple[str, int]]:
        return [(name, length)
                for name, length in self.call("contigs")["contigs"]]

    def shutdown(self) -> dict:
        """Ask the daemon to drain and stop."""
        return self.call("shutdown")

    def close(self) -> None:
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
