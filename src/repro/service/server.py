"""The socket transport: TCP or unix-domain NDJSON server.

One accept thread; per connection, a **reader** thread that parses
lines and submits them to the :class:`~repro.service.core.ServiceCore`
(never blocking on mapping work) and a **writer** thread that
resolves the pending responses in request order.  Splitting the two
is what makes micro-batching effective for a single pipelining
client: while the writer waits on one ticket, the reader keeps
feeding the coalescing queue, so consecutive requests on one
connection land in one shared engine call.

Graceful shutdown (``shutdown`` op, :meth:`ServiceServer.stop`, or
``SIGTERM`` wired by the CLI): the listener closes first so no new
connections arrive, the core's batcher drains every ticket already
accepted, connection threads flush their responses, and only then
does :meth:`serve_forever` return — in-flight work is never dropped.
"""

from __future__ import annotations

import contextlib
import os
import queue
import socketserver
import threading
from pathlib import Path

from repro.service.core import PendingResponse, ServiceCore
from repro.service.protocol import (
    ServiceError,
    encode_line,
    response_from_error,
)

#: Writer-queue sentinel: the reader is done, flush and exit.
_READER_DONE = None


class _Connection(socketserver.BaseRequestHandler):
    """One client connection: reader (this thread) + writer thread.

    ``self.server`` is the underlying :mod:`socketserver` instance;
    :class:`ServiceServer` hangs ``core`` (the
    :class:`~repro.service.core.ServiceCore`) and ``service`` (the
    wrapper itself, for shutdown) off it.
    """

    def handle(self) -> None:
        core = self.server.core
        pending: "queue.Queue[PendingResponse | None]" = queue.Queue()
        sock_file = self.request.makefile("rb")
        writer = threading.Thread(
            target=self._write_loop, args=(pending,),
            name="repro-service-writer", daemon=True)
        writer.start()
        try:
            for raw in sock_file:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    from repro.service.protocol import parse_request
                    request = parse_request(line)
                except ServiceError as exc:
                    core.counters.record_request(False)
                    response = response_from_error(None, exc)
                    pending.put(PendingResponse(
                        lambda r=response: r))
                    continue
                slot = core.submit(request)
                pending.put(slot)
                if slot.is_shutdown:
                    # Answer, then stop the whole server.
                    break
        except (OSError, ValueError):
            pass  # peer went away mid-read; writer still drains
        finally:
            sock_file.close()
            pending.put(_READER_DONE)
            writer.join()

    def _write_loop(
            self,
            pending: "queue.Queue[PendingResponse | None]") -> None:
        shutdown_requested = False
        while True:
            slot = pending.get()
            if slot is _READER_DONE:
                break
            response = slot.resolve()
            try:
                self.request.sendall(encode_line(response))
            except OSError:
                # Client vanished before reading its answer; keep
                # draining so in-order slots (and shutdown) resolve.
                continue
            if slot.is_shutdown:
                shutdown_requested = True
        if shutdown_requested:
            self.server.service.begin_shutdown()


class ServiceServer:
    """A running daemon: listener + core, with graceful stop.

    Build via :meth:`tcp` or :meth:`unix`; drive with
    :meth:`serve_forever` (blocking) or :meth:`start` (background
    thread, used by tests and the quickstart).
    """

    def __init__(self, core: ServiceCore,
                 tcp_server: socketserver.ThreadingTCPServer,
                 socket_path: Path | None = None) -> None:
        self.core = core
        self._server = tcp_server
        self._server.core = core  # type: ignore[attr-defined]
        self._server.service = self  # type: ignore[attr-defined]
        self.socket_path = socket_path
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def tcp(cls, core: ServiceCore, host: str = "127.0.0.1",
            port: int = 0) -> "ServiceServer":
        """Listen on ``host:port`` (port 0 = ephemeral, see
        :attr:`address`)."""

        class _Tcp(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        return cls(core, _Tcp((host, port), _Connection))

    @classmethod
    def unix(cls, core: ServiceCore,
             path: str | Path) -> "ServiceServer":
        """Listen on a unix-domain socket at ``path``."""
        path = Path(path)
        if path.exists():
            path.unlink()

        class _Unix(socketserver.ThreadingUnixStreamServer):
            daemon_threads = True

        return cls(core, _Unix(str(path), _Connection),
                   socket_path=path)

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | str:
        """The bound address: ``(host, port)`` for TCP, path for
        unix sockets."""
        if self.socket_path is not None:
            return str(self.socket_path)
        host, port = self._server.server_address[:2]
        return (host, port)

    def serve_forever(self) -> None:
        """Serve until :meth:`stop` / a ``shutdown`` request, then
        drain and return."""
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self._drain()

    def start(self) -> "ServiceServer":
        """Serve on a background thread (tests / embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="repro-service-accept", daemon=True)
        self._thread.start()
        return self

    def begin_shutdown(self) -> None:
        """Initiate a graceful stop without waiting for it."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        threading.Thread(target=self._server.shutdown,
                         name="repro-service-stop",
                         daemon=True).start()

    def stop(self) -> None:
        """Graceful stop: close the listener, drain, join."""
        self._stopping.set()
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        else:
            self._drain()

    def _drain(self) -> None:
        """Close the listener socket and finish accepted work."""
        self._server.server_close()
        self.core.close()
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
