"""The ``serve-short`` side of the harness: daemon child + load loop.

The daemon is ``python -m repro serve`` as a child process; the
harness speaks raw NDJSON over unix-socket connections, so neither
side shares code with the other.  The load is *closed*: each of
``CONNECTIONS`` connections keeps ``IN_FLIGHT`` single-read ``map``
requests outstanding and sends the next only when a response comes
back, so a slower daemon receives less load.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

CONNECTIONS = 2
IN_FLIGHT = 16
#: Responses excluded from the latency samples while caches fill.
WARMUP_RESPONSES = 64
PING_SAMPLES = 50
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 120.0


class Daemon:
    """One ``repro serve`` child on a unix socket.

    ``start`` returns once the daemon answered a ``ping``; ``stop``
    sends ``shutdown`` and waits for the process to end.
    """

    def __init__(self, artifact: Path, socket_path: str,
                 src: Path, log_path: Path) -> None:
        # sun_path holds ~107 bytes; callers pass a path relative to
        # the working directory to stay under it.
        if len(socket_path) > 100:
            raise ValueError(
                f"unix socket path too long: {socket_path}")
        self.socket_path = socket_path
        self._command = [
            sys.executable, "-m", "repro", "serve",
            "--index", str(artifact), "--socket", socket_path,
            "--both-strands", "--align-backend", "numpy",
        ]
        self._env = {**os.environ, "PYTHONPATH": str(src)}
        self._log_path = log_path
        self._process: subprocess.Popen | None = None

    def start(self) -> None:
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(
                self._command, env=self._env,
                stdout=log, stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            if self._process.poll() is not None:
                raise RuntimeError(
                    "repro serve exited during start-up: "
                    + self._log_path.read_text(
                        "utf-8", "replace")[-2000:])
            try:
                with Connection(self.socket_path) as connection:
                    connection.call({"op": "ping"})
                return
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError(
                        "repro serve did not answer a ping within "
                        f"{START_TIMEOUT_S} s") from None
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The daemon's high-water RSS so far (``VmHWM``)."""
        status = Path(f"/proc/{self._process.pid}/status").read_text(
            encoding="ascii")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        if process.poll() is None:
            try:
                with Connection(self.socket_path) as connection:
                    connection.call({"op": "shutdown"})
            except OSError:
                process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class Connection:
    """One NDJSON connection: ``send`` a request, ``receive`` the
    next response (the daemon answers in request order)."""

    def __init__(self, socket_path: str) -> None:
        self._socket = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
        try:
            self._socket.settimeout(REPLY_TIMEOUT_S)
            self._socket.connect(socket_path)
        except OSError:
            self._socket.close()
            raise
        self._file = self._socket.makefile("rb")

    def send(self, payload: dict) -> None:
        self._socket.sendall(
            json.dumps(payload, separators=(",", ":")).encode("ascii")
            + b"\n")

    def receive(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def call(self, payload: dict) -> dict:
        self.send(payload)
        return self.receive()

    def close(self) -> None:
        self._file.close()
        self._socket.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def ping_latencies_ms(socket_path: str) -> list[float]:
    """Round-trip times of ``ping`` on an idle daemon: the transport
    plus protocol floor under every request latency."""
    samples = []
    with Connection(socket_path) as connection:
        for _ in range(PING_SAMPLES):
            start = time.perf_counter()
            connection.call({"op": "ping"})
            samples.append((time.perf_counter() - start) * 1e3)
    return samples


def _drive(socket_path: str, reads: list[tuple[str, str]],
           deadline: float | None, out: dict) -> None:
    """One connection's closed loop over its share of the reads."""
    responses = []
    sent_at: list[float] = []
    try:
        with Connection(socket_path) as connection:
            received = 0
            pending = iter(reads)

            def send_next() -> bool:
                if deadline is not None \
                        and time.perf_counter() >= deadline:
                    return False
                entry = next(pending, None)
                if entry is None:
                    return False
                name, sequence = entry
                sent_at.append(time.perf_counter())
                connection.send({"op": "map", "id": len(sent_at) - 1,
                                 "name": name, "read": sequence})
                return True

            for _ in range(IN_FLIGHT):
                if not send_next():
                    break
            while received < len(sent_at):
                response = connection.receive()
                now = time.perf_counter()
                responses.append((reads[received][0],
                                  sent_at[received], now, response))
                received += 1
                send_next()
    except (OSError, ValueError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["responses"] = responses
    out["sent"] = len(sent_at)


def run_load(socket_path: str, reads: list[tuple[str, str]],
             seconds: float | None) -> dict:
    """Drive the closed loop until ``seconds`` pass (or, with
    ``None``, until every read was answered).

    Returns ``responses`` — ``(name, sent, received, response)``
    ordered by receive time — plus ``sent`` (requests written),
    ``wall_s`` (first send to last response) and ``errors``.
    """
    shares = [reads[index::CONNECTIONS]
              for index in range(CONNECTIONS)]
    outs = [{} for _ in shares]
    start = time.perf_counter()
    deadline = start + seconds if seconds else None
    threads = [threading.Thread(target=_drive,
                                args=(socket_path, share, deadline, out))
               for share, out in zip(shares, outs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    responses = sorted((r for out in outs for r in out["responses"]),
                       key=lambda r: r[2])
    wall_s = (responses[-1][2] - start) if responses else 0.0
    return {"responses": responses, "wall_s": wall_s,
            "sent": sum(out["sent"] for out in outs),
            "errors": [out["error"] for out in outs if "error" in out]}
