"""The text open helpers every reader and writer of :mod:`repro.io` uses.

Each format is ASCII.  Files open with ``errors="surrogateescape"`` on
the read side, so a stray non-ASCII byte decodes to a lone surrogate
instead of raising ``UnicodeDecodeError`` from deep inside a loop;
each reader then tests its lines with :func:`str.isascii` and raises
its own typed format error naming the line.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import TextIO, Union

PathOrHandle = Union[str, Path, TextIO]

#: The two magic bytes every gzip stream starts with (RFC 1952).
_GZIP_MAGIC = b"\x1f\x8b"


def source_name(source: PathOrHandle) -> str:
    """A human-readable name for error messages."""
    if isinstance(source, (str, Path)):
        return str(source)
    return getattr(source, "name", None) or "<stream>"


def open_text(source: PathOrHandle) -> tuple[TextIO, bool]:
    """Open a path for buffered text reading, sniffing gzip.

    Returns ``(handle, owned)`` — ``owned`` is False for handles
    passed through.  Compression is detected by the gzip magic bytes
    (or the ``.gz`` suffix when the file cannot be probed), and
    decompressed incrementally.
    """
    if not isinstance(source, (str, Path)):
        return source, False
    path = Path(source)
    is_gzip = path.suffix == ".gz"
    try:
        with open(path, "rb") as probe:
            is_gzip = probe.read(2) == _GZIP_MAGIC
    except OSError:
        pass
    if is_gzip:
        return gzip.open(path, "rt", encoding="ascii",
                         errors="surrogateescape"), True
    return open(path, "r", encoding="ascii",
                errors="surrogateescape"), True


def open_write(target: PathOrHandle) -> tuple[TextIO, bool]:
    """Open a path for ASCII text writing; ``(handle, owned)`` as in
    :func:`open_text`.

    A path ending in ``.gz`` is written gzip-compressed, with a zero
    modification time in the header, so the same text written to the
    same path gives the same bytes.
    """
    if not isinstance(target, (str, Path)):
        return target, False
    if str(target).endswith(".gz"):
        return io.TextIOWrapper(
            gzip.GzipFile(target, "wb", mtime=0), encoding="ascii"), True
    return open(target, "w", encoding="ascii"), True
