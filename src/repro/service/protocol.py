"""The service wire protocol: line-oriented JSON requests/responses.

One request per line, one response per line, UTF-8, ``\\n``-framed
(NDJSON).  A client may pipeline: send many requests before reading
any response — the server answers **in request order** per
connection, which is what lets the micro-batcher coalesce a stream
of single-read requests into shared engine calls.

Request shape::

    {"op": "<op>", "id": <any JSON value, echoed>, ...op fields}

Ops and their fields (see ``docs/service.md`` for the full schema):

=============  ========================================================
op             fields
=============  ========================================================
``ping``       —
``map``        ``read`` (sequence, required), ``name`` (default
               ``"read"``)
``map_batch``  ``reads``: list of ``[name, sequence]`` pairs or bare
               sequence strings
``map_pair``   ``read1``, ``read2`` (required), ``name`` (default
               ``"pair"``)
``stats``      —
``contigs``    —
``shutdown``   —
=============  ========================================================

Response shape::

    {"id": ..., "ok": true,  "result": {...}}
    {"id": ..., "ok": false, "error": {"code": "...", "message": "..."}}

``error.code`` is always one of :data:`ERROR_CODES` — clients switch
on the code, never on the message text.
"""

from __future__ import annotations

import json
from typing import Any

#: Protocol revision; servers echo it in ``ping``/``stats`` results.
#: Bumped on any incompatible change to the shapes documented above.
PROTOCOL_VERSION = 1

#: Every operation a request may name.
OPS = frozenset({
    "ping", "map", "map_batch", "map_pair", "stats", "contigs",
    "shutdown",
})

# Typed error codes (the client-facing failure vocabulary).
ERR_BAD_REQUEST = "bad_request"      # malformed JSON / unknown op / bad fields
ERR_INVALID_READ = "invalid_read"    # sequence failed validation
ERR_OVERLOADED = "overloaded"        # bounded queue full; retry later
ERR_TIMEOUT = "timeout"              # request exceeded its deadline
ERR_SHUTTING_DOWN = "shutting_down"  # server draining; no new work
ERR_INTERNAL = "internal"            # unexpected server-side failure

ERROR_CODES = frozenset({
    ERR_BAD_REQUEST, ERR_INVALID_READ, ERR_OVERLOADED, ERR_TIMEOUT,
    ERR_SHUTTING_DOWN, ERR_INTERNAL,
})


class ServiceError(Exception):
    """A typed protocol-level failure.

    ``code`` is one of :data:`ERROR_CODES`; ``message`` is the
    human-readable detail.  Raised server-side to produce an error
    response, and raised client-side by
    :class:`~repro.service.client.ServiceClient` when a response
    carries one.
    """

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


def encode_line(payload: dict) -> bytes:
    """One protocol line: compact, key-sorted JSON plus ``\\n``.

    Key order and separators are pinned so identical payloads encode
    to identical bytes — responses are comparable across runs.
    """
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def ok_response(request_id: Any, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str,
                   message: str) -> dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def response_from_error(request_id: Any,
                        exc: ServiceError) -> dict:
    return error_response(request_id, exc.code, exc.message)


def _require_sequence(payload: dict, field_name: str) -> str:
    value = payload.get(field_name)
    if not isinstance(value, str) or not value:
        raise ServiceError(
            ERR_BAD_REQUEST,
            f"op {payload['op']!r} needs a non-empty string "
            f"{field_name!r}",
        )
    return value


def _normalize_read_entry(entry: Any, index: int) -> tuple[str, str]:
    """One ``reads`` element: ``[name, seq]`` or a bare sequence."""
    if isinstance(entry, str):
        if not entry:
            raise ServiceError(
                ERR_BAD_REQUEST,
                f"reads[{index}] is an empty sequence",
            )
        return f"read{index}", entry
    if (isinstance(entry, (list, tuple)) and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], str) and entry[1]):
        return entry[0], entry[1]
    raise ServiceError(
        ERR_BAD_REQUEST,
        f"reads[{index}] must be a [name, sequence] pair or a "
        "non-empty sequence string",
    )


def parse_request(line: str) -> dict:
    """Parse + validate one request line into a normalized payload.

    Raises :class:`ServiceError` (``bad_request``) on malformed JSON,
    a non-object payload, an unknown ``op``, or missing/ill-typed op
    fields.  Mapping ops come back with normalized work items:
    ``map``/``map_batch`` carry ``reads`` as ``(name, sequence)``
    tuples, ``map_pair`` carries a ``(name, read1, read2)`` triple.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError(ERR_BAD_REQUEST,
                           f"malformed JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError(ERR_BAD_REQUEST,
                           "request must be a JSON object")
    op = payload.get("op")
    if op not in OPS:
        raise ServiceError(
            ERR_BAD_REQUEST,
            f"unknown op {op!r}; expected one of {sorted(OPS)}",
        )
    request = {"op": op, "id": payload.get("id")}
    if op == "map":
        name = payload.get("name", "read")
        if not isinstance(name, str):
            raise ServiceError(ERR_BAD_REQUEST,
                               "'name' must be a string")
        request["reads"] = [(name, _require_sequence(payload, "read"))]
    elif op == "map_batch":
        entries = payload.get("reads")
        if not isinstance(entries, list) or not entries:
            raise ServiceError(
                ERR_BAD_REQUEST,
                "op 'map_batch' needs a non-empty 'reads' list",
            )
        request["reads"] = [
            _normalize_read_entry(entry, index)
            for index, entry in enumerate(entries)
        ]
    elif op == "map_pair":
        name = payload.get("name", "pair")
        if not isinstance(name, str):
            raise ServiceError(ERR_BAD_REQUEST,
                               "'name' must be a string")
        request["pair"] = (name,
                           _require_sequence(payload, "read1"),
                           _require_sequence(payload, "read2"))
    return request


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------

def record_payload(record: Any) -> dict:
    """A :class:`~repro.api.MappingRecord` as a JSON-able dict."""
    return {
        "read_name": record.read_name,
        "mapped": record.mapped,
        "contig": record.contig,
        "position": record.position,
        "strand": record.strand,
        "mapq": record.mapq,
        "cigar": record.cigar,
        "edit_distance": record.edit_distance,
        "read_length": record.read_length,
        "path_nodes": list(record.path_nodes),
        "paired": record.paired,
        "proper_pair": record.proper_pair,
        "mate_contig": record.mate_contig,
        "mate_position": record.mate_position,
        "template_length": record.template_length,
        "pair_category": record.pair_category,
    }


def sam_payload(sam_record: Any) -> dict:
    """A :class:`~repro.io.sam.SamRecord` as a JSON-able dict.

    Carries every field, so the client reconstructs the record and
    its :func:`~repro.io.sam.write_sam` output byte-identically.
    """
    return {
        "qname": sam_record.qname,
        "flag": sam_record.flag,
        "rname": sam_record.rname,
        "pos": sam_record.pos,
        "mapq": sam_record.mapq,
        "cigar": sam_record.cigar,
        "seq": sam_record.seq,
        "rnext": sam_record.rnext,
        "pnext": sam_record.pnext,
        "tlen": sam_record.tlen,
        "edit_distance": sam_record.edit_distance,
        "pair_category": sam_record.pair_category,
    }
