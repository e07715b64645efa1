"""Long-lived mapping service: daemon, micro-batcher, client.

The serving layer over :class:`repro.api.Mapper`: load the reference
artifact once, keep worker pools resident, and coalesce request
arrivals into batches (one engine call and one pool dispatch per
batch) — the software analogue of the paper's fixed-cost amortization
across a stream of reads.  See ``docs/service.md`` for the protocol and operator guide.

Layering: this package sits on top of the public API (layer 4 in the
``repro analyze`` layering table); nothing below :mod:`repro.api`
imports it.
"""

from repro.service.batcher import MicroBatcher, Ticket
from repro.service.client import ServiceClient, payload_to_sam_record
from repro.service.core import ServiceCore
from repro.service.protocol import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    ServiceError,
)
from repro.service.server import ServiceServer
from repro.service.stats import LatencyWindow, ServiceCounters

__all__ = [
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "LatencyWindow",
    "MicroBatcher",
    "ServiceClient",
    "ServiceCore",
    "ServiceCounters",
    "ServiceError",
    "ServiceServer",
    "Ticket",
    "payload_to_sam_record",
]
