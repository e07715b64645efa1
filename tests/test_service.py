"""Service layer: protocol, micro-batching, daemon, client.

The load-bearing guarantee is at the bottom of most tests here:
whatever path a read takes through the service — one request at a
time, manual coalescing, the socket daemon with a pipelining client — its
SAM record must be byte-identical to the offline
``repro map --index`` result on the same read.
"""

from __future__ import annotations

import dataclasses
import io
import random
import time

import pytest

from repro.api import Mapper
from repro.core.pairing import PairStats
from repro.io.sam import SamWriter, result_to_sam
from repro.service.batcher import MicroBatcher
from repro.service.client import ServiceClient, payload_to_sam_record
from repro.service.core import ServiceCore
from repro.service.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ServiceError,
    encode_line,
    error_response,
    parse_request,
    record_payload,
)
from repro.service.server import ServiceServer
from repro.service.stats import LatencyWindow, ServiceCounters
from repro.sim.reference import random_reference
from repro.sim.shortread import ShortReadProfile, simulate_short_reads


@pytest.fixture(scope="module")
def service_env(tmp_path_factory):
    """A saved index artifact plus simulated reads and their offline
    ('ground truth') SAM bytes."""
    rng = random.Random(0x5E81)
    reference = random_reference(12_000, rng)
    artifact = tmp_path_factory.mktemp("service") / "ref.sgidx"
    Mapper(reference, name="chr1").save_index(artifact)

    sim = simulate_short_reads(
        reference, 24, random.Random(31),
        ShortReadProfile.illumina(80, 0.01))
    reads = [(r.name, r.sequence) for r in sim]

    offline = Mapper.from_artifact(artifact)
    records = offline.map_batch(reads)
    sam = [result_to_sam(rec.result, seq, rec.contig)
           for rec, (_, seq) in zip(records, reads)]
    buffer = io.StringIO()
    with SamWriter(buffer, offline.contigs) as writer:
        for record in sam:
            writer.write(record)
    return {
        "artifact": artifact,
        "reference": reference,
        "reads": reads,
        "offline_records": records,
        "offline_sam": buffer.getvalue(),
        "contigs": offline.contigs,
    }


_OPEN_CORES: list[ServiceCore] = []


def make_core(service_env, **kwargs) -> ServiceCore:
    """A core over the artifact (``thread`` mode unless ``mode`` is
    given), closed when the calling test ends."""
    core = ServiceCore(Mapper.from_artifact(service_env["artifact"]),
                       **kwargs)
    _OPEN_CORES.append(core)
    return core


@pytest.fixture(autouse=True)
def close_cores():
    """No batcher thread or pool worker outlives the test that
    started it."""
    yield
    while _OPEN_CORES:
        _OPEN_CORES.pop().close()


def served_sam(service_env, payloads) -> str:
    records = [payload_to_sam_record(p["sam"]) for p in payloads]
    buffer = io.StringIO()
    with SamWriter(buffer, service_env["contigs"]) as writer:
        for record in records:
            writer.write(record)
    return buffer.getvalue()


class TestProtocol:
    def test_encode_line_is_deterministic(self):
        a = encode_line({"b": 1, "a": [2, {"z": 3, "y": 4}]})
        b = encode_line({"a": [2, {"y": 4, "z": 3}], "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_parse_single_read(self):
        request = parse_request(
            '{"op": "map", "id": 7, "read": "ACGT"}')
        assert request == {"op": "map", "id": 7,
                           "reads": [("read", "ACGT")]}

    def test_parse_batch_normalizes_entries(self):
        request = parse_request(
            '{"op": "map_batch", "reads": ["ACGT", ["r9", "TTTT"]]}')
        assert request["reads"] == [("read0", "ACGT"), ("r9", "TTTT")]

    def test_parse_pair(self):
        request = parse_request(
            '{"op": "map_pair", "read1": "AC", "read2": "GT",'
            ' "name": "p"}')
        assert request["pair"] == ("p", "AC", "GT")

    @pytest.mark.parametrize("line", [
        "not json at all",
        "[1, 2, 3]",
        '{"op": "explode"}',
        '{"op": "map"}',
        '{"op": "map", "read": ""}',
        '{"op": "map", "read": 42}',
        '{"op": "map", "read": "ACGT", "name": 5}',
        '{"op": "map_batch"}',
        '{"op": "map_batch", "reads": []}',
        '{"op": "map_batch", "reads": [["only-name"]]}',
        '{"op": "map_pair", "read1": "ACGT"}',
    ])
    def test_malformed_requests_are_typed_errors(self, line):
        with pytest.raises(ServiceError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == "bad_request"

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError):
            error_response(1, "no_such_code", "boom")
        with pytest.raises(ValueError):
            ServiceError("no_such_code", "boom")

    def test_error_codes_vocabulary(self):
        assert {"bad_request", "invalid_read", "overloaded",
                "timeout", "shutting_down",
                "internal"} == ERROR_CODES


class TestServiceCoreSerial:
    """One request at a time through a thread-mode core: every op
    round-trips."""

    @pytest.fixture(scope="class")
    def core(self, service_env):
        core = ServiceCore(
            Mapper.from_artifact(service_env["artifact"]))
        yield core
        core.close()

    def test_ping(self, core):
        response = core.handle_line('{"op": "ping", "id": 1}')
        assert response["ok"] and response["id"] == 1
        assert response["result"]["protocol"] == PROTOCOL_VERSION

    def test_contigs(self, core, service_env):
        response = core.handle_line('{"op": "contigs"}')
        assert response["result"]["contigs"] == [
            [name, length]
            for name, length in service_env["contigs"]]

    def test_map_matches_offline_record(self, core, service_env):
        name, sequence = service_env["reads"][0]
        offline = service_env["offline_records"][0]
        response = core.handle(parse_request(encode_line(
            {"op": "map", "read": sequence, "name": name}
        ).decode().strip()))
        payload = response["result"]["reads"][0]
        assert payload["record"]["mapped"] == offline.mapped
        assert payload["record"]["position"] == offline.position
        assert payload["record"]["cigar"] == offline.cigar

    def test_map_batch_sam_bytes_match_offline(self, core,
                                               service_env):
        response = core.handle(parse_request(encode_line({
            "op": "map_batch",
            "reads": [[n, s] for n, s in service_env["reads"]],
        }).decode().strip()))
        assert served_sam(service_env, response["result"]["reads"]) \
            == service_env["offline_sam"]

    def test_map_pair(self, core, service_env):
        (_, r1), (_, r2) = service_env["reads"][:2]
        response = core.handle_line(encode_line({
            "op": "map_pair", "read1": r1, "read2": r2,
            "name": "p0"}).decode().strip())
        result = response["result"]
        assert len(result["mates"]) == 2
        assert result["mates"][0]["record"]["paired"]
        assert result["mates"][0]["sam"]["qname"] == "p0/1"

    def test_invalid_read_is_typed(self, core):
        response = core.handle_line('{"op": "map", "read": "ACGTX?"}')
        assert not response["ok"]
        assert response["error"]["code"] == "invalid_read"

    def test_malformed_line_is_typed(self, core):
        response = core.handle_line("}{")
        assert not response["ok"]
        assert response["id"] is None
        assert response["error"]["code"] == "bad_request"


class TestMicroBatching:
    def test_manual_mode_coalesces_into_one_dispatch(
            self, service_env):
        core = make_core(service_env, mode="manual", batch_size=64)
        slots = [core.submit(parse_request(encode_line(
            {"op": "map", "read": seq, "name": name}
        ).decode().strip()))
            for name, seq in service_env["reads"]]
        assert core.batcher.queue_depth == len(service_env["reads"])
        assert core.batcher.drain_once() == len(service_env["reads"])
        payloads = [slot.resolve()["result"]["reads"][0]
                    for slot in slots]
        # One shared kernel dispatch...
        assert core.counters.batches_dispatched == 1
        assert core.counters.max_batch_size == len(
            service_env["reads"])
        # ...and still byte-identical to the offline SAM.
        assert served_sam(service_env, payloads) \
            == service_env["offline_sam"]

    def test_batch_size_caps_one_drain(self, service_env):
        core = make_core(service_env, mode="manual", batch_size=10)
        for name, seq in service_env["reads"]:
            core.submit(parse_request(encode_line(
                {"op": "map", "read": seq, "name": name}
            ).decode().strip()))
        drained = core.batcher.drain_once()
        assert drained == 10
        assert core.batcher.queue_depth \
            == len(service_env["reads"]) - 10

    def test_mixed_reads_and_pairs_in_one_drain(self, service_env):
        core = make_core(service_env, mode="manual")
        (n1, s1), (n2, s2) = service_env["reads"][:2]
        read_slot = core.submit(parse_request(
            f'{{"op": "map", "read": "{s1}", "name": "{n1}"}}'))
        pair_slot = core.submit(parse_request(
            f'{{"op": "map_pair", "read1": "{s1}",'
            f' "read2": "{s2}"}}'))
        assert core.batcher.drain_once() == 2
        assert read_slot.resolve()["ok"]
        assert pair_slot.resolve()["ok"]

    def test_thread_mode_matches_serial_results(self, service_env):
        """Requests queued together coalesce on the drain thread and
        still equal the offline mapper, record for record."""
        threaded = make_core(service_env, batch_window_s=0.01,
                             batch_size=8)
        slots = [threaded.submit(parse_request(encode_line(
            {"op": "map", "read": seq, "name": name}
        ).decode().strip()))
            for name, seq in service_env["reads"]]
        payloads = [slot.resolve()["result"]["reads"][0]
                    for slot in slots]
        assert [payload["record"] for payload in payloads] == [
            record_payload(record)
            for record in service_env["offline_records"]]
        assert served_sam(service_env, payloads) \
            == service_env["offline_sam"]


class TestBackpressureTimeoutShutdown:
    def test_overloaded_when_queue_full(self, service_env):
        core = make_core(service_env, mode="manual", max_queue=4)
        for name, seq in service_env["reads"][:4]:
            core.batcher.submit_reads([(name, seq)])
        with pytest.raises(ServiceError) as excinfo:
            core.batcher.submit_reads([("overflow", "ACGT")])
        assert excinfo.value.code == "overloaded"
        assert core.counters.rejected_overloaded == 1
        # Draining makes room again.
        core.batcher.drain_once()
        core.batcher.submit_reads([("after-drain", "ACGT")])

    def test_queue_wait_timeout(self, service_env):
        core = make_core(service_env, mode="manual",
                         timeout_s=0.005)
        ticket = core.batcher.submit_reads(
            [service_env["reads"][0]])
        time.sleep(0.02)
        core.batcher.drain_once()
        with pytest.raises(ServiceError) as excinfo:
            ticket.wait()
        assert excinfo.value.code == "timeout"
        assert core.counters.rejected_timeout == 1

    def test_close_drains_queued_work(self, service_env):
        # A long window would normally delay dispatch; close() must
        # not wait for it, and must resolve every accepted ticket.
        core = make_core(service_env, mode="thread",
                         batch_window_s=30.0, batch_size=1024)
        tickets = [core.batcher.submit_reads([(name, seq)])
                   for name, seq in service_env["reads"][:6]]
        core.close()
        for ticket, (name, _) in zip(tickets,
                                     service_env["reads"][:6]):
            results = ticket.wait()
            assert len(results) == 1
            assert results[0]["record"]["read_name"] == name

    def test_submit_after_close_is_shutting_down(self, service_env):
        core = make_core(service_env, mode="thread")
        core.close()
        with pytest.raises(ServiceError) as excinfo:
            core.batcher.submit_reads([("late", "ACGT")])
        assert excinfo.value.code == "shutting_down"
        assert core.counters.snapshot()["rejected_shutdown"] == 1


class TestStats:
    def test_latency_window_percentiles(self):
        window = LatencyWindow(capacity=4)
        assert window.percentile(50) is None
        for value in (0.4, 0.1, 0.3, 0.2):
            window.record(value)
        assert window.percentile(0) == 0.1
        # Nearest rank: the ceil(rank / 100 * n)-th smallest.
        assert window.percentile(25) == 0.1
        assert window.percentile(50) == 0.2
        assert window.percentile(95) == 0.4
        # Overwrite wraps: capacity stays bounded.
        window.record(0.9)
        assert len(window) == 4

    def test_counters_reject_unknown_kind(self):
        with pytest.raises(ValueError):
            ServiceCounters().record_rejection("bogus")

    def test_stats_counters_are_accurate(self, service_env):
        core = make_core(service_env)
        reads = service_env["reads"][:3]
        for name, seq in reads:
            core.handle_line(encode_line(
                {"op": "map", "read": seq,
                 "name": name}).decode().strip())
        (_, r1), (_, r2) = service_env["reads"][:2]
        core.handle_line(encode_line(
            {"op": "map_pair", "read1": r1,
             "read2": r2}).decode().strip())
        core.handle_line('{"op": "bogus"}')        # bad_request
        core.handle_line('{"op": "map", "read": "Q"}')  # invalid
        payload = core.handle_line('{"op": "stats"}')["result"]

        service = payload["service"]
        # 3 maps + 1 pair + bad op + invalid read; the stats call
        # itself is still in flight when the snapshot is taken.
        assert service["requests_total"] == 6
        assert service["requests_failed"] == 2
        assert service["reads_mapped"] == 3
        assert service["pairs_mapped"] == 1
        assert service["batches_dispatched"] == 4
        assert service["batch_reads_total"] == 4
        assert service["max_batch_size"] == 1
        assert service["queue_depth"] == 0
        assert service["latency_p50_s"] is not None
        # The mapping-domain stats ride along.
        assert payload["pipeline"]["reads"] == 5  # 3 single + pair
        assert payload["pipeline"]["reads_mapped"] >= 3
        assert payload["protocol"] == PROTOCOL_VERSION

    def test_stats_pairs_reported_once(self, service_env):
        """Pair counters live in ``PipelineStats.pairs``; the payload
        reports them once, at the top level: ``"pairs"`` has exactly
        the ``PairStats`` fields and ``"pipeline"`` no ``pairs`` key."""
        core = make_core(service_env)
        (_, r1), (_, r2) = service_env["reads"][:2]
        core.handle_line(encode_line(
            {"op": "map_pair", "read1": r1,
             "read2": r2}).decode().strip())
        payload = core.handle_line('{"op": "stats"}')["result"]
        assert set(payload["pairs"]) == {
            f.name for f in dataclasses.fields(PairStats)}
        assert payload["pairs"]["pairs"] == 1
        assert "pairs" not in payload["pipeline"]

    def test_batcher_validates_knobs(self, service_env):
        with pytest.raises(ValueError):
            MicroBatcher(lambda x: x, lambda x: x, batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda x: x, lambda x: x, max_queue=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda x: x, lambda x: x, mode="warp")
        # The inline-dispatch mode is gone: thread serves, manual is
        # the deterministic test seam.
        with pytest.raises(ValueError):
            MicroBatcher(lambda x: x, lambda x: x, mode="serial")


class TestSocketServer:
    def test_tcp_end_to_end_byte_identical(self, service_env):
        core = make_core(service_env, mode="thread",
                         batch_window_s=0.005, batch_size=32)
        server = ServiceServer.tcp(core).start()
        host, port = server.address
        try:
            with ServiceClient.connect(host, port) as client:
                assert client.ping()["status"] == "ok"
                payloads = client.map_stream(service_env["reads"],
                                             window=16)
                assert served_sam(service_env, payloads) \
                    == service_env["offline_sam"]
                stats = client.stats()
                assert stats["service"]["reads_mapped"] \
                    == len(service_env["reads"])
                # Pipelining actually coalesced: fewer dispatches
                # than reads.
                assert stats["service"]["batches_dispatched"] \
                    < len(service_env["reads"])
                assert client.contigs() == service_env["contigs"]
        finally:
            server.stop()

    def test_unix_socket_and_shutdown_op(self, service_env,
                                         tmp_path):
        socket_path = tmp_path / "svc.sock"
        core = make_core(service_env, mode="thread")
        server = ServiceServer.unix(core, socket_path).start()
        client = ServiceClient.connect_unix(str(socket_path))
        name, seq = service_env["reads"][0]
        payload = client.map(seq, name=name)
        assert payload["record"]["read_name"] == name
        assert client.shutdown()["stopping"]
        client.close()
        server.stop()
        assert not socket_path.exists()

    def test_wire_errors_are_typed(self, service_env):
        core = make_core(service_env, mode="thread")
        server = ServiceServer.tcp(core).start()
        host, port = server.address
        try:
            with ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.map("NOT-DNA!")
                assert excinfo.value.code == "invalid_read"
                with pytest.raises(ServiceError) as excinfo:
                    client.call("warp_speed")
                assert excinfo.value.code == "bad_request"
                # The connection survives errors.
                assert client.ping()["status"] == "ok"
        finally:
            server.stop()

    def test_batch_request_over_the_wire(self, service_env):
        core = make_core(service_env, mode="thread")
        server = ServiceServer.tcp(core).start()
        host, port = server.address
        try:
            with ServiceClient.connect(host, port) as client:
                payloads = client.map_batch(service_env["reads"])
                assert served_sam(service_env, payloads) \
                    == service_env["offline_sam"]
                pair = client.map_pair(service_env["reads"][0][1],
                                       service_env["reads"][1][1])
                assert len(pair["mates"]) == 2
        finally:
            server.stop()
