from __future__ import annotations

import json
import socket
import threading
from functools import partial

import pytest

from conftest import make_object, record_range
from nde4.archive import (
    Archive,
    ArchiveWire,
    OP_ERROR,
    OP_FETCH,
    OP_QUERY,
    OP_RESULT,
    OP_STORE,
    SEGMENT_FILE,
    decode_object,
    encode_object,
)
from nde4.framing import BadMagic, Channel, decode_frame, encode_frame, serve_frame
from nde4.identity import InstanceId, TypeId
from nde4.sovereignty import (
    OP_CONSUME,
    OP_DATA,
    Connector,
    UsagePolicy,
)
from nde4.timebase import LogicalClock
from nde4.transport import ConnectionClosed, FrameClient, FrameServer


@pytest.fixture
def served_archive(store):
    handler = partial(serve_frame, Channel.ARCHIVE, ArchiveWire(store).request)
    with FrameServer(handler) as server:
        yield store, server.address


def test_store_fetch_query_over_tcp(served_archive):
    store, (host, port) = served_archive
    with FrameClient(host, port) as client:
        raw = encode_object(make_object(uid="obj-1"))
        request = encode_frame(Channel.ARCHIVE, bytes([OP_STORE]) + raw)
        payload = decode_frame(client.request(request)).payload
        assert payload[0] == OP_RESULT
        assert json.loads(payload[1:]) == {"uid": "obj-1"}

        request = encode_frame(
            Channel.ARCHIVE, bytes([OP_FETCH]) + b'{"uid":"obj-1"}'
        )
        payload = decode_frame(client.request(request)).payload
        assert payload[0] == OP_RESULT
        assert decode_object(payload[1:]) == make_object(uid="obj-1")

        request = encode_frame(
            Channel.ARCHIVE, bytes([OP_QUERY]) + b'{"method":"UT"}'
        )
        payload = decode_frame(client.request(request)).payload
        assert json.loads(payload[1:]) == {"uids": ["obj-1"]}
    assert store.uids() == ("obj-1",)


def test_errors_cross_the_wire_as_frames(served_archive):
    _, (host, port) = served_archive
    with FrameClient(host, port) as client:
        request = encode_frame(
            Channel.ARCHIVE, bytes([OP_FETCH]) + b'{"uid":"ghost"}'
        )
        payload = decode_frame(client.request(request)).payload
        assert payload[0] == OP_ERROR
        assert json.loads(payload[1:])["code"] == "UnknownUID"


def test_wrong_shape_body_keeps_the_link(served_archive):
    store, (host, port) = served_archive
    store.store(make_object(uid="obj-1"))
    with FrameClient(host, port) as client:
        request = encode_frame(Channel.ARCHIVE, bytes([OP_FETCH]) + b"[1]")
        payload = decode_frame(client.request(request)).payload
        assert payload[0] == OP_ERROR
        assert json.loads(payload[1:])["code"] == "MalformedRequest"
        # the server answered instead of dropping the connection
        request = encode_frame(
            Channel.ARCHIVE, bytes([OP_FETCH]) + b'{"uid":"obj-1"}'
        )
        payload = decode_frame(client.request(request)).payload
        assert payload[0] == OP_RESULT


def test_missing_object_file_keeps_the_link(served_archive):
    store, (host, port) = served_archive
    store.store(make_object(uid="obj-1"))
    store.store(make_object(uid="obj-2"))
    # cut the segment before obj-2's record
    segment = store.directory / SEGMENT_FILE
    segment.write_bytes(segment.read_bytes()[: record_range(store.directory, "obj-2").start])
    with FrameClient(host, port) as client:
        request = encode_frame(
            Channel.ARCHIVE, bytes([OP_FETCH]) + b'{"uid":"obj-2"}'
        )
        payload = decode_frame(client.request(request)).payload
        assert payload[0] == OP_ERROR
        assert json.loads(payload[1:])["code"] == "UnreadableObject"
        request = encode_frame(
            Channel.ARCHIVE, bytes([OP_FETCH]) + b'{"uid":"obj-1"}'
        )
        payload = decode_frame(client.request(request)).payload
        assert payload[0] == OP_RESULT


def test_concurrent_clients_share_one_archive(served_archive):
    store, (host, port) = served_archive
    failures: list[Exception] = []

    def worker(n: int) -> None:
        try:
            with FrameClient(host, port) as client:
                for k in range(5):
                    raw = encode_object(
                        make_object(uid=f"obj-{n}-{k}", order_id=f"ORD-{n}")
                    )
                    request = encode_frame(
                        Channel.ARCHIVE, bytes([OP_STORE]) + raw
                    )
                    payload = decode_frame(client.request(request)).payload
                    assert payload[0] == OP_RESULT
        except Exception as exc:  # surfaced after join
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert len(store.uids()) == 30
    assert store.verify_chain().ok


def test_connector_answers_over_tcp(tmp_path, clock):
    steel = InstanceId(TypeId("steel", "connector"), "c-1")
    forge = InstanceId(TypeId("forge", "connector"), "c-1")
    archive = Archive(tmp_path / "data", clock)
    archive.store(make_object(uid="obj-1"))
    provider = Connector("steel", steel, clock, archive=archive)
    consumer = Connector("forge", forge, clock)
    provider.link(consumer)
    cid = provider.offer(forge, "obj-1", UsagePolicy(max_reads=1))
    consumer.accept(cid)
    with FrameServer(provider.handle) as server:
        host, port = server.address
        with FrameClient(host, port) as client:
            body = json.dumps({"contractId": cid, "from": str(forge)}).encode()
            request = encode_frame(
                Channel.SOVEREIGN, bytes([OP_CONSUME]) + body
            )
            payload = decode_frame(client.request(request)).payload
            assert payload[0] == OP_DATA
    assert provider.contract(cid).reads_done == 1


def test_garbage_stream_drops_the_link(served_archive):
    _, (host, port) = served_archive
    with FrameClient(host, port) as client:
        with pytest.raises(ConnectionClosed):
            client.request(b"JUNKJUNKJUNKJUNK")


def test_client_detects_bad_magic_in_response():
    def hostile(_: bytes) -> bytes:
        return b"XXXX" + bytes(6)

    with FrameServer(hostile) as server:
        host, port = server.address
        with FrameClient(host, port) as client:
            request = encode_frame(Channel.ARCHIVE, bytes([OP_QUERY]) + b"{}")
            with pytest.raises(BadMagic):
                client.request(request)


@pytest.mark.parametrize(
    ("response", "error"),
    [
        (b"XXXX" + bytes(6) + b"stale tail", BadMagic),
        # the header claims 100 payload bytes and 4 arrive: times out mid-payload
        (b"NDE4\x01\x02" + (100).to_bytes(4, "little") + b"part", TimeoutError),
    ],
    ids=["bad-magic", "short-payload"],
)
def test_client_retires_its_socket_after_a_failed_request(response, error):
    requests = []

    def hostile(frame: bytes) -> bytes:
        requests.append(frame)
        return response

    with FrameServer(hostile) as server:
        host, port = server.address
        with FrameClient(host, port, timeout=0.3) as client:
            request = encode_frame(Channel.ARCHIVE, bytes([OP_QUERY]) + b"{}")
            with pytest.raises(error):
                client.request(request)
            # the rest of the bad response must not be read as the next answer
            for _ in range(2):
                with pytest.raises(ConnectionClosed):
                    client.request(request)
    assert len(requests) == 1


def test_connect_refused_after_server_stops(store):
    handler = partial(serve_frame, Channel.ARCHIVE, ArchiveWire(store).request)
    server = FrameServer(handler)
    host, port = server.start()
    server.stop()
    # connections accepted before stop() finish their in-flight work; new
    # connections must fail outright
    with pytest.raises(OSError):
        FrameClient(host, port)


def test_server_address_is_loopback_ephemeral(store):
    handler = partial(serve_frame, Channel.ARCHIVE, ArchiveWire(store).request)
    with FrameServer(handler) as server:
        host, port = server.address
        assert host == "127.0.0.1"
        assert port > 0
        # plain socket connect works; the server only speaks frames
        probe = socket.create_connection((host, port), timeout=5)
        probe.close()
