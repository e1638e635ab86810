from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from conftest import StubPeer, make_object
from nde4.archive import Archive, BadPreamble, UnknownUID
from nde4.errors import Nde4Error
from nde4.framing import Channel, decode_frame, encode_frame
from nde4.identity import InstanceId, TypeId
from nde4.sovereignty import (
    ACCEPT,
    ACTIVE,
    DELETE,
    DENY,
    EXHAUSTED,
    EXPIRED,
    OFFER,
    OFFERED,
    OP_ACCEPT,
    OP_CONSUME,
    OP_DATA,
    OP_ERROR,
    OP_FORWARD,
    OP_OFFER,
    READ,
    REVOKED,
    Connector,
    ForwardProhibited,
    InvalidPolicy,
    PolicyExhausted,
    PolicyExpired,
    UnknownContract,
    UsagePolicy,
    WrongConsumer,
    WrongState,
    _FORWARD_BODY,
    _OFFER_BODY,
    _SENDER_BODY,
    clamp_policy,
    policy_from_wire,
    policy_problems,
    replay,
)

STEEL = InstanceId(TypeId("steel", "connector"), "c-1")
FORGE = InstanceId(TypeId("forge", "connector"), "c-1")
AERO = InstanceId(TypeId("aero", "connector"), "c-1")


@pytest.fixture
def pair(tmp_path, clock):
    archive = Archive(tmp_path / "steel-data", clock)
    archive.store(make_object(uid="obj-1"))
    provider = Connector(
        "steel", STEEL, clock, archive=archive, audit_dir=tmp_path / "audit"
    )
    consumer = Connector("forge", FORGE, clock, audit_dir=tmp_path / "audit")
    provider.link(consumer)
    return provider, consumer


def test_policy_problems():
    now = "20200101T000000"
    assert policy_problems(UsagePolicy(), now) == ()
    assert policy_problems(UsagePolicy(max_reads=1), now) == ()
    assert policy_problems(UsagePolicy(max_reads=0), now)
    assert policy_problems(UsagePolicy(expires="whenever"), now)
    assert policy_problems(UsagePolicy(expires="20190101T000000"), now)
    assert policy_problems(UsagePolicy(expires=now), now)
    assert policy_problems(UsagePolicy(purpose="no good"), now)


def test_offer_refuses_non_ascii_expiry(pair, clock):
    # Arabic-Indic digits for 2020: strptime reads them as digits, and the
    # text sorts after every ASCII time, so it would never expire
    provider, _ = pair
    clock.advance(60)
    expires = "\u0662\u0660\u0662\u06600101T000000"
    assert policy_problems(UsagePolicy(expires=expires), clock.now_text())
    with pytest.raises(InvalidPolicy):
        provider.offer(FORGE, "obj-1", UsagePolicy(expires=expires))


def test_connector_name_must_be_token(clock):
    with pytest.raises(ValueError):
        Connector("bad name!", STEEL, clock)


def test_offer_accept_consume_lifecycle(pair):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy(max_reads=2))
    assert provider.contract(cid).state == OFFERED
    consumer.accept(cid)
    assert provider.contract(cid).state == ACTIVE
    obj = consumer.consume(cid)
    assert obj.order_id == "ORD-7"
    snapshot = provider.contract(cid)
    assert snapshot.reads_done == 1
    assert snapshot.remaining_reads == 1
    # first read of two keeps the cache warm; the second erases it
    assert consumer.cached(cid)
    consumer.consume(cid)
    assert not consumer.cached(cid)
    assert provider.contract(cid).state == EXHAUSTED


def test_offer_guards(pair, clock):
    provider, consumer = pair
    with pytest.raises(UnknownUID):
        provider.offer(FORGE, "obj-404", UsagePolicy())
    with pytest.raises(InvalidPolicy):
        provider.offer(FORGE, "obj-1", UsagePolicy(max_reads=0))
    for wrong_type in (UsagePolicy(max_reads=True), UsagePolicy(expires=5)):
        with pytest.raises(InvalidPolicy):
            provider.offer(FORGE, "obj-1", wrong_type)
    with pytest.raises(WrongConsumer):
        provider.offer(AERO, "obj-1", UsagePolicy())  # no link to aero
    guarded = Connector("guarded", STEEL, clock, archive=provider._archive,
                        certified=[AERO])
    guarded.link(consumer)
    with pytest.raises(WrongConsumer):
        guarded.offer(FORGE, "obj-1", UsagePolicy())


def test_view_once_single_read_and_erasure(pair):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy(max_reads=1))
    consumer.accept(cid)
    consumer.consume(cid)
    assert not consumer.cached(cid)
    assert provider.contract(cid).state == EXHAUSTED
    with pytest.raises(PolicyExhausted):
        consumer.consume(cid)
    actions = [e.action for e in consumer.audit_events(cid)]
    assert actions == [ACCEPT, READ, DELETE, DENY]


def test_view_once_under_contention(pair):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy(max_reads=1))
    consumer.accept(cid)
    outcomes: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def attempt():
        barrier.wait()
        try:
            consumer.consume(cid)
            with lock:
                outcomes.append("ok")
        except PolicyExhausted:
            with lock:
                outcomes.append("deny")

    threads = [threading.Thread(target=attempt) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcomes.count("ok") == 1
    assert outcomes.count("deny") == 7
    assert not consumer.cached(cid)


def test_failed_view_once_read_leaves_no_bytes(clock):
    # the provider's last read of a view-once contract carries bytes that do
    # not decode: nothing is cached, and the consumer audits the refusal
    consumer = Connector("forge", FORGE, clock)
    peer = StubPeer(STEEL)
    consumer.link(peer)
    cid = peer.offer(consumer, "ctr-1")
    header = b'{"contractId":"ctr-1","exhausted":true}'
    length = len(header).to_bytes(4, "little")
    peer.answers[OP_CONSUME] = bytes([OP_DATA]) + length + header + b"junk"
    with pytest.raises(BadPreamble):
        consumer.consume(cid)
    assert not consumer.cached(cid)
    events = [(e.action, e.detail) for e in consumer.audit_events(cid)]
    assert events == [(DENY, "BadPreamble: expected b'NDEO' preamble")]


def test_accept_answer_must_report_an_active_contract(clock):
    # the handshake completes only on the state ACTIVE; any other answered
    # state is unreadable and audits no ACCEPT
    consumer = Connector("forge", FORGE, clock)
    peer = StubPeer(STEEL)
    consumer.link(peer)
    cid = peer.offer(consumer, "ctr-1")

    def answer(state: str) -> bytes:
        return bytes([OP_ACCEPT]) + json.dumps({"contractId": cid, "state": state}).encode()

    for state in ("REVOKED", "x", ""):
        peer.answers[OP_ACCEPT] = answer(state)
        with pytest.raises(Nde4Error, match="unreadable ACCEPT response"):
            consumer.accept(cid)
    assert ACCEPT not in [e.action for e in consumer.audit_events(cid)]
    peer.answers[OP_ACCEPT] = answer(ACTIVE)
    consumer.accept(cid)
    assert [e.action for e in consumer.audit_events(cid)][-1] == ACCEPT


def test_consume_guards(pair):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy())
    with pytest.raises(WrongState):
        consumer.consume(cid)  # not yet accepted
    with pytest.raises(UnknownContract):
        consumer.consume("ctr-ghost")
    with pytest.raises(UnknownContract):
        consumer.accept("ctr-ghost")
    consumer.accept(cid)
    with pytest.raises(WrongState):
        consumer.accept(cid)  # already active


def test_wrong_consumer_rejected_on_the_wire(pair):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy())
    consumer.accept(cid)
    body = json.dumps(
        {"contractId": cid, "from": str(AERO)}, sort_keys=True
    ).encode()
    request = encode_frame(Channel.SOVEREIGN, bytes([OP_CONSUME]) + body)
    payload = decode_frame(provider.handle(request)).payload
    assert payload[0] == OP_ERROR
    assert json.loads(payload[1:])["code"] == "WrongConsumer"
    # the impostor read neither bytes nor budget
    assert provider.contract(cid).reads_done == 0


def test_malformed_wire_requests(pair):
    provider, consumer = pair
    bad_json = encode_frame(Channel.SOVEREIGN, bytes([OP_CONSUME]) + b"{nope")
    payload = decode_frame(provider.handle(bad_json)).payload
    assert payload[0] == OP_ERROR
    assert json.loads(payload[1:])["code"] == "MalformedRequest"
    unknown_op = encode_frame(Channel.SOVEREIGN, bytes([0x55]) + b"{}")
    payload = decode_frame(provider.handle(unknown_op)).payload
    assert json.loads(payload[1:])["code"] == "MalformedRequest"
    empty = encode_frame(Channel.SOVEREIGN, b"")
    payload = decode_frame(provider.handle(empty)).payload
    assert payload[0] == OP_ERROR
    # well-formed JSON of the wrong shape is a malformed request, not a crash
    for opcode, body in (
        (OP_CONSUME, b"{}"),
        (OP_CONSUME, b"[]"),
        (OP_ACCEPT, b'{"from":"x"}'),
        (OP_OFFER, b'{"contractId":"c"}'),
        (OP_FORWARD, b"[1]"),
    ):
        request = encode_frame(Channel.SOVEREIGN, bytes([opcode]) + body)
        payload = decode_frame(provider.handle(request)).payload
        assert payload[0] == OP_ERROR
        assert json.loads(payload[1:])["code"] == "MalformedRequest"
    cid = provider.offer(FORGE, "obj-1", UsagePolicy(allow_forward=True))
    consumer.accept(cid)
    # a requested policy that is no object, or holds a value of the wrong type
    for requested in (
        5, {"allowForward": "false"}, {"maxReads": True}, {"expires": 5}
    ):
        body = json.dumps(
            {"contractId": cid, "from": str(FORGE), "requestedPolicy": requested}
        )
        request = encode_frame(Channel.SOVEREIGN, bytes([OP_FORWARD]) + body.encode())
        payload = decode_frame(provider.handle(request)).payload
        assert json.loads(payload[1:])["code"] == "MalformedRequest"
    wrong_channel = encode_frame(Channel.ARCHIVE, bytes([OP_CONSUME]) + b"{}")
    response = decode_frame(provider.handle(wrong_channel))
    assert response.channel == Channel.SOVEREIGN
    assert json.loads(response.payload[1:])["code"] == "MalformedRequest"


def test_expiry_on_the_logical_clock(pair, clock):
    provider, consumer = pair
    cid = provider.offer(
        FORGE, "obj-1", UsagePolicy(expires="20200101T000010")
    )
    consumer.accept(cid)
    consumer.consume(cid)  # inside the window
    clock.advance(11)
    with pytest.raises(PolicyExpired):
        consumer.consume(cid)
    assert provider.contract(cid).state == EXPIRED
    with pytest.raises(PolicyExpired):
        consumer.consume(cid)  # stays expired


def test_revocation(pair):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy())
    consumer.accept(cid)
    provider.revoke(cid)
    assert provider.contract(cid).state == REVOKED
    with pytest.raises(WrongState):
        consumer.consume(cid)
    with pytest.raises(WrongState):
        provider.revoke(cid)  # terminal already
    with pytest.raises(UnknownContract):
        provider.revoke("ctr-ghost")


def test_clamp_policy_rules():
    parent = UsagePolicy(max_reads=5, expires="20200301T000000", allow_forward=True)
    granted = clamp_policy(parent, 3, UsagePolicy(max_reads=9, allow_forward=True))
    assert granted.max_reads == 3
    assert granted.expires == "20200301T000000"
    assert granted.allow_forward
    tighter = clamp_policy(
        parent, 3, UsagePolicy(max_reads=2, expires="20200201T000000")
    )
    assert tighter.max_reads == 2
    assert tighter.expires == "20200201T000000"
    assert not tighter.allow_forward  # request did not ask
    inherited = clamp_policy(parent, 4, None)
    assert inherited.max_reads == 4
    assert inherited.allow_forward
    unlimited = clamp_policy(UsagePolicy(allow_forward=True), None, None)
    assert unlimited.max_reads is None


def test_forwarding_chain(pair, tmp_path, clock):
    provider, consumer = pair
    third = Connector("aero", AERO, clock, audit_dir=tmp_path / "audit")
    consumer.link(third)
    cid = provider.offer(
        FORGE, "obj-1", UsagePolicy(max_reads=3, allow_forward=True)
    )
    consumer.accept(cid)
    consumer.consume(cid)
    derived = consumer.forward(cid, AERO, UsagePolicy(max_reads=9))
    granted = consumer.contract(derived)
    assert granted.policy.max_reads == 2  # clamped to the parent remainder
    assert granted.consumer == AERO
    third.accept(derived)
    obj = third.consume(derived)  # data flows back through the origin
    assert obj.order_id == "ORD-7"


def test_forward_prohibited(pair, tmp_path, clock):
    provider, consumer = pair
    third = Connector("aero", AERO, clock)
    consumer.link(third)
    cid = provider.offer(FORGE, "obj-1", UsagePolicy(allow_forward=False))
    consumer.accept(cid)
    with pytest.raises(ForwardProhibited):
        consumer.forward(cid, AERO)
    denies = [e for e in provider.audit_events(cid) if e.action == DENY]
    assert denies


def test_replay_reconstructs_contract_state(pair):
    provider, consumer = pair
    policy = UsagePolicy(max_reads=3)
    cid = provider.offer(FORGE, "obj-1", policy)
    consumer.accept(cid)
    consumer.consume(cid)
    consumer.consume(cid)
    provider.revoke(cid)
    contract = provider.contract(cid)
    assert replay(policy, provider.audit_events(cid)) == (
        contract.state,
        contract.reads_done,
    )
    exhaust_policy = UsagePolicy(max_reads=1)
    cid2 = provider.offer(FORGE, "obj-1", exhaust_policy)
    consumer.accept(cid2)
    consumer.consume(cid2)
    with pytest.raises(PolicyExhausted):
        consumer.consume(cid2)
    contract2 = provider.contract(cid2)
    assert replay(exhaust_policy, provider.audit_events(cid2)) == (
        contract2.state,
        contract2.reads_done,
    )


def test_audit_log_lines_on_disk(pair, tmp_path):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy(max_reads=1))
    consumer.accept(cid)
    consumer.consume(cid)
    path = tmp_path / "audit" / "audit-steel.log"
    lines = path.read_text().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert [p["action"] for p in parsed] == [
        e.action for e in provider.audit_events()
    ]
    assert all(
        set(p) == {"at", "contractId", "action", "detail"} for p in parsed
    )
    assert any(p["action"] == OFFER for p in parsed)


def test_contract_snapshot_is_detached(pair):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy(max_reads=2))
    snapshot = provider.contract(cid)
    snapshot.state = "vandalized"
    assert provider.contract(cid).state == OFFERED


def test_provider_denies_are_audited_both_sides(pair):
    provider, consumer = pair
    cid = provider.offer(FORGE, "obj-1", UsagePolicy(max_reads=1))
    consumer.accept(cid)
    consumer.consume(cid)
    with pytest.raises(PolicyExhausted):
        consumer.consume(cid)
    provider_denies = [e for e in provider.audit_events(cid) if e.action == DENY]
    consumer_denies = [e for e in consumer.audit_events(cid) if e.action == DENY]
    assert len(provider_denies) == 1
    assert len(consumer_denies) == 1


def test_taps_observe_sovereign_frames(pair, clock, tmp_path):
    frames: list[bytes] = []
    archive = Archive(tmp_path / "tapped-data", clock)
    archive.store(make_object(uid="obj-1"))
    provider = Connector("tapped", STEEL, clock, archive=archive, taps=[frames.append])
    consumer = Connector("watcher", FORGE, clock)
    provider.link(consumer)
    provider.offer(FORGE, "obj-1", UsagePolicy())
    assert len(frames) == 2  # request and response
    for raw in frames:
        frame = decode_frame(raw)
        assert frame.channel == Channel.SOVEREIGN


def test_formats_doc_states_every_request_key():
    formats = Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"
    section = formats.read_text("utf-8").split("\n## Sovereignty wire")[1].split("\n## ")[0]
    rows = _OFFER_BODY + _SENDER_BODY + _FORWARD_BODY + policy_from_wire.rows
    assert [key for _, key, _ in rows if f"`{key}`" not in section] == []
