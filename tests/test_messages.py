from __future__ import annotations

import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import station_id
from nde4.identity import TypeId
from nde4.messages import (
    InspectionOrder,
    MalformedMessage,
    OrderState,
    ReportedValues,
    StatusEvent,
    TERMINAL_STATES,
    Verdict,
    _MESSAGES,
    decode_message,
    encode_message,
    is_legal_transition,
    validate_order,
    validate_report,
)


def make_order(**overrides) -> InspectionOrder:
    fields = dict(
        order_id="ORD-7",
        component_serial="SN-1",
        component_type=TypeId("acme", "pipe-weld"),
        procedure_id="proc-1",
        due="20200301T000000",
        priority=5,
        station=station_id(),
    )
    fields.update(overrides)
    return InspectionOrder(**fields)


def test_order_round_trip():
    order = make_order()
    assert decode_message(encode_message(order)) == order


def test_order_round_trip_without_station():
    order = make_order(station=None, priority=0)
    assert decode_message(encode_message(order)) == order


def test_status_round_trip():
    event = StatusEvent("ORD-7", OrderState.ASSIGNED, "20200101T000100")
    assert decode_message(encode_message(event)) == event


def test_report_round_trip_with_optional_keys():
    rv = ReportedValues(
        order_id="ORD-7",
        verdict=Verdict.REJECT,
        indication_count=2,
        max_amplitude=61.5,
        archived_refs=("obj-1", "obj-2"),
        payload_ref="obj-3",
    )
    decoded = decode_message(encode_message(rv))
    assert decoded == rv
    assert decoded.payload_ref == "obj-3" and decoded.notes is None
    assert "notes" not in json.loads(encode_message(rv))  # written only when set
    assert decoded != replace(rv, payload_ref="obj-4")  # the optional keys compare
    noted = ReportedValues("ORD-7", Verdict.ACCEPT, 0, notes="seam 3")
    assert decode_message(encode_message(noted)) == noted
    # an absent maxAmplitude or archivedRefs takes its field's default
    bare = b'{"indicationCount":0,"kind":"report","orderId":"ORD-7","verdict":"ACCEPT"}'
    assert decode_message(bare) == ReportedValues("ORD-7", Verdict.ACCEPT, 0)


def test_decode_refuses_the_retired_ack_and_error_kinds():
    for payload in (b'{"kind":"ack","of":"order","orderId":"ORD-7"}',
                    b'{"detail":"already submitted","code":"DuplicateOrder","kind":"error"}'):
        with pytest.raises(MalformedMessage, match="kind: unknown message kind"):
            decode_message(payload)


def test_wire_field_names():
    doc = json.loads(encode_message(make_order()))
    assert doc["kind"] == "order"
    assert set(doc) >= {
        "kind", "orderId", "componentSerial", "componentType",
        "procedureId", "due", "priority", "station",
    }
    rv = ReportedValues("ORD-7", Verdict.ACCEPT, 0)
    doc = json.loads(encode_message(rv))
    assert doc["kind"] == "report"
    assert set(doc) >= {"orderId", "verdict", "indicationCount", "archivedRefs"}


def test_encoding_is_canonical():
    # compact separators, sorted keys: one byte form per message
    raw = encode_message(make_order())
    assert b" " not in raw
    doc = json.loads(raw)
    assert list(doc) == sorted(doc)


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"not json",
        b"[]",
        b'{"kind":"mystery"}',
        b'{"orderId":"ORD-1"}',
        b'{"kind":"order","orderId":"ORD-1"}',  # missing fields
        b'{"kind":"status","orderId":"ORD-1","state":"LOST","at":"20200101T000000"}',
        b"[" * 100_000,
    ],
)
def test_decode_rejects_malformed(payload):
    with pytest.raises(MalformedMessage):
        decode_message(payload)


def test_state_order_is_strict():
    order = [
        OrderState.QUEUED,
        OrderState.ASSIGNED,
        OrderState.IN_PROGRESS,
        OrderState.DATA_ARCHIVED,
        OrderState.REPORTED,
    ]
    for i, current in enumerate(order):
        for j, nxt in enumerate(order):
            expected = j > i
            assert is_legal_transition(current, nxt) is expected


def test_rejected_reachable_from_any_nonterminal():
    for state in OrderState:
        if state in TERMINAL_STATES:
            assert not is_legal_transition(state, OrderState.REJECTED)
        else:
            assert is_legal_transition(state, OrderState.REJECTED)


def test_terminal_states_absorb():
    assert TERMINAL_STATES == {OrderState.REPORTED, OrderState.REJECTED}
    for terminal in TERMINAL_STATES:
        for state in OrderState:
            assert not is_legal_transition(terminal, state)


def test_transition_oracle_random():
    # oracle: rank table plus explicit terminal/reject rules
    rank = {
        OrderState.QUEUED: 0,
        OrderState.ASSIGNED: 1,
        OrderState.IN_PROGRESS: 2,
        OrderState.DATA_ARCHIVED: 3,
        OrderState.REPORTED: 4,
    }
    rng = random.Random(3003)
    states = list(OrderState)
    for _ in range(500):
        a, b = rng.choice(states), rng.choice(states)
        if a in TERMINAL_STATES:
            expected = False
        elif b == OrderState.REJECTED:
            expected = True
        else:
            expected = rank.get(b, -1) > rank.get(a, 99)
        assert is_legal_transition(a, b) is expected, (a, b)


def test_validate_order_problems():
    assert validate_order(make_order()) == ()
    assert validate_order(make_order(order_id="bad id"))
    assert validate_order(make_order(due="tomorrow"))
    assert validate_order(make_order(priority=-1))
    assert validate_order(make_order(component_serial=""))
    assert validate_order(make_order(priority=True))  # a bool is no int


def test_validate_report_problems():
    good = ReportedValues("ORD-7", Verdict.ACCEPT, 0, archived_refs=("obj-1",))
    assert validate_report(good) == ()
    reject_no_count = ReportedValues("ORD-7", Verdict.REJECT, 0)
    assert any("REJECT" in p for p in validate_report(reject_no_count))
    bad_ref = ReportedValues("ORD-7", Verdict.ACCEPT, 0, archived_refs=("bad ref",))
    assert validate_report(bad_ref)
    negative = ReportedValues("ORD-7", Verdict.ACCEPT, -1)
    assert validate_report(negative)
    # a bool is no number, and a number must survive a JSON round trip
    for count, amplitude in [(True, None), (0, True), (0, float("nan")),
                             (0, float("inf")), (0, 10**400)]:
        assert validate_report(ReportedValues("ORD-7", Verdict.ACCEPT, count, amplitude))
    assert validate_report(ReportedValues("ORD-7", Verdict.ACCEPT, 0, 61)) == ()


def test_formats_doc_states_every_message_key():
    formats = Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"
    section = formats.read_text("utf-8").split("\n## Bus messages")[1].split("\n## ")[0]
    # the section names exactly the kinds the decoder reads, no retired one
    assert re.findall(r"\n(\w+)\n: ", section) == list(_MESSAGES)
    for kind, table in _MESSAGES.items():
        # each kind's keys follow its name, up to the next kind
        entry = section.split(f"\n{kind}\n: ")[1].split("\n\n")[0]
        missing = [key for _, key, _ in table.rows if f"`{key}`" not in entry]
        assert missing == [], kind
