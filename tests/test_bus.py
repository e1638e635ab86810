from __future__ import annotations

import random

import pytest

from conftest import make_object, station_id, station_manifest
from nde4.bus import (
    DanglingArchiveRef,
    DuplicateOrder,
    IllegalTransition,
    OrdersBus,
    Procedure,
    UnknownOrder,
    UnknownStation,
    WrongOrderState,
    station_methods,
)
from nde4.errors import ValidationFailed
from nde4.framing import decode_frame
from nde4.identity import InstanceId, TypeId
from nde4.messages import (
    InspectionOrder,
    OrderState,
    ReportedValues,
    StatusEvent,
    Verdict,
    decode_message,
)
from nde4.registry import Registry

PIPE_WELD = TypeId("acme", "pipe-weld")


def order(
    order_id: str = "ORD-7",
    priority: int = 0,
    due: str = "20200201T000000",
    station: InstanceId | None = None,
    procedure_id: str = "proc-1",
) -> InspectionOrder:
    return InspectionOrder(
        order_id=order_id,
        component_serial="SN-1",
        component_type=PIPE_WELD,
        procedure_id=procedure_id,
        due=due,
        priority=priority,
        station=station,
    )


@pytest.fixture
def registry() -> Registry:
    reg = Registry()
    reg.register_shell(station_manifest(station_id("unit-1")))
    reg.register_shell(station_manifest(station_id("unit-2"), methods=("UT", "RT")))
    return reg


@pytest.fixture
def bus(registry, store, clock) -> OrdersBus:
    return OrdersBus(
        registry,
        store,
        procedures=[Procedure("proc-1", "UT", rows=2, cols=2)],
        clock=clock,
    )


def test_procedure_field_checks():
    with pytest.raises(ValueError):
        Procedure("p", "XX")
    with pytest.raises(ValueError):
        Procedure("p", "UT", rows=0)
    with pytest.raises(ValueError):
        Procedure("p", "UT", rows=0x10000)  # TAG_GRID_ROWS is u16
    with pytest.raises(ValueError):
        Procedure("p", "UT", reject_threshold=0)
    with pytest.raises(ValueError):
        Procedure("p", "UT", reject_threshold=101)
    with pytest.raises(ValueError):
        Procedure("p", "UT", min_refs=-1)


def test_station_methods_from_services(registry):
    assert station_methods(registry, station_id("unit-1")) == frozenset({"UT"})
    assert station_methods(registry, station_id("unit-2")) == frozenset(
        {"UT", "RT"}
    )


def test_submit_and_state(bus):
    assert bus.submit_order(order()) == "ORD-7"
    assert bus.order_state("ORD-7") == OrderState.QUEUED
    assert bus.order_ids() == ("ORD-7",)
    assert bus.order("ORD-7").component_serial == "SN-1"
    assert [e.state for e in bus.history("ORD-7")] == [OrderState.QUEUED]


def test_submit_rejects_duplicates_and_junk(bus):
    bus.submit_order(order())
    with pytest.raises(DuplicateOrder):
        bus.submit_order(order())
    with pytest.raises(ValidationFailed):
        bus.submit_order(order(order_id="ORD-9", procedure_id="proc-missing"))
    with pytest.raises(ValidationFailed):
        bus.submit_order(order(order_id="bad id"))
    with pytest.raises(UnknownStation):
        bus.submit_order(order(order_id="ORD-9", station=station_id("ghost")))


def test_unknown_order_everywhere(bus):
    for probe in (bus.order, bus.order_state, bus.history, bus.kpis):
        with pytest.raises(UnknownOrder):
            probe("ORD-404")
    with pytest.raises(UnknownOrder):
        bus.assign("ORD-404", station_id("unit-1"))


def test_worklist_sorting_matches_oracle(bus, clock):
    rng = random.Random(7171)
    rows = []
    for n in range(30):
        oid = f"ORD-{n:03d}"
        priority = rng.randrange(0, 10)
        due = f"2020{rng.randrange(1, 13):02d}01T000000"
        bus.submit_order(order(order_id=oid, priority=priority, due=due))
        rows.append((oid, priority, due))
        clock.advance()
    oracle = sorted(rows, key=lambda r: (-r[1], r[2], r[0]))
    got = bus.poll_worklist(station_id("unit-1"))
    assert [o.order_id for o in got] == [r[0] for r in oracle]


def test_worklist_respects_capability_and_claims(registry, store, clock):
    procedures = (Procedure("proc-1", "UT", rows=2, cols=2), Procedure("proc-rt", "RT"))
    bus = OrdersBus(registry, store, procedures, clock)
    bus.submit_order(order(order_id="ORD-1"))
    bus.submit_order(order(order_id="ORD-2", procedure_id="proc-rt"))
    # unit-1 only advertises UT; unit-2 sees both
    assert [o.order_id for o in bus.poll_worklist(station_id("unit-1"))] == ["ORD-1"]
    assert len(bus.poll_worklist(station_id("unit-2"))) == 2
    bus.assign("ORD-1", station_id("unit-2"))
    assert bus.poll_worklist(station_id("unit-1")) == ()
    assert len(bus.poll_worklist(station_id("unit-2"))) == 2
    with pytest.raises(UnknownStation):
        bus.poll_worklist(station_id("ghost"))


def test_assign_claims_exclusively(bus):
    bus.submit_order(order())
    bus.assign("ORD-7", station_id("unit-1"))
    assert bus.order_state("ORD-7") == OrderState.ASSIGNED
    with pytest.raises(WrongOrderState):
        bus.assign("ORD-7", station_id("unit-1"))  # no longer QUEUED
    with pytest.raises(UnknownStation):
        bus.assign("ORD-7", station_id("ghost"))


def test_preassigned_order_blocks_other_station(bus):
    bus.submit_order(order(station=station_id("unit-1")))
    with pytest.raises(WrongOrderState):
        bus.assign("ORD-7", station_id("unit-2"))
    bus.assign("ORD-7", station_id("unit-1"))


def test_status_transitions_enforced(bus, clock):
    bus.submit_order(order())
    bus.assign("ORD-7", station_id("unit-1"))
    bus.publish_status(
        StatusEvent("ORD-7", OrderState.IN_PROGRESS, clock.now_text())
    )
    with pytest.raises(IllegalTransition):
        bus.publish_status(
            StatusEvent("ORD-7", OrderState.ASSIGNED, clock.now_text())
        )
    bus.publish_status(
        StatusEvent("ORD-7", OrderState.REJECTED, clock.now_text())
    )
    with pytest.raises(IllegalTransition):
        bus.publish_status(
            StatusEvent("ORD-7", OrderState.QUEUED, clock.now_text())
        )
    with pytest.raises(UnknownOrder):
        bus.publish_status(
            StatusEvent("ORD-404", OrderState.QUEUED, clock.now_text())
        )


def test_report_values_happy_path(bus, store, clock):
    bus.submit_order(order())
    bus.assign("ORD-7", station_id("unit-1"))
    bus.publish_status(
        StatusEvent("ORD-7", OrderState.IN_PROGRESS, clock.now_text())
    )
    store.store(make_object(uid="obj-1"))
    bus.publish_status(
        StatusEvent("ORD-7", OrderState.DATA_ARCHIVED, clock.now_text())
    )
    rv = ReportedValues(
        order_id="ORD-7",
        verdict=Verdict.ACCEPT,
        indication_count=0,
        max_amplitude=12.5,
        archived_refs=("obj-1",),
    )
    assert bus.report_values(rv) == "ORD-7"
    assert bus.order_state("ORD-7") == OrderState.REPORTED
    assert bus.kpis("ORD-7") == rv


def drive_to_archived(bus, store, clock, order_id="ORD-7", refs=("obj-1",)):
    bus.submit_order(order(order_id=order_id))
    bus.assign(order_id, station_id("unit-1"))
    bus.publish_status(
        StatusEvent(order_id, OrderState.IN_PROGRESS, clock.now_text())
    )
    for uid in refs:
        if not store.has(uid):
            store.store(make_object(uid=uid, order_id=order_id))
    bus.publish_status(
        StatusEvent(order_id, OrderState.DATA_ARCHIVED, clock.now_text())
    )


def test_report_values_guards(bus, store, clock):
    drive_to_archived(bus, store, clock)
    with pytest.raises(UnknownOrder):
        bus.report_values(
            ReportedValues("ORD-404", Verdict.ACCEPT, 0, archived_refs=("obj-1",))
        )
    # fewer refs than the procedure demands
    with pytest.raises(ValidationFailed):
        bus.report_values(ReportedValues("ORD-7", Verdict.ACCEPT, 0))
    # negative indication count is a message-level problem
    with pytest.raises(ValidationFailed):
        bus.report_values(
            ReportedValues("ORD-7", Verdict.ACCEPT, -1, archived_refs=("obj-1",))
        )
    with pytest.raises(DanglingArchiveRef):
        bus.report_values(
            ReportedValues("ORD-7", Verdict.ACCEPT, 0, archived_refs=("obj-9",))
        )
    bus.report_values(
        ReportedValues("ORD-7", Verdict.ACCEPT, 0, archived_refs=("obj-1",))
    )
    # REPORTED is terminal for reporting too
    with pytest.raises(WrongOrderState):
        bus.report_values(
            ReportedValues("ORD-7", Verdict.ACCEPT, 0, archived_refs=("obj-1",))
        )


def test_report_optional_keys_are_what_the_decoder_admits(bus, store, clock):
    drive_to_archived(bus, store, clock)
    frames: list[bytes] = []
    bus.tap(frames.append)
    # notes and payloadRef ride along only as strings: the bus carries no
    # report that decode_message would refuse
    for optional in ({"notes": 5}, {"payload_ref": b"obj-1"}):
        with pytest.raises(ValidationFailed):
            bus.report_values(ReportedValues(
                "ORD-7", Verdict.ACCEPT, 0, archived_refs=("obj-1",), **optional
            ))
    assert frames == []
    rv = ReportedValues("ORD-7", Verdict.ACCEPT, 0, archived_refs=("obj-1",),
                        notes="seam 3", payload_ref="obj-1")
    bus.report_values(rv)
    assert decode_message(decode_frame(frames[0]).payload) == rv


def test_report_values_wrong_state_before_archive(bus, store):
    bus.submit_order(order())
    store.store(make_object(uid="obj-1"))
    with pytest.raises(WrongOrderState):
        bus.report_values(
            ReportedValues("ORD-7", Verdict.ACCEPT, 0, archived_refs=("obj-1",))
        )


def test_subscriptions_get_each_later_event_once(bus, clock):
    everything = bus.subscribe()
    bus.submit_order(order(order_id="ORD-7"))
    bus.submit_order(order(order_id="ORD-8"))
    assert [e.order_id for _, e in everything.drain()] == ["ORD-7", "ORD-8"]
    later = bus.subscribe()
    bus.assign("ORD-7", station_id("unit-1"))
    assert [e.state for _, e in later.drain()] == [OrderState.ASSIGNED]
    assert later.drain() == []
    assert [e.state for _, e in everything.drain()] == [OrderState.ASSIGNED]


def test_assign_between_the_steps_of_submit_order(bus):
    # the assign lands while the QUEUED frame is on the wire, in-process
    # and with no threads: the order and its first event are recorded
    # together, so the assign follows the QUEUED event
    events = bus.subscribe()
    carry = bus._carry

    def carry_then_assign(message):
        carry(message)
        if isinstance(message, StatusEvent) and message.state == OrderState.QUEUED:
            bus.assign(message.order_id, station_id("unit-1"))

    bus._carry = carry_then_assign
    assert bus.submit_order(order()) == "ORD-7"
    lifecycle = [OrderState.QUEUED, OrderState.ASSIGNED]
    assert [e.state for e in bus.history("ORD-7")] == lifecycle
    delivered = events.drain()
    assert [e.state for _, e in delivered] == lifecycle
    assert delivered[0][0] < delivered[1][0]


def test_taps_see_wire_frames(bus):
    frames: list[bytes] = []
    bus.tap(frames.append)
    bus.submit_order(order())
    # one order frame plus one status frame, both decodable
    assert len(frames) == 2
    frame = decode_frame(frames[0])
    assert frame.channel.name == "ORDERS"
    first = decode_message(frame.payload)
    assert isinstance(first, InspectionOrder)
    assert first.order_id == "ORD-7"
    second = decode_message(decode_frame(frames[1]).payload)
    assert isinstance(second, StatusEvent)
    # a duplicate's order frame is carried before the refusal, with no QUEUED
    with pytest.raises(DuplicateOrder):
        bus.submit_order(order())
    assert len(frames) == 3 and frames[2] == frames[0]


def test_kpis_absent_until_reported(bus):
    bus.submit_order(order())
    assert bus.kpis("ORD-7") is None


def test_terminal_orders_leave_every_worklist(bus, store, clock):
    # ORD-1 goes to REPORTED through report_values, ORD-2 is REJECTED
    # while still unassigned, ORD-3 stays open
    drive_to_archived(bus, store, clock, order_id="ORD-1", refs=("obj-1",))
    bus.report_values(
        ReportedValues("ORD-1", Verdict.ACCEPT, 0, archived_refs=("obj-1",))
    )
    bus.submit_order(order(order_id="ORD-2"))
    bus.publish_status(StatusEvent("ORD-2", OrderState.REJECTED, clock.now_text()))
    bus.submit_order(order(order_id="ORD-3"))
    for station in (station_id("unit-1"), station_id("unit-2")):
        assert [o.order_id for o in bus.poll_worklist(station)] == ["ORD-3"]
    # the closed orders are gone from worklists only
    assert bus.order_ids() == ("ORD-1", "ORD-2", "ORD-3")
    assert bus.order_state("ORD-1") == OrderState.REPORTED
    assert bus.order_state("ORD-2") == OrderState.REJECTED
    assert bus.history("ORD-1")[-1].state == OrderState.REPORTED
    assert [e.state for e in bus.history("ORD-2")] == [
        OrderState.QUEUED,
        OrderState.REJECTED,
    ]
    assert bus.kpis("ORD-1").archived_refs == ("obj-1",)
    assert bus.kpis("ORD-2") is None
