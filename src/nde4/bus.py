"""Orders bus: order submission, worklists, status pub-sub, KPI reporting.

One logical broker. Every message that enters the broker is encoded onto a
real ORDERS-channel frame first, so the 16 MiB payload cap and any
registered wire taps apply to in-process traffic exactly as they would on
a socket. Publications are totally ordered by a broker-wide sequence
number; per order the status history is monotone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .archive import Archive
from .errors import Nde4Error, ValidationFailed
from .framing import Channel, encode_frame
from .identity import InstanceId
from .messages import (
    TERMINAL_STATES,
    InspectionOrder,
    OrderState,
    ReportedValues,
    StatusEvent,
    encode_message,
    is_legal_transition,
    validate_order,
    validate_report,
)
from .registry import Registry, UnknownShell
from .semantics import METHOD_CODES
from .timebase import LogicalClock

SERVICE_PREFIX = "inspect-"


class DuplicateOrder(Nde4Error):
    """order_id was already submitted."""


class UnknownOrder(Nde4Error):
    """No order with this order_id."""


class UnknownStation(Nde4Error):
    """Station instance is not registered."""


class IllegalTransition(Nde4Error):
    """Status update violates the monotonic state rule."""


class WrongOrderState(Nde4Error):
    """Operation requires a different order state."""


class DanglingArchiveRef(Nde4Error):
    """A reported object UID is not fetchable from the archive."""


@dataclass(frozen=True, slots=True)
class Procedure:
    """Inspection procedure: method, grid shape, and what a report owes it."""

    procedure_id: str
    method: str
    rows: int = 8
    cols: int = 8
    reject_threshold: float = 50.0
    min_refs: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHOD_CODES:
            raise ValueError(f"unknown method code: {self.method!r}")
        if not (1 <= self.rows <= 0xFFFF and 1 <= self.cols <= 0xFFFF):
            # TAG_GRID_ROWS and TAG_GRID_COLS are u16
            raise ValueError(f"grid sides must be in 1..65535: {self.rows}x{self.cols}")
        if not 0 < self.reject_threshold <= 100:
            raise ValueError(
                f"reject threshold must be in (0, 100]: {self.reject_threshold}"
            )
        if self.min_refs < 0:
            raise ValueError("min_refs must be >= 0")


def station_methods(registry: Registry, station: InstanceId) -> frozenset[str]:
    """Method codes a station advertises via its shell's service names
    ("inspect-ut" advertises UT)."""
    manifest = registry.resolve(station)
    methods = set()
    for desc in manifest.body.service_descs:
        if desc.service_name.startswith(SERVICE_PREFIX):
            candidate = desc.service_name[len(SERVICE_PREFIX) :].upper()
            if candidate in METHOD_CODES:
                methods.add(candidate)
    return frozenset(methods)


@dataclass
class _OrderRecord:
    order: InspectionOrder
    state: OrderState
    assigned: InstanceId | None = None
    history: list[StatusEvent] = field(default_factory=list)
    kpis: ReportedValues | None = None


class Subscription:
    """Sink of every status event, each delivered once; thread-safe drain."""

    def __init__(self):
        self._events: list[tuple[int, StatusEvent]] = []
        self._lock = threading.Lock()

    def _offer(self, seq: int, event: StatusEvent) -> None:
        with self._lock:
            self._events.append((seq, event))

    def drain(self) -> list[tuple[int, StatusEvent]]:
        with self._lock:
            out, self._events = self._events, []
            return out


class OrdersBus:
    def __init__(
        self,
        registry: Registry,
        archive: Archive,
        procedures: Iterable[Procedure] = (),
        clock: LogicalClock | None = None,
    ):
        self._registry = registry
        self._archive = archive
        self._procedures = {p.procedure_id: p for p in procedures}
        self._clock = clock if clock is not None else LogicalClock()
        self._orders: dict[str, _OrderRecord] = {}
        # not yet REPORTED or REJECTED: the only records a worklist can hold
        self._open: dict[str, _OrderRecord] = {}
        self._subscriptions: list[Subscription] = []
        self._taps: list[Callable[[bytes], None]] = []
        self._seq = 0
        self._lock = threading.Lock()

    # --- plumbing -------------------------------------------------------

    def procedure(self, procedure_id: str) -> Procedure | None:
        with self._lock:
            return self._procedures.get(procedure_id)

    def tap(self, callback: Callable[[bytes], None]) -> None:
        """Observe every frame the broker carries, as raw bytes."""
        with self._lock:
            self._taps.append(callback)

    def _record(self, order_id: str) -> _OrderRecord:
        """The order's record; the caller holds the lock."""
        record = self._orders.get(order_id)
        if record is None:
            raise UnknownOrder(order_id)
        return record

    def _record_event(self, record: _OrderRecord, event: StatusEvent) -> None:
        """Make `event` the order's latest and offer it, with the next
        sequence number, to every subscription; the caller holds the lock."""
        record.state = event.state
        record.history.append(event)
        if event.state in TERMINAL_STATES:
            self._open.pop(event.order_id, None)
        self._seq += 1
        for sub in self._subscriptions:
            sub._offer(self._seq, event)

    def _require_station(self, station: InstanceId) -> None:
        try:
            self._registry.resolve(station)
        except UnknownShell:
            raise UnknownStation(str(station)) from None

    def _carry(self, message) -> None:
        """Push a message through real framing so cap and taps apply."""
        frame_bytes = encode_frame(Channel.ORDERS, encode_message(message))
        for tap_fn in list(self._taps):
            tap_fn(frame_bytes)

    # --- operations -----------------------------------------------------

    def submit_order(self, order: InspectionOrder) -> str:
        problems = list(validate_order(order))
        procedure = self._procedures.get(order.procedure_id)
        if procedure is None:
            problems.append(f"unknown procedure: {order.procedure_id!r}")
        if problems:
            raise ValidationFailed("; ".join(problems))
        if order.station is not None:
            self._require_station(order.station)
        self._carry(order)
        with self._lock:
            if order.order_id in self._orders:
                raise DuplicateOrder(order.order_id)
            record = _OrderRecord(order, OrderState.QUEUED, assigned=order.station)
            self._orders[order.order_id] = record
            self._open[order.order_id] = record
            queued = StatusEvent(order.order_id, OrderState.QUEUED, self._clock.now_text())
            self._record_event(record, queued)
        self._carry(queued)
        return order.order_id

    def order(self, order_id: str) -> InspectionOrder:
        with self._lock:
            return self._record(order_id).order

    def order_state(self, order_id: str) -> OrderState:
        with self._lock:
            return self._record(order_id).state

    def order_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._orders)

    def history(self, order_id: str) -> tuple[StatusEvent, ...]:
        with self._lock:
            return tuple(self._record(order_id).history)

    def kpis(self, order_id: str) -> ReportedValues | None:
        with self._lock:
            return self._record(order_id).kpis

    def poll_worklist(self, station: InstanceId) -> tuple[InspectionOrder, ...]:
        self._require_station(station)
        capabilities = station_methods(self._registry, station)
        with self._lock:
            candidates = []
            for record in self._open.values():
                if record.assigned is not None:
                    if record.assigned == station:
                        candidates.append(record.order)
                    continue
                procedure = self._procedures[record.order.procedure_id]
                if procedure.method in capabilities:
                    candidates.append(record.order)
        candidates.sort(key=lambda o: (-o.priority, o.due, o.order_id))
        return tuple(candidates)

    def assign(self, order_id: str, station: InstanceId) -> None:
        """Claim an order for one station and publish the ASSIGNED event."""
        self._require_station(station)
        with self._lock:
            record = self._record(order_id)
            if record.state != OrderState.QUEUED:
                raise WrongOrderState(
                    f"{order_id} is {record.state.value}, not QUEUED"
                )
            if record.assigned is not None and record.assigned != station:
                raise WrongOrderState(f"{order_id} already assigned to {record.assigned}")
            record.assigned = station
        self.publish_status(
            StatusEvent(order_id, OrderState.ASSIGNED, self._clock.now_text())
        )

    def publish_status(self, event: StatusEvent) -> None:
        self._carry(event)
        with self._lock:
            record = self._record(event.order_id)
            if not is_legal_transition(record.state, event.state):
                raise IllegalTransition(
                    f"{record.state.value} -> {event.state.value}"
                )
            self._record_event(record, event)

    def subscribe(self) -> Subscription:
        sub = Subscription()
        with self._lock:
            self._subscriptions.append(sub)
        return sub

    def report_values(self, rv: ReportedValues) -> str:
        problems = list(validate_report(rv))
        with self._lock:
            record = self._record(rv.order_id)
        procedure = self._procedures[record.order.procedure_id]
        if len(rv.archived_refs) < procedure.min_refs:
            problems.append(
                f"procedure {procedure.procedure_id} requires at least "
                f"{procedure.min_refs} archived refs, got {len(rv.archived_refs)}"
            )
        if problems:
            raise ValidationFailed("; ".join(problems))
        if record.state != OrderState.DATA_ARCHIVED:
            raise WrongOrderState(
                f"{rv.order_id} is {record.state.value}, not DATA_ARCHIVED"
            )
        for ref in rv.archived_refs:
            if not self._archive.has(ref):
                raise DanglingArchiveRef(ref)
        self._carry(rv)
        self.publish_status(
            StatusEvent(rv.order_id, OrderState.REPORTED, self._clock.now_text())
        )
        with self._lock:
            record.kpis = rv
        return rv.order_id
