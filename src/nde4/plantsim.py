"""Deterministic plant simulator: supply chain, inspection flow, faults.

One run wires the full stack: twin registry, orders bus, gateway, archive,
and (when enabled) sovereignty connectors. A single-threaded event loop
processes events in (tick, actor, insertion) order on a logical clock, and
every random draw comes from a stream derived from the scenario seed, so a
given (config, seed) yields byte-identical traces.

The synthetic acquisition model is deliberately simple: uniform background
noise, rectangular defect spots with a peak amplitude, a fixed detection
floor. The constants are config-overridable and documented as synthetic.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import struct
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from .archive import SEGMENT_FILE, Archive, DataObject, Element
from .bus import OrdersBus, Procedure, UnknownStation, WrongOrderState
from .errors import Nde4Error
from .framing import (
    HEADER_SIZE, JsonTypeError, OversizedPayload, canonical_json, json_list,
    json_object, json_table,
)
from .gateway import (
    Indication,
    archive_result_to_kpis,
    order_to_archive_work,
    route,
    WorkKind,
)
from .identity import InstanceId, TypeId, is_name_token, is_serial_token, parse_id
from .messages import (
    TERMINAL_STATES,
    InspectionOrder,
    OrderState,
    StatusEvent,
    encode_message,
)
from .registry import (
    DataRef,
    DuplicateInstance,
    Manifest,
    ManifestBody,
    ManifestHeader,
    Registry,
    ServiceDesc,
)
from .rami import (
    ComponentLocus,
    RamiCoordinate,
    cells as rami_cells,
    coverage_check,
    gaps_text,
    Hierarchy,
    Layer,
    Lifecycle,
    UnknownComponent,
    locate,
)
from .semantics import (
    TAG_AMPLITUDE_GRID,
    TAG_BULK_PAYLOAD,
    TAG_CALIBRATION_DUE,
    TAG_COMPONENT_SERIAL,
    TAG_COMPONENT_TYPE,
    TAG_CREATED_AT,
    TAG_DEVICE_ID,
    TAG_GRID_COLS,
    TAG_GRID_ROWS,
    TAG_METHOD_CODE,
    TAG_OBJECT_UID,
    TAG_ORDER_ID,
    TAG_PROCEDURE_ID,
    TagCode,
    encode_value,
    is_id_token,
    DICT_V1,
    METHOD_CODES,
    interpret,
)
from .sovereignty import (
    DENY,
    Connector,
    UsagePolicy,
    policy_from_wire,
)
from .timebase import LogicalClock, format_tick

ROLES = ("MATERIAL_SUPPLIER", "COMPONENT_SUPPLIER", "OEM", "OPERATOR")

FAULT_TAMPER = "TAMPER_ARCHIVE_BYTE"
FAULT_OVERSIZE = "OVERSIZE_WORKFLOW_MSG"
FAULT_OVERREAD = "POLICY_OVERREAD"
FAULT_DROP_GATEWAY = "DROP_GATEWAY"
FAULT_KINDS = (FAULT_TAMPER, FAULT_OVERSIZE, FAULT_OVERREAD, FAULT_DROP_GATEWAY)

TRACE_SUFFIX = ".trace"

REPORT_KEYS = (
    "orders_total",
    "reported",
    "rejected",
    "chain_status",
    "rami_gaps",
    "audit_denies",
)

DEFAULT_OVERSIZE_BYTES = 17 * 2**20


class ConfigInvalid(Nde4Error):
    """Scenario config fails validation; message lists every problem."""


class ScenarioDeadlock(Nde4Error):
    """No event can progress; carries the partial trace and report."""

    def __init__(self, blocking: dict[str, str], report: dict, trace_lines: tuple[str, ...]):
        names = ", ".join(f"{k}={v}" for k, v in sorted(blocking.items()))
        super().__init__(f"scenario deadlocked: {names}")
        self.blocking = blocking
        self.report = report
        self.trace_lines = trace_lines


class DataDirInUse(Nde4Error):
    """The data directory is not empty; a run starts from an empty one."""


class FaultNotApplicable(Nde4Error):
    """The fault cannot apply to this config."""


class GridShapeMismatch(Nde4Error):
    """Amplitude grid byte length disagrees with rows x cols."""


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Synthetic acquisition constants; not calibrated to any physics."""

    noise_max: float = 10.0  # background amplitudes uniform in [0, noise_max)
    detection_floor: float = 20.0
    peak_lo: float = 30.0  # defect peak uniform in [peak_lo, peak_hi)
    peak_hi: float = 95.0
    max_defects: int = 2
    max_defect_extent: int = 3


DEFAULT_NOISE = NoiseModel()
_F32_MAX = 3.4028234663852886e38  # the largest finite f32


@dataclass(frozen=True, slots=True)
class StationConfig:
    station_id: str
    type_name: str
    methods: tuple[str, ...] = ()
    display_name: str = ""
    children: tuple[tuple[str, str], ...] = ()  # (child id, child type name)


@dataclass(frozen=True, slots=True)
class CompanyConfig:
    name: str
    role: str
    stations: tuple[StationConfig, ...] = ()
    procedures: tuple[Procedure, ...] = ()


@dataclass(frozen=True, slots=True)
class OrderPlan:
    order_id: str
    company: str
    component_type: str  # type URN
    component_serial: str
    procedure_id: str
    priority: int = 0
    due_ticks: int = 86_400
    station_id: str | None = None


@dataclass(frozen=True, slots=True)
class ForwardPlan:
    to: str  # company name
    attempts: int = 1
    policy: UsagePolicy | None = None


@dataclass(frozen=True, slots=True)
class ExchangePlan:
    provider: str
    consumer: str
    order_id: str
    policy: UsagePolicy = UsagePolicy()
    attempts: int = 1
    forwards: tuple[ForwardPlan, ...] = ()


@dataclass(frozen=True, slots=True)
class FaultSpec:
    kind: str
    order_id: str | None = None
    size: int = DEFAULT_OVERSIZE_BYTES


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    companies: tuple[CompanyConfig, ...] = ()
    orders: tuple[OrderPlan, ...] = ()
    exchanges: tuple[ExchangePlan, ...] = ()
    sovereignty: bool = False
    faults: tuple[FaultSpec, ...] = ()
    required_cells: frozenset[RamiCoordinate] = frozenset()
    allowlist: tuple[str, ...] = ()
    active_components: tuple[str, ...] = ()
    noise: NoiseModel = DEFAULT_NOISE

    def company(self, name: str) -> CompanyConfig | None:
        for company in self.companies:
            if company.name == name:
                return company
        return None


# --- config loading -----------------------------------------------------------
# One key table per scenario object: (parameter, document key, JSON kind or
# nested builder); see framing.json_table for the rules.

def _cell(text: str) -> frozenset[RamiCoordinate]:
    return frozenset((RamiCoordinate.from_text(text),))


def _child(child_id: str, child_type: str) -> tuple[str, str]:
    return child_id, child_type


_NOISE = json_table(NoiseModel, (
    ("noise_max", "noiseMax", float),
    ("detection_floor", "detectionFloor", float),
    ("peak_lo", "peakLo", float),
    ("peak_hi", "peakHi", float),
    ("max_defects", "maxDefects", int),
    ("max_defect_extent", "maxDefectExtent", int),
))

_STATION = json_table(StationConfig, (
    ("station_id", "id", str),
    ("type_name", "type", str),
    ("methods", "methods", json_list(str)),
    ("display_name", "displayName", str),
    ("children", "children", json_list(json_table(_child, (
        ("child_id", "id", str),
        ("child_type", "type", str),
    )))),
))

_PROCEDURE = json_table(Procedure, (
    ("procedure_id", "id", str),
    ("method", "method", str),
    ("rows", "rows", int),
    ("cols", "cols", int),
    ("reject_threshold", "rejectThreshold", float),
    ("min_refs", "minRefs", int),
))

_COMPANY = json_table(CompanyConfig, (
    ("name", "name", str),
    ("role", "role", str),
    ("stations", "stations", json_list(_STATION)),
    ("procedures", "procedures", json_list(_PROCEDURE)),
))

_ORDER = json_table(OrderPlan, (
    ("order_id", "orderId", str),
    ("company", "company", str),
    ("component_type", "componentType", str),
    ("component_serial", "componentSerial", str),
    ("procedure_id", "procedureId", str),
    ("priority", "priority", int),
    ("due_ticks", "dueTicks", int),
    ("station_id", "station", str),
))

_FORWARD = json_table(ForwardPlan, (
    ("to", "to", str),
    ("attempts", "attempts", int),
    ("policy", "policy", policy_from_wire),
))

_EXCHANGE = json_table(ExchangePlan, (
    ("provider", "provider", str),
    ("consumer", "consumer", str),
    ("order_id", "orderId", str),
    ("policy", "policy", policy_from_wire),
    ("attempts", "attempts", int),
    ("forwards", "forwards", json_list(_FORWARD)),
))

_FAULT = json_table(FaultSpec, (
    ("kind", "kind", str),
    ("order_id", "orderId", str),
    ("size", "size", int),
))

_CELL_PRODUCT = json_table(rami_cells, (
    ("layers", "layers", json_list(Layer)),
    ("lifecycles", "lifecycles", json_list(Lifecycle)),
    ("hierarchies", "hierarchies", json_list(Hierarchy)),
))

_SCENARIO = json_table(ScenarioConfig, (
    ("seed", "seed", int),
    ("companies", "companies", json_list(_COMPANY)),
    ("orders", "orders", json_list(_ORDER)),
    ("exchanges", "exchanges", json_list(_EXCHANGE)),
    ("sovereignty", "sovereignty", bool),
    ("faults", "faults", json_list({str: FaultSpec, dict: _FAULT})),
    (
        "required_cells",
        "requiredCells",
        json_list(
            {str: _cell, dict: _CELL_PRODUCT},
            lambda parts: frozenset().union(*parts),
        ),
    ),
    ("allowlist", "allowlist", json_list(str)),
    ("active_components", "activeComponents", json_list(str)),
    ("noise", "noise", _NOISE),
))


def load_scenario(text: bytes | str, seed_override: int | None = None) -> ScenarioConfig:
    """Parse and validate a scenario document, as UTF-8 bytes or as str;
    raises ConfigInvalid."""
    try:
        document = json_object(text)
    except JsonTypeError as exc:
        raise ConfigInvalid(f"scenario not parseable: {exc}") from exc
    try:
        config = _SCENARIO(document)
    except ValueError as exc:
        raise ConfigInvalid(f"scenario malformed: {exc}") from exc
    if seed_override is not None:
        config = replace(config, seed=seed_override)
    validate_config(config)
    return config


def validate_config(config: ScenarioConfig) -> None:
    problems: list[str] = []
    if not 0 <= config.seed < 2**64:
        problems.append(f"seed out of 64-bit range: {config.seed}")
    if not config.companies:
        problems.append("no companies configured")
    companies = {c.name: c for c in config.companies}
    if len(companies) != len(config.companies):
        problems.append("company names must be unique")
    procedure_ids: set[str] = set()
    for company in config.companies:
        if not is_name_token(company.name):
            problems.append(f"company name not a lowercase token: {company.name!r}")
        if company.role not in ROLES:
            problems.append(f"unknown role {company.role!r} for {company.name}")
        station_ids = [s.station_id for s in company.stations]
        if len(set(station_ids)) != len(station_ids):
            problems.append(f"duplicate station ids in {company.name}")
        for station in company.stations:
            if not is_name_token(station.type_name):
                problems.append(
                    f"station {station.station_id}: bad type name {station.type_name!r}"
                )
            if not is_serial_token(station.station_id):
                problems.append(f"bad station id {station.station_id!r}")
            for child_id, child_type in station.children:
                if not is_serial_token(child_id) or not is_name_token(child_type):
                    problems.append(
                        f"station {station.station_id}: bad child {child_id!r}"
                    )
            for method in station.methods:
                if method not in METHOD_CODES:
                    problems.append(
                        f"station {station.station_id}: unknown method {method!r}"
                    )
        for procedure in company.procedures:
            if procedure.procedure_id in procedure_ids:
                problems.append(f"duplicate procedure id {procedure.procedure_id!r}")
            procedure_ids.add(procedure.procedure_id)
            if not is_id_token(procedure.procedure_id):
                problems.append(f"bad procedure id {procedure.procedure_id!r}")
    order_ids: set[str] = set()
    type_problems: dict[str, str] = {}  # componentType -> "" or its problem
    for plan in config.orders:
        if plan.order_id in order_ids:
            problems.append(f"duplicate order id {plan.order_id!r}")
        order_ids.add(plan.order_id)
        if not is_id_token(plan.order_id):
            problems.append(f"bad order id {plan.order_id!r}")
        company = companies.get(plan.company)
        if company is None:
            problems.append(f"order {plan.order_id}: unknown company {plan.company!r}")
        elif plan.station_id is not None and plan.station_id not in {
            s.station_id for s in company.stations
        }:
            problems.append(
                f"order {plan.order_id}: unknown station {plan.station_id!r}"
            )
        if plan.procedure_id not in procedure_ids:
            problems.append(
                f"order {plan.order_id}: unknown procedure {plan.procedure_id!r}"
            )
        if plan.due_ticks < 0:
            problems.append(f"order {plan.order_id}: negative dueTicks")
        if not is_serial_token(plan.component_serial):
            problems.append(
                f"order {plan.order_id}: bad component serial "
                f"{plan.component_serial!r}"
            )
        problem = type_problems.get(plan.component_type)
        if problem is None:
            try:
                is_type = isinstance(parse_id(plan.component_type), TypeId)
                problem = "" if is_type else "componentType must be a type URN"
            except Nde4Error as exc:
                problem = str(exc)
            type_problems[plan.component_type] = problem
        if problem:
            problems.append(f"order {plan.order_id}: {problem}")
    for exchange in config.exchanges:
        for company_name in (exchange.provider, exchange.consumer):
            if companies.get(company_name) is None:
                problems.append(f"exchange names unknown company {company_name!r}")
        if exchange.order_id not in order_ids:
            problems.append(f"exchange names unknown order {exchange.order_id!r}")
        for forward in exchange.forwards:
            if companies.get(forward.to) is None:
                problems.append(f"forward names unknown company {forward.to!r}")
    for company_name in config.allowlist:
        if companies.get(company_name) is None:
            problems.append(f"allowlist names unknown company {company_name!r}")
    for component in config.active_components:
        try:
            locate(component)
        except UnknownComponent:
            problems.append(f"unknown component {component!r}")
    noise = config.noise
    if not 0 < noise.detection_floor <= 100:
        problems.append("detection floor must be in (0, 100]")
    if noise.peak_lo >= noise.peak_hi:
        problems.append("defect peak range is empty")
    for key, value in (("noiseMax", noise.noise_max), ("peakLo", noise.peak_lo),
                       ("peakHi", noise.peak_hi)):
        if not abs(value) <= _F32_MAX:  # the grid is packed as f32 amplitudes
            problems.append(f"noise {key} does not fit an f32: {value!r}")
    if noise.max_defects < 0 or noise.max_defect_extent < 1:
        problems.append("defect injection bounds invalid")
    for fault in config.faults:
        try:
            check_fault_applicable(config, fault)
        except (FaultNotApplicable, ConfigInvalid) as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigInvalid("; ".join(problems))


def check_fault_applicable(config: ScenarioConfig, fault: FaultSpec) -> None:
    if fault.kind not in FAULT_KINDS:
        raise ConfigInvalid(f"unknown fault kind {fault.kind!r}")
    if fault.kind in (FAULT_TAMPER, FAULT_OVERSIZE) and not config.orders:
        raise FaultNotApplicable(f"{fault.kind} needs at least one order")
    if fault.kind == FAULT_OVERSIZE and fault.order_id is not None:
        if fault.order_id not in {p.order_id for p in config.orders}:
            raise FaultNotApplicable(
                f"{fault.kind} targets unknown order {fault.order_id!r}"
            )
    if fault.kind == FAULT_OVERREAD:
        if not (config.sovereignty and config.exchanges):
            raise FaultNotApplicable(
                f"{fault.kind} needs sovereignty and at least one exchange"
            )


def inject_fault(config: ScenarioConfig, fault: FaultSpec) -> ScenarioConfig:
    """New config with the fault armed; refuses inapplicable faults."""
    check_fault_applicable(config, fault)
    return replace(config, faults=config.faults + (fault,))


# --- synthetic acquisition ------------------------------------------------------

def _derive_rng(seed: int, stream: str) -> random.Random:
    material = hashlib.sha256(f"{seed}:{stream}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(material[:8], "big"))


def synthesize_grid(
    procedure: Procedure, rng: random.Random, noise: NoiseModel = DEFAULT_NOISE
) -> list[float]:
    """Row-major amplitude grid: uniform noise plus 0..k rectangular spots."""
    rows, cols = procedure.rows, procedure.cols
    grid = [rng.uniform(0.0, noise.noise_max) for _ in range(rows * cols)]
    for _ in range(rng.randint(0, noise.max_defects)):
        height = rng.randint(1, min(noise.max_defect_extent, rows))
        width = rng.randint(1, min(noise.max_defect_extent, cols))
        row0 = rng.randint(0, rows - height)
        col0 = rng.randint(0, cols - width)
        peak = rng.uniform(noise.peak_lo, noise.peak_hi)
        for row in range(row0, row0 + height):
            for col in range(col0, col0 + width):
                index = row * cols + col
                grid[index] = max(grid[index], peak)
    return grid


def acquire(
    procedure: Procedure,
    component_serial: str,
    rng: random.Random,
    *,
    uid: str,
    order_id: str,
    component_type: TypeId,
    device_id: InstanceId,
    created_at: str,
    calibration_due: str | None = None,
    noise: NoiseModel = DEFAULT_NOISE,
    metadata_seed: Iterable[Element] = (),
) -> DataObject:
    """Synthetic acquisition: mandatory tags, device tags, amplitude grid,
    with the gateway metadata seed merged in."""
    grid = synthesize_grid(procedure, rng, noise)
    dictionary = DICT_V1
    values: dict[TagCode, bytes] = {}
    for element in metadata_seed:
        values[element.code] = element.value
    values[TAG_OBJECT_UID] = uid.encode("utf-8")
    values[TAG_CREATED_AT] = created_at.encode("ascii")
    values[TAG_METHOD_CODE] = procedure.method.encode("utf-8")
    values[TAG_COMPONENT_SERIAL] = component_serial.encode("utf-8")
    values[TAG_COMPONENT_TYPE] = str(component_type).encode("utf-8")
    values[TAG_ORDER_ID] = order_id.encode("utf-8")
    values[TAG_PROCEDURE_ID] = procedure.procedure_id.encode("utf-8")
    values[TAG_DEVICE_ID] = str(device_id).encode("utf-8")
    if calibration_due is not None:
        values[TAG_CALIBRATION_DUE] = calibration_due.encode("ascii")
    values[TAG_GRID_ROWS] = encode_value(
        dictionary.get(TAG_GRID_ROWS), procedure.rows
    )
    values[TAG_GRID_COLS] = encode_value(
        dictionary.get(TAG_GRID_COLS), procedure.cols
    )
    values[TAG_AMPLITUDE_GRID] = struct.pack(f"<{len(grid)}f", *grid)
    return DataObject.from_values(values)


def evaluate(
    obj: DataObject,
    procedure: Procedure,
    detection_floor: float = DEFAULT_NOISE.detection_floor,
) -> tuple[Indication, ...]:
    """Indications: 4-connected components of grid cells at or above the
    detection floor, each reported at its peak cell."""
    rows_raw = obj.raw(TAG_GRID_ROWS)
    cols_raw = obj.raw(TAG_GRID_COLS)
    grid_raw = obj.raw(TAG_AMPLITUDE_GRID)
    if rows_raw is None or cols_raw is None or grid_raw is None:
        raise GridShapeMismatch("object lacks grid tags")
    rows = interpret(DICT_V1.get(TAG_GRID_ROWS), rows_raw)
    cols = interpret(DICT_V1.get(TAG_GRID_COLS), cols_raw)
    if len(grid_raw) != rows * cols * 4:
        raise GridShapeMismatch(
            f"grid is {len(grid_raw)} bytes, expected {rows}x{cols}x4"
        )
    grid = struct.unpack(f"<{rows * cols}f", grid_raw)
    hot = [amplitude >= detection_floor for amplitude in grid]
    seen = [False] * (rows * cols)
    indications: list[Indication] = []
    for start in range(rows * cols):
        if not hot[start] or seen[start]:
            continue
        peak_index = start
        stack = [start]
        seen[start] = True
        while stack:
            index = stack.pop()
            if grid[index] > grid[peak_index] or (
                grid[index] == grid[peak_index] and index < peak_index
            ):
                peak_index = index
            row, col = divmod(index, cols)
            for neighbor_row, neighbor_col in (
                (row - 1, col),
                (row + 1, col),
                (row, col - 1),
                (row, col + 1),
            ):
                if 0 <= neighbor_row < rows and 0 <= neighbor_col < cols:
                    neighbor = neighbor_row * cols + neighbor_col
                    if hot[neighbor] and not seen[neighbor]:
                        seen[neighbor] = True
                        stack.append(neighbor)
        peak_row, peak_col = divmod(peak_index, cols)
        indications.append(Indication(peak_row, peak_col, grid[peak_index]))
    indications.sort(key=lambda i: (i.row, i.col))
    return tuple(indications)


# --- engine ----------------------------------------------------------------------

@dataclass
class SimResult:
    report: dict
    trace_lines: tuple[str, ...]
    registry: Registry
    bus: OrdersBus
    archive: Archive
    connectors: dict[str, Connector]
    orders_frame_sizes: tuple[int, ...]
    sovereign_frames: tuple[bytes, ...]


class _Engine:
    def __init__(self, config: ScenarioConfig, data_dir: str | Path):
        self.config = config
        self.clock = LogicalClock()
        self.data_dir = Path(data_dir)
        self.registry = Registry()
        self.archive = Archive(self.data_dir, self.clock)
        procedures = [
            procedure
            for company in config.companies
            for procedure in company.procedures
        ]
        self.bus = OrdersBus(self.registry, self.archive, procedures, self.clock)
        self.orders_frame_sizes: list[int] = []
        self.bus.tap(self._orders_tap)
        self.subscription = self.bus.subscribe()
        self.sovereign_frames: list[bytes] = []
        self.connectors: dict[str, Connector] = {}
        self.gateway_active = not any(
            fault.kind == FAULT_DROP_GATEWAY for fault in config.faults
        )
        self.oversize_faults = {
            (fault.order_id or config.orders[0].order_id): fault
            for fault in config.faults
            if fault.kind == FAULT_OVERSIZE
        }
        self.overread = any(fault.kind == FAULT_OVERREAD for fault in config.faults)

        self._queue: list[tuple[int, str, int, Callable[[], None]]] = []
        self._insertions = 0
        self._trace: list[str] = []
        self._seq = 0
        self._uid_counter = 0
        self._uid_prefix = hashlib.sha256(
            f"{config.seed}:uid".encode("utf-8")
        ).hexdigest()[:8]
        self._station_ids: dict[tuple[str, str], InstanceId] = {}
        self._registered_components: set[str] = set()
        self._order_plan: dict[str, OrderPlan] = {
            plan.order_id: plan for plan in config.orders
        }
        self._exchanges_by_order: dict[str, list[ExchangePlan]] = {}
        for exchange in config.exchanges:
            self._exchanges_by_order.setdefault(exchange.order_id, []).append(exchange)
        self._pending_exchanges = len(config.exchanges)
        self._indications: dict[str, tuple[Indication, ...]] = {}
        self._stored_uids: dict[str, list[str]] = {}

    # --- plumbing ------------------------------------------------------------

    def _orders_tap(self, frame_bytes: bytes) -> None:
        # the bus taps only the ORDERS frames it encodes itself
        self.orders_frame_sizes.append(len(frame_bytes) - HEADER_SIZE)

    def schedule(
        self,
        tick: int,
        actor: str,
        fn: Callable[[], None],
        order_id: str | None = None,
    ) -> None:
        self._insertions += 1
        heapq.heappush(self._queue, (tick, actor, self._insertions, fn, order_id))

    def emit(self, actor: str, kind: str, data: dict) -> None:
        """Append one trace event. Its line is fixed here, when the event is
        emitted: it is encoded at once and the event itself is not kept."""
        event = {
            "seq": self._seq,
            "at": self.clock.now_text(),
            "actor": actor,
            "kind": kind,
            "data": data,
        }
        self._trace.append(canonical_json(event).decode("utf-8"))
        self._seq += 1

    def _publish(self, order_id: str, state: OrderState) -> None:
        self.bus.publish_status(StatusEvent(order_id, state, self.clock.now_text()))

    def drain_status(self) -> None:
        for _, event in self.subscription.drain():
            self.emit(
                "bus",
                "status",
                {"orderId": event.order_id, "state": event.state.value, "at": event.at},
            )
            self._on_status(event.order_id, event.state)

    def trace_lines(self) -> tuple[str, ...]:
        return tuple(self._trace)

    def mint_uid(self) -> str:
        self._uid_counter += 1
        return f"obj-{self._uid_prefix}-{self._uid_counter}"

    def _procedure(self, procedure_id: str) -> Procedure:
        procedure = self.bus.procedure(procedure_id)
        assert procedure is not None  # config validation guarantees it
        return procedure

    # --- setup ------------------------------------------------------------------

    def register_shells(self) -> None:
        for company in self.config.companies:
            self._register(
                f"{company.name}/mes",
                InstanceId(TypeId(company.name, "mes"), "main"),
                f"{company.name} MES",
            )
            for station in company.stations:
                actor = f"{company.name}/{station.station_id}"
                station_id = InstanceId(
                    TypeId(company.name, station.type_name), station.station_id
                )
                self._station_ids[(company.name, station.station_id)] = station_id
                child_ids = tuple(
                    InstanceId(TypeId(company.name, child_type), child_id)
                    for child_id, child_type in station.children
                )
                services = tuple(
                    ServiceDesc(
                        f"inspect-{method.lower()}",
                        input_tags=(TAG_ORDER_ID, TAG_PROCEDURE_ID),
                        output_tags=(TAG_AMPLITUDE_GRID,),
                    )
                    for method in station.methods
                )
                # parent first, children after: the dangling-child path
                self._register(
                    actor,
                    station_id,
                    station.display_name or station.station_id,
                    ManifestBody(service_descs=services, child_shells=child_ids),
                )
                for child_instance in child_ids:
                    self._register(actor, child_instance, child_instance.serial)
        # the gateway asset exists even when its actor is dropped by a fault
        self._register("gateway", InstanceId(TypeId("plant", "gateway"), "main"), "gateway")
        if self.config.sovereignty:
            certified = None
            if self.config.allowlist:
                certified = {
                    InstanceId(TypeId(name, "connector"), "main")
                    for name in self.config.allowlist
                }
            for company in self.config.companies:
                owner = InstanceId(TypeId(company.name, "connector"), "main")
                self._register(
                    f"connector/{company.name}", owner, f"{company.name} connector"
                )
                self.connectors[company.name] = Connector(
                    name=company.name,
                    owner=owner,
                    clock=self.clock,
                    archive=self.archive,
                    audit_dir=self.data_dir,
                    certified=certified,
                    taps=[self.sovereign_frames.append],
                )
            linked = list(self.connectors.values())
            for i, connector in enumerate(linked):
                for other in linked[i + 1 :]:
                    connector.link(other)

    def _register(
        self,
        actor: str,
        instance: InstanceId,
        display_name: str,
        body: ManifestBody = ManifestBody(),
    ) -> None:
        manifest = Manifest(ManifestHeader(instance.type_id, instance, display_name), body)
        self.registry.register_shell(manifest)
        report = self.registry.validate(manifest)
        self.emit(
            actor,
            "register",
            {
                "shell": str(instance),
                "findings": [f.kind for f in report.findings],
            },
        )

    # --- order flow ----------------------------------------------------------------

    def schedule_orders(self) -> None:
        for index, plan in enumerate(self.config.orders):
            self.schedule(
                (index + 1) * 60, f"{plan.company}/mes", partial(self._submit, plan)
            )

    def _submit(self, plan: OrderPlan) -> None:
        component_type = parse_id(plan.component_type)
        assert isinstance(component_type, TypeId)
        station = None
        if plan.station_id is not None:
            station = self._station_ids[(plan.company, plan.station_id)]
        order = InspectionOrder(
            order_id=plan.order_id,
            component_serial=plan.component_serial,
            component_type=component_type,
            procedure_id=plan.procedure_id,
            due=format_tick(plan.due_ticks),
            priority=plan.priority,
            station=station,
        )
        self.bus.submit_order(order)
        self.emit(
            f"{plan.company}/mes",
            "submit",
            {"orderId": plan.order_id, "procedureId": plan.procedure_id},
        )
        self.drain_status()
        company = self.config.company(plan.company)
        for station_config in company.stations:
            self.schedule(
                self.clock.tick + 1,
                f"{plan.company}/{station_config.station_id}",
                partial(self._poll, plan.company, station_config.station_id),
            )

    def _poll(self, company: str, station_id: str) -> None:
        station = self._station_ids[(company, station_id)]
        actor = f"{company}/{station_id}"
        worklist = self.bus.poll_worklist(station)
        for order in worklist:
            if self._order_plan[order.order_id].company != company:
                continue
            if self.bus.order_state(order.order_id) != OrderState.QUEUED:
                continue
            try:
                self.bus.assign(order.order_id, station)
            except (WrongOrderState, UnknownStation):
                continue
            self.emit(actor, "assign", {"orderId": order.order_id})
            self.drain_status()
            self.schedule(
                self.clock.tick + 1,
                actor,
                partial(self._inspect, company, station_id, order.order_id),
                order_id=order.order_id,
            )
            break

    def _inspect(self, company: str, station_id: str, order_id: str) -> None:
        actor = f"{company}/{station_id}"
        station = self._station_ids[(company, station_id)]
        order = self.bus.order(order_id)
        procedure = self._procedure(order.procedure_id)
        manifest = self.registry.resolve(station)
        self._publish(order_id, OrderState.IN_PROGRESS)
        self.emit(
            actor,
            "setup",
            {
                "orderId": order_id,
                "procedureId": procedure.procedure_id,
                "method": procedure.method,
                "services": [d.service_name for d in manifest.body.service_descs],
            },
        )
        self.drain_status()
        uid = self.mint_uid()
        seed_elements = order_to_archive_work(order)
        rng = _derive_rng(self.config.seed, f"acquire:{order_id}")
        obj = acquire(
            procedure,
            order.component_serial,
            rng,
            uid=uid,
            order_id=order_id,
            component_type=order.component_type,
            device_id=station,
            created_at=self.clock.now_text(),
            calibration_due=format_tick(self.clock.tick + 365 * 86_400),
            noise=self.config.noise,
            metadata_seed=seed_elements,
        )
        self.emit(
            actor,
            "acquire",
            {
                "orderId": order_id,
                "uid": uid,
                "rows": procedure.rows,
                "cols": procedure.cols,
            },
        )
        stored_uid = self.archive.store(obj)
        self._stored_uids.setdefault(order_id, []).append(stored_uid)
        self.emit(actor, "store", {"orderId": order_id, "uid": stored_uid})
        self._publish(order_id, OrderState.DATA_ARCHIVED)
        self.drain_status()
        indications = evaluate(obj, procedure, self.config.noise.detection_floor)
        self._indications[order_id] = indications
        self.emit(
            actor,
            "evaluate",
            {
                "orderId": order_id,
                "indications": [
                    {"row": i.row, "col": i.col, "amplitude": round(i.amplitude, 3)}
                    for i in indications
                ],
            },
        )
        if self.gateway_active:
            self.schedule(
                self.clock.tick + 1,
                "gateway",
                partial(self._translate, order_id),
                order_id=order_id,
            )

    def _translate(self, order_id: str) -> None:
        order = self.bus.order(order_id)
        procedure = self._procedure(order.procedure_id)
        uids = tuple(self._stored_uids.get(order_id, ()))
        rv = archive_result_to_kpis(
            self.archive,
            order_id,
            self._indications.get(order_id, ()),
            uids,
            procedure,
        )
        self.emit(
            "gateway",
            "translate",
            {
                "orderId": order_id,
                "verdict": rv.verdict.value,
                "indicationCount": rv.indication_count,
                "maxAmplitude": (
                    round(rv.max_amplitude, 3) if rv.max_amplitude is not None else None
                ),
                "archivedRefs": list(rv.archived_refs),
            },
        )
        fault = self.oversize_faults.get(order_id)
        if fault is not None:
            rv = replace(rv, notes="N" * fault.size)
        try:
            self.bus.report_values(rv)
        except OversizedPayload:
            if fault is None:
                raise
            # decide on the bytes that actually hit the channel, not the
            # nominal fault size: encoding overhead can tip a payload over
            decision = route(len(encode_message(rv)), WorkKind.WORKFLOW)
            blob_uid = self.mint_uid()
            blob = DataObject.from_values(
                {
                    TAG_OBJECT_UID: blob_uid.encode("utf-8"),
                    TAG_CREATED_AT: self.clock.now_text().encode("ascii"),
                    TAG_METHOD_CODE: procedure.method.encode("utf-8"),
                    TAG_COMPONENT_SERIAL: order.component_serial.encode("utf-8"),
                    TAG_ORDER_ID: order_id.encode("utf-8"),
                    TAG_BULK_PAYLOAD: rv.notes.encode("utf-8"),
                }
            )
            self.archive.store(blob)
            self.emit(
                "gateway",
                "route",
                {
                    "orderId": order_id,
                    "decision": decision.value,
                    "payloadRef": blob_uid,
                    "payloadBytes": fault.size,
                },
            )
            rv = replace(rv, notes=None, payload_ref=blob_uid)
            self.bus.report_values(rv)
        self.emit(
            "gateway",
            "report",
            {"orderId": order_id, "verdict": rv.verdict.value},
        )
        self.drain_status()

    # --- reactions -----------------------------------------------------------------

    def _on_status(self, order_id: str, state: OrderState) -> None:
        if state == OrderState.REJECTED:
            # a rejected order stored nothing to exchange: none of its
            # exchanges will run, so none is waited for
            self._pending_exchanges -= len(self._exchanges_by_order.get(order_id, ()))
        if state != OrderState.REPORTED:
            return
        plan = self._order_plan.get(order_id)
        if plan is not None:
            self.schedule(
                self.clock.tick + 1,
                f"{plan.company}/mes",
                partial(self._register_component, order_id),
            )
        for exchange in self._exchanges_by_order.get(order_id, ()):
            if self.config.sovereignty:
                self.schedule(
                    self.clock.tick + 2,
                    f"connector/{exchange.provider}",
                    partial(self._exchange, exchange),
                )
            # with sovereignty disabled the exchange stays pending and the
            # drain check reports the deadlock

    def _register_component(self, order_id: str) -> None:
        plan = self._order_plan[order_id]
        if plan.component_serial in self._registered_components:
            return
        self._registered_components.add(plan.component_serial)
        component_type = parse_id(plan.component_type)
        assert isinstance(component_type, TypeId)
        refs = tuple(
            DataRef(TAG_OBJECT_UID, uid) for uid in self._stored_uids.get(order_id, ())
        )
        try:
            self._register(
                f"{plan.company}/mes",
                InstanceId(component_type, plan.component_serial),
                plan.component_serial,
                ManifestBody(data_refs=refs),
            )
        except DuplicateInstance:
            pass

    def _exchange(self, exchange: ExchangePlan) -> None:
        provider = self.connectors[exchange.provider]
        consumer = self.connectors[exchange.consumer]
        actor = f"connector/{exchange.provider}"
        uids = self._stored_uids.get(exchange.order_id, ())
        uid = uids[0]
        contract_id = provider.offer(consumer.owner, uid, exchange.policy)
        self.emit(
            actor,
            "offer",
            {
                "contractId": contract_id,
                "uid": uid,
                "consumer": exchange.consumer,
                "maxReads": exchange.policy.max_reads,
            },
        )
        consumer.accept(contract_id)
        self.emit(
            f"connector/{exchange.consumer}", "accept", {"contractId": contract_id}
        )
        attempts = exchange.attempts
        if self.overread and exchange.policy.max_reads is not None:
            attempts = max(attempts, exchange.policy.max_reads + 1)
        self._consume_n(exchange.consumer, contract_id, attempts)
        for forward in exchange.forwards:
            third = self.connectors[forward.to]
            try:
                derived_id = consumer.forward(contract_id, third.owner, forward.policy)
            except Nde4Error as exc:
                self.emit(
                    f"connector/{exchange.consumer}",
                    "deny",
                    {"contractId": contract_id, "reason": type(exc).__name__},
                )
                continue
            self.emit(
                f"connector/{exchange.consumer}",
                "forward",
                {"contractId": contract_id, "derived": derived_id, "to": forward.to},
            )
            third.accept(derived_id)
            self.emit(f"connector/{forward.to}", "accept", {"contractId": derived_id})
            self._consume_n(forward.to, derived_id, forward.attempts)
        self._pending_exchanges -= 1

    def _consume_n(self, company: str, contract_id: str, attempts: int) -> None:
        connector = self.connectors[company]
        actor = f"connector/{company}"
        for _ in range(attempts):
            self.clock.advance()
            try:
                obj = connector.consume(contract_id)
            except Nde4Error as exc:
                self.emit(
                    actor,
                    "deny",
                    {"contractId": contract_id, "reason": type(exc).__name__},
                )
                continue
            self.emit(
                actor,
                "consume",
                {
                    "contractId": contract_id,
                    "uid": obj.uid,
                    "cached": connector.cached(contract_id),
                },
            )

    # --- faults and wrap-up -----------------------------------------------------------

    def apply_tamper(self) -> None:
        for fault in self.config.faults:
            if fault.kind != FAULT_TAMPER:
                continue
            uids = self.archive.uids()
            rng = _derive_rng(self.config.seed, "tamper")
            uid = uids[rng.randrange(len(uids))]
            offset, length = self.archive.object_span(uid)
            position = rng.randrange(length)
            with (self.archive.directory / SEGMENT_FILE).open("r+b") as segment:
                segment.seek(offset + position)
                flipped = segment.read(1)[0] ^ 0x01
                segment.seek(offset + position)
                segment.write(bytes([flipped]))
            self.clock.advance()
            self.emit(
                "fault",
                "fault",
                {"kind": fault.kind, "uid": uid, "byte": position},
            )

    def active_loci(self) -> list[ComponentLocus]:
        active = ["orders-bus"]
        if self.gateway_active:
            active.append("gateway")
        if self.config.sovereignty:
            active.append("sovereignty")
        active.extend(self.config.active_components)
        return [locate(name) for name in active]

    def build_report(self) -> dict:
        states = {
            order_id: self.bus.order_state(order_id)
            for order_id in self.bus.order_ids()
        }
        verify = self.archive.verify_chain()
        gaps = coverage_check(self.config.required_cells, self.active_loci())
        denies = sum(
            sum(1 for event in connector.audit_events() if event.action == DENY)
            for connector in self.connectors.values()
        )
        return {
            "orders_total": len(self.config.orders),
            "reported": sum(1 for s in states.values() if s == OrderState.REPORTED),
            "rejected": sum(1 for s in states.values() if s == OrderState.REJECTED),
            "chain_status": "OK" if verify.ok else f"BAD index {verify.bad_index}",
            "rami_gaps": list(gaps_text(gaps)),
            "audit_denies": denies,
        }

    def run(self) -> SimResult:
        self.register_shells()
        self.schedule_orders()
        while self._queue:
            tick, actor, _, fn, order_id = heapq.heappop(self._queue)
            if tick > self.clock.tick:
                self.clock.advance_to(tick)
            try:
                fn()
            except Nde4Error as exc:
                # a failed step rejects its order; the rest of the run goes on
                if order_id is None:
                    raise
                self.emit(
                    actor,
                    "error",
                    {"orderId": order_id, "error": type(exc).__name__, "detail": str(exc)},
                )
                if self.bus.order_state(order_id) not in TERMINAL_STATES:
                    self._publish(order_id, OrderState.REJECTED)
            self.drain_status()
        blocking: dict[str, str] = {}
        for order_id in self.bus.order_ids():
            state = self.bus.order_state(order_id)
            if state not in TERMINAL_STATES:
                blocking[order_id] = state.value
        if self._pending_exchanges > 0:
            blocking["exchanges-pending"] = str(self._pending_exchanges)
        if blocking:
            report = self.build_report()
            raise ScenarioDeadlock(blocking, report, self.trace_lines())
        self.apply_tamper()
        report = self.build_report()
        return SimResult(
            report=report,
            trace_lines=self.trace_lines(),
            registry=self.registry,
            bus=self.bus,
            archive=self.archive,
            connectors=dict(self.connectors),
            orders_frame_sizes=tuple(self.orders_frame_sizes),
            sovereign_frames=tuple(self.sovereign_frames),
        )


def run_scenario(config: ScenarioConfig, data_dir: str | Path) -> SimResult:
    """Run `config` in `data_dir`, which must be absent or empty: a store left
    by another run would refuse every uid this run mints (DataDirInUse)."""
    validate_config(config)
    directory = Path(data_dir)
    if directory.is_dir() and any(directory.iterdir()):
        raise DataDirInUse(f"data directory is not empty: {directory}")
    return _Engine(config, directory).run()
