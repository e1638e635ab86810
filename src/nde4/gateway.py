"""Gateway between the orders bus and the archive.

Three jobs: translate an inspection order into the archive-side metadata
seed every device merges into its stored objects, translate evaluation
results back into bus-side KPI reports, and decide which channel a payload
belongs on. Translation is table-driven and lossless on mapped fields;
whatever the table does not map travels in one private-group blob tag so
nothing is silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from importlib.resources import files

from .archive import Archive, Element
from .bus import DanglingArchiveRef, Procedure
from .errors import Nde4Error
from .framing import ORDERS_PAYLOAD_LIMIT, canonical_json
from .messages import InspectionOrder, ReportedValues, Verdict
from .semantics import TagCode, tsv_rows, tsv_text

# textual blob carrying whatever the mapping table does not cover
UNMAPPED_BLOB_TAG = TagCode(0x0009, 0x0001)

MUST_MAP_FIELDS = ("order_id", "component_serial", "procedure_id", "component_type")


class UnmappedField(Nde4Error):
    """A must-map order field has no mapping table entry."""


class WorkKind(Enum):
    WORKFLOW = "workflow"
    BULK = "bulk"


class Route(Enum):
    ORDERS = "ORDERS"
    ARCHIVE = "ARCHIVE"
    ARCHIVE_WITH_REFERENCE = "ARCHIVE_WITH_REFERENCE"


def route(payload_size: int, kind: WorkKind) -> Route:
    """Bulk always goes to the archive regardless of size; a workflow
    message too large for the orders channel is archived, with a small
    reference message taking its place on ORDERS."""
    if kind == WorkKind.BULK:
        return Route.ARCHIVE
    if payload_size <= ORDERS_PAYLOAD_LIMIT:
        return Route.ORDERS
    return Route.ARCHIVE_WITH_REFERENCE


@dataclass(frozen=True)
class MappingTable:
    """Bijective field-name <-> tag-code pairs."""

    version: int
    pairs: tuple[tuple[str, TagCode], ...]

    def __post_init__(self) -> None:
        fields = [f for f, _ in self.pairs]
        codes = [c for _, c in self.pairs]
        if len(set(fields)) != len(fields) or len(set(codes)) != len(codes):
            raise ValueError("mapping table must be bijective")

    def code_for(self, field_name: str) -> TagCode | None:
        for name, code in self.pairs:
            if name == field_name:
                return code
        return None

    def field_for(self, code: TagCode) -> str | None:
        for name, mapped in self.pairs:
            if mapped == code:
                return name
        return None


def dump_mapping_tsv(mapping: MappingTable) -> str:
    return tsv_text(
        (field_name, f"{code.group:04X}", f"{code.element:04X}")
        for field_name, code in mapping.pairs
    )


def load_mapping_tsv(text: str, version: int) -> MappingTable:
    pairs = tuple(
        (field_name, TagCode(int(group_text, 16), int(element_text, 16)))
        for field_name, group_text, element_text in tsv_rows(text, 3, "mapping")
    )
    return MappingTable(version, pairs)


MAPPING_V1 = load_mapping_tsv(
    files("nde4").joinpath("data/mapping-v1.tsv").read_text("utf-8"), version=1
)


def _order_fields(order: InspectionOrder) -> dict[str, str]:
    """Order fields by mapping name, all as text."""
    return {
        "order_id": order.order_id,
        "component_serial": order.component_serial,
        "procedure_id": order.procedure_id,
        "component_type": str(order.component_type),
        "due": order.due,
        "priority": str(order.priority),
        "station": str(order.station) if order.station else "",
    }


def order_to_archive_work(
    order: InspectionOrder, mapping: MappingTable = MAPPING_V1
) -> tuple[Element, ...]:
    """Metadata seed: mapped tags verbatim, leftovers in the blob tag,
    canonical element ordering."""
    fields = _order_fields(order)
    elements: dict[TagCode, bytes] = {}
    for field_name in MUST_MAP_FIELDS:
        if mapping.code_for(field_name) is None:
            raise UnmappedField(field_name)
    leftovers: dict[str, str] = {}
    for field_name, text in fields.items():
        code = mapping.code_for(field_name)
        if code is None:
            leftovers[field_name] = text
        else:
            elements[code] = text.encode("utf-8")
    if leftovers:
        elements[UNMAPPED_BLOB_TAG] = canonical_json(leftovers)
    return tuple(Element(code, elements[code]) for code in sorted(elements))


@dataclass(frozen=True, slots=True)
class Indication:
    """One evaluated defect indication on an amplitude grid."""

    row: int
    col: int
    amplitude: float  # percent-FSH


def verdict_for(
    indications: tuple[Indication, ...] | list[Indication], reject_threshold: float
) -> Verdict:
    if not indications:
        return Verdict.ACCEPT
    if max(i.amplitude for i in indications) >= reject_threshold:
        return Verdict.REJECT
    return Verdict.REWORK


def archive_result_to_kpis(
    archive: Archive,
    order_id: str,
    indications: tuple[Indication, ...] | list[Indication],
    uids: tuple[str, ...] | list[str],
    procedure: Procedure,
) -> ReportedValues:
    """Translate evaluation output to the bus-side KPI report.

    Every referenced object must be fetchable AND carry this order_id, so a
    report can never point at another order's data.
    """
    for uid in uids:
        if not archive.has(uid):
            raise DanglingArchiveRef(uid)
        stored = archive.fetch(uid)
        if stored.order_id != order_id:
            raise DanglingArchiveRef(
                f"{uid} belongs to order {stored.order_id!r}, not {order_id!r}"
            )
    indications = tuple(indications)
    max_amplitude = (
        max(i.amplitude for i in indications) if indications else None
    )
    return ReportedValues(
        order_id=order_id,
        verdict=verdict_for(indications, procedure.reject_threshold),
        indication_count=len(indications),
        max_amplitude=max_amplitude,
        archived_refs=tuple(uids),
    )
