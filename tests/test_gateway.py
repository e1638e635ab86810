from __future__ import annotations

import json
from importlib import resources

import pytest

from conftest import make_object
from nde4.archive import DataObject
from nde4.bus import DanglingArchiveRef, Procedure
from nde4.framing import ORDERS_PAYLOAD_LIMIT
from nde4.gateway import (
    MAPPING_V1,
    MUST_MAP_FIELDS,
    Indication,
    MappingTable,
    Route,
    UnmappedField,
    UNMAPPED_BLOB_TAG,
    WorkKind,
    archive_result_to_kpis,
    dump_mapping_tsv,
    load_mapping_tsv,
    order_to_archive_work,
    route,
    verdict_for,
)
from nde4.identity import InstanceId, TypeId
from nde4.messages import InspectionOrder, Verdict
from nde4.semantics import DICT_V1, TAG_ORDER_ID, TagCode


def order(station: InstanceId | None = None) -> InspectionOrder:
    return InspectionOrder(
        order_id="ORD-7",
        component_serial="SN-1",
        component_type=TypeId("acme", "pipe-weld"),
        procedure_id="proc-1",
        due="20200201T000000",
        priority=5,
        station=station,
    )


def test_route_decision_table():
    assert route(0, WorkKind.WORKFLOW) == Route.ORDERS
    assert route(ORDERS_PAYLOAD_LIMIT, WorkKind.WORKFLOW) == Route.ORDERS
    assert (
        route(ORDERS_PAYLOAD_LIMIT + 1, WorkKind.WORKFLOW)
        == Route.ARCHIVE_WITH_REFERENCE
    )
    assert route(0, WorkKind.BULK) == Route.ARCHIVE
    assert route(ORDERS_PAYLOAD_LIMIT * 4, WorkKind.BULK) == Route.ARCHIVE


def test_mapping_table_is_bijective():
    with pytest.raises(ValueError):
        MappingTable(1, (("a", TagCode(8, 1)), ("a", TagCode(8, 2))))
    with pytest.raises(ValueError):
        MappingTable(1, (("a", TagCode(8, 1)), ("b", TagCode(8, 1))))
    assert MAPPING_V1.code_for("order_id") == TAG_ORDER_ID
    assert MAPPING_V1.field_for(TAG_ORDER_ID) == "order_id"
    assert MAPPING_V1.code_for("nope") is None
    assert MAPPING_V1.field_for(TagCode(0x0001, 0x0001)) is None


def order_fields(elements) -> dict[str, str]:
    """The order fields archive elements carry: each mapped tag by its field
    name, and the unmapped blob's JSON object merged in."""
    fields = {}
    for element in elements:
        name = MAPPING_V1.field_for(element.code)
        if name is not None:
            fields[name] = element.value.decode("utf-8")
        elif element.code == UNMAPPED_BLOB_TAG:
            fields.update(json.loads(element.value))
    return fields


def test_order_translation_round_trip():
    source = order(station=InstanceId(TypeId("acme", "ut-scanner"), "unit-1"))
    elements = order_to_archive_work(source)
    codes = [e.code for e in elements]
    assert codes == sorted(codes)
    fields = order_fields(elements)
    assert fields["order_id"] == "ORD-7"
    assert fields["component_serial"] == "SN-1"
    assert fields["component_type"] == "urn:nde4:type:acme:pipe-weld"
    assert fields["procedure_id"] == "proc-1"
    # unmapped fields survive through the blob
    assert fields["priority"] == "5"
    assert fields["due"] == "20200201T000000"
    assert fields["station"] == "urn:nde4:inst:acme:ut-scanner:unit-1"


def test_order_translation_blob_is_canonical_json():
    elements = order_to_archive_work(order())
    blob = next(e for e in elements if e.code == UNMAPPED_BLOB_TAG)
    decoded = json.loads(blob.value)
    assert blob.value == json.dumps(
        decoded, sort_keys=True, separators=(",", ":")
    ).encode()


def test_must_map_fields_enforced():
    gutted = MappingTable(1, (("order_id", TAG_ORDER_ID),))
    with pytest.raises(UnmappedField):
        order_to_archive_work(order(), gutted)


def test_verdict_thresholds():
    assert verdict_for((), 50.0) == Verdict.ACCEPT
    assert verdict_for((Indication(0, 0, 49.9),), 50.0) == Verdict.REWORK
    assert verdict_for((Indication(0, 0, 50.0),), 50.0) == Verdict.REJECT
    assert verdict_for((Indication(0, 0, 61.0),), 50.0) == Verdict.REJECT
    mixed = (Indication(0, 0, 10.0), Indication(1, 1, 80.0))
    assert verdict_for(mixed, 50.0) == Verdict.REJECT


def test_results_to_kpis(store):
    store.store(make_object(uid="obj-1"))
    procedure = Procedure("proc-1", "UT", reject_threshold=50.0)
    rv = archive_result_to_kpis(
        store,
        "ORD-7",
        (Indication(0, 1, 61.0),),
        ("obj-1",),
        procedure,
    )
    assert rv.verdict == Verdict.REJECT
    assert rv.indication_count == 1
    assert rv.max_amplitude == 61.0
    assert rv.archived_refs == ("obj-1",)
    clean = archive_result_to_kpis(store, "ORD-7", (), ("obj-1",), procedure)
    assert clean.verdict == Verdict.ACCEPT
    assert clean.max_amplitude is None


def test_kpis_refuse_foreign_or_missing_refs(store):
    store.store(make_object(uid="obj-1", order_id="ORD-8"))
    procedure = Procedure("proc-1", "UT")
    with pytest.raises(DanglingArchiveRef):
        archive_result_to_kpis(store, "ORD-7", (), ("obj-404",), procedure)
    with pytest.raises(DanglingArchiveRef):
        archive_result_to_kpis(store, "ORD-7", (), ("obj-1",), procedure)


def test_metadata_seed_composes_with_object_build(store):
    """The seed from an order plus device tags makes a storable object."""
    seed = order_to_archive_work(order())
    base = make_object(uid="obj-1", order_id="ORD-7", serial="SN-1")
    merged = {e.code: e.value for e in base.elements}
    merged.update({e.code: e.value for e in seed})
    store.store(DataObject.from_values(merged))
    fetched = store.fetch("obj-1")
    assert order_fields(fetched.elements)["priority"] == "5"


def test_mapping_tsv_round_trip():
    text = dump_mapping_tsv(MAPPING_V1)
    again = load_mapping_tsv(text, version=1)
    assert again == MAPPING_V1
    with pytest.raises(ValueError):
        load_mapping_tsv("order_id\t0020\n", version=1)


def test_packaged_mapping_matches_builtin():
    text = (
        resources.files("nde4").joinpath("data/mapping-v1.tsv").read_text()
    )
    assert load_mapping_tsv(text, version=1) == MAPPING_V1


def test_packaged_mapping_maps_every_must_map_field():
    for field_name in MUST_MAP_FIELDS:
        code = MAPPING_V1.code_for(field_name)
        assert code is not None, field_name
        assert DICT_V1.get(code).name == field_name
