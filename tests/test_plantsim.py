from __future__ import annotations

import json
import random
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_object, record_range
from nde4 import bus as bus_module
from nde4.archive import SEGMENT_FILE
from nde4.bus import Procedure
from nde4.framing import ORDERS_PAYLOAD_LIMIT, Channel
from nde4.gateway import Indication
from nde4.identity import InstanceId, TypeId
from nde4.messages import OrderState
from nde4.plantsim import (
    DEFAULT_NOISE,
    FAULT_DROP_GATEWAY,
    FAULT_OVERREAD,
    FAULT_OVERSIZE,
    FAULT_TAMPER,
    REPORT_KEYS,
    CompanyConfig,
    ConfigInvalid,
    FaultNotApplicable,
    FaultSpec,
    GridShapeMismatch,
    NoiseModel,
    OrderPlan,
    ExchangePlan,
    ScenarioConfig,
    ScenarioDeadlock,
    StationConfig,
    _SCENARIO,
    _derive_rng,
    acquire,
    check_fault_applicable,
    evaluate,
    inject_fault,
    load_scenario,
    run_scenario,
    synthesize_grid,
    validate_config,
)
from nde4.rami import Hierarchy, Layer, Lifecycle, RamiCoordinate
from nde4.semantics import TAG_AMPLITUDE_GRID, TAG_CALIBRATION_DUE, TAG_OBJECT_UID
from nde4.sovereignty import UsagePolicy

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FORMATS = Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md"

PIPE_WELD = "urn:nde4:type:acme:pipe-weld"


def base_config(**overrides) -> ScenarioConfig:
    config = ScenarioConfig(
        seed=7,
        companies=(
            CompanyConfig(
                name="acme",
                role="OPERATOR",
                stations=(StationConfig("ut-1", "ut-scanner", ("UT",)),),
                procedures=(
                    Procedure("proc-ut", "UT", rows=6, cols=6),
                ),
            ),
        ),
        orders=(
            OrderPlan("ORD-1", "acme", PIPE_WELD, "SN-1", "proc-ut"),
        ),
    )
    return replace(config, **overrides) if overrides else config


def two_company_config(**overrides) -> ScenarioConfig:
    partner = CompanyConfig(name="forgeco", role="COMPONENT_SUPPLIER")
    config = base_config()
    config = replace(config, companies=config.companies + (partner,))
    return replace(config, **overrides) if overrides else config


# --- configuration ------------------------------------------------------------

def test_base_config_is_valid():
    validate_config(base_config())


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: replace(c, seed=-1), "seed"),
        (lambda c: replace(c, seed=2**64), "seed"),
        (lambda c: replace(c, companies=()), "no companies"),
        (
            lambda c: replace(c, companies=c.companies * 2),
            "unique",
        ),
        (
            lambda c: replace(
                c,
                companies=(replace(c.companies[0], role="WIZARD"),),
            ),
            "role",
        ),
        (
            lambda c: replace(
                c,
                companies=(replace(c.companies[0], name="Acme"),),
                orders=(replace(c.orders[0], company="Acme"),),
            ),
            "lowercase",
        ),
        (lambda c: replace(c, orders=c.orders * 2), "duplicate order"),
        (
            lambda c: replace(c, orders=(replace(c.orders[0], company="ghostco"),)),
            "unknown company",
        ),
        (
            lambda c: replace(
                c, orders=(replace(c.orders[0], procedure_id="proc-x"),)
            ),
            "unknown procedure",
        ),
        (
            lambda c: replace(
                c, orders=(replace(c.orders[0], station_id="st-x"),)
            ),
            "unknown station",
        ),
        (
            lambda c: replace(c, orders=(replace(c.orders[0], due_ticks=-5),)),
            "negative dueTicks",
        ),
        (
            lambda c: replace(
                c, orders=(replace(c.orders[0], component_serial="SN 1"),)
            ),
            "serial",
        ),
        (
            lambda c: replace(
                c, orders=(replace(c.orders[0], component_type="not-a-urn"),)
            ),
            "ORD-1",
        ),
        (
            lambda c: replace(
                c,
                exchanges=(
                    ExchangePlan("acme", "ghostco", "ORD-1", UsagePolicy()),
                ),
            ),
            "unknown company",
        ),
        (
            lambda c: replace(
                c,
                exchanges=(ExchangePlan("acme", "acme", "ORD-9", UsagePolicy()),),
            ),
            "unknown order",
        ),
        (lambda c: replace(c, allowlist=("ghostco",)), "allowlist"),
        (
            lambda c: replace(c, noise=replace(DEFAULT_NOISE, detection_floor=0)),
            "detection floor",
        ),
        (
            lambda c: replace(
                c, noise=replace(DEFAULT_NOISE, peak_lo=90, peak_hi=40)
            ),
            "peak",
        ),
        (
            lambda c: replace(c, noise=replace(DEFAULT_NOISE, max_defect_extent=0)),
            "defect",
        ),
        (
            lambda c: replace(c, noise=replace(DEFAULT_NOISE, noise_max=1e39)),
            "noiseMax does not fit an f32",
        ),
        (
            lambda c: replace(
                c, noise=replace(DEFAULT_NOISE, peak_lo=1e300, peak_hi=1e308)
            ),
            "peakLo does not fit an f32",
        ),
        (lambda c: replace(c, active_components=("nope",)), "unknown component"),
        (
            lambda c: replace(c, orders=(replace(c.orders[0], order_id="ORD 10"),)),
            "bad order id",
        ),
        (
            lambda c: replace(
                c,
                companies=(
                    replace(c.companies[0], procedures=(Procedure("proc vt", "VT"),)),
                ),
                orders=(replace(c.orders[0], procedure_id="proc vt"),),
            ),
            "bad procedure id",
        ),
        (
            lambda c: replace(
                c,
                companies=(
                    replace(c.companies[0], stations=(StationConfig(5, "t"),)),
                ),
            ),
            "bad station id 5",
        ),
    ],
)
def test_validate_config_rejects(mutate, fragment):
    with pytest.raises(ConfigInvalid) as info:
        validate_config(mutate(base_config()))
    assert fragment.lower() in str(info.value).lower()


def test_station_token_checks():
    bad_station = StationConfig("ut 1", "UT-Scanner", ("XX",))
    config = base_config(
        companies=(
            CompanyConfig(
                "acme",
                "OPERATOR",
                stations=(bad_station,),
                procedures=(Procedure("proc-ut", "UT"),),
            ),
        )
    )
    with pytest.raises(ConfigInvalid) as info:
        validate_config(config)
    text = str(info.value)
    assert "station id" in text
    assert "type name" in text
    assert "method" in text


def test_fault_applicability():
    config = base_config()
    check_fault_applicable(config, FaultSpec(FAULT_TAMPER))
    with pytest.raises(ConfigInvalid):
        check_fault_applicable(config, FaultSpec("GREMLIN"))
    empty = base_config(orders=())
    with pytest.raises(FaultNotApplicable):
        check_fault_applicable(empty, FaultSpec(FAULT_TAMPER))
    with pytest.raises(FaultNotApplicable):
        check_fault_applicable(
            config, FaultSpec(FAULT_OVERSIZE, order_id="ORD-404")
        )
    with pytest.raises(FaultNotApplicable):
        check_fault_applicable(config, FaultSpec(FAULT_OVERREAD))
    armed = inject_fault(config, FaultSpec(FAULT_TAMPER))
    assert [f.kind for f in armed.faults] == [FAULT_TAMPER]
    assert config.faults == ()  # original untouched


def test_load_scenario_minimal_and_overrides():
    document = {
        "seed": 11,
        "companies": [
            {
                "name": "acme",
                "role": "OPERATOR",
                "stations": [
                    {"id": "ut-1", "type": "ut-scanner", "methods": ["UT"]},
                    {"id": "desk-1", "type": "desk"},
                ],
                "procedures": [{"id": "proc-ut", "method": "UT", "rows": 4, "cols": 4}],
            }
        ],
        "orders": [
            {
                "orderId": "ORD-1",
                "company": "acme",
                "componentType": PIPE_WELD,
                "componentSerial": "SN-1",
                "procedureId": "proc-ut",
            }
        ],
    }
    config = load_scenario(json.dumps(document))
    assert config.seed == 11
    assert config.orders[0].priority == 0
    assert config.orders[0].due_ticks == 86_400
    assert config.noise == DEFAULT_NOISE
    assert config.companies[0].stations[1] == StationConfig("desk-1", "desk")
    assert load_scenario(json.dumps(document), seed_override=99).seed == 99


def test_load_scenario_required_cell_forms():
    document = {
        "seed": 1,
        "companies": [
            {
                "name": "acme",
                "role": "OPERATOR",
                "procedures": [{"id": "proc-ut", "method": "UT"}],
            }
        ],
        "orders": [],
        "requiredCells": [
            "INFORMATION/INST_USE/FIELD",
            {
                "layers": ["COMMUNICATION"],
                "lifecycles": ["INST_PROD", "INST_USE"],
                "hierarchies": ["PLANT"],
            },
        ],
    }
    config = load_scenario(json.dumps(document))
    assert (
        RamiCoordinate(Layer.INFORMATION, Lifecycle.INST_USE, Hierarchy.FIELD)
        in config.required_cells
    )
    assert len(config.required_cells) == 3


# wrong JSON types, unknown and missing keys: (document, ConfigInvalid message)
WRONG_TYPES = [
    ('{"sovereignty": "false"}', "sovereignty: expected bool, got str"),
    (
        '{"companies": [{"name": "a", "role": "OEM", "stations":'
        ' [{"id": "s", "type": "t", "methods": "UT"}]}]}',
        "companies[0].stations[0].methods: expected list, got str",
    ),
    (
        '{"companies": [{"name": "a", "role": "OEM", "procedures":'
        ' [{"id": "p", "method": "UT", "rows": 8.7}]}]}',
        "companies[0].procedures[0].rows: expected int, got float",
    ),
    (
        '{"companies": [{"name": "a", "role": "OEM", "procedures":'
        ' [{"id": "p", "method": "UT", "rows": true}]}]}',
        "companies[0].procedures[0].rows: expected int, got bool",
    ),
    (
        '{"companies": [{"name": "a", "role": "OEM", "procedures":'
        ' [{"id": "p", "method": "UT", "cols": 8.0}]}]}',
        "companies[0].procedures[0].cols: expected int, got float",
    ),
    ('{"seed": 1.5}', "seed: expected int, got float"),
    ('{"allowlist": "acme"}', "allowlist: expected list, got str"),
    (
        '{"companies": [{"name": "a", "role": "OEM", "stations":'
        ' [{"id": "s", "type": "t"}, {"id": 5, "type": "t"}]}]}',
        "companies[0].stations[1].id: expected str, got int",
    ),
    (
        '{"orders": [{"orderId": "ORD-1", "company": "a", "componentType": 5,'
        ' "componentSerial": "SN-1", "procedureId": "p"}]}',
        "orders[0].componentType: expected str, got int",
    ),
    (
        '{"exchanges": [{"provider": "a", "consumer": "b", "orderId": "ORD-1",'
        ' "policy": {"allowForward": "false"}}]}',
        "exchanges[0].policy.allowForward: expected bool, got str",
    ),
    (
        '{"faults": [{"kind": "DROP_GATEWAY", "orderId": null}]}',
        "faults[0].orderId: expected str, got null",
    ),
    ('{"sovreignty": true}', "sovreignty: unknown key"),
    (
        '{"companies": [{"name": "a", "role": "OEM", "stations": [{"id": "s"}]}]}',
        "companies[0].stations[0].type: required key missing",
    ),
    (
        '{"companies": [{"name": "a", "role": "OEM", "stations":'
        ' [{"id": "s", "type": "t", "person": true}]}]}',
        "companies[0].stations[0].person: unknown key",
    ),
]


@pytest.mark.parametrize("text, message", WRONG_TYPES)
def test_load_scenario_names_the_path(text, message):
    with pytest.raises(ConfigInvalid) as info:
        load_scenario(text)
    assert str(info.value) == f"scenario malformed: {message}"


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"seed": "seven", "companies": []}',
        '{"companies": [{"role": "OPERATOR"}]}',  # name missing
        '{"companies": [], "requiredCells": [42]}',
        '{"companies": [], "orders": [{"orderId": "ORD-1"}]}',
        # nested documents of the wrong type
        '{"companies": [], "noise": 5}',
        '{"companies": ["x"]}',
        '{"companies": [{"name": "a", "role": "OEM", "stations": ["s"]}]}',
        '{"companies": [{"name": "a", "role": "OEM", "procedures": [5]}]}',
        '{"companies": [], "exchanges": [{"provider": "a", "consumer": "b",'
        ' "orderId": "ORD-1", "policy": 5}]}',
        *(text for text, _ in WRONG_TYPES),
        # beyond the int parser's digit limit, and beyond the recursion limit
        pytest.param('{"seed": ' + "7" * 5000 + "}", id="huge-int"),
        pytest.param("[" * 100_000, id="too-deep"),
    ],
)
def test_load_scenario_rejects_malformed(text):
    with pytest.raises(ConfigInvalid):
        load_scenario(text)


def _table_keys(kind) -> set[str]:
    """Every document key a scenario builder reads, nested tables included."""
    if isinstance(kind, dict):
        return set().union(*map(_table_keys, kind.values()))
    if hasattr(kind, "item"):
        return _table_keys(kind.item)
    keys = set()
    for _, key, nested in getattr(kind, "rows", ()):
        keys |= {key} | _table_keys(nested)
    return keys


def _document_keys(value) -> set[str]:
    if isinstance(value, dict):
        return set(value).union(*map(_document_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_document_keys, value))
    return set()


def test_formats_doc_states_every_scenario_key():
    text = FORMATS.read_text("utf-8")
    section = text.split("\n## Scenarios\n")[1].split("\n## ")[0]
    example = json.loads(section.split("```json\n")[1].split("\n```")[0])
    keys = _table_keys(_SCENARIO)
    assert {"rejectThreshold", "displayName", "children", "station", "maxReads"} <= keys
    assert [key for key in sorted(keys) if f"`{key}`" not in section] == []
    assert _document_keys(example) <= keys


def test_shipped_scenarios_parse():
    for name in ("demo.scen", "fullchain.scen"):
        config = load_scenario((SCENARIO_DIR / name).read_text())
        assert config.seed == 42


# --- synthetic acquisition -------------------------------------------------------

def test_derive_rng_streams_are_stable_and_distinct():
    a = _derive_rng(42, "uid").random()
    b = _derive_rng(42, "uid").random()
    c = _derive_rng(42, "tamper").random()
    d = _derive_rng(43, "uid").random()
    assert a == b
    assert a != c
    assert a != d


def test_synthesize_grid_shape_and_bounds():
    procedure = Procedure("proc-ut", "UT", rows=5, cols=7)
    grid = synthesize_grid(procedure, random.Random(1))
    assert len(grid) == 35
    assert all(0.0 <= v < DEFAULT_NOISE.peak_hi for v in grid)
    quiet = NoiseModel(max_defects=0)
    background = synthesize_grid(procedure, random.Random(1), quiet)
    assert all(v < quiet.noise_max for v in background)
    assert synthesize_grid(procedure, random.Random(9)) == synthesize_grid(
        procedure, random.Random(9)
    )


def test_acquire_builds_a_valid_object(store):
    procedure = Procedure("proc-ut", "UT", rows=3, cols=3)
    obj = acquire(
        procedure,
        "SN-1",
        random.Random(5),
        uid="obj-1",
        order_id="ORD-1",
        component_type=TypeId("acme", "pipe-weld"),
        device_id=InstanceId(TypeId("acme", "ut-scanner"), "unit-1"),
        created_at="20200101T000100",
        calibration_due="20210101T000000",
    )
    store.store(obj)  # storing revalidates against the dictionary
    assert obj.uid == "obj-1"
    assert obj.order_id == "ORD-1"
    assert obj.raw(TAG_CALIBRATION_DUE) == b"20210101T000000"
    again = acquire(
        procedure,
        "SN-1",
        random.Random(5),
        uid="obj-1",
        order_id="ORD-1",
        component_type=TypeId("acme", "pipe-weld"),
        device_id=InstanceId(TypeId("acme", "ut-scanner"), "unit-1"),
        created_at="20200101T000100",
        calibration_due="20210101T000000",
    )
    assert again == obj


def oracle_indications(
    grid: list[float], rows: int, cols: int, floor: float
) -> list[Indication]:
    """Brute-force connected components by repeated neighborhood growth."""
    hot = {
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if grid[r * cols + c] >= floor
    }
    components: list[set[tuple[int, int]]] = []
    remaining = set(hot)
    while remaining:
        seed_cell = next(iter(remaining))
        component = {seed_cell}
        grew = True
        while grew:
            grew = False
            for r, c in list(component):
                for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if nb in hot and nb not in component:
                        component.add(nb)
                        grew = True
        components.append(component)
        remaining -= component
    out = []
    for component in components:
        peak = max(
            component,
            key=lambda rc: (grid[rc[0] * cols + rc[1]], (-rc[0], -rc[1])),
        )
        out.append(Indication(peak[0], peak[1], grid[peak[0] * cols + peak[1]]))
    out.sort(key=lambda i: (i.row, i.col))
    return out


def test_evaluate_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        # quantized amplitudes force ties; the lowest row-major cell wins
        grid = [float(rng.choice((0, 5, 25, 25, 60, 90))) for _ in range(rows * cols)]
        obj = make_object(rows=rows, cols=cols, grid=tuple(grid))
        procedure = Procedure("proc-1", "UT", rows=rows, cols=cols)
        got = evaluate(obj, procedure, detection_floor=20.0)
        want = oracle_indications(grid, rows, cols, 20.0)
        assert list(got) == want


def test_evaluate_rejects_malformed_grids():
    short = make_object(rows=2, cols=2, grid=(1.0, 2.0, 3.0))
    with pytest.raises(GridShapeMismatch):
        evaluate(short, Procedure("proc-1", "UT", rows=2, cols=2))
    values = {
        code: value
        for code, value in (
            (e.code, e.value) for e in make_object().elements
        )
        if code != TAG_AMPLITUDE_GRID
    }
    from nde4.archive import DataObject

    gridless = DataObject.from_values(values)
    with pytest.raises(GridShapeMismatch):
        evaluate(gridless, Procedure("proc-1", "UT", rows=2, cols=2))


# --- whole runs -----------------------------------------------------------------

def test_run_scenario_is_deterministic(tmp_path):
    first = run_scenario(base_config(), tmp_path / "a")
    second = run_scenario(base_config(), tmp_path / "b")
    assert first.trace_lines == second.trace_lines
    assert first.report == second.report
    assert set(first.report) == set(REPORT_KEYS)
    assert first.report["orders_total"] == 1
    assert first.report["reported"] == 1
    assert first.report["rejected"] == 0
    assert first.report["chain_status"] == "OK"
    assert first.report["rami_gaps"] == []
    assert first.report["audit_denies"] == 0
    shifted = run_scenario(base_config(seed=8), tmp_path / "c")
    assert shifted.trace_lines != first.trace_lines


def test_trace_lines_are_canonical_events(tmp_path):
    result = run_scenario(base_config(), tmp_path / "d")
    sequence = []
    for line in result.trace_lines:
        entry = json.loads(line)
        assert set(entry) == {"seq", "at", "actor", "kind", "data"}
        assert line == json.dumps(entry, sort_keys=True, separators=(",", ":"))
        sequence.append(entry["seq"])
    assert sequence == sorted(sequence)
    kinds = {json.loads(line)["kind"] for line in result.trace_lines}
    assert {"submit", "status", "acquire", "report"} <= kinds


def test_uids_derive_from_the_seed(tmp_path):
    result = run_scenario(base_config(), tmp_path / "e")
    prefix = result.archive.uids()[0].split("-")[1]
    assert all(uid.startswith(f"obj-{prefix}-") for uid in result.archive.uids())
    other = run_scenario(base_config(seed=8), tmp_path / "f")
    assert other.archive.uids()[0].split("-")[1] != prefix


def test_connected_world_gap_opens_and_closes(tmp_path):
    cell = RamiCoordinate(
        Layer.INFORMATION, Lifecycle.INST_USE, Hierarchy.CONNECTED_WORLD
    )
    gapped = run_scenario(
        base_config(required_cells=frozenset({cell})), tmp_path / "g"
    )
    assert gapped.report["rami_gaps"] == [cell.text()]
    closed = run_scenario(
        two_company_config(
            required_cells=frozenset({cell}),
            sovereignty=True,
            allowlist=("acme", "forgeco"),
        ),
        tmp_path / "h",
    )
    assert closed.report["rami_gaps"] == []


def test_type_side_gap_closed_by_design_doc(tmp_path):
    cell = RamiCoordinate(Layer.INFORMATION, Lifecycle.TYPE_DEV, Hierarchy.PLANT)
    gapped = run_scenario(
        base_config(required_cells=frozenset({cell})), tmp_path / "i"
    )
    assert gapped.report["rami_gaps"] == [cell.text()]
    closed = run_scenario(
        base_config(
            required_cells=frozenset({cell}),
            active_components=("plantdesign-doc",),
        ),
        tmp_path / "j",
    )
    assert closed.report["rami_gaps"] == []


def test_exchange_without_sovereignty_deadlocks(tmp_path):
    config = two_company_config(
        exchanges=(
            ExchangePlan("acme", "forgeco", "ORD-1", UsagePolicy(max_reads=1)),
        )
    )
    with pytest.raises(ScenarioDeadlock) as info:
        run_scenario(config, tmp_path / "k")
    assert info.value.blocking == {"exchanges-pending": "1"}
    assert set(info.value.report) == set(REPORT_KEYS)
    assert info.value.trace_lines


def test_rejected_order_leaves_no_exchange_pending(tmp_path):
    # ORD-7 of fullchain.scen has an exchange; asking its procedure for one
    # more archived ref than it stores rejects it at its gateway step
    text = (Path(__file__).resolve().parent.parent / "scenarios" / "fullchain.scen").read_text()
    old = '"rejectThreshold": 60.0, "minRefs": 1}'
    assert text.count(old) == 1
    config = load_scenario(text.replace(old, '"rejectThreshold": 60.0, "minRefs": 2}'))
    result = run_scenario(config, tmp_path / "r")
    assert result.report["reported"] == 3
    assert result.report["rejected"] == 1
    assert result.bus.order_state("ORD-7") == OrderState.REJECTED
    events = [json.loads(line) for line in result.trace_lines]
    offered = {event["data"]["uid"] for event in events if event["kind"] == "offer"}
    rejected = {
        uid for uid in result.archive.uids()
        if result.archive.fetch(uid).order_id == "ORD-7"
    }
    assert offered and rejected  # the other exchange still runs
    assert not offered & rejected


def test_drop_gateway_strands_orders(tmp_path):
    config = base_config(faults=(FaultSpec(FAULT_DROP_GATEWAY),))
    with pytest.raises(ScenarioDeadlock) as info:
        run_scenario(config, tmp_path / "l")
    assert info.value.blocking == {"ORD-1": OrderState.DATA_ARCHIVED.value}
    assert info.value.report["reported"] == 0


def test_tamper_fault_breaks_the_chain(tmp_path):
    config = base_config(faults=(FaultSpec(FAULT_TAMPER),))
    result = run_scenario(config, tmp_path / "m")
    assert result.report["chain_status"].startswith("BAD index")
    assert not result.archive.verify_chain().ok
    kinds = [json.loads(line)["kind"] for line in result.trace_lines]
    assert "fault" in kinds
    # the fault flips one bit of the object's bytes inside its segment record
    fault = next(
        event["data"] for event in map(json.loads, result.trace_lines)
        if event["kind"] == "fault"
    )
    run_scenario(base_config(), tmp_path / "clean")
    tampered = (tmp_path / "m" / SEGMENT_FILE).read_bytes()
    clean = (tmp_path / "clean" / SEGMENT_FILE).read_bytes()
    flipped = record_range(tmp_path / "m", fault["uid"]).start + 4 + fault["byte"]
    assert [k for k in range(len(clean)) if tampered[k] != clean[k]] == [flipped]
    assert tampered[flipped] == clean[flipped] ^ 0x01
    index = result.archive.uids().index(fault["uid"])
    assert result.report["chain_status"] == f"BAD index {index}"


def test_orders_frame_sizes_are_the_payloads_the_bus_frames(tmp_path, monkeypatch):
    payloads: list[int] = []
    encode_frame = bus_module.encode_frame

    def encode_and_record(channel, payload):
        frame = encode_frame(channel, payload)
        if channel == Channel.ORDERS:
            payloads.append(len(payload))
        return frame

    monkeypatch.setattr(bus_module, "encode_frame", encode_and_record)
    config = load_scenario((SCENARIO_DIR / "fullchain.scen").read_text())
    result = run_scenario(config, tmp_path / "d")
    assert payloads and result.orders_frame_sizes == tuple(payloads)


def test_oversize_fault_reroutes_and_completes(tmp_path):
    config = base_config(
        faults=(FaultSpec(FAULT_OVERSIZE, size=ORDERS_PAYLOAD_LIMIT),)
    )
    result = run_scenario(config, tmp_path / "n")
    assert result.report["reported"] == 1
    assert max(result.orders_frame_sizes) <= ORDERS_PAYLOAD_LIMIT
    events = [json.loads(line) for line in result.trace_lines]
    routes = [e for e in events if e["kind"] == "route"]
    assert routes and routes[0]["data"]["decision"] == "ARCHIVE_WITH_REFERENCE"
    reported = result.bus.kpis("ORD-1")
    assert reported is not None
    assert reported.notes is None
    assert result.archive.has(reported.payload_ref)


def test_overread_fault_is_denied_and_audited(tmp_path):
    config = two_company_config(
        sovereignty=True,
        allowlist=("acme", "forgeco"),
        exchanges=(
            ExchangePlan("acme", "forgeco", "ORD-1", UsagePolicy(max_reads=1)),
        ),
        faults=(FaultSpec(FAULT_OVERREAD),),
    )
    result = run_scenario(config, tmp_path / "o")
    assert result.report["reported"] == 1
    assert result.report["audit_denies"] == 2  # provider and consumer sides
    consumer = result.connectors["forgeco"]
    contracts = {event.contract_id for event in consumer.audit_events()}
    assert contracts and not any(consumer.cached(cid) for cid in contracts)


def test_sovereign_frames_are_observable(tmp_path):
    config = two_company_config(
        sovereignty=True,
        allowlist=("acme", "forgeco"),
        exchanges=(
            ExchangePlan("acme", "forgeco", "ORD-1", UsagePolicy(max_reads=2)),
        ),
    )
    result = run_scenario(config, tmp_path / "p")
    assert result.sovereign_frames
    from nde4.framing import Channel, decode_frame

    assert all(
        decode_frame(raw).channel == Channel.SOVEREIGN
        for raw in result.sovereign_frames
    )


def test_shipped_fullchain_runs_clean(tmp_path):
    config = load_scenario((SCENARIO_DIR / "fullchain.scen").read_text())
    result = run_scenario(config, tmp_path / "q")
    assert result.report["reported"] == result.report["orders_total"] == 4
    assert result.report["chain_status"] == "OK"
    assert result.report["rami_gaps"] == []
    assert result.report["audit_denies"] == 0
