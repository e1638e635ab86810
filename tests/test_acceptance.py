"""End-to-end acceptance checks.

Eight checks, one per shipped guarantee. Each prints a single verdict line
with its elapsed time and enforces its own wall-clock budget, so a
regression in behavior or in performance both turn the line red. Run with
-rA (the repo default) to see the verdict lines for passing tests too.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import random
import socket
import struct
import threading
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

import nde4
from conftest import make_object, record_range, station_id, station_manifest
from test_plantsim import oracle_indications, two_company_config

from nde4.archive import (
    SEGMENT_FILE,
    Archive,
    BadPreamble,
    DataObject,
    DuplicateUID,
    NonCanonicalOrder,
    TruncatedElement,
    UnknownUID,
    decode_object,
    encode_object,
)
from nde4.bus import (
    DanglingArchiveRef,
    DuplicateOrder,
    IllegalTransition,
    OrdersBus,
    Procedure,
    UnknownOrder,
    UnknownStation,
    WrongOrderState,
)
from nde4.errors import Nde4Error, ValidationFailed
from nde4.framing import (
    MAGIC,
    ORDERS_PAYLOAD_LIMIT,
    BadMagic,
    BadVersion,
    Channel,
    LengthMismatch,
    OversizedPayload,
    UnknownChannel,
    decode_frame,
    encode_frame,
)
from nde4.gateway import MappingTable, UnmappedField, order_to_archive_work
from nde4.identity import (
    InstanceId,
    MalformedToken,
    ParseError,
    TypeId,
    mint_type_id,
    parse_id,
)
from nde4.messages import (
    InspectionOrder,
    MalformedMessage,
    OrderState,
    ReportedValues,
    StatusEvent,
    Verdict,
    decode_message,
)
from nde4.plantsim import (
    DEFAULT_OVERSIZE_BYTES,
    FAULT_OVERREAD,
    FAULT_OVERSIZE,
    ConfigInvalid,
    ExchangePlan,
    FaultNotApplicable,
    FaultSpec,
    GridShapeMismatch,
    ScenarioDeadlock,
    check_fault_applicable,
    evaluate,
    inject_fault,
    load_scenario,
    run_scenario,
)
from nde4.rami import (
    DEFAULT_LOCI,
    GATEWAY_LOCUS,
    ORDERS_BUS_LOCUS,
    PLANTDESIGN_DOC_LOCUS,
    SOVEREIGNTY_LOCUS,
    ComponentLocus,
    Hierarchy,
    Layer,
    Lifecycle,
    RamiCoordinate,
    UnknownComponent,
    cells,
    coverage_check,
    locate,
)
from nde4.registry import (
    CycleDetected,
    DuplicateInstance,
    InvalidManifest,
    Manifest,
    ManifestBody,
    ManifestHeader,
    Registry,
    UnknownShell,
)
from nde4.semantics import (
    DICT_V1,
    TAG_BULK_PAYLOAD,
    TAG_ORDER_ID,
    Dictionary,
    DuplicateDefinition,
    EncodingError,
    TagCode,
    UnknownStandardTag,
    ValueLengthMismatch,
    encode_value,
    interpret,
    lookup,
)
from nde4.sovereignty import (
    ACCEPT,
    DELETE,
    DENY,
    READ,
    Connector,
    ForwardProhibited,
    InvalidPolicy,
    PolicyExhausted,
    PolicyExpired,
    UnknownContract,
    UsagePolicy,
    WrongConsumer,
    WrongState,
)
from nde4.timebase import BadDatetime, LogicalClock, format_tick, parse_datetime
from nde4.transport import ConnectionClosed, recv_frame

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

ALL_CELLS = tuple(
    RamiCoordinate(layer, lifecycle, hierarchy)
    for layer, lifecycle, hierarchy in product(Layer, Lifecycle, Hierarchy)
)


@contextmanager
def verdict(label: str, budget_s: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"{label}: {elapsed:.2f}s over the {budget_s:.0f}s budget"
        )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"{label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


# --- 1: payload cap and bulk rerouting ---------------------------------------

def test_01_order_channel_cap_and_bulk_reroute(tmp_path):
    with verdict("1 payload cap and bulk reroute", 5.0):
        assert ORDERS_PAYLOAD_LIMIT == 16_777_216
        at_cap = encode_frame(Channel.ORDERS, b"\x00" * ORDERS_PAYLOAD_LIMIT)
        assert len(decode_frame(at_cap).payload) == ORDERS_PAYLOAD_LIMIT
        with pytest.raises(OversizedPayload):
            encode_frame(Channel.ORDERS, b"\x00" * (ORDERS_PAYLOAD_LIMIT + 1))

        # a result body too big for the small-message channel must still
        # arrive, carried by the archive and referenced from the report
        assert DEFAULT_OVERSIZE_BYTES == 17 * 2**20
        config = load_scenario((SCENARIO_DIR / "demo.scen").read_text())
        config = inject_fault(config, FaultSpec(FAULT_OVERSIZE))
        run = run_scenario(config, tmp_path / "bulk")
        assert run.report["reported"] == run.report["orders_total"]
        assert max(run.orders_frame_sizes) <= ORDERS_PAYLOAD_LIMIT

        routed = [
            event
            for event in map(_parse_trace, run.trace_lines)
            if event["kind"] == "route"
            and event["data"]["decision"] == "ARCHIVE_WITH_REFERENCE"
        ]
        assert routed, "no reroute decision in the trace"
        refs = [
            rv.payload_ref
            for rv in (run.bus.kpis(oid) for oid in run.bus.order_ids())
            if rv is not None and rv.payload_ref is not None
        ]
        assert len(refs) == 1
        bulk = run.archive.fetch(refs[0])
        assert len(encode_object(bulk)) > ORDERS_PAYLOAD_LIMIT


def _parse_trace(line: str) -> dict:
    import json

    return json.loads(line)


# --- 2: view-once enforcement -------------------------------------------------

def test_02_view_once_under_randomized_contention(tmp_path):
    with verdict("2 view-once enforcement", 5.0):
        clock = LogicalClock()
        store = Archive(tmp_path / "vault", clock)
        store.store(make_object(uid="secret-1"))
        rng = random.Random(20_26)

        for trial in range(100):
            provider = Connector(
                "steel",
                InstanceId(TypeId("steel", "connector"), "c-1"),
                clock,
                archive=store,
            )
            consumer = Connector(
                "forge", InstanceId(TypeId("forge", "connector"), "c-1"), clock
            )
            provider.link(consumer)
            cid = provider.offer(
                consumer.owner, "secret-1", UsagePolicy(max_reads=1)
            )
            consumer.accept(cid)

            attempts = rng.randint(2, 6)
            spins = [rng.randrange(0, 400) for _ in range(attempts)]
            barrier = threading.Barrier(attempts)
            outcomes: list[str] = []
            sink_lock = threading.Lock()

            def attempt(spin: int) -> None:
                barrier.wait()
                for _ in range(spin):
                    pass
                try:
                    consumer.consume(cid)
                except PolicyExhausted:
                    result = "denied"
                else:
                    result = "read"
                with sink_lock:
                    outcomes.append(result)

            threads = [
                threading.Thread(target=attempt, args=(spin,)) for spin in spins
            ]
            rng.shuffle(threads)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert outcomes.count("read") == 1, f"trial {trial}: {outcomes}"
            assert outcomes.count("denied") == attempts - 1
            assert not consumer.cached(cid)
            actions = [e.action for e in consumer.audit_events(cid)]
            assert actions[:3] == [ACCEPT, READ, DELETE], actions
            assert actions[3:] == [DENY] * (attempts - 1), actions


# --- 3: tamper detection ------------------------------------------------------

def test_03_every_byte_flip_is_detected(tmp_path):
    with verdict("3 exhaustive tamper detection", 30.0):
        clock = LogicalClock()
        store = Archive(tmp_path / "flip", clock)
        uids = ("flip-0", "flip-1", "flip-2")
        for k, uid in enumerate(uids):
            store.store(
                make_object(uid=uid, order_id=f"ORD-{k}", rows=8, cols=8)
            )
        assert store.verify_chain().ok

        # every byte of the segment, length prefixes included
        path = tmp_path / "flip" / SEGMENT_FILE
        original = path.read_bytes()
        records = [record_range(tmp_path / "flip", uid) for uid in uids]
        assert records[-1].stop == len(original) <= 3 * 4096
        for index, (uid, record) in enumerate(zip(uids, records)):
            for offset in record:
                mutated = bytearray(original)
                mutated[offset] ^= 0xFF
                path.write_bytes(bytes(mutated))
                result = store.verify_chain()
                assert not result.ok, f"{uid} byte {offset} undetected"
                assert result.bad_index == index, (
                    f"{uid} byte {offset}: index {result.bad_index} != {index}"
                )
        path.write_bytes(original)

        chain_path = tmp_path / "flip" / "chain.log"
        chain = chain_path.read_bytes()
        for offset in range(len(chain)):
            mutated = bytearray(chain)
            mutated[offset] ^= 0xFF
            chain_path.write_bytes(bytes(mutated))
            result = store.verify_chain()
            line_index = chain[:offset].count(b"\n")
            assert not result.ok, f"chain byte {offset} undetected"
            assert result.bad_index == line_index, (
                f"chain byte {offset}: index {result.bad_index} != {line_index}"
            )
        chain_path.write_bytes(chain)
        assert store.verify_chain().ok


# --- 4: codec identity --------------------------------------------------------

def test_04_decode_encode_identity():
    with verdict("4 codec round-trip identity", 60.0):
        rng = random.Random(4242)
        methods = ("UT", "RT", "VT")
        failures = 0

        objects = []
        for i in range(1000):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            grid = tuple(
                rng.uniform(0.0, 100.0) for _ in range(rows * cols)
            )
            extra = {}
            for _ in range(rng.randrange(0, 3)):
                code = TagCode(0x0009, rng.randrange(1, 60))
                extra[code] = rng.randbytes(rng.randrange(0, 300))
            objects.append(
                make_object(
                    uid=f"o-{i:05d}",
                    order_id=f"ORD-{rng.randrange(1, 400)}",
                    serial=f"SN-{rng.randrange(1, 50)}",
                    method=rng.choice(methods),
                    rows=rows,
                    cols=cols,
                    grid=grid,
                    extra=extra,
                )
            )
        objects.append(
            make_object(
                uid="o-bulk",
                extra={TAG_BULK_PAYLOAD: b"\x5a" * (ORDERS_PAYLOAD_LIMIT + 7)},
            )
        )
        for obj in objects:
            if decode_object(encode_object(obj)) != obj:
                failures += 1

        channels = tuple(Channel)
        for i in range(1000):
            channel = rng.choice(channels)
            payload = rng.randbytes(rng.randrange(0, 4096))
            frame = decode_frame(encode_frame(channel, payload))
            if frame.channel is not channel or frame.payload != payload:
                failures += 1

        assert len(objects) >= 1001
        assert failures == 0


# --- 5: shipped scenario end to end --------------------------------------------

def test_05_fullchain_scenario_is_clean_and_reproducible(tmp_path):
    with verdict("5 shipped scenario end to end", 10.0):
        text = (SCENARIO_DIR / "fullchain.scen").read_text()
        config = load_scenario(text)
        assert config.seed == 42

        first = run_scenario(config, tmp_path / "a")
        second = run_scenario(config, tmp_path / "b")
        assert first.trace_lines == second.trace_lines
        assert "\n".join(first.trace_lines).encode() == "\n".join(
            second.trace_lines
        ).encode()

        for oid in first.bus.order_ids():
            assert first.bus.order_state(oid) == OrderState.REPORTED

        known_orders = set(first.bus.order_ids())
        for uid in first.archive.uids():
            raw = first.archive.fetch(uid).raw(TAG_ORDER_ID)
            assert raw is not None
            assert raw.decode("utf-8") in known_orders

        min_refs = {
            procedure.procedure_id: procedure.min_refs
            for company in config.companies
            for procedure in company.procedures
        }
        plans = {plan.order_id: plan for plan in config.orders}
        for oid in first.bus.order_ids():
            rv = first.bus.kpis(oid)
            assert rv is not None
            stored = [ref for ref in rv.archived_refs if first.archive.has(ref)]
            assert len(stored) >= min_refs[plans[oid].procedure_id]

        assert first.archive.verify_chain().ok
        assert first.report["chain_status"] == "OK"
        assert first.report["rami_gaps"] == []
        assert first.report["rejected"] == 0


# --- 6: architecture coverage -------------------------------------------------

def test_06_component_loci_and_coverage_oracle():
    with verdict("6 architecture coverage claims", 5.0):
        bus_cells = locate("orders-bus").cells
        hierarchies = {c.hierarchy for c in bus_cells}
        assert Hierarchy.ENTERPRISE not in hierarchies
        assert Hierarchy.CONNECTED_WORLD not in hierarchies
        assert {c.layer for c in bus_cells} == {
            Layer.INFORMATION,
            Layer.COMMUNICATION,
        }

        gateway_cells = locate("gateway").cells
        extra = gateway_cells - bus_cells
        assert bus_cells < gateway_cells
        assert {c.hierarchy for c in extra} == {Hierarchy.ENTERPRISE}
        assert Hierarchy.CONNECTED_WORLD not in {
            c.hierarchy for c in gateway_cells
        }

        doc_cells = locate("plantdesign-doc").cells
        assert {c.lifecycle for c in doc_cells} == {
            Lifecycle.TYPE_DEV,
            Lifecycle.TYPE_USE,
        }
        assert {c.hierarchy for c in doc_cells} == set(Hierarchy)

        assert locate("orders-bus") is ORDERS_BUS_LOCUS
        assert locate("gateway") is GATEWAY_LOCUS
        assert locate("plantdesign-doc") is PLANTDESIGN_DOC_LOCUS
        assert {c.hierarchy for c in SOVEREIGNTY_LOCUS.cells} == {
            Hierarchy.CONNECTED_WORLD
        }
        middle = cells(
            (Layer.INFORMATION, Layer.COMMUNICATION), Lifecycle, Hierarchy
        )
        assert frozenset().union(*(l.cells for l in DEFAULT_LOCI)) == middle

        rng = random.Random(6060)
        for _ in range(1000):
            required = frozenset(
                rng.sample(ALL_CELLS, rng.randrange(0, len(ALL_CELLS) + 1))
            )
            loci = [
                ComponentLocus(
                    f"c-{n}",
                    frozenset(rng.sample(ALL_CELLS, rng.randrange(1, 24))),
                )
                for n in range(rng.randrange(0, 4))
            ]
            oracle = set(required)
            for locus in loci:
                oracle -= set(locus.cells)
            assert coverage_check(required, loci) == frozenset(oracle)


# --- 7: derived behaviors against independent oracles --------------------------

def test_07_query_worklist_and_evaluation_oracles(tmp_path):
    with verdict("7 derived-behavior oracles", 60.0):
        rng = random.Random(7070)

        # archive query against a linear scan over the stored metadata
        clock = LogicalClock()
        store = Archive(tmp_path / "query", clock)
        orders = tuple(f"ORD-{n}" for n in range(1, 6))
        serials = tuple(f"SN-{n}" for n in range(1, 5))
        methods = ("UT", "RT", "VT")
        rows = []
        for i in range(60):
            picked = (
                f"q-{i:03d}",
                rng.choice(orders),
                rng.choice(serials),
                rng.choice(methods),
            )
            rows.append(picked)
            store.store(
                make_object(
                    uid=picked[0],
                    order_id=picked[1],
                    serial=picked[2],
                    method=picked[3],
                )
            )
        for _ in range(500):
            want_order = rng.choice((None,) + orders + ("ORD-9",))
            want_serial = rng.choice((None,) + serials + ("SN-9",))
            want_method = rng.choice((None, "UT", "RT", "VT", "PT"))
            got = store.query(
                order_id=want_order,
                component_serial=want_serial,
                method=want_method,
            )
            oracle = tuple(
                uid
                for uid, order, serial, method in rows
                if (want_order is None or order == want_order)
                and (want_serial is None or serial == want_serial)
                and (want_method is None or method == want_method)
            )
            assert got == oracle

        # worklist order against a full sort of the eligible orders
        registry = Registry()
        mine = station_id("wl-a")
        other = station_id("wl-b")
        registry.register_shell(station_manifest(mine))
        registry.register_shell(station_manifest(other))
        procedures = (
            Procedure("proc-ut", "UT", rows=2, cols=2),
            Procedure("proc-rt", "RT", rows=2, cols=2),
        )
        weld = TypeId("acme", "pipe-weld")
        for case in range(500):
            bus = OrdersBus(registry, store, procedures=procedures)
            count = rng.randint(1, 20)
            submitted = []
            for i in range(count):
                order = InspectionOrder(
                    order_id=f"ORD-{case:03d}{i:02d}",
                    component_serial=f"SN-{i}",
                    component_type=weld,
                    procedure_id=rng.choice(
                        ("proc-ut", "proc-ut", "proc-ut", "proc-rt")
                    ),
                    due=format_tick(rng.randrange(0, 200_000)),
                    priority=rng.randint(0, 9),
                    station=rng.choice((None, None, None, mine, other)),
                )
                bus.submit_order(order)
                submitted.append(order)
            rejected = set()
            cuts = min(len(submitted), rng.randrange(0, 3))
            for order in rng.sample(submitted, cuts):
                bus.publish_status(
                    StatusEvent(
                        order.order_id, OrderState.REJECTED, clock.now_text()
                    )
                )
                rejected.add(order.order_id)
            # pinning an order to a station overrides capability discovery
            eligible = [
                o
                for o in submitted
                if o.order_id not in rejected
                and (
                    o.station == mine
                    or (o.station is None and o.procedure_id == "proc-ut")
                )
            ]
            eligible.sort(key=lambda o: (-o.priority, o.due, o.order_id))
            assert list(bus.poll_worklist(mine)) == eligible

        # indication evaluation against brute-force component growth
        pools = (
            (0, 0, 0, 0, 5, 25),
            (0, 0, 25, 25, 60, 90),
            (0, 25, 60, 90, 97, 97),
        )
        for case in range(500):
            grid_rows = rng.randint(1, 16)
            grid_cols = rng.randint(1, 16)
            pool = rng.choice(pools)
            grid = [
                float(rng.choice(pool)) for _ in range(grid_rows * grid_cols)
            ]
            obj = make_object(
                uid=f"e-{case:03d}",
                rows=grid_rows,
                cols=grid_cols,
                grid=tuple(grid),
            )
            got = evaluate(
                obj,
                Procedure("proc-ut", "UT", rows=grid_rows, cols=grid_cols),
                detection_floor=20.0,
            )
            assert list(got) == oracle_indications(
                grid, grid_rows, grid_cols, 20.0
            )


# --- 8: every declared error has a trigger -------------------------------------

def _declared_errors() -> dict[str, type]:
    """Every Nde4Error subclass declared in a module of the package, by
    `module.Class`."""
    found: dict[str, type] = {}
    for module_info in pkgutil.iter_modules(nde4.__path__):
        module = importlib.import_module(f"nde4.{module_info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and issubclass(obj, Nde4Error)
                and obj is not Nde4Error
                and obj.__module__ == module.__name__
            ):
                found[f"{module_info.name}.{name}"] = obj
    return found


def test_08_every_declared_error_is_triggered(tmp_path):
    with verdict("8 declared-error checklist", 30.0):
        clock = LogicalClock()
        store = Archive(tmp_path / "errors", clock)
        store.store(make_object(uid="err-1"))
        store.store(make_object(uid="err-gone"))
        segment = store.directory / SEGMENT_FILE  # cut before err-gone's record
        segment.write_bytes(
            segment.read_bytes()[: record_range(store.directory, "err-gone").start]
        )

        registry = Registry()
        stn = station_id("err-stn")
        registry.register_shell(station_manifest(stn))
        bus = OrdersBus(
            registry,
            store,
            procedures=(Procedure("proc-1", "UT", rows=2, cols=2),),
            clock=clock,
        )
        weld = TypeId("acme", "pipe-weld")

        def order(oid: str) -> InspectionOrder:
            return InspectionOrder(oid, "SN-1", weld, "proc-1", "20200101T010000")

        bus.submit_order(order("ORD-E1"))
        bus.submit_order(order("ORD-E2"))
        bus.assign("ORD-E1", stn)
        bus.publish_status(
            StatusEvent("ORD-E1", OrderState.DATA_ARCHIVED, clock.now_text())
        )

        provider = Connector(
            "steel", InstanceId(TypeId("steel", "connector"), "c-1"),
            clock, archive=store,
        )
        consumer = Connector(
            "forge", InstanceId(TypeId("forge", "connector"), "c-1"), clock
        )
        provider.link(consumer)
        stranger = InstanceId(TypeId("aero", "connector"), "c-9")

        unaccepted = provider.offer(
            consumer.owner, "err-1", UsagePolicy(max_reads=1)
        )
        spent = provider.offer(consumer.owner, "err-1", UsagePolicy(max_reads=1))
        consumer.accept(spent)
        consumer.consume(spent)
        dated = provider.offer(
            consumer.owner, "err-1",
            UsagePolicy(max_reads=2, expires=format_tick(100_000)),
        )
        consumer.accept(dated)
        rooted = provider.offer(
            consumer.owner, "err-1", UsagePolicy(max_reads=2, allow_forward=False)
        )
        consumer.accept(rooted)
        clock.advance(200_000)

        cycle_a = InstanceId(TypeId("acme", "cell"), "a")
        cycle_b = InstanceId(TypeId("acme", "cell"), "b")

        def nested(instance: InstanceId, child: InstanceId) -> Manifest:
            return Manifest(
                header=ManifestHeader(
                    shell_type_id=instance.type_id, asset_instance_id=instance
                ),
                body=ManifestBody(child_shells=(child,)),
            )

        registry.register_shell(nested(cycle_a, cycle_b))

        def closed_socket_read() -> None:
            local, remote = socket.socketpair()
            remote.close()
            try:
                recv_frame(local)
            finally:
                local.close()

        order_def = DICT_V1.get(TAG_ORDER_ID)
        grid_rows_def = lookup(DICT_V1, TagCode(0x0040, 0x0001))
        good_frame = encode_frame(Channel.ORDERS, b"x")
        elements = make_object().elements

        checklist: tuple[tuple[str, object], ...] = (
            (
                "identity.MalformedToken",
                lambda: mint_type_id("ACME", "scanner"),
            ),
            ("identity.ParseError", lambda: parse_id("urn:nde4:bogus")),
            ("timebase.BadDatetime", lambda: parse_datetime("2020-01-01")),
            (
                "semantics.DuplicateDefinition",
                lambda: Dictionary(2, (order_def, order_def)),
            ),
            (
                "semantics.UnknownStandardTag",
                lambda: lookup(DICT_V1, TagCode(0x0008, 0x9999)),
            ),
            (
                "semantics.ValueLengthMismatch",
                lambda: interpret(grid_rows_def, b"\x01"),
            ),
            (
                "semantics.EncodingError",
                lambda: encode_value(order_def, 42),
            ),
            (
                "registry.DuplicateInstance",
                lambda: registry.register_shell(station_manifest(stn)),
            ),
            (
                "registry.InvalidManifest",
                lambda: Registry().register_shell(
                    Manifest(
                        header=ManifestHeader(
                            shell_type_id=None, asset_instance_id=None
                        ),
                        body=ManifestBody(),
                    )
                ),
            ),
            (
                "registry.CycleDetected",
                lambda: registry.register_shell(nested(cycle_b, cycle_a)),
            ),
            (
                "registry.UnknownShell",
                lambda: registry.resolve(
                    InstanceId(TypeId("acme", "ut-scanner"), "ghost")
                ),
            ),
            ("messages.MalformedMessage", lambda: decode_message(b"not json")),
            (
                "framing.OversizedPayload",
                lambda: encode_frame(
                    Channel.ORDERS, b"\x00" * (ORDERS_PAYLOAD_LIMIT + 1)
                ),
            ),
            (
                "framing.BadMagic",
                lambda: decode_frame(b"XXXX" + good_frame[4:]),
            ),
            (
                "framing.BadVersion",
                lambda: decode_frame(
                    good_frame[:4] + b"\x7f" + good_frame[5:]
                ),
            ),
            (
                "framing.UnknownChannel",
                lambda: decode_frame(
                    good_frame[:5] + b"\x09" + good_frame[6:]
                ),
            ),
            (
                "framing.LengthMismatch",
                lambda: decode_frame(good_frame[:-1]),
            ),
            (
                "errors.ValidationFailed",
                lambda: Archive(tmp_path / "vf", clock).store(
                    DataObject.from_values({TAG_ORDER_ID: b"ORD-1"})
                ),
            ),
            (
                "archive.NonCanonicalOrder",
                lambda: encode_object(DataObject(tuple(reversed(elements)))),
            ),
            (
                "archive.TruncatedElement",
                lambda: decode_object(encode_object(make_object())[:-3]),
            ),
            ("archive.BadPreamble", lambda: decode_object(b"XYZO\x01")),
            (
                "archive.DuplicateUID",
                lambda: store.store(make_object(uid="err-1")),
            ),
            ("archive.UnknownUID", lambda: store.fetch("ghost")),
            ("archive.UnreadableObject", lambda: store.fetch("err-gone")),
            (
                "bus.DuplicateOrder",
                lambda: bus.submit_order(order("ORD-E1")),
            ),
            (
                "bus.UnknownStation",
                lambda: bus.poll_worklist(
                    InstanceId(TypeId("acme", "ut-scanner"), "ghost")
                ),
            ),
            ("bus.UnknownOrder", lambda: bus.order_state("ORD-404")),
            (
                "bus.IllegalTransition",
                lambda: bus.publish_status(
                    StatusEvent("ORD-E1", OrderState.QUEUED, clock.now_text())
                ),
            ),
            (
                "bus.WrongOrderState",
                lambda: bus.report_values(
                    ReportedValues(
                        "ORD-E2", Verdict.ACCEPT, 0, archived_refs=("err-1",)
                    )
                ),
            ),
            (
                "bus.DanglingArchiveRef",
                lambda: bus.report_values(
                    ReportedValues(
                        "ORD-E1", Verdict.ACCEPT, 0, archived_refs=("ghost",)
                    )
                ),
            ),
            (
                "gateway.UnmappedField",
                lambda: order_to_archive_work(
                    order("ORD-G1"),
                    MappingTable(1, (("order_id", TAG_ORDER_ID),)),
                ),
            ),
            (
                "sovereignty.InvalidPolicy",
                lambda: provider.offer(
                    consumer.owner, "err-1", UsagePolicy(max_reads=0)
                ),
            ),
            (
                "sovereignty.WrongConsumer",
                lambda: provider.offer(
                    stranger, "err-1", UsagePolicy(max_reads=1)
                ),
            ),
            ("sovereignty.UnknownContract", lambda: consumer.consume("c-404")),
            (
                "sovereignty.WrongState",
                lambda: consumer.consume(unaccepted),
            ),
            (
                "sovereignty.PolicyExhausted",
                lambda: consumer.consume(spent),
            ),
            ("sovereignty.PolicyExpired", lambda: consumer.consume(dated)),
            (
                "sovereignty.ForwardProhibited",
                lambda: consumer.forward(rooted, stranger),
            ),
            ("rami.UnknownComponent", lambda: locate("teleporter")),
            ("plantsim.ConfigInvalid", lambda: load_scenario("[]")),
            (
                "plantsim.DataDirInUse",
                lambda: run_scenario(two_company_config(), tmp_path / "errors"),
            ),
            (
                "plantsim.FaultNotApplicable",
                lambda: check_fault_applicable(
                    two_company_config(), FaultSpec(FAULT_OVERREAD)
                ),
            ),
            (
                "plantsim.ScenarioDeadlock",
                lambda: run_scenario(
                    two_company_config(
                        exchanges=(
                            ExchangePlan(
                                "acme", "forgeco", "ORD-1",
                                UsagePolicy(max_reads=1),
                            ),
                        )
                    ),
                    tmp_path / "dead",
                ),
            ),
            (
                "plantsim.GridShapeMismatch",
                lambda: evaluate(
                    make_object(rows=2, cols=2, grid=(1.0, 2.0, 3.0)),
                    Procedure("proc-1", "UT", rows=2, cols=2),
                ),
            ),
            ("transport.ConnectionClosed", closed_socket_read),
        )

        declared = _declared_errors()
        # errors are counted by class name, so no two classes share one
        names = sorted(cls.__name__ for cls in set(declared.values()))
        assert names == sorted(set(names)), "error classes share a name"
        triggered: set[str] = set()
        for dotted, trigger in checklist:
            cls = declared[dotted]
            with pytest.raises(cls) as info:
                trigger()
            assert type(info.value) is cls, (
                f"{dotted}: got {type(info.value).__name__}"
            )
            triggered.add(dotted)

        untriggered = sorted(set(declared) - triggered)
        assert not untriggered, (
            "declared errors with no trigger: " + ", ".join(untriggered)
        )
