"""The `evidence-wire` workload: the archive served over loopback TCP.

An archive populated with 2000 objects (two per order, each with an 8x8
amplitude grid like the simulator's UT procedure) is copied, reopened and
served with `FrameServer` and `ArchiveWire`. Two clients each run a closed
loop: the next request goes out only after the reply to the previous one
arrived. The mix is seeded (see `gen.MIX_BLOCK`): mostly FETCH by uid, with
STORE of new objects and QUERY by order id.

The run is cut into slices of a fixed number of mix blocks per client.
Each slice starts, outside the timed part, from a fresh copy of the
populated store, so every request sees between 2000 objects and 2000 plus
the one slice's stores, however fast the program is.
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
from pathlib import Path
from time import perf_counter

from nde4 import (
    Archive,
    Channel,
    FrameClient,
    FrameServer,
    InstanceId,
    TypeId,
    Procedure,
    decode_frame,
    decode_object,
    encode_frame,
    encode_object,
    format_tick,
)
from nde4 import framing
from nde4.archive import OP_FETCH, OP_QUERY, OP_RESULT, OP_STORE, ArchiveWire
from nde4.plantsim import acquire

import gen
import layers
from common import Metric, Outcome, median, tail
from gen import FETCH, QUERY, STORE
from tracing import Tracer, patched

ORDERS = 1000  # pre-populated orders
COPIES = 2  # objects per order
CLIENTS = 2
BLOCKS_PER_SLICE = 10  # mix blocks each client sends between two store resets
BLOCK = sum(count for _, count in gen.MIX_BLOCK)
STORES_PER_SLICE = CLIENTS * BLOCKS_PER_SLICE * dict(gen.MIX_BLOCK)[STORE]
PROCEDURE = Procedure("proc-ut-disc", "UT", rows=8, cols=8, reject_threshold=55.0)
COMPONENT = TypeId("forgeco", "fan-disc")
DEVICE = InstanceId(TypeId("forgeco", "ut-scanner"), "ut-cell-1")


def make_object(rng, order_id: str, uid: str, serial: str):
    return acquire(PROCEDURE, serial, rng, uid=uid, order_id=order_id,
                   component_type=COMPONENT, device_id=DEVICE,
                   created_at=format_tick(0))


class ArchiveFrameHandler:
    """`FrameServer` handler for the archive channel: unwraps the request
    frame, answers through `ArchiveWire`, and wraps the reply on the same
    channel. Records which server thread served the last request."""

    def __init__(self):
        self.wire: ArchiveWire | None = None  # swapped while the clients are idle
        self.tracer: Tracer | None = None
        self.last_thread: int | None = None

    def __call__(self, frame_bytes: bytes) -> bytes:
        self.last_thread = threading.get_ident()
        tracer = self.tracer
        if tracer is None:
            return self.serve(frame_bytes)
        with tracer.span("bench.serve"):
            return self.serve(frame_bytes)

    def serve(self, frame_bytes: bytes) -> bytes:
        # server side: the package's framing, never the client-side bindings
        # that the traced run wraps
        payload = framing.decode_frame(frame_bytes).payload
        return framing.encode_frame(Channel.ARCHIVE, self.wire.request(payload))


class Served:
    """A populated store, a fresh copy of it reopened and served, and the
    connected clients."""

    def __init__(self, seed: int, root: Path, orders: int):
        self.seed = seed
        self.orders = orders
        self.root = root
        self.template = root / "populated"
        self.store_dir: Path | None = None
        self.resets = 0
        self.handler = ArchiveFrameHandler()
        self.server = None
        self.clients: list[FrameClient] = []
        self.server_threads: list[int] = []
        self.timings: dict[str, float] = {}
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    def _start(self) -> None:
        seed = self.seed
        start = perf_counter()
        archive = Archive(self.template)
        rng = gen.wire_rng(seed, "populate")
        for index in range(self.orders):
            order_id = gen.order_id(seed, index)
            for copy in range(COPIES):
                archive.store(make_object(
                    rng, order_id, gen.object_uid(seed, index, copy), f"SN-{index}"))
        populated = perf_counter()
        self.reset()
        reopened = perf_counter()
        self.server = FrameServer(self.handler)
        host, port = self.server.start()
        probe = encode_frame(Channel.ARCHIVE, bytes([OP_FETCH]) + json.dumps(
            {"uid": gen.object_uid(seed, 0, 0)}).encode("utf-8"))
        for _ in range(CLIENTS):
            client = FrameClient(host, port)
            self.clients.append(client)
            # one request per client, in turn, names the server thread that
            # serves its connection
            if decode_frame(client.request(probe)).payload[0] != OP_RESULT:
                raise RuntimeError("probe FETCH failed")
            self.server_threads.append(self.handler.last_thread)
        self.timings = {
            "populate_s": populated - start,
            "copy_reopen_s": reopened - populated,
            "serve_connect_s": perf_counter() - reopened,
        }

    def reset(self) -> None:
        """Serve a fresh copy of the populated store, reopened from its
        chain; the clients must be idle."""
        self.resets += 1
        store_dir = self.root / f"store-{self.resets}"
        shutil.copytree(self.template, store_dir)
        self.archive = Archive(store_dir)  # reopen: index reloaded from the chain
        self.handler.wire = ArchiveWire(self.archive)
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir)
        self.store_dir = store_dir

    def expected_objects(self) -> int:
        """Objects in the served store after one slice."""
        return self.orders * COPIES + STORES_PER_SLICE

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.root, ignore_errors=True)


class Client:
    """One closed-loop client: state carries across slices."""

    def __init__(self, served: Served, index: int):
        self.served = served
        self.index = index
        self.connection = served.clients[index]
        self.rng = gen.wire_rng(served.seed, f"client-{index}")
        self.object_rng = gen.wire_rng(served.seed, f"objects-{index}")
        self.kinds = gen.mix(gen.wire_rng(served.seed, f"mix-{index}"))
        self.sent = 0
        self.stores = 0
        self.elapsed = 0.0  # wall time of the last slice, taken in its thread
        self.failures: list[str] = []
        self.failed = 0
        self.latency = {FETCH: [], QUERY: [], STORE: []}
        self.thread_ids: set[int] = set()

    def loop(self, tracer: Tracer | None) -> None:
        """One slice: BLOCKS_PER_SLICE whole mix blocks."""
        self.thread_ids.add(threading.get_ident())
        start = perf_counter()
        for _ in range(BLOCKS_PER_SLICE * BLOCK):
            self.sent += 1
            if tracer is None:
                self.request(True)
            else:
                with tracer.span("bench.request", f"c{self.index}-{self.sent}"):
                    self.request(False)
        self.elapsed = perf_counter() - start

    def request(self, record: bool) -> None:
        seed = self.served.seed
        kind = next(self.kinds)
        if kind == FETCH:
            index = self.rng.randrange(self.served.orders)
            copy = self.rng.randrange(COPIES)
            uid = gen.object_uid(seed, index, copy)
            payload = bytes([OP_FETCH]) + json.dumps({"uid": uid}).encode("utf-8")
        elif kind == QUERY:
            index = self.rng.randrange(self.served.orders)
            payload = bytes([OP_QUERY]) + json.dumps(
                {"orderId": gen.order_id(seed, index)}).encode("utf-8")
            expected = [gen.object_uid(seed, index, copy) for copy in range(COPIES)]
        else:
            self.stores += 1
            order_id = gen.new_order_id(seed, self.index, self.stores)
            uid = f"obj-{gen.seed_tag(seed)}-c{self.index}-{self.stores}"
            payload = bytes([OP_STORE]) + encode_object(make_object(
                self.object_rng, order_id, uid, f"SN-c{self.index}-{self.stores}"))
        frame = encode_frame(Channel.ARCHIVE, payload)
        start = perf_counter()
        raw = self.connection.request(frame)
        elapsed = perf_counter() - start
        response = decode_frame(raw).payload
        if record:
            self.latency[kind].append(elapsed)
        problem = None
        if response[:1] != bytes([OP_RESULT]):
            problem = f"{kind} answered {response[:80]!r}"
        elif kind == FETCH:
            if decode_object(response[1:]).uid != uid:
                problem = f"FETCH {uid} returned another object"
        elif kind == QUERY:
            if json.loads(response[1:])["uids"] != expected:
                problem = f"QUERY {index} returned {response[1:80]!r}"
        elif json.loads(response[1:]) != {"uid": uid}:
            problem = f"STORE {uid} answered {response[1:80]!r}"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)


def run_slice(clients: list[Client], tracer: Tracer | None) -> float:
    start = perf_counter()
    threads = [threading.Thread(target=client.loop, args=(tracer,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return perf_counter() - start


class WireWorkload:
    def __init__(self, root: Path, seed: int, setup_reps: int, orders: int = ORDERS):
        self.seed = seed
        self.setup_reps = setup_reps
        self.orders = orders

    def run(self, seconds: float, trace: bool, workdir: Path) -> Outcome:
        outcome = Outcome()
        setups, served = [], None
        try:
            for rep in range(1 if trace else self.setup_reps):
                if served is not None:
                    served.close()
                start = perf_counter()
                served = Served(self.seed, workdir / f"served-{rep}", self.orders)
                setups.append(perf_counter() - start)
            outcome.info["setup_breakdown"] = {
                name: round(value, 6) for name, value in served.timings.items()}
            clients = [Client(served, index) for index in range(CLIENTS)]
            if trace:
                self.traced(served, clients, seconds, outcome)
            else:
                wall = self.measure(served, clients, seconds, outcome)
                self.end_to_end(clients, wall, setups, outcome)
            outcome.metrics["archive.verify_s"] = Metric(
                self.final_checks(served, clients, outcome), "s", 1,
                "verify_chain of the final store")
            outcome.info["slices"] = served.resets
        finally:
            if served is not None:
                served.close()
        return outcome

    def measure(self, served: Served, clients: list[Client], seconds: float,
                outcome: Outcome) -> float:
        """Untraced slices until `seconds` have passed, resets included;
        returns the slices' summed wall time."""
        deadline = perf_counter() + seconds
        wall = 0.0
        while True:
            wall += run_slice(clients, None)
            self.check_slice(served, outcome)
            if perf_counter() >= deadline:
                return wall
            served.reset()

    @staticmethod
    def check_slice(served: Served, outcome: Outcome) -> None:
        outcome.attempted += 1
        stored, expected = len(served.archive.uids()), served.expected_objects()
        if stored != expected:
            outcome.fail(f"slice {served.resets}: {stored} of {expected} objects stored")

    def final_checks(self, served: Served, clients: list[Client], outcome: Outcome) -> float:
        """Count every client's requests and failures, then verify the final
        store; returns the time the verification took."""
        for client in clients:
            outcome.attempted += client.sent
            for problem in client.failures:
                outcome.problems.append(problem)
            outcome.failed += client.failed
        outcome.attempted += 1
        expected = served.expected_objects()
        stored = len(served.archive.uids())
        start = perf_counter()
        verify = served.archive.verify_chain()
        elapsed = perf_counter() - start
        if not verify.ok or stored != expected:
            outcome.fail(f"final store: verify {verify}, {stored} of {expected} objects")
        return elapsed

    def end_to_end(self, clients, wall, setups, outcome: Outcome) -> None:
        fetches = [value for client in clients for value in client.latency[FETCH]]
        requests = sum(client.sent for client in clients)
        metrics = outcome.metrics
        metrics["setup_s"] = Metric(
            median(setups), "s", len(setups),
            "median populate + copy + reopen + serve + connect")
        metrics["throughput_per_s"] = Metric(
            requests / wall, "1/s", requests,
            f"wire_ops_per_s: requests of {CLIENTS} closed-loop clients per second")
        metrics["latency_p50_ms"] = Metric(
            median(fetches) * 1e3, "ms", len(fetches),
            "fetch_p50_ms: median FETCH round trip")
        add_per_kind(metrics, clients)

    def traced(self, served, clients, seconds, outcome: Outcome) -> None:
        """Untraced and traced slices in turn, each from a fresh store; the
        traced slice's reset is traced too, so archive.open is measured."""
        tracer = Tracer()
        plain_wall = traced_wall = loop_time = 0.0
        plain_sent = traced_sent = 0
        deadline = perf_counter() + seconds
        while True:
            before = sum(client.sent for client in clients)
            plain_wall += run_slice(clients, None)
            middle = sum(client.sent for client in clients)
            plain_sent += middle - before
            self.check_slice(served, outcome)
            served.handler.tracer = tracer
            with patched(layers.targets(tracer) + client_side(tracer)):
                start = perf_counter()
                with tracer.span("bench.reset"):
                    served.reset()
                loop_time += perf_counter() - start
                traced_wall += run_slice(clients, tracer)
                loop_time += sum(client.elapsed for client in clients)
            served.handler.tracer = None
            traced_sent += sum(client.sent for client in clients) - middle
            self.check_slice(served, outcome)
            if perf_counter() >= deadline:
                break
            served.reset()
        link_server_spans(tracer, served)
        outcome.tracer = tracer
        files = [path for path in served.store_dir.iterdir() if path.is_file()]
        metrics = outcome.metrics
        metrics["archive.disk_bytes_per_object"] = Metric(
            sum(path.stat().st_size for path in files) / len(served.archive.uids()),
            "B", len(files))
        loop_threads = {threading.get_ident()}
        for client in clients:
            loop_threads |= client.thread_ids
        layers.report(outcome, tracer, traced_sent, loop_time,
                      loop_threads, {"bench.serve": "bench.serve.self_ms"})
        rtt = [s.duration for s in tracer.spans if s.name == "transport.request"]
        served_time = [s.duration for s in tracer.spans if s.name == "bench.serve"]
        metrics["transport.overhead_us"] = Metric(
            (sum(rtt) - sum(served_time)) / len(rtt) * 1e6, "us", len(rtt),
            "round trip minus server handler span, mean")
        metrics["trace.overhead_share"] = Metric(
            (plain_sent / plain_wall) / (traced_sent / traced_wall) - 1, "ratio",
            traced_sent, "untraced / traced requests per second - 1")
        add_per_kind(metrics, clients)


def client_side(tracer: Tracer) -> list:
    """Targets for the client-side framing calls, as bound in this module."""
    this = sys.modules[__name__]
    return [
        (this, "encode_frame", lambda fn: tracer.wrap("framing.encode_frame", fn)),
        (this, "decode_frame", lambda fn: tracer.wrap("framing.decode_frame", fn)),
    ]


def link_server_spans(tracer: Tracer, served: Served) -> None:
    """Hang each server handler span under the client round trip it served.

    A client has one connection, served by one server thread, and sends its
    next request only after the reply: the n-th handler span on that thread
    belongs to the client's n-th round trip. Should the counts differ, the
    handler spans stay roots outside the loop threads, and the closure check
    in `layers.report` fails the run.
    """
    by_thread: dict[int, list] = {}
    trips: dict[int, list] = {index: [] for index in range(CLIENTS)}
    for span in tracer.spans:
        if span.name == "bench.serve":
            by_thread.setdefault(span.thread, []).append(span)
        elif span.name == "transport.request":
            trips[int(span.key.split("-")[0][1:])].append(span)
    for index, thread in enumerate(served.server_threads):
        handled = sorted(by_thread.get(thread, ()), key=lambda span: span.start)
        sent = sorted(trips[index], key=lambda span: span.start)
        if len(handled) == len(sent):
            for trip, span in zip(sent, handled):
                span.parent, span.key = trip.id, trip.key
    spans = sorted(tracer.spans, key=lambda span: span.id)
    keys = {}
    for span in spans:
        if span.key is None and span.parent is not None:
            span.key = keys.get(span.parent)
        keys[span.id] = span.key


def add_per_kind(metrics: dict, clients: list[Client]) -> None:
    """Round trips per request kind, except the FETCH median, which is the
    workload's latency_p50_ms."""
    for kind in (FETCH, QUERY, STORE):
        values = [value for client in clients for value in client.latency[kind]]
        name = f"wire.{kind.lower()}"
        value, label = tail(values) if values else (0.0, "no samples")
        if kind != FETCH:
            p50 = median(values) * 1e3 if values else 0.0
            metrics[f"{name}_p50_ms"] = Metric(p50, "ms", len(values))
        metrics[f"{name}_tail_ms"] = Metric(value * 1e3, "ms", len(values), label)
