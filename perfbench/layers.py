"""Which public functions of the package the traced run wraps, per layer.

`identity`, `semantics`, `messages` and `timebase` are only called from
inside other layers, so their time shows up as part of their callers.

What each layer's figures should move, written down before measuring:

    registry     throughput on sim-chain; no change on sim-small or evidence-wire
    bus          throughput on sim-chain
    archive      evidence-wire: throughput, latency, setup_s, archive.verify_s;
                 both sims through store, fetch and has
    gateway      throughput on both sims
    sovereignty  throughput on both sims; no change on evidence-wire
    plantsim     throughput and setup_s on both sims
    rami         throughput on sim-small, as part of its fixed cost
    framing, transport   latency and throughput on evidence-wire
"""

from __future__ import annotations

from functools import partial

from nde4 import plantsim
from nde4.archive import Archive
from nde4.bus import OrdersBus
from nde4.registry import Registry
from nde4.sovereignty import Connector
from nde4.transport import FrameClient

from common import Metric
from tracing import Tracer, self_times


def _order_of(position):
    return lambda args, kwargs: args[position].order_id


def _arg(position):
    return lambda args, kwargs: args[position]


def _worklist_depth(tracer, args, result):
    tracer.add("bus.worklist_depth", len(result))


def _query_match(tracer, args, result):
    tracer.add("archive.query.matched", len(result))
    tracer.add("archive.query.stored", len(args[0].uids()))


# (owner, attribute, span name, key_of, on_result) for every wrapped call.
# Methods are patched on their class. Module functions are patched where the
# simulator looks them up, in `nde4.plantsim`'s namespace.
WRAPPED = (
    (Registry, "register_shell", "registry.register_shell", None, None),
    (Registry, "resolve", "registry.resolve", None, None),
    (Registry, "validate", "registry.validate", None, None),
    (OrdersBus, "submit_order", "bus.submit_order", _order_of(1), None),
    (OrdersBus, "poll_worklist", "bus.poll_worklist", None, _worklist_depth),
    (OrdersBus, "assign", "bus.assign", _arg(1), None),
    (OrdersBus, "publish_status", "bus.publish_status", _order_of(1), None),
    (OrdersBus, "report_values", "bus.report_values", _order_of(1), None),
    (Archive, "__init__", "archive.open", None, None),
    (Archive, "store", "archive.store", _order_of(1), None),
    (Archive, "fetch", "archive.fetch", None, None),
    (Archive, "fetch_bytes", "archive.fetch_bytes", None, None),
    (Archive, "has", "archive.has", None, None),
    (Archive, "query", "archive.query", None, _query_match),
    (Archive, "verify_chain", "archive.verify_chain", None, None),
    (Connector, "offer", "sovereignty.offer", None, None),
    (Connector, "accept", "sovereignty.accept", None, None),
    (Connector, "consume", "sovereignty.consume", None, None),
    (Connector, "forward", "sovereignty.forward", None, None),
    (plantsim, "acquire", "plantsim.acquire",
     lambda args, kwargs: kwargs.get("order_id"), None),
    (plantsim, "evaluate", "plantsim.evaluate", _order_of(0), None),
    (plantsim, "order_to_archive_work", "gateway.order_to_archive_work",
     _order_of(0), None),
    (plantsim, "archive_result_to_kpis", "gateway.archive_result_to_kpis",
     _arg(1), None),
    (plantsim, "coverage_check", "rami.coverage_check", None, None),
    (FrameClient, "request", "transport.request", None, None),
)


def targets(tracer: Tracer) -> list:
    """(owner, attribute, make-wrapper) triples for `tracing.patched`."""

    def make(name, key_of, on_result):
        counted = None if on_result is None else partial(on_result, tracer)
        return lambda fn: tracer.wrap(name, fn, key_of, counted)

    return [(owner, attr, make(name, key_of, on_result))
            for owner, attr, name, key_of, on_result in WRAPPED]


# Span names reported per layer: every wrapped call, plus the three the
# workloads record at their own call sites (`sim.py` times load_scenario,
# `wire.py` its client-side framing bindings).
LAYER_SPANS = tuple(entry[2] for entry in WRAPPED) + (
    "plantsim.load_scenario",
    "framing.encode_frame",
    "framing.decode_frame",
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count/iter"
        units[f"{name}.self_ms"] = "ms/iter"
    units.update({
        "bus.worklist_depth": "orders",
        "bus.frames": "count/iter",
        "bus.frame_bytes": "B/iter",
        "archive.query.match_ratio": "ratio",
        "archive.disk_bytes_per_object": "B",
        "archive.verify_s": "s",
        "sovereignty.frames": "count/iter",
        "sovereignty.frame_bytes": "B/iter",
        "sovereignty.audit_bytes": "B/iter",
        "plantsim.engine.self_ms": "ms/iter",
        "plantsim.trace_events": "count/iter",
        "transport.overhead_us": "us",
        "bench.serve.self_ms": "ms/iter",
        "bench.work.self_ms": "ms/iter",
        "bench.loop.self_ms": "ms/iter",
        "trace.overhead_share": "ratio",
        # the FETCH median is evidence-wire's latency_p50_ms
        "wire.fetch_tail_ms": "ms",
    })
    for kind in ("query", "store"):
        units[f"wire.{kind}_p50_ms"] = "ms"
        units[f"wire.{kind}_tail_ms"] = "ms"
    return units


# Every per-layer metric with its unit. An iteration is one scenario run on
# the simulator workloads and one request on evidence-wire. A workload that
# never reaches a layer reports zero for it.
PER_LAYER = _per_layer_units()

# Share of the traced loop time that may pass outside every span: the loop's
# own bookkeeping between spans. More than this means benchmark work that
# no span covers.
UNSPANNED_SHARE = 0.02


def report(outcome, tracer: Tracer, iterations: int, loop_time: float,
           loop_threads: set[int], own: dict[str, str]) -> None:
    """Fill the per-layer metrics from the traced phase and check that the
    self-time accounting closes.

    `loop_time` is the traced phase's wall time, measured apart from the
    spans and summed over `loop_threads`, the threads that run the
    benchmark's loop. `own` maps benchmark span names to the metric that
    reports their self time; the self time of every other benchmark span
    (`bench.*`: checks, clean-up, building requests) is `bench.work`.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    table: dict[str, list] = {}
    for span in spans:
        entry = table.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += selfs[span.id]
    metrics = outcome.metrics

    def per_iteration(metric: str, seconds: float) -> None:
        metrics[metric] = Metric(seconds * 1e3 / iterations, "ms/iter", iterations)

    for name in LAYER_SPANS:
        calls, total = table.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = Metric(calls / iterations, "count/iter", iterations)
        per_iteration(f"{name}.self_ms", total)
    layer = sum(table.get(name, (0, 0.0))[1] for name in LAYER_SPANS)
    for span_name, metric in own.items():
        per_iteration(metric, table.get(span_name, (0, 0.0))[1])
    engine = sum(table.get(name, (0, 0.0))[1] for name in own)
    spanned = sum(selfs.values())
    work = spanned - layer - engine
    unspanned = loop_time - spanned
    per_iteration("bench.work.self_ms", work)
    per_iteration("bench.loop.self_ms", unspanned)
    counters = tracer.counters
    polls = table.get("bus.poll_worklist", (0, 0.0))[0]
    metrics["bus.worklist_depth"] = Metric(
        counters.get("bus.worklist_depth", 0) / polls if polls else 0.0, "orders", polls)
    stored = counters.get("archive.query.stored", 0)
    metrics["archive.query.match_ratio"] = Metric(
        counters.get("archive.query.matched", 0) / stored if stored else 0.0, "ratio",
        table.get("archive.query", (0, 0.0))[0])

    # The check: every span hangs under a root span in a loop thread, and
    # the summed self times of all spans fit the separately measured loop
    # time, leaving at most UNSPANNED_SHARE of it outside every span. A
    # negative remainder means time counted twice.
    stray = sum(1 for span in spans
                if span.parent is None and span.thread not in loop_threads)
    outcome.info["closure"] = (
        f"layers {layer * 1e3:.3f} ms + {'/'.join(own) or 'engine'} "
        f"{engine * 1e3:.3f} ms + benchmark work {work * 1e3:.3f} ms + "
        f"unspanned {unspanned * 1e3:.3f} ms = traced loop time "
        f"{loop_time * 1e3:.3f} ms; stray roots {stray}"
    )
    if stray or unspanned < 0 or unspanned > UNSPANNED_SHARE * loop_time:
        outcome.fail("self-time accounting does not close: " + outcome.info["closure"])
    layer_self = {name: table[name][1] for name in LAYER_SPANS if name in table}
    outcome.info["largest_self_span"] = max(layer_self, key=layer_self.get, default=None)
