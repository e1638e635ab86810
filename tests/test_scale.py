"""Cost that must stay flat as the store or the order count grows: per-order
time and memory of a simulator run, and segment reads of archive opens and
queries."""

from __future__ import annotations

import builtins
import io
import json
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from conftest import counted, make_object, record_range, watch_segment
from nde4.archive import READ_SIZE, SEGMENT_FILE, Archive
from nde4.plantsim import load_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SMALL, LARGE = 200, 2000
MAX_GROWTH = 1.5  # ms/order at LARGE over ms/order at SMALL
MAX_KIB_PER_ORDER = 16.0  # traced peak of a 200-order fullchain run


def cloned_demo(count: int) -> str:
    """demo.scen with its orders cloned to `count`, each with a fresh id and serial."""
    document = json.loads((SCENARIO_DIR / "demo.scen").read_text("utf-8"))
    base = document["orders"]
    orders = [
        {
            **base[k % len(base)],
            "orderId": f"ORD-S{k}",
            "componentSerial": f"SN-S{k}",
        }
        for k in range(count)
    ]
    return json.dumps({**document, "orders": orders})


def cloned_fullchain(copies: int) -> str:
    """fullchain.scen with its orders and exchanges cloned `copies` times."""
    document = json.loads((SCENARIO_DIR / "fullchain.scen").read_text("utf-8"))
    orders, exchanges = [], []
    for copy in range(copies):
        for order in document["orders"]:
            orders.append({
                **order,
                "orderId": f"{order['orderId']}-{copy}",
                "componentSerial": f"{order['componentSerial']}-{copy}",
            })
        for exchange in document["exchanges"]:
            exchanges.append({**exchange, "orderId": f"{exchange['orderId']}-{copy}"})
    return json.dumps({**document, "orders": orders, "exchanges": exchanges})


def ms_per_order(config, count: int, data_dir: Path) -> float:
    start = time.perf_counter()
    result = run_scenario(config, data_dir)
    elapsed = time.perf_counter() - start
    assert result.report["reported"] == count
    return elapsed * 1000 / count


def test_ms_per_order_is_flat_from_200_to_2000_orders(tmp_path):
    configs = {n: load_scenario(cloned_demo(n)) for n in (SMALL, LARGE)}
    best = {SMALL: float("inf"), LARGE: float("inf")}
    # best of 2 each, interleaved so a slow spell of the machine hits both
    for attempt in range(2):
        for n, config in configs.items():
            cost = ms_per_order(config, n, tmp_path / f"{n}-{attempt}")
            best[n] = min(best[n], cost)
    growth = best[LARGE] / best[SMALL]
    print(
        f"scale: {best[SMALL]:.2f} ms/order at N={SMALL}, "
        f"{best[LARGE]:.2f} ms/order at N={LARGE}, growth {growth:.2f}x"
    )
    assert growth <= MAX_GROWTH


def test_archive_open_reads_no_object_and_queries_read_each_once(tmp_path, monkeypatch):
    orders = LARGE // 2
    store = Archive(tmp_path / "data")
    segment_reads, opens, _ = watch_segment(monkeypatch)
    for n in range(LARGE):
        store.store(make_object(uid=f"obj-{n}", order_id=f"ORD-{n % orders}"))
    assert not segment_reads  # a fresh store knows its records without reading
    size = (store.directory / SEGMENT_FILE).stat().st_size
    record = record_range(store.directory, "obj-7")
    opens.clear()
    reopened = Archive(store.directory)
    assert len(reopened.uids()) == LARGE
    assert not segment_reads
    # the first query reads the segment once, front to back, in chunks
    assert reopened.query(order_id="ORD-7") == ("obj-7", f"obj-{7 + orders}")
    position = 0
    for call, offset, count in segment_reads:
        assert (call, offset) == ("read", position) and count <= READ_SIZE
        position += count
    assert position == size
    segment_reads.clear()
    for n in range(100):
        assert reopened.query(order_id=f"ORD-{n}", method="UT") == (
            f"obj-{n}", f"obj-{n + orders}")
    assert not segment_reads
    # a fetch reads its own record's object bytes, and nothing else
    reopened.fetch_bytes("obj-7")
    assert segment_reads == [("pread", record.start + 4, len(record) - 4)]
    assert not opens


def test_log_lines_are_not_written_through_file_objects(tmp_path, monkeypatch):
    # chain.log and audit lines go out with one os.write each, not through
    # a text-mode file object opened per line
    config = load_scenario(cloned_fullchain(50))
    opens: Counter[str] = Counter()

    def log_append(name, mode):  # verify_chain still reads chain.log once
        is_log = name == "chain.log" or (name.startswith("audit-") and name.endswith(".log"))
        return is_log and bool(set(mode) & set("aw+"))

    monkeypatch.setattr(io, "open", counted(io.open, opens, log_append))
    monkeypatch.setattr(builtins, "open", counted(builtins.open, opens, log_append))
    result = run_scenario(config, tmp_path / "data")
    assert result.report["reported"] == 200
    audit_lines = sum(
        len(path.read_text("utf-8").splitlines())
        for path in (tmp_path / "data").glob("audit-*.log")
    )
    assert audit_lines > 200  # the run did write audit lines
    assert not opens


def test_traced_peak_memory_per_order_is_bounded(tmp_path):
    """A run keeps each trace event as its encoded line only.

    Traced peak of a 200-order `fullchain.scen` clone under CPython 3.11.7:
    19.4 KiB/order when every event was kept as a dict until the end of the
    run and encoded then, 12.3 KiB/order with each line encoded as its event
    is emitted."""
    config = load_scenario(cloned_fullchain(50))
    tracemalloc.start()
    try:
        result = run_scenario(config, tmp_path / "data")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.report["reported"] == 200
    kib_per_order = peak / 1024 / 200
    print(f"traced peak: {kib_per_order:.1f} KiB/order")
    assert kib_per_order <= MAX_KIB_PER_ORDER
