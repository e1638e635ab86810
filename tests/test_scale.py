"""Cost that must stay flat as the store or the order count grows: per-order
cost of a simulator run, and object-file reads of archive opens and queries."""

from __future__ import annotations

import builtins
import io
import json
import os
import time
from collections import Counter
from pathlib import Path

from conftest import make_object
from nde4.archive import OBJECT_SUFFIX, Archive
from nde4.plantsim import load_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SMALL, LARGE = 200, 2000
MAX_GROWTH = 1.5  # ms/order at LARGE over ms/order at SMALL


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


def counted(open_, counts: Counter, wanted):
    """`open_` that counts the opens of each file whose name `wanted` accepts."""
    def open_and_count(file, mode="r", *args, **kwargs):
        name = Path(file).name if isinstance(file, (str, Path)) else ""
        if wanted(name, mode):
            counts[name] += 1
        return open_(file, mode, *args, **kwargs)
    return open_and_count


def counted_os_open(os_open, counts: Counter, wanted):
    """`os.open` that counts, as `counted` does, the read-only opens of each
    file whose name `wanted` accepts with mode "r"."""
    def os_open_and_count(path, flags, *args, **kwargs):
        name = Path(path).name
        if not flags & (os.O_WRONLY | os.O_RDWR) and wanted(name, "r"):
            counts[name] += 1
        return os_open(path, flags, *args, **kwargs)
    return os_open_and_count


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
    for n in range(LARGE):
        store.store(make_object(uid=f"obj-{n}", order_id=f"ORD-{n % orders}"))
    reads: Counter[str] = Counter()

    def object_read(name, mode):
        return name.endswith(OBJECT_SUFFIX) and "r" in mode

    # Path.read_bytes opens through io.open, a plain open() is builtins.open,
    # and archive.read_file is os.open
    monkeypatch.setattr(io, "open", counted(io.open, reads, object_read))
    monkeypatch.setattr(builtins, "open", counted(builtins.open, reads, object_read))
    monkeypatch.setattr(os, "open", counted_os_open(os.open, reads, object_read))
    reopened = Archive(store.directory)
    assert len(reopened.uids()) == LARGE
    assert not reads
    assert reopened.query(order_id="ORD-7") == ("obj-7", f"obj-{7 + orders}")
    assert len(reads) == LARGE and set(reads.values()) == {1}
    reads.clear()
    for n in range(100):
        assert reopened.query(order_id=f"ORD-{n}", method="UT") == (
            f"obj-{n}", f"obj-{n + orders}")
    assert not reads


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
