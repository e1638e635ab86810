"""Per-order cost of a simulator run stays flat as the order count grows."""

from __future__ import annotations

import json
import time
from pathlib import Path

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
