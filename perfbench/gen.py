"""Seeded input generators for the benchmark workloads.

Everything the program under test sees is produced here from the workload
seed: scenario text for the simulator workloads, and the archive objects and
request mix for the evidence-wire workload. The same seed gives the same
bytes.
"""

from __future__ import annotations

import hashlib
import json
import random


def seed_tag(seed: int) -> str:
    """Short id fragment derived from the seed, so cloned ids differ per seed."""
    return hashlib.sha256(f"perfbench:{seed}".encode("utf-8")).hexdigest()[:6]


def clone_scenario(text: str, copies: int, seed: int) -> str:
    """Scenario text with every order and exchange cloned `copies` times.

    Each copy gets fresh `orderId` and `componentSerial` values, and each
    cloned exchange points at its own copy's order. The scenario's `seed`
    field is set to `seed`. Output is canonical JSON, so one seed always
    gives byte-identical text.
    """
    document = json.loads(text)
    tag = seed_tag(seed)
    orders, exchanges = [], []
    for copy in range(copies):
        renamed = {}
        for order in document.get("orders", []):
            order_id = f"{order['orderId']}-{tag}-{copy}"
            renamed[order["orderId"]] = order_id
            orders.append(
                {
                    **order,
                    "orderId": order_id,
                    "componentSerial": f"{order['componentSerial']}-{tag}-{copy}",
                }
            )
        for exchange in document.get("exchanges", []):
            exchanges.append({**exchange, "orderId": renamed[exchange["orderId"]]})
    document.update(seed=seed, orders=orders, exchanges=exchanges)
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


def sim_seed(seed: int) -> int:
    """Simulator seed for a workload seed (64-bit, as the scenario requires)."""
    digest = hashlib.sha256(f"perfbench-sim:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# --- evidence-wire ------------------------------------------------------------

FETCH, QUERY, STORE = "FETCH", "QUERY", "STORE"

# One block of the request mix: the archive traffic of two orders.
# FETCH : STORE is what a traced sim-chain run measures per order: 1
# Archive.store and 2.5 whole-object reads by uid (1 Archive.fetch by the
# gateway, 1.5 Archive.fetch_bytes by the sovereignty connectors). The
# simulator never queries, so the QUERY share is an assumption: the evidence
# of each order is looked up once by its orderId. Each block is shuffled, so
# the shares are exact over every block and only the order varies with the
# seed.
MIX_BLOCK = ((FETCH, 5), (STORE, 2), (QUERY, 2))


def wire_rng(seed: int, stream: str) -> random.Random:
    digest = hashlib.sha256(f"perfbench-wire:{seed}:{stream}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def order_id(seed: int, index: int) -> str:
    return f"ORD-{seed_tag(seed)}-{index}"


def object_uid(seed: int, index: int, copy: int) -> str:
    return f"obj-{seed_tag(seed)}-{index}-{copy}"


def new_order_id(seed: int, client: int, count: int) -> str:
    """Order id of the `count`-th STORE sent by `client` during the run."""
    return f"ORD-{seed_tag(seed)}-c{client}-{count}"


def mix(rng: random.Random):
    """Endless request kinds: shuffled copies of the mix block."""
    block = [kind for kind, count in MIX_BLOCK for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block
