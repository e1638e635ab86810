"""Byte-identity oracle for whole simulator runs.

Each case runs a shipped scenario through `run_scenario` and pins one sha256
over everything the run leaves behind: the trace lines, the report JSON (in
the form `nde4 sim run` writes it), and the name and bytes of every file in
the data directory (chain.log, audit-*.log, *.ndeo). A change that is meant
to leave the output alone must leave these digests alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from nde4.plantsim import load_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    ("demo.scen", None):
        "9274c646ce4c9634bb87f29827a61de3a6cfb6c953a84ba795cd5e189b52f126",
    ("demo.scen", 7):
        "2f24bca4c4050c8dcc4eee52eabb78ebc1a3693459040b488ab19b83c466a797",
    ("fullchain.scen", None):
        "242efb1d7a02bd8423aa47dbf2e780c9776f5fbf02f972337b5e529cabcf7dcc",
    ("fullchain.scen", 7):
        "dd13e8a57e67738171a968a2fc4e9cf85aedb9b759e7d5f10ecc1c67ec4740d6",
}


def run_digest(scenario: str, seed: int | None, data_dir: Path) -> str:
    text = (SCENARIO_DIR / scenario).read_text("utf-8")
    result = run_scenario(load_scenario(text, seed_override=seed), data_dir)
    sha = hashlib.sha256()
    for line in result.trace_lines:
        sha.update(line.encode("utf-8") + b"\n")
    sha.update(json.dumps(result.report, indent=2, sort_keys=True).encode("utf-8"))
    for path in sorted(data_dir.iterdir()):
        content = path.read_bytes()
        sha.update(f"\n{path.name}\0{len(content)}\0".encode("utf-8") + content)
    return sha.hexdigest()


@pytest.mark.parametrize(("scenario", "seed"), sorted(GOLDEN, key=str))
def test_run_bytes_match_the_pinned_digest(scenario, seed, tmp_path):
    assert run_digest(scenario, seed, tmp_path / "data") == GOLDEN[scenario, seed]
