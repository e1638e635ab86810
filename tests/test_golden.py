"""Byte-identity oracle for whole simulator runs.

Each case runs a shipped scenario through `run_scenario` and pins one sha256
over everything the run leaves behind: the trace lines, the report JSON (in
the form `nde4 sim run` writes it), and the name and bytes of every file in
the data directory (chain.log, audit-*.log, objects.seg). A change that is meant
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
        "84636c32b06cd16b7c1094afcff2a44c3b86da7bf6602be1a65b500cdfc7f130",
    ("demo.scen", 7):
        "6756b8abda8eabe1947ed851d3291f3750e316bfdf1f5da41fd7cdba59e6bb75",
    ("fullchain.scen", None):
        "8d3665cb8f491ac21f643ced8c915fd9c624f20bb5d830b66e535564ab9fb087",
    ("fullchain.scen", 7):
        "697c44e0a93fa3d10d10a0fc2facc3a4c6655278e3a8b72fcc45533c7efa6346",
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
