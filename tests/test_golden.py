"""Byte-identity oracle for whole simulator runs.

Each case runs a shipped scenario through `run_scenario` and pins one sha256
over everything the run leaves behind: the trace lines, the report JSON (in
the form `nde4 sim run` writes it), and the name and bytes of every file in
the data directory (chain.log, audit-*.log, objects.seg). A change that is meant
to leave the output alone must leave these digests alone.

Off the happy path, `fullchain.scen` runs once with each fault kind armed, and
once with one procedure asking for more archived refs than an order stores, so
that its gateway step fails and the trace carries an `error` event. A deadlock
is digested from what `ScenarioDeadlock` carries: its trace lines and report.

The wire bytes a run carries are pinned apart from that: one sha256 over the
SOVEREIGN frames in order and the payload size of each ORDERS frame, for the
four happy-path runs and the overread case.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from nde4.plantsim import (
    FAULT_DROP_GATEWAY,
    FAULT_OVERREAD,
    FAULT_OVERSIZE,
    FAULT_TAMPER,
    FaultSpec,
    ScenarioDeadlock,
    inject_fault,
    load_scenario,
    run_scenario,
)

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

FULLCHAIN_OFF_PATH = {
    FAULT_TAMPER:
        "79a8b2f893ae9de85859d518f94341220e7516d78c13c7dba9c87a1f80ad1306",
    FAULT_OVERSIZE:
        "f05189a0169a273e72008b900154f28f60917da1731f392980bb418d5b2e3275",
    FAULT_OVERREAD:
        "2678afe75ad8b18b83a0ddd562766b022e0dc518683c777a36ccd53cc4a95995",
    FAULT_DROP_GATEWAY:
        "5274e00999dd6b77e6831d5b3ef4cfbd8f4a69a0999e24bf2cdb6f2188f8a03c",
    "error":
        "9ecd0e95509ea9bb94e1f1f253093af1f80fa5edfd954c48b6c3e82e85e47e0d",
}

WIRE_GOLDEN = {
    ("demo.scen", None, None):
        "f18f6f5abade5baa315d2e21b11389a62e1df1efe3bad5b660be0220ee0b3954",
    ("demo.scen", 7, None):
        "aa38cab462b97c90c54e73926880ab1e69c51ce4319502d1403e05dc0725f574",
    ("fullchain.scen", None, None):
        "a234421b0b8e529c34d385ccaecd08b321574b8d3d624e79c2e663c744aac3fc",
    ("fullchain.scen", 7, None):
        "d8e2de9e939060f2209c54c84cb397b0b50817525513c439960cde4b462411f2",
    ("fullchain.scen", None, FAULT_OVERREAD):
        "69102019975049cf1d1702be5004a68fb7cfe34e690867c1a29c448e7c6a00e9",
}

# the walkaround procedure of fullchain.scen, asking for one more archived ref
# than its order stores; that order (ORD-10) has no exchange waiting on it
ONE_REF_SHORT = (
    '"rejectThreshold": 80.0, "minRefs": 1}',
    '"rejectThreshold": 80.0, "minRefs": 2}',
)


def digest(trace_lines, report: dict, data_dir: Path) -> str:
    sha = hashlib.sha256()
    for line in trace_lines:
        sha.update(line.encode("utf-8") + b"\n")
    sha.update(json.dumps(report, indent=2, sort_keys=True).encode("utf-8"))
    for path in sorted(data_dir.iterdir()):
        content = path.read_bytes()
        sha.update(f"\n{path.name}\0{len(content)}\0".encode("utf-8") + content)
    return sha.hexdigest()


def wire_digest(sovereign_frames, orders_frame_sizes) -> str:
    sha = hashlib.sha256()
    for frame in sovereign_frames:
        sha.update(len(frame).to_bytes(4, "little") + frame)
    for size in orders_frame_sizes:
        sha.update(size.to_bytes(4, "little"))
    return sha.hexdigest()


def run_digest(scenario: str, seed: int | None, data_dir: Path) -> str:
    text = (SCENARIO_DIR / scenario).read_text("utf-8")
    result = run_scenario(load_scenario(text, seed_override=seed), data_dir)
    return digest(result.trace_lines, result.report, data_dir)


@pytest.mark.parametrize(("scenario", "seed"), sorted(GOLDEN, key=str))
def test_run_bytes_match_the_pinned_digest(scenario, seed, tmp_path):
    assert run_digest(scenario, seed, tmp_path / "data") == GOLDEN[scenario, seed]


@pytest.mark.parametrize("case", sorted(FULLCHAIN_OFF_PATH))
def test_off_path_run_bytes_match_the_pinned_digest(case, tmp_path):
    text = (SCENARIO_DIR / "fullchain.scen").read_text("utf-8")
    if case == "error":
        old, new = ONE_REF_SHORT
        assert text.count(old) == 1
        config = load_scenario(text.replace(old, new))
    else:
        config = inject_fault(load_scenario(text), FaultSpec(case))
    data_dir = tmp_path / "data"
    if case == FAULT_DROP_GATEWAY:
        with pytest.raises(ScenarioDeadlock) as info:
            run_scenario(config, data_dir)
        trace_lines, report = info.value.trace_lines, info.value.report
    else:
        result = run_scenario(config, data_dir)
        trace_lines, report = result.trace_lines, result.report
    if case == "error":
        assert any(json.loads(line)["kind"] == "error" for line in trace_lines)
    assert digest(trace_lines, report, data_dir) == FULLCHAIN_OFF_PATH[case]


@pytest.mark.parametrize(("scenario", "seed", "fault"), sorted(WIRE_GOLDEN, key=str))
def test_wire_bytes_match_the_pinned_digest(scenario, seed, fault, tmp_path):
    text = (SCENARIO_DIR / scenario).read_text("utf-8")
    config = load_scenario(text, seed_override=seed)
    if fault is not None:
        config = inject_fault(config, FaultSpec(fault))
    result = run_scenario(config, tmp_path / "data")
    assert result.sovereign_frames or scenario == "demo.scen"  # demo runs no exchange
    wire = wire_digest(result.sovereign_frames, result.orders_frame_sizes)
    assert wire == WIRE_GOLDEN[scenario, seed, fault]
