from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from conftest import make_object, record_range
from nde4.archive import SEGMENT_FILE, Archive, encode_object
from nde4 import cli
from nde4.cli import EXIT_FINDINGS, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from nde4.registry import dump_manifest, load_manifest
from nde4.timebase import LogicalClock

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seeded_store(tmp_path) -> Path:
    directory = tmp_path / "seeded"
    store = Archive(directory, LogicalClock())
    store.store(make_object(uid="obj-1"))
    store.store(make_object(uid="obj-2", order_id="ORD-8"))
    return directory


# --- sim run ---------------------------------------------------------------------

def test_sim_run_clean_scenario(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys,
        "sim",
        "run",
        "--scenario",
        str(SCENARIO_DIR / "demo.scen"),
        "--out",
        str(out_dir),
    )
    assert code == EXIT_OK
    assert err == ""
    assert "chain_status: OK" in out
    assert "rami_gaps: (none)" in out
    assert (out_dir / "demo.trace").is_file()
    assert (out_dir / "demo.report.json").is_file()
    report = json.loads((out_dir / "demo.report.json").read_text())
    assert report["reported"] == report["orders_total"]


def test_sim_run_traces_are_reproducible(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run_cli(
            capsys,
            "sim",
            "run",
            "--scenario",
            str(SCENARIO_DIR / "fullchain.scen"),
            "--out",
            str(tmp_path / sub),
        )
        assert code == EXIT_OK
    first = (tmp_path / "a" / "fullchain.trace").read_bytes()
    second = (tmp_path / "b" / "fullchain.trace").read_bytes()
    assert first == second


def test_sim_run_refuses_an_output_directory_that_holds_a_run(tmp_path, capsys):
    argv = ("sim", "run", "--scenario", str(SCENARIO_DIR / "fullchain.scen"),
            "--out", str(tmp_path))
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    files = sorted(path for path in tmp_path.rglob("*") if path.is_file())
    before = {path: path.read_bytes() for path in files}
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_RUNTIME
    assert out == "" and "data directory is not empty" in err
    assert sorted(path for path in tmp_path.rglob("*") if path.is_file()) == files
    assert {path: path.read_bytes() for path in files} == before


def test_sim_run_seed_override_changes_the_run(tmp_path, capsys):
    run_cli(
        capsys, "sim", "run",
        "--scenario", str(SCENARIO_DIR / "demo.scen"),
        "--out", str(tmp_path / "a"),
    )
    run_cli(
        capsys, "sim", "run",
        "--scenario", str(SCENARIO_DIR / "demo.scen"),
        "--seed", "43",
        "--out", str(tmp_path / "b"),
    )
    assert (tmp_path / "a" / "demo.trace").read_bytes() != (
        tmp_path / "b" / "demo.trace"
    ).read_bytes()


def test_sim_run_requires_scenario_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sim", "run"])
    assert info.value.code == EXIT_USAGE


def test_sim_run_missing_file_is_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sim", "run",
        "--scenario", str(tmp_path / "ghost.scen"),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_RUNTIME
    assert "cannot read scenario" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("{not json", "not parseable"),
        ('{"noise": 5}', "malformed"),
        ('{"sovereignty": "false"}', "sovereignty: expected bool, got str"),
        ('{"seed": ' + "7" * 5000 + "}", "not parseable"),
        ("[" * 100_000, "not parseable"),
        ('{"noise": {"noiseMax": 1e400}}', "not parseable"),
        ('{"noise": {"peakLo": NaN}}', "not parseable"),
        ('{"noise": {"noiseMax": 1' + "0" * 400 + "}}", "noiseMax: int past the float range"),
    ],
    ids=["not-json", "wrong-shape", "wrong-type", "huge-int", "too-deep",
         "float-overflow", "nan", "int-past-float"],
)
def test_sim_run_malformed_scenario_is_runtime_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.scen"
    bad.write_text(text)
    code, _, err = run_cli(
        capsys, "sim", "run", "--scenario", str(bad), "--out", str(tmp_path / "o")
    )
    assert code == EXIT_RUNTIME
    assert message in err
    assert "Traceback" not in err


def test_sim_run_reports_gaps_with_findings_exit(tmp_path, capsys):
    scenario = tmp_path / "gapped.scen"
    document = json.loads((SCENARIO_DIR / "demo.scen").read_text())
    document["requiredCells"] = ["INFORMATION/INST_USE/CONNECTED_WORLD"]
    scenario.write_text(json.dumps(document))
    code, out, _ = run_cli(
        capsys, "sim", "run",
        "--scenario", str(scenario),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_FINDINGS
    assert "INFORMATION/INST_USE/CONNECTED_WORLD" in out
    report = json.loads((tmp_path / "out" / "gapped.report.json").read_text())
    assert report["rami_gaps"] == ["INFORMATION/INST_USE/CONNECTED_WORLD"]


def test_sim_run_rejected_order_with_an_exchange_exits_with_findings(tmp_path, capsys):
    # ORD-7 carries an exchange; needing two archived refs rejects it
    scenario = tmp_path / "short.scen"
    text = (SCENARIO_DIR / "fullchain.scen").read_text()
    old = '"rejectThreshold": 60.0, "minRefs": 1}'
    assert text.count(old) == 1
    scenario.write_text(text.replace(old, '"rejectThreshold": 60.0, "minRefs": 2}'))
    code, out, _ = run_cli(
        capsys, "sim", "run",
        "--scenario", str(scenario),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_FINDINGS
    assert "deadlock:" not in out
    report = json.loads((tmp_path / "out" / "short.report.json").read_text())
    assert (report["reported"], report["rejected"]) == (3, 1)


def test_sim_run_deadlock_is_runtime_error_with_partial_trace(tmp_path, capsys):
    scenario = tmp_path / "stuck.scen"
    document = json.loads((SCENARIO_DIR / "demo.scen").read_text())
    document["faults"] = ["DROP_GATEWAY"]
    scenario.write_text(json.dumps(document))
    code, out, _ = run_cli(
        capsys, "sim", "run",
        "--scenario", str(scenario),
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_RUNTIME
    assert "deadlock:" in out
    trace_path = tmp_path / "out" / "stuck.trace"
    assert trace_path.is_file()
    assert trace_path.read_text().strip()  # partial trace, not empty


def test_sim_run_json_format(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "sim", "run",
        "--scenario", str(SCENARIO_DIR / "demo.scen"),
        "--out", str(tmp_path / "out"),
        "--format", "json",
    )
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["report"]["chain_status"] == "OK"
    assert document["events"] > 0


# --- archive ---------------------------------------------------------------------

def test_archive_verify_ok(tmp_path, capsys):
    directory = seeded_store(tmp_path)
    code, out, _ = run_cli(capsys, "archive", "verify", "--dir", str(directory))
    assert code == EXIT_OK
    assert out.strip() == "chain OK (2 records)"


def test_archive_verify_detects_tamper(tmp_path, capsys):
    directory = seeded_store(tmp_path)
    target = directory / SEGMENT_FILE
    blob = bytearray(target.read_bytes())
    blob[record_range(directory, "obj-1")[-1]] ^= 0x01
    target.write_bytes(bytes(blob))
    code, out, _ = run_cli(capsys, "archive", "verify", "--dir", str(directory))
    assert code == EXIT_FINDINGS
    assert out.strip() == "chain bad at index 0 (2 records)"


def test_archive_verify_missing_dir(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "archive", "verify", "--dir", str(tmp_path / "nowhere")
    )
    assert code == EXIT_RUNTIME
    assert "data directory not found" in err


def test_archive_ls(tmp_path, capsys):
    directory = seeded_store(tmp_path)
    code, out, _ = run_cli(capsys, "archive", "ls", "--dir", str(directory))
    assert code == EXIT_OK
    assert out.split() == ["obj-1", "obj-2"]
    empty = tmp_path / "empty"
    Archive(empty, LogicalClock())
    code, out, _ = run_cli(capsys, "archive", "ls", "--dir", str(empty))
    assert code == EXIT_OK
    assert out.strip() == "(empty)"


def test_archive_dump_lines(tmp_path, capsys):
    directory = seeded_store(tmp_path)
    code, out, _ = run_cli(
        capsys, "archive", "dump", "obj-1", "--dir", str(directory)
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "order_id (0020,0001): ORD-7" in lines
    assert "object_uid (0008,0001): obj-1" in lines
    assert "amplitude_grid (0040,0003): 0, 0, 0, 0" in lines


def test_archive_dump_large_grid_and_private_bytes(tmp_path, capsys):
    directory = tmp_path / "big"
    store = Archive(directory, LogicalClock())
    from nde4.semantics import TagCode

    obj = make_object(
        uid="obj-9", rows=4, cols=4, extra={TagCode(0x0009, 0x0001): b"\x00\x01"}
    )
    store.store(obj)
    code, out, _ = run_cli(
        capsys, "archive", "dump", "obj-9", "--dir", str(directory)
    )
    assert code == EXIT_OK
    assert "f32[16]" in out
    assert "private (0009,0001): bytes[2]" in out


def test_archive_dump_unknown_uid(tmp_path, capsys):
    directory = seeded_store(tmp_path)
    code, _, err = run_cli(
        capsys, "archive", "dump", "ghost", "--dir", str(directory)
    )
    assert code == EXIT_RUNTIME
    assert "ghost" in err


def test_archive_json_format(tmp_path, capsys):
    directory = seeded_store(tmp_path)
    code, out, _ = run_cli(
        capsys, "archive", "ls", "--dir", str(directory), "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"uids": ["obj-1", "obj-2"]}
    code, out, _ = run_cli(
        capsys, "archive", "verify", "--dir", str(directory), "--format", "json"
    )
    assert json.loads(out) == {"ok": True, "badIndex": None, "records": 2}


# --- validate ---------------------------------------------------------------------

GOOD_MANIFEST = {
    "header": {
        "shellTypeId": "urn:nde4:type:acme:ut-scanner",
        "assetInstanceId": "urn:nde4:inst:acme:ut-scanner:unit-1",
        "displayName": "scanner",
    },
    "body": {
        "dataRefs": [],
        "services": [{"name": "inspect-ut", "inputTags": [], "outputTags": []}],
        "children": [],
    },
}


def test_validate_shell_clean(tmp_path, capsys):
    path = tmp_path / "scanner.aas"
    path.write_text(dump_manifest(load_manifest(json.dumps(GOOD_MANIFEST))))
    code, out, _ = run_cli(capsys, "validate", "shell", "--file", str(path))
    assert code == EXIT_OK
    assert out.strip() == "valid"


def test_validate_shell_findings(tmp_path, capsys):
    gutted = {"header": {"displayName": "anonymous"}, "body": {}}
    path = tmp_path / "anon.aas"
    path.write_text(json.dumps(gutted))
    code, out, _ = run_cli(capsys, "validate", "shell", "--file", str(path))
    assert code == EXIT_FINDINGS
    assert "MissingHeaderId" in out


def test_validate_shell_parse_failure_reports_offset(tmp_path, capsys):
    path = tmp_path / "torn.aas"
    path.write_text('{"shellTypeId": ')
    code, _, err = run_cli(capsys, "validate", "shell", "--file", str(path))
    assert code == EXIT_RUNTIME
    assert "manifest parse failed at byte 16" in err


def test_validate_shell_parse_failure_offset_counts_utf8_bytes(tmp_path, capsys):
    path = tmp_path / "torn.aas"
    path.write_bytes('{"header": {"displayName": "ééé", '.encode())  # 37 bytes, 34 chars
    code, _, err = run_cli(capsys, "validate", "shell", "--file", str(path))
    assert code == EXIT_RUNTIME
    assert "manifest parse failed at byte 37" in err


def test_validate_shell_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "validate", "shell", "--file", str(tmp_path / "ghost.aas")
    )
    assert code == EXIT_RUNTIME
    assert "cannot read manifest" in err


NOT_UTF8 = b'{"seed": "\xff"}'


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("validate", b"[" * 100_000, "manifest parse failed"),
        (
            "validate",
            b'{"header": {"displayName": ' + b"7" * 5000 + b"}}",
            "manifest parse failed",
        ),
        ("validate", NOT_UTF8, "manifest parse failed"),
        ("sim", NOT_UTF8, "not parseable"),
    ],
    ids=["shell-too-deep", "shell-huge-int", "shell-not-utf8", "scenario-not-utf8"],
)
def test_unreadable_input_file_is_runtime_error(tmp_path, capsys, command, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    argv = {
        "validate": ["validate", "shell", "--file", str(path)],
        "sim": ["sim", "run", "--scenario", str(path), "--out", str(tmp_path / "o")],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_RUNTIME
    assert message in err
    assert "Traceback" not in out + err


def test_only_the_input_helper_opens_files():
    # every input file a command reads goes through _read_input, which words
    # "cannot read <what>" once; an open or read elsewhere would word its own
    readers = ("open", "read_text", "read_bytes")
    tree = ast.parse(Path(cli.__file__).read_text("utf-8"))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_read_input")
    inside = {id(node) for node in ast.walk(helper)}
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside and (
            isinstance(node.func, ast.Name) and node.func.id in readers
            or isinstance(node.func, ast.Attribute) and node.func.attr in readers
        )
    ]
    assert found == []


def test_validate_object_clean(tmp_path, capsys):
    path = tmp_path / "good.ndeo"
    path.write_bytes(encode_object(make_object()))
    code, out, _ = run_cli(capsys, "validate", "object", "--file", str(path))
    assert code == EXIT_OK


def test_validate_object_findings(tmp_path, capsys):
    from nde4.archive import DataObject
    from nde4.semantics import TAG_OBJECT_UID

    path = tmp_path / "bare.ndeo"
    path.write_bytes(
        encode_object(DataObject.from_values({TAG_OBJECT_UID: b"obj-1"}))
    )
    code, out, _ = run_cli(capsys, "validate", "object", "--file", str(path))
    assert code == EXIT_FINDINGS
    assert "MissingMandatory" in out


def test_validate_object_truncation_reports_offset(tmp_path, capsys):
    path = tmp_path / "cut.ndeo"
    path.write_bytes(encode_object(make_object())[:-3])
    code, _, err = run_cli(capsys, "validate", "object", "--file", str(path))
    assert code == EXIT_RUNTIME
    assert "at byte" in err


# --- rami ---------------------------------------------------------------------

def test_rami_locate(capsys):
    code, out, _ = run_cli(capsys, "rami", "locate", "orders-bus")
    assert code == EXIT_OK
    cells = out.splitlines()
    assert len(cells) == 20
    assert cells == sorted(cells)
    assert not any("ENTERPRISE" in cell for cell in cells)
    code, _, err = run_cli(capsys, "rami", "locate", "teleporter")
    assert code == EXIT_RUNTIME
    assert "teleporter" in err


def test_rami_coverage_gap_and_close(capsys):
    cell = "INFORMATION/INST_USE/ENTERPRISE"
    code, out, _ = run_cli(
        capsys, "rami", "coverage", "--components", "orders-bus", "--cell", cell
    )
    assert code == EXIT_FINDINGS
    assert out.strip() == cell
    code, out, _ = run_cli(
        capsys, "rami", "coverage",
        "--components", "orders-bus,gateway",
        "--cell", cell,
    )
    assert code == EXIT_OK
    assert out.strip() == "no gaps"


def test_rami_coverage_bad_cell_is_usage_error(capsys):
    code, out, _ = run_cli(
        capsys, "rami", "coverage", "--components", "orders-bus", "--cell", "NOPE"
    )
    assert code == EXIT_USAGE
    assert "bad --cell value" in out


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["teleport"])
    assert info.value.code == EXIT_USAGE
