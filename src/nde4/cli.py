"""Command-line surface: run scenarios, inspect stores, validate inputs.

Exit codes: 0 clean, 1 findings or gaps, 2 usage error, 3 runtime error.
Output is deterministic for fixed inputs; nothing reads the wall clock.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .archive import Archive, data_dir, decode_object, CHAIN_FILE
from .errors import Nde4Error
from .rami import RamiCoordinate, coverage_check, gaps_text, locate
from .registry import load_manifest, validate_manifest
from .plantsim import ScenarioDeadlock, load_scenario, run_scenario, TRACE_SUFFIX
from .semantics import (
    DICT_V1,
    PrivateTag,
    ValueRep,
    interpret,
    lookup,
    validate_object,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


@dataclass(frozen=True, slots=True)
class CommandResult:
    exit_code: int
    output: str


def _read_input(path: str, what: str) -> bytes:
    """The bytes of the input file at `path`, the only file a command reads;
    Nde4Error "cannot read <what>" if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise Nde4Error(f"cannot read {what}: {exc}") from exc


def _result(args, code: int, text: str, document) -> CommandResult:
    """The command's result, its output in the format `args` asks for."""
    if args.format == "json":
        text = json.dumps(document, indent=2, sort_keys=True)
    return CommandResult(code, text)


# --- sim -----------------------------------------------------------------------

def _write_run_files(out_dir: Path, stem: str, trace_lines, report) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{stem}{TRACE_SUFFIX}"
    trace_path.write_text("".join(line + "\n" for line in trace_lines), "utf-8")
    report_path = out_dir / f"{stem}.report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8")
    return trace_path, report_path


def _report_text(report: dict) -> str:
    lines = []
    for key in ("orders_total", "reported", "rejected", "chain_status", "audit_denies"):
        lines.append(f"{key}: {report[key]}")
    gaps = report["rami_gaps"]
    lines.append(f"rami_gaps: {', '.join(gaps) if gaps else '(none)'}")
    return "\n".join(lines)


def _report_is_clean(report: dict) -> bool:
    return (
        report["rejected"] == 0
        and report["chain_status"] == "OK"
        and not report["rami_gaps"]
        and report["audit_denies"] == 0
    )


def cmd_sim_run(args) -> CommandResult:
    config = load_scenario(_read_input(args.scenario, "scenario"), seed_override=args.seed)
    out_dir = Path(args.out)
    stem = Path(args.scenario).stem
    try:
        result = run_scenario(config, out_dir / "nde4-data")
    except ScenarioDeadlock as exc:
        trace_path, _ = _write_run_files(out_dir, stem, exc.trace_lines, exc.report)
        blocked = ", ".join(f"{k}={v}" for k, v in sorted(exc.blocking.items()))
        text_out = (
            f"{_report_text(exc.report)}\n"
            f"deadlock: {blocked}\n"
            f"partial trace: {trace_path}"
        )
        document = {
            "report": exc.report,
            "deadlock": exc.blocking,
            "trace": str(trace_path),
        }
        return _result(args, EXIT_RUNTIME, text_out, document)
    trace_path, report_path = _write_run_files(
        out_dir, stem, result.trace_lines, result.report
    )
    text_out = (
        f"{_report_text(result.report)}\n"
        f"trace: {trace_path} ({len(result.trace_lines)} events)\n"
        f"report: {report_path}"
    )
    document = {
        "report": result.report,
        "trace": str(trace_path),
        "events": len(result.trace_lines),
    }
    code = EXIT_OK if _report_is_clean(result.report) else EXIT_FINDINGS
    return _result(args, code, text_out, document)


# --- archive -----------------------------------------------------------------------

def _open_store(args) -> Archive:
    directory = Path(args.dir) if args.dir else data_dir()
    if not directory.is_dir():
        raise Nde4Error(f"data directory not found: {directory}")
    return Archive(directory)


def cmd_archive_verify(args) -> CommandResult:
    store = _open_store(args)
    result = store.verify_chain()
    if result.ok:
        text = f"chain OK ({result.records} records)"
    else:
        text = f"chain bad at index {result.bad_index} ({result.records} records)"
    document = {"ok": result.ok, "badIndex": result.bad_index, "records": result.records}
    return _result(args, EXIT_OK if result.ok else EXIT_FINDINGS, text, document)


def cmd_archive_ls(args) -> CommandResult:
    store = _open_store(args)
    uids = store.uids()
    text = "\n".join(uids) if uids else "(empty)"
    return _result(args, EXIT_OK, text, {"uids": list(uids)})


def _render_value(definition, raw: bytes):
    """(text, json-friendly) rendering of one element value."""
    if isinstance(definition, PrivateTag):
        return f"bytes[{len(raw)}]", {"bytes": len(raw)}
    value = interpret(definition, raw)
    if definition.value_rep == ValueRep.F32ARRAY:
        values = list(value)
        if len(values) <= 8:
            return ", ".join(f"{v:g}" for v in values), values
        return f"f32[{len(values)}]", {"f32": len(values)}
    if definition.value_rep == ValueRep.BYTES:
        return f"bytes[{len(raw)}]", {"bytes": len(raw)}
    return str(value), value


def cmd_archive_dump(args) -> CommandResult:
    store = _open_store(args)
    obj = store.fetch(args.uid)
    lines = []
    elements = []
    for element in obj.elements:
        definition = lookup(DICT_V1, element.code)
        name = "private" if isinstance(definition, PrivateTag) else definition.name
        text_value, json_value = _render_value(definition, element.value)
        lines.append(f"{name} ({element.code.text()}): {text_value}")
        elements.append(
            {"tag": element.code.text(), "name": name, "value": json_value}
        )
    document = {"uid": args.uid, "elements": elements}
    return _result(args, EXIT_OK, "\n".join(lines), document)


# --- validate -----------------------------------------------------------------------

def _findings_result(args, report) -> CommandResult:
    document = {
        "ok": report.ok,
        "findings": [
            {
                "kind": f.kind,
                "severity": f.severity,
                "detail": f.detail,
                "tag": f.code.text() if f.code is not None else None,
            }
            for f in report.findings
        ],
    }
    code = EXIT_OK if report.ok else EXIT_FINDINGS
    return _result(args, code, str(report), document)


def cmd_validate_shell(args) -> CommandResult:
    try:
        manifest = load_manifest(_read_input(args.file, "manifest"))
    except ValueError as exc:
        syntax = exc.__cause__.__cause__  # the parse failure under the JsonTypeError
        if isinstance(syntax, json.JSONDecodeError):  # its pos is a character index
            offset = len(syntax.doc[: syntax.pos].encode("utf-8"))
            raise Nde4Error(f"manifest parse failed at byte {offset}: {syntax.msg}") from exc
        raise Nde4Error(f"manifest parse failed: {exc}") from exc
    return _findings_result(args, validate_manifest(manifest))


def cmd_validate_object(args) -> CommandResult:
    obj = decode_object(_read_input(args.file, "object"))  # decode errors are runtime errors
    return _findings_result(args, validate_object(DICT_V1, obj))


# --- rami -----------------------------------------------------------------------

def cmd_rami_locate(args) -> CommandResult:
    locus = locate(args.component)
    cells = sorted(c.text() for c in locus.cells)
    document = {"component": args.component, "cells": cells}
    return _result(args, EXIT_OK, "\n".join(cells), document)


def cmd_rami_coverage(args) -> CommandResult:
    loci = [locate(name) for name in args.components.split(",") if name]
    try:
        required = frozenset(RamiCoordinate.from_text(cell) for cell in args.cell)
    except ValueError as exc:
        return CommandResult(EXIT_USAGE, f"bad --cell value: {exc}")
    gaps = gaps_text(coverage_check(required, loci))
    text = "\n".join(gaps) if gaps else "no gaps"
    return _result(args, EXIT_FINDINGS if gaps else EXIT_OK, text, {"gaps": list(gaps)})


# --- wiring -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nde4",
        description="desk-scale interoperability testbed for inspection workflows",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    sim = commands.add_parser("sim", help="run scenarios").add_subparsers(
        dest="subcommand", required=True
    )
    sim_run = sim.add_parser("run", parents=[fmt], help="run one scenario")
    sim_run.add_argument("--scenario", required=True, help="scenario file (.scen)")
    sim_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    sim_run.add_argument("--out", default="nde4-out", help="output directory")
    sim_run.set_defaults(func=cmd_sim_run)

    store_flags = argparse.ArgumentParser(add_help=False)
    store_flags.add_argument(
        "--dir", default=None, help="data directory (default: $NDE4_DATA_DIR)"
    )

    archive = commands.add_parser("archive", help="inspect the object store")
    archive_sub = archive.add_subparsers(dest="subcommand", required=True)
    verify = archive_sub.add_parser(
        "verify", parents=[fmt, store_flags], help=f"check {CHAIN_FILE}"
    )
    verify.set_defaults(func=cmd_archive_verify)
    ls = archive_sub.add_parser(
        "ls", parents=[fmt, store_flags], help="list UIDs in store order"
    )
    ls.set_defaults(func=cmd_archive_ls)
    dump = archive_sub.add_parser(
        "dump", parents=[fmt, store_flags], help="print one object's elements"
    )
    dump.add_argument("uid")
    dump.set_defaults(func=cmd_archive_dump)

    validate = commands.add_parser("validate", help="validate inputs")
    validate_sub = validate.add_subparsers(dest="subcommand", required=True)
    shell = validate_sub.add_parser("shell", parents=[fmt], help="validate a .aas manifest")
    shell.add_argument("--file", required=True)
    shell.set_defaults(func=cmd_validate_shell)
    obj = validate_sub.add_parser("object", parents=[fmt], help="validate a .ndeo object")
    obj.add_argument("--file", required=True)
    obj.set_defaults(func=cmd_validate_object)

    rami = commands.add_parser("rami", help="component coverage on the reference cube")
    rami_sub = rami.add_subparsers(dest="subcommand", required=True)
    locate = rami_sub.add_parser("locate", parents=[fmt], help="print a component's cells")
    locate.add_argument("component")
    locate.set_defaults(func=cmd_rami_locate)
    coverage = rami_sub.add_parser(
        "coverage", parents=[fmt], help="required cells minus component coverage"
    )
    coverage.add_argument("--components", required=True, help="comma-separated names")
    coverage.add_argument(
        "--cell", action="append", default=[], help="required LAYER/LIFECYCLE/HIERARCHY"
    )
    coverage.set_defaults(func=cmd_rami_coverage)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except (Nde4Error, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RUNTIME
    if result.output:
        print(result.output)
    return result.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
