"""Digital-twin registry: store, validate, nest, and resolve shell manifests.

A manifest is the table of contents for one asset: a header holding the
shell's type and the asset's instance identity, and a body listing data
references, service descriptions, and child shells. Nesting edges form a
DAG; a cycle is rejected whether it arrives via nest() or via declared
child lists completing a loop at registration time.

Human roles (an inspector, an operator) are registered exactly like
machines; nothing in here distinguishes the two.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Container, Iterable
from dataclasses import dataclass, field, replace

from .errors import Nde4Error
from .framing import JsonTypeError, json_list, json_object, json_table
from .identity import InstanceId, TypeId, id_text
from .semantics import (
    DICT_V1,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    Dictionary,
    Finding,
    TagCode,
    ValidationReport,
)

MISSING_HEADER_ID = "MissingHeaderId"
DUPLICATE_BODY_ENTRY = "DuplicateBodyEntry"
UNKNOWN_SEMANTIC_TAG = "UnknownSemanticTag"
DANGLING_CHILD = "DanglingChild"

MANIFEST_FILE_SUFFIX = ".aas"


class DuplicateInstance(Nde4Error):
    """An asset instance ID is already registered."""


class InvalidManifest(Nde4Error):
    """Manifest failed validation; carries the report."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


class CycleDetected(Nde4Error):
    """A nesting edge would close a cycle."""


class UnknownShell(Nde4Error):
    """Instance ID is not registered."""


@dataclass(frozen=True, slots=True)
class DataRef:
    semantic_tag: TagCode
    locator: str


@dataclass(frozen=True, slots=True)
class ServiceDesc:
    service_name: str
    input_tags: tuple[TagCode, ...] = ()
    output_tags: tuple[TagCode, ...] = ()


@dataclass(frozen=True, slots=True)
class ManifestHeader:
    shell_type_id: TypeId | None = None
    asset_instance_id: InstanceId | None = None
    display_name: str = ""


@dataclass(frozen=True, slots=True)
class ManifestBody:
    data_refs: tuple[DataRef, ...] = ()
    service_descs: tuple[ServiceDesc, ...] = ()
    child_shells: tuple[InstanceId, ...] = ()


@dataclass(frozen=True, slots=True)
class Manifest:
    header: ManifestHeader
    body: ManifestBody = field(default_factory=ManifestBody)

    def with_child(self, child: InstanceId) -> "Manifest":
        children = self.body.child_shells + (child,)
        return replace(self, body=replace(self.body, child_shells=children))


def validate_manifest(
    manifest: Manifest,
    dictionary: Dictionary = DICT_V1,
    registered: Container[InstanceId] | None = None,
) -> ValidationReport:
    """Structural findings for one manifest.

    With `registered` given, child IDs not in it are flagged
    DanglingChild (informational: supply chains register shells in any
    order, so a dangling child is deferred, not wrong). Without it the
    check is skipped entirely.
    """
    findings: list[Finding] = []
    header = manifest.header
    if header.shell_type_id is None:
        findings.append(
            Finding(MISSING_HEADER_ID, "header lacks a shell type ID")
        )
    if header.asset_instance_id is None:
        findings.append(
            Finding(MISSING_HEADER_ID, "header lacks an asset instance ID")
        )

    seen_refs: set[tuple[TagCode, str]] = set()
    for ref in manifest.body.data_refs:
        key = (ref.semantic_tag, ref.locator)
        if key in seen_refs:
            findings.append(
                Finding(
                    DUPLICATE_BODY_ENTRY,
                    f"data ref repeated: {ref.locator!r}",
                    ref.semantic_tag,
                )
            )
        seen_refs.add(key)
        if dictionary.get(ref.semantic_tag) is None and not ref.semantic_tag.is_private:
            findings.append(
                Finding(
                    UNKNOWN_SEMANTIC_TAG,
                    "data ref tag not in dictionary and not private",
                    ref.semantic_tag,
                )
            )

    seen_services: set[str] = set()
    for desc in manifest.body.service_descs:
        if desc.service_name in seen_services:
            findings.append(
                Finding(
                    DUPLICATE_BODY_ENTRY,
                    f"service name repeated: {desc.service_name!r}",
                )
            )
        seen_services.add(desc.service_name)
        for tag in desc.input_tags + desc.output_tags:
            if dictionary.get(tag) is None and not tag.is_private:
                findings.append(
                    Finding(
                        UNKNOWN_SEMANTIC_TAG,
                        f"service {desc.service_name!r} tag not in dictionary "
                        f"and not private",
                        tag,
                    )
                )

    seen_children: set[InstanceId] = set()
    for child in manifest.body.child_shells:
        if child in seen_children:
            findings.append(
                Finding(DUPLICATE_BODY_ENTRY, f"child repeated: {child}")
            )
        seen_children.add(child)
        if registered is not None and child not in registered:
            findings.append(
                Finding(
                    DANGLING_CHILD,
                    f"child not registered yet: {child}",
                    severity=SEVERITY_INFO,
                )
            )

    return ValidationReport(tuple(findings))


class Registry:
    """Mutations are serialized under one lock; reads see consistent snapshots."""

    def __init__(self):
        self._shells: dict[InstanceId, Manifest] = {}
        self._lock = threading.Lock()

    def validate(self, manifest: Manifest) -> ValidationReport:
        with self._lock:
            return validate_manifest(manifest, DICT_V1, self._shells)

    def register_shell(self, manifest: Manifest) -> InstanceId:
        with self._lock:
            report = validate_manifest(manifest, DICT_V1, self._shells)
            if any(f.severity == SEVERITY_ERROR for f in report.findings):
                raise InvalidManifest(report)
            instance = manifest.header.asset_instance_id
            assert instance is not None  # MissingHeaderId is blocking
            if instance in self._shells:
                raise DuplicateInstance(f"already registered: {instance}")
            # declared children may complete a loop through shells that
            # named this instance before it existed; the graph was acyclic,
            # so any new cycle runs through this instance. Checked before
            # anything is stored, so a refusal leaves nothing to roll back.
            path = self._path(manifest.body.child_shells, instance)
            if path is not None:
                raise CycleDetected(
                    "declared children close a cycle: "
                    + " -> ".join(str(i) for i in [instance, *path])
                )
            self._shells[instance] = manifest
            return instance

    def resolve(self, instance: InstanceId) -> Manifest:
        with self._lock:
            manifest = self._shells.get(instance)
        if manifest is None:
            raise UnknownShell(f"not registered: {instance}")
        return manifest

    def nest(self, parent: InstanceId, child: InstanceId) -> None:
        with self._lock:
            for instance in (parent, child):
                if instance not in self._shells:
                    raise UnknownShell(f"not registered: {instance}")
            manifest = self._shells[parent]
            if child in manifest.body.child_shells:
                return  # edge already present
            if parent == child:
                raise CycleDetected(f"self-nesting: {parent}")
            if self._path((child,), parent) is not None:
                raise CycleDetected(f"{parent} is reachable from {child}")
            self._shells[parent] = manifest.with_child(child)

    def list_shells(self) -> tuple[InstanceId, ...]:
        """Registration order, which is deterministic for a given scenario;
        `nest` replaces a manifest in place, so it keeps its shell's place."""
        with self._lock:
            return tuple(self._shells)

    def _path(
        self, starts: Iterable[InstanceId], goal: InstanceId
    ) -> list[InstanceId] | None:
        """Child-edge path from one of `starts` to `goal`, or None.

        Iterative, so depth is bounded by memory, not the recursion limit.
        Unregistered shells are dangling children: no edges leave them yet.
        """
        came_from: dict[InstanceId, InstanceId | None] = {}
        stack: list[InstanceId] = []
        for start in starts:
            if start not in came_from:
                came_from[start] = None
                stack.append(start)
        while stack:
            node = stack.pop()
            if node == goal:
                path = [node]
                while (prev := came_from[path[-1]]) is not None:
                    path.append(prev)
                return path[::-1]
            manifest = self._shells.get(node)
            if manifest is None:
                continue
            for child in manifest.body.child_shells:
                if child not in came_from:
                    came_from[child] = node
                    stack.append(child)
        return None


# --- textual encoding (.aas) -------------------------------------------------

def manifest_to_dict(manifest: Manifest) -> dict:
    header = manifest.header
    return {
        "header": {
            "shellTypeId": str(header.shell_type_id) if header.shell_type_id else "",
            "assetInstanceId": (
                str(header.asset_instance_id) if header.asset_instance_id else ""
            ),
            "displayName": header.display_name,
        },
        "body": {
            "dataRefs": [
                {"tag": ref.semantic_tag.text(), "locator": ref.locator}
                for ref in manifest.body.data_refs
            ],
            "services": [
                {
                    "name": desc.service_name,
                    "inputTags": [tag.text() for tag in desc.input_tags],
                    "outputTags": [tag.text() for tag in desc.output_tags],
                }
                for desc in manifest.body.service_descs
            ],
            "children": [str(child) for child in manifest.body.child_shells],
        },
    }


# One key table per manifest object; see framing.json_table for the rules.
_TAGS = json_list({str: TagCode.from_text})
_MANIFEST = json_table(Manifest, (
    ("header", "header", json_table(ManifestHeader, (
        ("shell_type_id", "shellTypeId", id_text(TypeId, blank=True)),
        ("asset_instance_id", "assetInstanceId", id_text(InstanceId, blank=True)),
        ("display_name", "displayName", str),
    ))),
    ("body", "body", json_table(ManifestBody, (
        ("data_refs", "dataRefs", json_list(json_table(DataRef, (
            ("semantic_tag", "tag", {str: TagCode.from_text}),
            ("locator", "locator", str),
        )))),
        ("service_descs", "services", json_list(json_table(ServiceDesc, (
            ("service_name", "name", str),
            ("input_tags", "inputTags", _TAGS),
            ("output_tags", "outputTags", _TAGS),
        )))),
        ("child_shells", "children", json_list(id_text(InstanceId))),
    ))),
))


def dump_manifest(manifest: Manifest) -> str:
    return json.dumps(manifest_to_dict(manifest), indent=2, sort_keys=True) + "\n"


def load_manifest(text: bytes | str) -> Manifest:
    """The one manifest reader: the manifest of a JSON document, as UTF-8
    bytes or as str. ValueError says what is malformed; its cause is the
    reader's JsonTypeError, whose own cause is the parse failure, if any."""
    try:
        return _MANIFEST(json_object(text))
    except JsonTypeError as exc:
        raise ValueError(f"malformed manifest document: {exc}") from exc
