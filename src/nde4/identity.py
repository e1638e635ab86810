"""Globally unique asset identifiers: types vs. instances.

A TypeId names a kind of asset (the drill design); an InstanceId names one
built unit (drill #25). Both render to a canonical URN-like text form that
is injective over valid inputs, so the text form doubles as a registry key
and a stable sort key.

Canonical forms:
    urn:nde4:type:<namespace>:<name>
    urn:nde4:inst:<namespace>:<name>:<serial>
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .errors import Nde4Error

URN_PREFIX = "urn:nde4:"
KIND_TYPE = "type"
KIND_INST = "inst"

MAX_TOKEN_LENGTH = 64

# namespaces and type names are lowercase; serials are real-world mixed case;
# both start alphanumeric so an ID never begins with a separator
_NAME_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9-]*")
_SERIAL_TOKEN_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9-]*")


def is_name_token(value: str) -> bool:
    return isinstance(value, str) and 0 < len(value) <= MAX_TOKEN_LENGTH and bool(
        _NAME_TOKEN_RE.fullmatch(value)
    )


def is_serial_token(value: str) -> bool:
    return isinstance(value, str) and 0 < len(value) <= MAX_TOKEN_LENGTH and bool(
        _SERIAL_TOKEN_RE.fullmatch(value)
    )


class MalformedToken(Nde4Error):
    """A namespace, name, or serial token violates the character/length rules."""


class ParseError(Nde4Error):
    """Canonical ID text is malformed; `offset` is the byte of first violation."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def _check_token(value: str, what: str, pattern: re.Pattern[str]) -> str:
    if not value:
        raise MalformedToken(f"{what} must be non-empty")
    if len(value) > MAX_TOKEN_LENGTH:
        raise MalformedToken(f"{what} exceeds {MAX_TOKEN_LENGTH} chars: {len(value)}")
    if not pattern.fullmatch(value):
        raise MalformedToken(f"{what} has illegal characters: {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class TypeId:
    """Identity of an asset kind."""

    namespace: str
    name: str

    def __post_init__(self) -> None:
        # a token parse_id would refuse could never round-trip the text form
        _check_token(self.namespace, "namespace", _NAME_TOKEN_RE)
        _check_token(self.name, "name", _NAME_TOKEN_RE)

    def canonical(self) -> str:
        return f"{URN_PREFIX}{KIND_TYPE}:{self.namespace}:{self.name}"

    def __str__(self) -> str:
        return self.canonical()

    def __lt__(self, other: "TypeId | InstanceId") -> bool:
        return self.canonical() < str(other)


@dataclass(frozen=True, slots=True)
class InstanceId:
    """Identity of one concrete built unit of a type."""

    type_id: TypeId
    serial: str

    def __post_init__(self) -> None:
        # a serial parse_id would refuse could never round-trip its text form
        _check_token(self.serial, "serial", _SERIAL_TOKEN_RE)

    def canonical(self) -> str:
        return (
            f"{URN_PREFIX}{KIND_INST}:{self.type_id.namespace}:"
            f"{self.type_id.name}:{self.serial}"
        )

    def __str__(self) -> str:
        return self.canonical()

    def __lt__(self, other: "TypeId | InstanceId") -> bool:
        return self.canonical() < str(other)


def mint_type_id(namespace: str, name: str) -> TypeId:
    """Mint a TypeId; deterministic, so equal inputs yield equal values."""
    return TypeId(namespace, name)


def mint_instance_id(type_id: TypeId, serial: str) -> InstanceId:
    """Bind a serial to a type, yielding the instance identity."""
    return InstanceId(type_id, serial)


def parse_id(text: str) -> TypeId | InstanceId:
    """Inverse of canonical(): parse text back to the ID it denotes.

    Round-trip law: parse_id(x.canonical()) == x for every minted ID.
    """
    if not text.startswith(URN_PREFIX):
        # the error offset is the first byte that diverges from the prefix
        offset = len(os.path.commonprefix((text, URN_PREFIX)))
        raise ParseError(f"expected prefix {URN_PREFIX!r}", offset)

    rest = text[len(URN_PREFIX):]
    segments = rest.split(":")
    kind = segments[0]
    kind_offset = len(URN_PREFIX)

    if kind == KIND_TYPE:
        expected = 3
    elif kind == KIND_INST:
        expected = 4
    else:
        raise ParseError(f"unknown kind segment {kind!r}", kind_offset)

    if len(segments) != expected:
        # offset of the segment boundary where the count went wrong
        bad = min(len(segments), expected)
        offset = kind_offset + sum(len(s) + 1 for s in segments[:bad])
        raise ParseError(
            f"expected {expected} segments after prefix, got {len(segments)}", offset
        )

    offsets = []
    pos = kind_offset + len(kind) + 1
    for seg in segments[1:]:
        offsets.append(pos)
        pos += len(seg) + 1

    def _parse_token(value: str, what: str, pattern: re.Pattern[str], offset: int) -> str:
        try:
            return _check_token(value, what, pattern)
        except MalformedToken as exc:
            raise ParseError(str(exc), offset) from exc

    namespace = _parse_token(segments[1], "namespace", _NAME_TOKEN_RE, offsets[0])
    name = _parse_token(segments[2], "name", _NAME_TOKEN_RE, offsets[1])
    if kind == KIND_TYPE:
        return TypeId(namespace, name)
    try:
        return InstanceId(TypeId(namespace, name), segments[3])
    except MalformedToken as exc:
        raise ParseError(str(exc), offsets[2]) from exc


def id_text(kind: type, blank: bool = False) -> dict:
    """JSON kind (see framing.json_table) of an id of class `kind` as its URN
    text; with `blank`, an empty string stands for no id."""

    def build(text: str):
        if blank and not text:
            return None
        try:
            parsed = parse_id(text)
        except ParseError as exc:
            raise ValueError(str(exc)) from exc
        if not isinstance(parsed, kind):
            raise ValueError(f"expected {kind.__name__} text, got {text!r}")
        return parsed

    return {str: build}
