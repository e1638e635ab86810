"""Semantic dictionary: tag codes, value representations, object validation.

Every value that crosses a wire in this system is a (group, element) tagged
byte string. The dictionary gives each code a name, a value representation,
optional units, and a multiplicity, which is what makes the bytes machine
interpretable on the far side.

Group-number conventions: even groups 0x0008-0x7FFF belong to the standard
dictionary; odd groups >= 0x0009 are the private range, tolerated but
flagged informationally. Multiplicity counts base values inside one element
value (an F32ARRAY with multiplicity N holds any number of floats; a U16
with multiplicity 1 is exactly two bytes).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from importlib.resources import files
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import Nde4Error
from .timebase import DATETIME_LENGTH, BadDatetime, parse_datetime

PRIVATE_GROUP_FLOOR = 0x0009

# vocabulary for the inspection method code tag
METHOD_CODES = frozenset({"UT", "RT", "CT", "ET", "MT", "PT", "VT"})

# order ids and object UIDs share one token syntax; object UIDs double as
# file-name stems, so no separators or dots leading the token
ID_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")


def is_id_token(text: str) -> bool:
    return isinstance(text, str) and ID_TOKEN_PATTERN.match(text) is not None


class UnknownStandardTag(Nde4Error):
    """Tag code is in the standard range but absent from the dictionary."""


class ValueLengthMismatch(Nde4Error):
    """Raw value length is inconsistent with the value representation."""


class EncodingError(Nde4Error):
    """Raw value bytes are not decodable under the value representation."""


class DuplicateDefinition(Nde4Error):
    """Dictionary extension would redefine an existing code or name."""


class _TagPair(NamedTuple):
    group: int
    element: int


class TagCode(_TagPair):
    """A (group, element) pair; both 16-bit unsigned.

    A tuple, so equality, hashing and ordering (group, then element) run in
    C: every Dictionary lookup and object decode compares tag codes. It
    therefore also equals the plain (group, element) tuple.
    """

    __slots__ = ()

    def __new__(cls, group: int, element: int) -> "TagCode":
        for part, label in ((group, "group"), (element, "element")):
            if not 0 <= part <= 0xFFFF:
                raise ValueError(f"tag {label} out of 16-bit range: {part:#x}")
        return tuple.__new__(cls, (group, element))

    @property
    def is_private(self) -> bool:
        return self.group % 2 == 1 and self.group >= PRIVATE_GROUP_FLOOR

    def text(self) -> str:
        return f"{self.group:04X},{self.element:04X}"

    @classmethod
    def from_text(cls, text: str) -> "TagCode":
        bare = text.strip()
        if bare.startswith("(") and bare.endswith(")"):
            bare = bare[1:-1]
        group_text, _, element_text = bare.partition(",")
        try:
            return cls(int(group_text, 16), int(element_text, 16))
        except ValueError as exc:
            raise ValueError(f"bad tag code text {text!r}") from exc

    def __str__(self) -> str:
        return f"({self.group:04X},{self.element:04X})"


class ValueRep(Enum):
    IDSTR = "IDSTR"
    TEXT = "TEXT"
    DATETIME = "DATETIME"
    U16 = "U16"
    F32ARRAY = "F32ARRAY"
    BYTES = "BYTES"


# base-unit size in bytes for fixed-width reps; None = variable width
_UNIT_SIZE = {
    ValueRep.U16: 2,
    ValueRep.DATETIME: DATETIME_LENGTH,
    ValueRep.F32ARRAY: 4,
}


@dataclass(frozen=True, slots=True)
class TagDefinition:
    code: TagCode
    name: str
    value_rep: ValueRep
    units: str | None = None
    multiplicity: str = "1"  # "1" or "N"

    def __post_init__(self) -> None:
        if self.multiplicity not in ("1", "N"):
            raise ValueError(f"multiplicity must be '1' or 'N': {self.multiplicity!r}")


@dataclass(frozen=True, slots=True)
class PrivateTag:
    """Lookup marker for codes in the private range."""

    code: TagCode


@dataclass(frozen=True)
class Dictionary:
    """Immutable dictionary snapshot; extension yields a new, higher version."""

    version: int
    definitions: tuple[TagDefinition, ...]
    _by_code: dict[TagCode, TagDefinition] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_code: dict[TagCode, TagDefinition] = {}
        names: set[str] = set()
        for definition in self.definitions:
            if definition.code in by_code:
                raise DuplicateDefinition(f"duplicate code {definition.code}")
            if definition.name in names:
                raise DuplicateDefinition(f"duplicate name {definition.name!r}")
            by_code[definition.code] = definition
            names.add(definition.name)
        object.__setattr__(self, "_by_code", by_code)

    def get(self, code: TagCode) -> TagDefinition | None:
        return self._by_code.get(code)

    def extend(self, new_definitions: Iterable[TagDefinition]) -> "Dictionary":
        """Superset extension: existing codes keep their meaning, version bumps."""
        added = tuple(new_definitions)
        for definition in added:
            if definition.code in self._by_code:
                raise DuplicateDefinition(
                    f"extension may not redefine {definition.code}"
                )
        return Dictionary(self.version + 1, self.definitions + added)


def lookup(dictionary: Dictionary, code: TagCode) -> TagDefinition | PrivateTag:
    """Resolve a code; private-range codes yield a PrivateTag marker."""
    definition = dictionary.get(code)
    if definition is not None:
        return definition
    if code.is_private:
        return PrivateTag(code)
    raise UnknownStandardTag(f"no dictionary entry for {code}")


TypedValue = Union[str, int, bytes, tuple]


def utf8_text(raw: bytes, what: object) -> str:
    """The text of a raw value; EncodingError, naming `what`, if not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{what}: invalid UTF-8: {exc}") from exc


def interpret(definition: TagDefinition, raw: bytes) -> TypedValue:
    """Decode raw element bytes into the host-side value for the definition.

    Inverse of encode_value. Multiplicity N reps decode to a tuple.
    """
    rep = definition.value_rep
    if rep in (ValueRep.IDSTR, ValueRep.TEXT):
        return utf8_text(raw, definition.name)
    if rep == ValueRep.BYTES:
        return bytes(raw)

    unit = _UNIT_SIZE[rep]
    if definition.multiplicity == "1":
        if len(raw) != unit:
            raise ValueLengthMismatch(
                f"{definition.name}: expected {unit} bytes, got {len(raw)}"
            )
    elif len(raw) % unit != 0:
        raise ValueLengthMismatch(
            f"{definition.name}: length {len(raw)} not a multiple of {unit}"
        )

    if rep == ValueRep.U16:
        values = struct.unpack(f"<{len(raw) // 2}H", raw)
    elif rep == ValueRep.F32ARRAY:
        values = struct.unpack(f"<{len(raw) // 4}f", raw)
    else:  # DATETIME
        decoded = []
        for i in range(0, len(raw), DATETIME_LENGTH):
            chunk = raw[i : i + DATETIME_LENGTH]
            try:
                text = chunk.decode("ascii")
                parse_datetime(text)
            except (UnicodeDecodeError, BadDatetime) as exc:
                raise EncodingError(f"{definition.name}: bad datetime: {exc}") from exc
            decoded.append(text)
        values = tuple(decoded)

    if definition.multiplicity == "1":
        return values[0]
    return values


def encode_value(definition: TagDefinition, value: TypedValue) -> bytes:
    """Encode a host-side value to element bytes; inverse of interpret."""
    rep = definition.value_rep
    if rep in (ValueRep.IDSTR, ValueRep.TEXT):
        if not isinstance(value, str):
            raise EncodingError(f"{definition.name}: expected str, got {type(value).__name__}")
        return value.encode("utf-8")
    if rep == ValueRep.BYTES:
        if not isinstance(value, (bytes, bytearray)):
            raise EncodingError(f"{definition.name}: expected bytes")
        return bytes(value)

    single = definition.multiplicity == "1"
    try:
        items = (value,) if single else tuple(value)  # type: ignore[arg-type]
    except TypeError as exc:
        raise EncodingError(
            f"{definition.name}: multiplicity-N value must be iterable"
        ) from exc

    if rep == ValueRep.U16:
        for item in items:
            if not isinstance(item, int) or not 0 <= item <= 0xFFFF:
                raise EncodingError(f"{definition.name}: u16 out of range: {item!r}")
        return struct.pack(f"<{len(items)}H", *items)
    if rep == ValueRep.F32ARRAY:
        return struct.pack(f"<{len(items)}f", *items)
    # DATETIME
    out = bytearray()
    for item in items:
        if not isinstance(item, str):
            raise EncodingError(f"{definition.name}: expected datetime text")
        try:
            parse_datetime(item)
        except BadDatetime as exc:
            raise EncodingError(str(exc)) from exc
        out += item.encode("ascii")
    return bytes(out)


# --- validation findings ---------------------------------------------------

SEVERITY_ERROR = "error"
SEVERITY_INFO = "info"

UNKNOWN_STANDARD_TAG = "UnknownStandardTag"
VALUE_REP_MISMATCH = "ValueRepMismatch"
MULTIPLICITY_VIOLATION = "MultiplicityViolation"
MISSING_MANDATORY = "MissingMandatory"
PRIVATE_TAG = "PrivateTag"


@dataclass(frozen=True, slots=True)
class Finding:
    kind: str
    detail: str
    code: TagCode | None = None
    severity: str = SEVERITY_ERROR

    def line(self) -> str:
        where = f" {self.code}" if self.code is not None else ""
        return f"{self.severity.upper()} {self.kind}{where}: {self.detail}"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def blocking(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_ERROR)

    def kinds(self) -> set[str]:
        return {f.kind for f in self.findings}

    def __str__(self) -> str:
        if not self.findings:
            return "valid"
        return "\n".join(f.line() for f in self.findings)


# mandatory tags every archived object must carry
TAG_OBJECT_UID = TagCode(0x0008, 0x0001)
TAG_CREATED_AT = TagCode(0x0008, 0x0002)
TAG_METHOD_CODE = TagCode(0x0008, 0x0010)
TAG_COMPONENT_SERIAL = TagCode(0x0010, 0x0001)
TAG_COMPONENT_TYPE = TagCode(0x0010, 0x0002)
TAG_ORDER_ID = TagCode(0x0020, 0x0001)
TAG_PROCEDURE_ID = TagCode(0x0020, 0x0002)
TAG_DEVICE_ID = TagCode(0x0030, 0x0001)
TAG_CALIBRATION_DUE = TagCode(0x0030, 0x0002)
TAG_GRID_ROWS = TagCode(0x0040, 0x0001)
TAG_GRID_COLS = TagCode(0x0040, 0x0002)
TAG_AMPLITUDE_GRID = TagCode(0x0040, 0x0003)
TAG_BULK_PAYLOAD = TagCode(0x7FE0, 0x0010)

MANDATORY_TAGS = (TAG_OBJECT_UID, TAG_METHOD_CODE, TAG_COMPONENT_SERIAL, TAG_ORDER_ID)


def validate_object(dictionary: Dictionary, obj) -> ValidationReport:
    """Check a DataObject's elements against the dictionary.

    Findings per element: UnknownStandardTag, ValueRepMismatch,
    MultiplicityViolation; PrivateTag is informational. Object-level:
    MissingMandatory for each absent mandatory tag, and MultiplicityViolation
    when a multiplicity-1 code occurs more than once.
    """
    findings: list[Finding] = []
    seen_counts: dict[TagCode, int] = {}

    for element in obj.elements:
        code, raw = element.code, element.value
        seen_counts[code] = seen_counts.get(code, 0) + 1
        try:
            resolved = lookup(dictionary, code)
        except UnknownStandardTag:
            findings.append(
                Finding(UNKNOWN_STANDARD_TAG, "not in dictionary", code)
            )
            continue
        if isinstance(resolved, PrivateTag):
            findings.append(
                Finding(PRIVATE_TAG, "private-range tag", code, SEVERITY_INFO)
            )
            continue

        unit = _UNIT_SIZE.get(resolved.value_rep)
        if unit is not None:
            if len(raw) % unit != 0:
                findings.append(
                    Finding(
                        VALUE_REP_MISMATCH,
                        f"length {len(raw)} not a multiple of {unit} "
                        f"for {resolved.value_rep.value}",
                        code,
                    )
                )
                continue
            count = len(raw) // unit
            if resolved.multiplicity == "1" and count != 1:
                findings.append(
                    Finding(
                        MULTIPLICITY_VIOLATION,
                        f"{count} values in a multiplicity-1 element",
                        code,
                    )
                )
                continue
        try:
            value = interpret(resolved, raw)
        except (ValueLengthMismatch, EncodingError) as exc:
            findings.append(Finding(VALUE_REP_MISMATCH, str(exc), code))
            continue
        if code == TAG_METHOD_CODE and value not in METHOD_CODES:
            findings.append(
                Finding(
                    VALUE_REP_MISMATCH,
                    f"method code {value!r} not in {sorted(METHOD_CODES)}",
                    code,
                )
            )

    for code, count in seen_counts.items():
        definition = dictionary.get(code)
        if definition is not None and definition.multiplicity == "1" and count > 1:
            findings.append(
                Finding(
                    MULTIPLICITY_VIOLATION,
                    f"code occurs {count} times but multiplicity is 1",
                    code,
                )
            )

    for code in MANDATORY_TAGS:
        if code not in seen_counts:
            name = dictionary.get(code).name  # mandatory codes are always defined
            findings.append(
                Finding(MISSING_MANDATORY, f"mandatory tag {name} absent", code)
            )

    return ValidationReport(tuple(findings))


# --- table files -------------------------------------------------------------
# The shipped tables share one syntax (docs/FORMATS.md, "Table files"): one
# row per line, fields separated by tabs, blank and "#" lines skipped.

def tsv_rows(text: str, columns: int, what: str) -> Iterator[list[str]]:
    """The rows of a table file; a row without `columns` fields is refused."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != columns:
            raise ValueError(f"{what} line {lineno}: expected {columns} columns")
        yield parts


def tsv_text(rows: Iterable[Iterable[str]]) -> str:
    """A table file holding `rows`; an empty table is one newline."""
    return "\n".join("\t".join(row) for row in rows) + "\n"


def dump_dictionary_tsv(dictionary: Dictionary) -> str:
    """Render the versioned table file: code, name, value_rep, units, multiplicity."""
    return tsv_text(
        (d.code.text(), d.name, d.value_rep.value, d.units or "-", d.multiplicity)
        for d in dictionary.definitions
    )


def load_dictionary_tsv(text: str, version: int) -> Dictionary:
    definitions = []
    for code, name, rep, units, multiplicity in tsv_rows(text, 5, "dictionary"):
        units = None if units == "-" else units
        code = TagCode.from_text(code)
        definitions.append(TagDefinition(code, name, ValueRep(rep), units, multiplicity))
    return Dictionary(version, tuple(definitions))


DICT_V1 = load_dictionary_tsv(
    files("nde4").joinpath("data/dict-v1.tsv").read_text("utf-8"), version=1
)
