from __future__ import annotations

import ast
import importlib.resources
import itertools
import random
import struct
from pathlib import Path

import pytest

from conftest import make_object
from nde4 import framing, semantics
from nde4.plantsim import load_scenario, run_scenario
from nde4.semantics import (
    DICT_V1,
    Dictionary,
    DuplicateDefinition,
    EncodingError,
    ValueLengthMismatch,
    MANDATORY_TAGS,
    MISSING_MANDATORY,
    MULTIPLICITY_VIOLATION,
    PRIVATE_TAG,
    PrivateTag,
    TAG_AMPLITUDE_GRID,
    TAG_CREATED_AT,
    TAG_GRID_ROWS,
    TAG_METHOD_CODE,
    TAG_OBJECT_UID,
    TAG_ORDER_ID,
    TagCode,
    TagDefinition,
    UNKNOWN_STANDARD_TAG,
    UnknownStandardTag,
    VALUE_REP_MISMATCH,
    ValueRep,
    dump_dictionary_tsv,
    encode_value,
    interpret,
    is_id_token,
    load_dictionary_tsv,
    lookup,
    validate_object,
)


def test_tag_code_text_round_trip():
    code = TagCode(0x0020, 0x0001)
    assert code.text() == "0020,0001"
    assert TagCode.from_text("0020,0001") == code
    assert TagCode.from_text("(0020,0001)") == code


def test_tag_code_ordering_is_group_then_element():
    codes = [TagCode(2, 1), TagCode(1, 2), TagCode(1, 1), TagCode(0x7FE0, 0x10)]
    assert sorted(codes) == [
        TagCode(1, 1),
        TagCode(1, 2),
        TagCode(2, 1),
        TagCode(0x7FE0, 0x10),
    ]


def test_tag_code_compares_like_its_pair():
    # oracle: plain (group, element) tuples; small values force ties
    rng = random.Random(909)
    pairs = [
        (rng.choice((0, 1, 2, 0x7FE0, 0xFFFF, rng.randrange(0x10000))), rng.randrange(3))
        for _ in range(60)
    ]
    codes = [TagCode(*pair) for pair in pairs]
    for (a, pa), (b, pb) in itertools.product(zip(codes, pairs), repeat=2):
        assert (a == b) == (pa == pb)
        assert (a != b) == (pa != pb)
        assert (a < b) == (pa < pb)
        assert (a <= b) == (pa <= pb)
        assert (hash(a) == hash(b)) == (hash(pa) == hash(pb))
    assert [tuple(code) for code in sorted(codes)] == sorted(pairs)
    assert all(type(code) is TagCode for code in sorted(codes))


def test_tag_code_keeps_range_check_and_text_forms():
    for group, element in ((-1, 0), (0, 0x10000), (0x10000, 0), (0, -1)):
        with pytest.raises(ValueError):
            TagCode(group, element)
    code = TagCode(0x7FE0, 0x0010)
    assert (code.group, code.element) == (0x7FE0, 0x0010)
    assert str(code) == "(7FE0,0010)"
    assert code.text() == "7FE0,0010"
    assert repr(code) == "TagCode(group=32736, element=16)"
    assert TagCode.from_text("(7fe0,0010)") == code
    with pytest.raises(ValueError):
        TagCode.from_text("7FE0")
    assert DICT_V1.get(TAG_ORDER_ID).name == "order_id"
    assert DICT_V1.get(TagCode(0x0020, 0x0001)) is DICT_V1.get(TAG_ORDER_ID)


def test_no_tag_code_reaches_canonical_json(monkeypatch, tmp_path):
    # a TagCode is a tuple, so json would now write it as a list where it
    # used to refuse it; a full run must never hand one to the encoder
    found = []

    def walk(value):
        if isinstance(value, TagCode):
            found.append(value)
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(key)
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    encoder = framing._CANONICAL_ENCODER
    encode = encoder.encode
    documents = []

    def checked(document):
        documents.append(document)
        walk(document)
        return encode(document)

    monkeypatch.setattr(encoder, "encode", checked)
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "fullchain.scen"
    run_scenario(load_scenario(scenario.read_text("utf-8")), tmp_path / "data")
    assert documents and not found


def test_no_source_branches_on_tuple():
    # a branch on isinstance(x, tuple) would now also take every TagCode;
    # a new one must be checked for that first, then listed here
    source = Path(semantics.__file__).parent
    branches = []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")
                and len(node.args) == 2
                and "tuple" in ast.dump(node.args[1])
            ):
                branches.append(f"{path.name}:{node.lineno}")
    assert branches == []


def test_private_range_is_odd_group():
    assert TagCode(0x0009, 0x0001).is_private
    assert TagCode(0x000B, 0x0020).is_private
    assert not TagCode(0x0008, 0x0001).is_private
    assert not TagCode(0x0007, 0x0001).is_private  # below the private floor


@pytest.mark.parametrize(
    "vr,mult,value,raw",
    [
        (ValueRep.IDSTR, "1", "ORD-7", b"ORD-7"),
        (ValueRep.TEXT, "1", "weld seam 3", b"weld seam 3"),
        (ValueRep.DATETIME, "1", "20200101T000000", b"20200101T000000"),
        (ValueRep.U16, "1", 512, struct.pack("<H", 512)),
        (ValueRep.F32ARRAY, "N", (1.5, -2.0), struct.pack("<2f", 1.5, -2.0)),
        (ValueRep.BYTES, "1", b"\x00\xff", b"\x00\xff"),
    ],
)
def test_interpret_encode_inverse(vr, mult, value, raw):
    definition = TagDefinition(TagCode(0x0050, 0x0001), "t", vr, multiplicity=mult)
    assert encode_value(definition, value) == raw
    assert interpret(definition, raw) == value


def test_encode_multiplicity_n_requires_iterable():
    definition = TagDefinition(
        TagCode(0x0050, 0x0002), "t", ValueRep.U16, multiplicity="N"
    )
    with pytest.raises(EncodingError):
        encode_value(definition, 512)


def test_u16_length_mismatch():
    definition = TagDefinition(TagCode(0x0040, 0x0001), "grid_rows", ValueRep.U16)
    with pytest.raises(ValueLengthMismatch):
        interpret(definition, b"\x01")
    with pytest.raises(ValueLengthMismatch):
        interpret(definition, b"\x01\x00\x00\x00")


def test_f32_length_mismatch():
    definition = TagDefinition(
        TagCode(0x0040, 0x0003), "grid", ValueRep.F32ARRAY, multiplicity="N"
    )
    with pytest.raises(ValueLengthMismatch):
        interpret(definition, b"\x00\x00\x00")


def test_encode_rejects_wrong_types():
    u16 = TagDefinition(TagCode(0x0040, 0x0001), "rows", ValueRep.U16)
    with pytest.raises(EncodingError):
        encode_value(u16, -1)
    with pytest.raises(EncodingError):
        encode_value(u16, 0x1_0000)
    text = TagDefinition(TagCode(0x0008, 0x0001), "uid", ValueRep.IDSTR)
    with pytest.raises(EncodingError):
        encode_value(text, 42)


def test_datetime_values_are_checked():
    definition = TagDefinition(TagCode(0x0008, 0x0002), "at", ValueRep.DATETIME)
    with pytest.raises(EncodingError):
        encode_value(definition, "not-a-datetime!")
    with pytest.raises(ValueLengthMismatch):
        interpret(definition, b"short")


def test_lookup_standard_private_unknown():
    assert isinstance(lookup(DICT_V1, TAG_OBJECT_UID), TagDefinition)
    assert isinstance(lookup(DICT_V1, TagCode(0x0009, 0x0001)), PrivateTag)
    with pytest.raises(UnknownStandardTag):
        lookup(DICT_V1, TagCode(0x0050, 0x0099))


def test_dictionary_extend_bumps_version():
    new_def = TagDefinition(TagCode(0x0050, 0x0001), "gain_db", ValueRep.F32ARRAY)
    extended = DICT_V1.extend([new_def])
    assert extended.version == DICT_V1.version + 1
    assert extended.get(new_def.code) == new_def
    assert DICT_V1.get(new_def.code) is None  # original untouched
    # extension is superset-only
    with pytest.raises(DuplicateDefinition):
        extended.extend([new_def])


def test_validate_clean_object_has_no_blocking_findings():
    report = validate_object(DICT_V1, make_object())
    assert not report.blocking
    assert report.ok or all(f.severity == "info" for f in report.findings)


def test_validate_flags_unknown_standard_tag():
    obj = make_object(extra={TagCode(0x0050, 0x0099): b"??"})
    report = validate_object(DICT_V1, obj)
    assert UNKNOWN_STANDARD_TAG in report.kinds()


def test_validate_reports_private_tag_as_info():
    obj = make_object(extra={TagCode(0x0009, 0x0001): b"vendor"})
    report = validate_object(DICT_V1, obj)
    info = [f for f in report.findings if f.kind == PRIVATE_TAG]
    assert len(info) == 1
    assert info[0].severity == "info"
    assert not report.blocking


def test_validate_flags_bad_u16_length():
    obj = make_object(extra={TAG_GRID_ROWS: b"\x01\x00\x02\x00"})
    report = validate_object(DICT_V1, obj)
    kinds = {f.kind for f in report.findings if f.code == TAG_GRID_ROWS}
    assert kinds & {VALUE_REP_MISMATCH, MULTIPLICITY_VIOLATION}


def test_validate_flags_bad_method_vocabulary():
    obj = make_object(extra={TAG_METHOD_CODE: b"XX"})
    report = validate_object(DICT_V1, obj)
    assert any(
        f.kind == VALUE_REP_MISMATCH and f.code == TAG_METHOD_CODE
        for f in report.findings
    )


def test_validate_flags_missing_mandatory():
    from nde4.archive import DataObject

    obj = DataObject.from_values({TAG_CREATED_AT: b"20200101T000000"})
    report = validate_object(DICT_V1, obj)
    missing = {f.code for f in report.findings if f.kind == MISSING_MANDATORY}
    assert missing == set(MANDATORY_TAGS)


def test_validate_flags_bad_datetime_value():
    obj = make_object(extra={TAG_CREATED_AT: b"20209901T000000"})
    report = validate_object(DICT_V1, obj)
    assert any(
        f.kind == VALUE_REP_MISMATCH and f.code == TAG_CREATED_AT
        for f in report.findings
    )


def test_grid_tag_accepts_many_floats():
    grid = struct.pack("<6f", *[1.0] * 6)
    obj = make_object(extra={TAG_AMPLITUDE_GRID: grid})
    report = validate_object(DICT_V1, obj)
    assert not any(f.code == TAG_AMPLITUDE_GRID for f in report.blocking)


def test_dictionary_tsv_round_trip():
    text = dump_dictionary_tsv(DICT_V1)
    loaded = load_dictionary_tsv(text, DICT_V1.version)
    assert loaded.definitions == DICT_V1.definitions
    assert loaded.version == DICT_V1.version


def test_packaged_dictionary_matches_compiled_in():
    text = (
        importlib.resources.files("nde4") / "data" / "dict-v1.tsv"
    ).read_text("utf-8")
    assert text == dump_dictionary_tsv(DICT_V1)


def test_packaged_dictionary_defines_every_code_the_code_names():
    # validate_object names an absent mandatory tag by DICT_V1's entry
    constants = {
        name: code for name, code in vars(semantics).items() if name.startswith("TAG_")
    }
    assert constants
    for name, code in constants.items():
        assert DICT_V1.get(code).name == name.removeprefix("TAG_").lower()
    assert all(DICT_V1.get(code) is not None for code in MANDATORY_TAGS)


@pytest.mark.parametrize(
    "token,ok",
    [
        ("ORD-7", True),
        ("obj-1a2b3c", True),
        ("a", True),
        ("A.b_c-d", True),
        ("", False),
        (".lead", False),
        ("špatný", False),
        ("with space", False),
        ("x" * 64, True),
        ("x" * 65, False),
    ],
)
def test_id_token_rules(token, ok):
    assert is_id_token(token) is ok
