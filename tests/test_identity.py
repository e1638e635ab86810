from __future__ import annotations

import random
import string

import pytest

from nde4.identity import (
    InstanceId,
    MalformedToken,
    ParseError,
    TypeId,
    mint_instance_id,
    mint_type_id,
    parse_id,
)

NAME_HEAD = string.ascii_lowercase + string.digits
NAME_TAIL = NAME_HEAD + "-"
SERIAL_HEAD = string.ascii_letters + string.digits
SERIAL_TAIL = SERIAL_HEAD + "-"


def test_type_id_round_trip():
    tid = mint_type_id("acme", "ut-scanner")
    assert str(tid) == "urn:nde4:type:acme:ut-scanner"
    assert parse_id(str(tid)) == tid


def test_instance_id_round_trip():
    tid = mint_type_id("acme", "drill")
    iid = mint_instance_id(tid, "25")
    assert str(iid) == "urn:nde4:inst:acme:drill:25"
    parsed = parse_id(str(iid))
    assert parsed == iid
    assert parsed.type_id == tid


def _token(rng, head, tail):
    return rng.choice(head) + "".join(
        rng.choice(tail) for _ in range(rng.randint(0, 11))
    )


def test_parse_many_random_tokens():
    rng = random.Random(1001)
    for _ in range(300):
        ns = _token(rng, NAME_HEAD, NAME_TAIL)
        name = _token(rng, NAME_HEAD, NAME_TAIL)
        serial = _token(rng, SERIAL_HEAD, SERIAL_TAIL)
        iid = mint_instance_id(mint_type_id(ns, name), serial)
        assert parse_id(str(iid)) == iid


@pytest.mark.parametrize(
    "bad",
    ["", "weld gap", "a/b", "x" * 65, ".hidden", "-lead", "ümlaut", "a_b"],
)
def test_mint_rejects_bad_tokens(bad):
    with pytest.raises(MalformedToken):
        mint_type_id(bad, "name")
    with pytest.raises(MalformedToken):
        mint_type_id("ns", bad)
    with pytest.raises(MalformedToken):
        mint_instance_id(mint_type_id("ns", "name"), bad)


def test_name_tokens_are_lowercase_only():
    with pytest.raises(MalformedToken):
        mint_type_id("Acme", "scanner")
    # serials keep real-world mixed case
    assert mint_instance_id(mint_type_id("acme", "disc"), "SN-331")


@pytest.mark.parametrize(
    "text",
    [
        "urn:other:type:a:b",
        "urn:nde4:bogus:a:b",
        "urn:nde4:type:a",
        "urn:nde4:type:a:b:c",
        "urn:nde4:inst:a:b",
        "urn:nde4:type::b",
        "urn:nde4:inst:a:b:",
        "not a urn at all",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_id(text)


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as info:
        parse_id("urn:nde4:type:acme:bad token")
    assert info.value.offset > 0
    assert "at byte" in str(info.value)


def test_ids_order_by_canonical_text():
    ids = [
        mint_type_id("b", "x"),
        mint_type_id("a", "y"),
        mint_instance_id(mint_type_id("a", "y"), "2"),
        mint_instance_id(mint_type_id("a", "y"), "10"),
    ]
    ordered = sorted(ids)
    assert [str(i) for i in ordered] == sorted(str(i) for i in ids)


def test_type_vs_instance_identity():
    tid = mint_type_id("acme", "drill")
    i1 = mint_instance_id(tid, "25")
    i2 = mint_instance_id(tid, "26")
    assert i1 != i2
    assert i1.type_id == i2.type_id
    assert i1 != tid


def test_ids_are_hashable_and_frozen():
    tid = mint_type_id("acme", "drill")
    iid = mint_instance_id(tid, "25")
    assert len({tid, iid, mint_type_id("acme", "drill")}) == 2
    with pytest.raises(AttributeError):
        tid.namespace = "other"


@pytest.mark.parametrize(
    "serial", ["unit.1", "", "x" * 65, "-lead", "a b", "a:b", "ümlaut", "a_b"]
)
def test_instance_id_refuses_any_serial_parse_id_refuses(serial):
    with pytest.raises(ParseError):
        parse_id(f"urn:nde4:inst:acme:x:{serial}")
    with pytest.raises(MalformedToken):
        InstanceId(TypeId("acme", "x"), serial)
    with pytest.raises(MalformedToken):
        mint_instance_id(TypeId("acme", "x"), serial)


@pytest.mark.parametrize("token", ["Acme", "x y", "x" * 65, "", "-lead", "a:b", "a_b"])
def test_type_id_refuses_any_token_parse_id_refuses(token):
    with pytest.raises(ParseError):
        parse_id(f"urn:nde4:type:{token}:x")
    with pytest.raises(ParseError):
        parse_id(f"urn:nde4:type:acme:{token}")
    with pytest.raises(MalformedToken):
        TypeId(token, "x")
    with pytest.raises(MalformedToken):
        TypeId("acme", token)
    with pytest.raises(MalformedToken):
        mint_type_id(token, "x")


def test_parse_error_offset_points_at_the_serial():
    with pytest.raises(ParseError) as info:
        parse_id("urn:nde4:inst:acme:x:unit.1")
    assert info.value.offset == len("urn:nde4:inst:acme:x:")
