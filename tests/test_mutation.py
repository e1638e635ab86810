"""Seeded mutation oracle over every decoder and both request wires.

Each input is a valid document cut short, with a byte flipped, with a slice
of itself spliced in, or with one JSON value swapped for a value of another
type, dropped, or joined by an unknown key. Every JSON document also yields
the standard mutants: one of its numbers (else one value) swapped for
nesting past the recursion limit, an int past the digit limit, bytes that
are not UTF-8, `NaN`, or `1e400`. No reader of outside JSON takes these.

Decoder rule: a decoder refuses the input with its declared error, or
accepts it. An accepted input is no standard mutant, re-encodes to the same
JSON (keys the decoder fills with their documented defaults aside), decodes
again to the same value, and every field holds its annotated type.

Wire rule: `ArchiveWire.request` and `Connector.request` answer every
mutated body with a payload and never raise; an ERROR or DENY code is
`MalformedRequest` or the name of an `Nde4Error`, and a standard mutant is
answered `MalformedRequest`.

Client rule: whatever a peer answers, `Connector.offer`, `accept`, `consume`
and `forward` return or raise an `Nde4Error`; a standard mutant in any
answer body or DATA header raises, and so does an answer that names
another contract than the one asked about; a failed consume caches no
bytes and audits a DENY.

CLI rule: `nde4 sim run`, `validate shell` and `validate object`, run
in-process through `cli.main` on a mutated input file, exit 0, 1 or 3 and
print no traceback.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import struct
import types
import typing
from pathlib import Path

import pytest

from conftest import StubPeer, make_object, station_id, station_manifest
from nde4.archive import (
    OP_FETCH,
    OP_QUERY,
    OP_STORE,
    Archive,
    ArchiveWire,
    ChainRecord,
    DataObject,
    Element,
    decode_object,
    encode_object,
    parse_chain_line,
)
from nde4.cli import main
from nde4.errors import Nde4Error
from nde4.framing import (
    OP_ERROR,
    Channel,
    Frame,
    JsonTypeError,
    canonical_json,
    decode_frame,
    encode_frame,
    error_payload,
)
from nde4.identity import TypeId
from nde4.messages import (
    InspectionOrder,
    MalformedMessage,
    Message,
    OrderState,
    ReportedValues,
    StatusEvent,
    Verdict,
    decode_message,
    encode_message,
)
from nde4.plantsim import ConfigInvalid, ScenarioConfig, load_scenario
from nde4.registry import (
    DataRef,
    Manifest,
    ManifestBody,
    ManifestHeader,
    dump_manifest,
    load_manifest,
    manifest_to_dict,
)
from nde4.semantics import TagCode
from nde4.sovereignty import (
    DENY,
    OP_ACCEPT,
    OP_CONSUME,
    OP_DATA,
    OP_DENY,
    OP_FORWARD,
    OP_OFFER,
    Connector,
    UsagePolicy,
    _policy_to_wire,
    policy_from_wire,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# JSON values a mutation swaps in; each one is of another type than some
# value in every seed document
OTHER_VALUES = (None, True, 0, -3, 7, 1.5, "", "x", [], ["x"], {}, {"x": 1})

# value texts no reader of outside JSON takes: too deep, an int past the
# digit limit, not UTF-8, and two numbers that are not finite
STANDARD_VALUES = (b"[" * 100_000, b"7" * 5000, b'"\xff"', b"NaN", b"1e400")
_SLOT = "standard-mutant-slot"
STANDARD: set[bytes] = set()  # every standard mutant made so far


# --- mutations -----------------------------------------------------------------

def byte_mutants(rng: random.Random, data: bytes, count: int) -> list[bytes]:
    """Truncations, single-byte flips and self-splices of `data`."""
    mutants = []
    for _ in range(count):
        how = rng.randrange(3)
        if how == 0:
            mutants.append(data[: rng.randrange(len(data))])
        elif how == 1:
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
            mutants.append(bytes(flipped))
        else:
            start, end = sorted(rng.sample(range(len(data) + 1), 2))
            at = rng.randrange(len(data) + 1)
            mutants.append(data[:at] + data[start:end] + data[at:])
    return mutants


def _nodes(value, path=()):
    yield path, value
    if type(value) is dict:
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


def _at(document, path):
    for step in path:
        document = document[step]
    return document


def json_mutants(rng: random.Random, document, count: int) -> list:
    """Copies of `document` with one value swapped for another type, one key
    or list entry dropped, or one unknown key added to an object."""
    mutants = []
    for _ in range(count):
        mutant = copy.deepcopy(document)
        nodes = list(_nodes(mutant))
        how = rng.randrange(3)
        if how == 2:
            objects = [value for _, value in nodes if type(value) is dict]
            rng.choice(objects)["unknownKey"] = copy.deepcopy(rng.choice(OTHER_VALUES))
        elif len(nodes) == 1:
            mutant = copy.deepcopy(rng.choice(OTHER_VALUES))
        else:
            path, value = rng.choice(nodes[1:])
            parent = _at(mutant, path[:-1])
            if how == 1:
                del parent[path[-1]]
            else:
                others = [v for v in OTHER_VALUES if type(v) is not type(value)]
                parent[path[-1]] = copy.deepcopy(rng.choice(others))
        mutants.append(mutant)
    return mutants


def standard_mutants(data: bytes) -> list[bytes]:
    """`data` with its first float, else its first int, else its first value,
    else all of it, swapped for each of STANDARD_VALUES. Where a decoder
    takes a number, only the reader's own rule refuses the swapped value."""
    document = json.loads(data)
    nodes = list(_nodes(document))
    numbers = [path for kind in (float, int) for path, value in nodes if type(value) is kind]
    path = (numbers + [path for path, _ in nodes[1:]] + [()])[0]
    if path:
        _at(document, path[:-1])[path[-1]] = _SLOT
    else:
        document = _SLOT
    text = json.dumps(document).encode()
    mutants = [text.replace(json.dumps(_SLOT).encode(), value) for value in STANDARD_VALUES]
    STANDARD.update(mutants)
    return mutants


def standard(data: bytes | str) -> bool:
    """Whether `data`, or the UTF-8 of a text decoder's input, is a standard
    mutant. A non-UTF-8 mutant read as text with replacement is not one."""
    if type(data) is str:
        data = data.encode()
    return type(data) is bytes and data in STANDARD


def document_mutants(rng: random.Random, data: bytes, count: int) -> list[bytes]:
    """Byte mutants, JSON mutants and standard mutants of one JSON
    document's bytes."""
    return byte_mutants(rng, data, count) + [
        json.dumps(mutant).encode()
        for mutant in json_mutants(rng, json.loads(data), count)
    ] + standard_mutants(data)


# --- the decoder rule --------------------------------------------------------------

def holds(value, hint) -> bool:
    """Whether `value` holds the annotated type `hint`, nested dataclass and
    NamedTuple fields included; an int is no float and a bool is no int."""
    origin, arguments = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(holds(value, argument) for argument in arguments)
    if origin in (tuple, frozenset, list):
        if type(value) is not origin:
            return False
        if origin is tuple and arguments[-1] is not Ellipsis:
            return len(value) == len(arguments) and all(map(holds, value, arguments))
        return all(holds(item, arguments[0]) for item in value)
    if origin is not None:
        return type(value) is origin
    if hint in (bool, int, float, str, bytes, dict, type(None)):
        return type(value) is hint
    if not isinstance(value, hint):
        return False
    if dataclasses.is_dataclass(hint):
        names = [f.name for f in dataclasses.fields(hint)]
    else:  # a NamedTuple (TagCode, Element) names its fields in _fields
        names = getattr(hint, "_fields", ())
    hints = typing.get_type_hints(hint) if names else {}
    return all(holds(getattr(value, name), hints[name]) for name in names)


def test_holds_checks_named_tuple_fields():
    code = TagCode(0x0008, 0x0001)
    assert holds(Element(code, b"x"), Element)
    assert not holds(Element((0x0008, 0x0001), b"x"), Element)  # a pair, no TagCode
    assert not holds(Element(code, "x"), Element)
    assert not holds(tuple.__new__(TagCode, (0x0008, 1.0)), TagCode)
    assert not holds(DataObject((Element(code, bytearray(b"x")),)), DataObject)


def covers(encoded, original) -> bool:
    """`encoded` keeps every key and value of `original`, each of the same
    JSON type (an int given for a float reads back as that float); keys only
    in `encoded` are defaults the decoder filled in."""
    if type(original) is dict:
        return type(encoded) is dict and all(
            key in encoded and covers(encoded[key], value)
            for key, value in original.items()
        )
    if type(original) is list:
        return (
            type(encoded) is list
            and len(encoded) == len(original)
            and all(map(covers, encoded, original))
        )
    if type(original) is int and type(encoded) is float:
        return encoded == original
    return type(encoded) is type(original) and encoded == original


def check_decoder(decode, declared, reencode, inputs, hint) -> int:
    """Apply the decoder rule to every input; returns how many decoded.
    `reencode(value, data)` says whether the value re-encodes to `data`."""
    accepted = 0
    for data in inputs:
        try:
            value = decode(data)
        except declared:
            continue
        except Exception as exc:  # reported with the input that raised it
            pytest.fail(f"{data!r} raised {type(exc).__name__}: {exc}")
        accepted += 1
        assert not standard(data), (data, value)
        assert holds(value, hint), (data, value)
        assert reencode(value, data), (data, value)
    return accepted


def same_json(encode, decode):
    """Re-encode check for a JSON decoder: the encoded value covers the
    input document and decodes back to the same value."""

    def reencode(value, data) -> bool:
        encoded = encode(value)
        return decode(encoded) == value and covers(
            json.loads(encoded) if type(encoded) in (bytes, str) else encoded,
            json.loads(data) if type(data) in (bytes, str) else data,
        )

    return reencode


ORDER = InspectionOrder(
    "ORD-7", "SN-1", TypeId("acme", "pipe-weld"), "proc-1", "20200301T000000",
    5, station_id(),
)
MESSAGES = (
    ORDER,
    dataclasses.replace(ORDER, priority=0, station=None),
    StatusEvent("ORD-7", OrderState.ASSIGNED, "20200101T000100"),
    ReportedValues("ORD-7", Verdict.REJECT, 2, 61.5, ("obj-1", "obj-2"),
                   payload_ref="obj-3"),
    ReportedValues("ORD-8", Verdict.ACCEPT, 0, None, (), notes="ok"),
)


def test_decode_frame_mutants():
    rng = random.Random(1701)
    seeds = [encode_frame(channel, b'{"kind":"ack"}') for channel in Channel]
    seeds.append(encode_frame(Channel.ARCHIVE, b""))
    inputs = [m for seed in seeds for m in byte_mutants(rng, seed, 150)]
    accepted = check_decoder(
        decode_frame, Nde4Error,
        lambda frame, data: encode_frame(frame.channel, frame.payload) == data,
        inputs, Frame,
    )
    assert 0 < accepted < len(inputs)


def test_decode_message_mutants():
    rng = random.Random(1702)
    inputs = [
        m for message in MESSAGES
        for m in document_mutants(rng, encode_message(message), 60)
    ]
    accepted = check_decoder(
        decode_message, MalformedMessage,
        same_json(encode_message, decode_message), inputs, Message,
    )
    assert 0 < accepted < len(inputs)


def test_decode_object_mutants():
    rng = random.Random(1703)
    seeds = [
        encode_object(make_object()),
        encode_object(make_object(extra={TagCode(0x0009, 0x0001): b"\xff\x00"})),
    ]
    inputs = [m for seed in seeds for m in byte_mutants(rng, seed, 200)]
    accepted = check_decoder(
        decode_object, Nde4Error,
        lambda obj, data: encode_object(obj) == data,
        inputs, DataObject,
    )
    assert 0 < accepted < len(inputs)


def test_parse_chain_line_mutants():
    rng = random.Random(1704)
    seeds = [
        ChainRecord(0, "obj-1", bytes(range(32)), bytes(32), "20200101T000000").line(),
        ChainRecord(12, "Obj_9.z-1", bytes(32), bytes([7]) * 32, "20200101T000009").line(),
    ]
    inputs = [
        m.decode("utf-8", "replace")
        for seed in seeds for m in byte_mutants(rng, seed.encode(), 150)
    ]
    accepted = check_decoder(
        parse_chain_line, ValueError,
        lambda record, line: record.line() == line,
        inputs + seeds, ChainRecord,
    )
    assert accepted >= len(seeds)


def test_load_manifest_mutants():
    rng = random.Random(1705)
    full = station_manifest(station_id(), ("UT", "RT"))
    full = Manifest(
        ManifestHeader(full.header.shell_type_id, full.header.asset_instance_id, "cell 1"),
        ManifestBody(
            (DataRef(TagCode(0x0040, 0x0003), "archive:obj-1"),),
            full.body.service_descs,
            (station_id("unit-2"),),
        ),
    )
    seeds = [dump_manifest(full), dump_manifest(Manifest(ManifestHeader()))]
    inputs = [
        m.decode("utf-8", "replace")
        for seed in seeds for m in document_mutants(rng, seed.encode(), 80)
    ]
    accepted = check_decoder(
        load_manifest, ValueError,
        same_json(manifest_to_dict, lambda d: load_manifest(json.dumps(d))),
        inputs, Manifest,
    )
    assert 0 < accepted < len(inputs)


def test_load_scenario_mutants():
    rng = random.Random(1706)
    inputs = [
        m.decode("utf-8", "replace")
        for name in ("demo.scen", "fullchain.scen")
        for m in document_mutants(rng, (SCENARIO_DIR / name).read_bytes(), 60)
    ]
    # a scenario has no encoder: the rule checks the annotated types only
    accepted = check_decoder(
        load_scenario, ConfigInvalid, lambda config, text: True,
        inputs, ScenarioConfig,
    )
    assert 0 < accepted < len(inputs)


def test_policy_from_wire_mutants():
    rng = random.Random(1707)
    seeds = [
        _policy_to_wire(UsagePolicy()),
        _policy_to_wire(UsagePolicy(3, "20200102T000000", True, "audit")),
    ]
    inputs = [m for seed in seeds for m in json_mutants(rng, seed, 150)]
    accepted = check_decoder(
        policy_from_wire, JsonTypeError,
        same_json(_policy_to_wire, policy_from_wire), inputs, UsagePolicy,
    )
    assert 0 < accepted < len(inputs)


# --- probes: values the ORDERS decoder used to take --------------------------------

def _document(message) -> dict:
    return json.loads(encode_message(message))


@pytest.mark.parametrize(
    "message,change",
    [
        (ORDER, {"orderId": 5}),
        (ORDER, {"priority": "high"}),
        (ORDER, {"due": 7}),
        (ORDER, {"unknownKey": 1}),
        (ORDER, {"station": ""}),
        (MESSAGES[3], {"archivedRefs": "abc"}),
        (MESSAGES[3], {"indicationCount": "x"}),
        (MESSAGES[3], {"maxAmplitude": 10**400}),  # an int no float holds
        (MESSAGES[3], {"reviewer": "x"}),
        (MESSAGES[2], {"orderId": ["x"], "at": None}),
    ],
)
def test_decode_message_refuses_naming_the_key(message, change):
    payload = canonical_json({**_document(message), **change})
    with pytest.raises(MalformedMessage) as info:
        decode_message(payload)
    assert any(key in str(info.value) for key in change), str(info.value)


# --- the wire rule -----------------------------------------------------------------

def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def check_wire(request, payloads) -> set[str]:
    """Apply the wire rule to every payload; returns the codes answered."""
    codes = {cls.__name__ for cls in _subclasses(Nde4Error)}
    codes.add("MalformedRequest")
    answered = set()
    for payload in payloads:
        try:
            response = request(payload)
        except Exception as exc:  # reported with the payload that raised it
            pytest.fail(f"{payload!r} raised {type(exc).__name__}: {exc}")
        assert type(response) is bytes and response, payload
        code = None
        if response[0] in (OP_ERROR, OP_DENY):
            code = json.loads(response[1:])["code"]
            assert code in codes, (payload, response)
            answered.add(code)
        if standard(payload[1:]):
            assert response[0] == OP_ERROR and code == "MalformedRequest", payload
    return answered


def test_archive_wire_mutants(store):
    rng = random.Random(1708)
    store.store(make_object(uid="obj-1"))
    wire = ArchiveWire(store)
    seeds = {
        OP_STORE: [encode_object(make_object(uid="obj-2"))],
        OP_FETCH: [b'{"uid":"obj-1"}'],
        OP_QUERY: [b'{"componentSerial":"SN-1","method":"UT","orderId":"ORD-7"}', b"{}"],
    }
    payloads = [
        bytes([opcode]) + body
        for opcode, bodies in seeds.items() for seed in bodies
        for body in (
            byte_mutants(rng, seed, 150) if opcode == OP_STORE
            else document_mutants(rng, seed, 80)
        )
    ]
    assert "MalformedRequest" in check_wire(wire.request, payloads)


def test_sovereign_wire_mutants(tmp_path, clock):
    rng = random.Random(1709)
    archive = Archive(tmp_path / "data", clock)
    archive.store(make_object(uid="obj-1"))
    frames: list[bytes] = []
    steel = station_id("steel")
    forge = station_id("forge")
    provider = Connector("steel", steel, clock, archive=archive, taps=[frames.append])
    consumer = Connector("forge", forge, clock, taps=[frames.append])
    provider.link(consumer)
    contract_id = provider.offer(forge, "obj-1", UsagePolicy(allow_forward=True))
    consumer.accept(contract_id)
    consumer.consume(contract_id)
    with pytest.raises(Nde4Error):
        consumer.forward(contract_id, station_id("aero"), UsagePolicy(max_reads=2))
    # every second tapped frame is a request: opcode byte, then the body
    requests = [decode_frame(frame).payload for frame in frames[::2]]
    assert sorted({payload[0] for payload in requests}) == [0x11, 0x12, 0x13, 0x15]
    payloads = [
        payload[:1] + body
        for payload in requests
        for body in document_mutants(rng, payload[1:], 60)
    ]
    answered = check_wire(provider.request, payloads) | check_wire(consumer.request, payloads)
    assert "MalformedRequest" in answered


# --- the client rule ---------------------------------------------------------------

def _data(header: bytes, object_bytes: bytes) -> bytes:
    """A DATA answer: opcode, header length, header JSON, object bytes."""
    return bytes([OP_DATA]) + struct.pack("<I", len(header)) + header + object_bytes


def test_client_reads_mutated_answers(tmp_path, clock):
    rng = random.Random(1710)
    archive = Archive(tmp_path / "data", clock)
    archive.store(make_object(uid="obj-1"))
    peer = StubPeer(station_id("steel"))
    object_bytes = encode_object(make_object(uid="obj-1"))
    # each call is made by a fresh client: its first offer is `offered`, and
    # it accepts, consumes and forwards the peer's contract `mirrored`
    offered, mirrored = "ctr-forge-1", "ctr-steel-1"
    header = canonical_json({"contractId": mirrored, "exhausted": False})
    bodies = {
        OP_OFFER: {"contractId": offered},
        OP_ACCEPT: {"contractId": mirrored, "state": "ACTIVE"},
        OP_FORWARD: {"contractId": mirrored, "objectUid": "obj-1",
                     "origin": str(peer.owner), "policy": {"maxReads": 1}},
    }
    valid = {op: bytes([op]) + canonical_json(body) for op, body in bodies.items()}
    valid[OP_CONSUME] = _data(header, object_bytes)
    calls = {
        OP_OFFER: lambda client: client.offer(peer.owner, "obj-1", UsagePolicy()),
        OP_ACCEPT: lambda client: client.accept(mirrored),
        OP_CONSUME: lambda client: client.consume(mirrored),
        OP_FORWARD: lambda client: client.forward(mirrored, peer.owner),
    }
    refusals = [error_payload("WrongState", mirrored),
                error_payload("ForwardProhibited", mirrored, OP_DENY)]
    # answers each call must refuse: no key, a code of the wrong type, no
    # header length, a header that is not JSON, no payload, another opcode,
    # a view-once read of bytes that do not decode, an answer about another
    # contract, and, added below, every answer body or DATA header that is a
    # standard mutant
    other = {"contractId": "ctr-steel-2"}
    unreadable = {
        OP_FORWARD: [bytes([OP_FORWARD]) + b"{}",
                     bytes([OP_FORWARD]) + canonical_json({**bodies[OP_FORWARD], **other})],
        OP_ACCEPT: [bytes([OP_ERROR]) + b'{"code":[1]}', valid[OP_OFFER],
                    bytes([OP_ACCEPT]) + canonical_json({**bodies[OP_ACCEPT], **other})],
        OP_CONSUME: [bytes([OP_DATA, 1, 0]), bytes([OP_DATA, 1, 0, 0, 0]) + b"x",
                     _data(canonical_json({"contractId": mirrored, "exhausted": True}), b"junk"),
                     _data(canonical_json({**other, "exhausted": False}), object_bytes)],
        OP_OFFER: [b"", valid[OP_CONSUME], bytes([OP_OFFER]) + canonical_json(other)],
    }
    answers = {op: [payload] + byte_mutants(rng, payload, 60) for op, payload in valid.items()}

    def add(op: int, body: bytes, answer: bytes) -> None:
        (unreadable if standard(body) else answers)[op].append(answer)

    for op, body in bodies.items():
        for m in document_mutants(rng, canonical_json(body), 40):
            add(op, m, bytes([op]) + m)
    for m in document_mutants(rng, header, 40):
        add(OP_CONSUME, m, _data(m, object_bytes))
    for op in calls:
        answers[op] += refusals
        for payload in refusals:
            for m in document_mutants(rng, payload[1:], 20):
                add(op, m, payload[:1] + m)
    outcomes = {"returned": 0, "raised": 0}
    for op, call in calls.items():
        for payload in answers[op] + unreadable[op]:
            peer.answers = {**valid, op: payload}
            client = Connector("forge", station_id("forge"), clock, archive=archive)
            client.link(peer)
            peer.offer(client, mirrored)
            try:
                call(client)
            except Nde4Error:
                outcomes["raised"] += 1
                if op == OP_CONSUME:
                    assert not client.cached(mirrored), payload
                    assert client.audit_events(mirrored)[-1].action == DENY, payload
                continue
            except Exception as exc:  # reported with the answer that raised it
                pytest.fail(f"{op:#x} answered {payload!r} raised {type(exc).__name__}: {exc}")
            assert payload not in unreadable[op], (op, payload)
            outcomes["returned"] += 1
    assert outcomes["returned"] and outcomes["raised"]


# --- the CLI rule ------------------------------------------------------------------

def test_cli_exits_cleanly_on_mutated_input_files(tmp_path, capsys):
    rng = random.Random(1711)
    manifest = dump_manifest(station_manifest(station_id(), ("UT", "RT"))).encode()
    inputs = {
        "sim": [m for name in ("demo.scen", "fullchain.scen")
                for m in document_mutants(rng, (SCENARIO_DIR / name).read_bytes(), 30)],
        "shell": document_mutants(rng, manifest, 60),
        "object": byte_mutants(rng, encode_object(make_object()), 300),
    }
    exits = {}
    for command, files in inputs.items():
        for n, data in enumerate(files):
            path = tmp_path / f"{command}-{n}"
            path.write_bytes(data)
            argv = {
                "sim": ["sim", "run", "--scenario", str(path), "--out", str(tmp_path / "out")],
                "shell": ["validate", "shell", "--file", str(path)],
                "object": ["validate", "object", "--file", str(path)],
            }[command]
            try:
                code = main(argv)
            except BaseException as exc:  # SystemExit too: argv is well formed
                pytest.fail(f"{argv} on {data!r} raised {type(exc).__name__}: {exc}")
            out, err = capsys.readouterr()
            assert code in (0, 1, 3), (argv, data, code)
            assert "Traceback" not in out + err, (argv, data)
            exits.setdefault(command, set()).add(code)
    # each command both ran to its end and refused some inputs
    assert all(0 in codes and 3 in codes for codes in exits.values()), exits
