from __future__ import annotations

import json
import random

import pytest

from nde4.identity import InstanceId, TypeId, parse_id
from nde4.registry import (
    CycleDetected,
    DANGLING_CHILD,
    DataRef,
    DUPLICATE_BODY_ENTRY,
    DuplicateInstance,
    InvalidManifest,
    MANIFEST_FILE_SUFFIX,
    Manifest,
    ManifestBody,
    ManifestHeader,
    MISSING_HEADER_ID,
    Registry,
    ServiceDesc,
    UNKNOWN_SEMANTIC_TAG,
    UnknownShell,
    dump_manifest,
    load_manifest,
    manifest_to_dict,
    validate_manifest,
)
from nde4.semantics import TAG_AMPLITUDE_GRID, TAG_ORDER_ID, TagCode


def shell(ns: str, name: str, serial: str, body: ManifestBody | None = None) -> Manifest:
    tid = TypeId(ns, name)
    return Manifest(
        ManifestHeader(tid, InstanceId(tid, serial), f"{name} {serial}"),
        body or ManifestBody(),
    )


def test_register_and_resolve():
    registry = Registry()
    manifest = shell("acme", "ut-scanner", "unit-7")
    instance = registry.register_shell(manifest)
    assert registry.resolve(instance) is manifest
    assert registry.list_shells() == (instance,)


def test_duplicate_instance_rejected():
    registry = Registry()
    registry.register_shell(shell("acme", "ut-scanner", "unit-7"))
    with pytest.raises(DuplicateInstance):
        registry.register_shell(shell("acme", "ut-scanner", "unit-7"))


def test_missing_header_id_blocks_registration():
    manifest = Manifest(ManifestHeader(TypeId("acme", "x"), None), ManifestBody())
    report = validate_manifest(manifest)
    assert MISSING_HEADER_ID in report.kinds()
    with pytest.raises(InvalidManifest) as info:
        Registry().register_shell(manifest)
    assert MISSING_HEADER_ID in info.value.report.kinds()


def test_duplicate_body_entries_flagged():
    ref = DataRef(TAG_ORDER_ID, "obj-1")
    desc = ServiceDesc("inspect-ut", (TAG_ORDER_ID,), (TAG_AMPLITUDE_GRID,))
    manifest = shell(
        "acme", "ut-scanner", "u1", ManifestBody((ref, ref), (desc, desc))
    )
    report = validate_manifest(manifest)
    assert DUPLICATE_BODY_ENTRY in report.kinds()
    with pytest.raises(InvalidManifest):
        Registry().register_shell(manifest)


def test_unknown_semantic_tag_flagged():
    manifest = shell(
        "acme",
        "ut-scanner",
        "u1",
        ManifestBody(data_refs=(DataRef(TagCode(0x0050, 0x0099), "obj-1"),)),
    )
    report = validate_manifest(manifest)
    assert UNKNOWN_SEMANTIC_TAG in report.kinds()


def test_private_tag_in_body_is_allowed():
    manifest = shell(
        "acme",
        "ut-scanner",
        "u1",
        ManifestBody(data_refs=(DataRef(TagCode(0x0009, 0x0001), "obj-1"),)),
    )
    assert not validate_manifest(manifest).blocking


def test_dangling_child_is_informational_and_deferred():
    tid = TypeId("acme", "ut-scanner")
    child = InstanceId(TypeId("acme", "probe"), "p1")
    manifest = Manifest(
        ManifestHeader(tid, InstanceId(tid, "u1")),
        ManifestBody(child_shells=(child,)),
    )
    # standalone validation (no registry view): the check is skipped
    assert DANGLING_CHILD not in validate_manifest(manifest).kinds()
    registry = Registry()
    instance = registry.register_shell(manifest)  # allowed: child may come later
    report = registry.validate(manifest)
    dangling = [f for f in report.findings if f.kind == DANGLING_CHILD]
    assert dangling and dangling[0].severity == "info"
    registry.register_shell(
        Manifest(ManifestHeader(child.type_id, child), ManifestBody())
    )
    assert DANGLING_CHILD not in registry.validate(manifest).kinds()
    assert registry.resolve(instance).body.child_shells == (child,)
    registry.resolve(child)  # the child edge now ends at a registered shell


def test_nest_unknown_shell_both_ends():
    registry = Registry()
    known = registry.register_shell(shell("acme", "ut-scanner", "u1"))
    ghost = InstanceId(TypeId("acme", "ghost"), "g1")
    with pytest.raises(UnknownShell):
        registry.nest(known, ghost)
    with pytest.raises(UnknownShell):
        registry.nest(ghost, known)


def test_nest_builds_dag_and_rejects_cycles():
    registry = Registry()
    a = registry.register_shell(shell("acme", "sys", "a"))
    b = registry.register_shell(shell("acme", "drive", "b"))
    c = registry.register_shell(shell("acme", "sensor", "c"))
    registry.nest(a, b)
    registry.nest(b, c)
    registry.nest(a, b)  # existing edge: idempotent
    assert registry.resolve(a).body.child_shells == (b,)
    assert registry.resolve(b).body.child_shells == (c,)
    assert registry.resolve(c).body.child_shells == ()
    with pytest.raises(CycleDetected):
        registry.nest(c, a)
    with pytest.raises(CycleDetected):
        registry.nest(a, a)


def test_declared_children_can_complete_a_cycle_at_register():
    registry = Registry()
    tid_a, tid_b = TypeId("acme", "alpha"), TypeId("acme", "beta")
    a, b = InstanceId(tid_a, "1"), InstanceId(tid_b, "1")
    registry.register_shell(
        Manifest(ManifestHeader(tid_a, a), ManifestBody(child_shells=(b,)))
    )
    with pytest.raises(CycleDetected):
        registry.register_shell(
            Manifest(ManifestHeader(tid_b, b), ManifestBody(child_shells=(a,)))
        )
    # rollback left the registry consistent
    assert registry.list_shells() == (a,)


def chain_shell(serial: int, child: int | None) -> Manifest:
    tid = TypeId("acme", "link")
    children = (InstanceId(tid, str(child)),) if child is not None else ()
    return Manifest(
        ManifestHeader(tid, InstanceId(tid, str(serial))),
        ManifestBody(child_shells=children),
    )


def test_deep_declared_chain_registers_and_closing_link_is_refused():
    registry = Registry()
    depth = 5000
    for n in range(depth):
        registry.register_shell(chain_shell(n, n + 1))  # n+1 dangles until next
    before = registry.list_shells()
    assert len(before) == depth
    # the last link names the head: a cycle 5001 shells long
    with pytest.raises(CycleDetected):
        registry.register_shell(chain_shell(depth, 0))
    assert registry.list_shells() == before
    tid = TypeId("acme", "link")
    with pytest.raises(UnknownShell):
        registry.resolve(InstanceId(tid, str(depth)))
    # the refused link left every edge as it was: n still names n+1
    for n in range(depth):
        child_shells = registry.resolve(InstanceId(tid, str(n))).body.child_shells
        assert child_shells == (InstanceId(tid, str(n + 1)),)


def test_register_after_deep_nest_chain():
    registry = Registry()
    links = [registry.register_shell(chain_shell(n, None)) for n in range(1200)]
    for parent, child in zip(links, links[1:]):
        registry.nest(parent, child)
    with pytest.raises(CycleDetected):
        registry.nest(links[-1], links[0])
    unrelated = registry.register_shell(shell("acme", "ut-scanner", "u1"))
    assert registry.list_shells() == (*links, unrelated)


def whole_graph_cycle(graph: dict[str, tuple[str, ...]]) -> bool:
    """Reference check: colour DFS over every registered shell."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}

    def visit(node: str) -> bool:
        color[node] = GREY
        for child in graph[node]:
            if child not in graph:
                continue  # dangling, no edge yet
            if color[child] == GREY:
                return True
            if color[child] == WHITE and visit(child):
                return True
        color[node] = BLACK
        return False

    return any(color[node] == WHITE and visit(node) for node in graph)


def test_incremental_cycle_check_matches_whole_graph_oracle():
    rng = random.Random(20160401)
    tid = TypeId("acme", "part")
    rejected = nested = 0
    for _ in range(300):
        names = [f"p{k}" for k in range(rng.randrange(2, 14))]
        rng.shuffle(names)
        ring = names[: rng.randrange(2, len(names) + 1)]
        successor = {a: b for a, b in zip(ring, ring[1:] + ring[:1])}
        registry = Registry()
        graph: dict[str, tuple[str, ...]] = {}
        for name in rng.sample(names, len(names)):
            # random children: registered or dangling, shared (diamonds),
            # and sometimes the next shell on a ring that a late link closes
            pool = [n for n in names if n != name]
            children = rng.sample(pool, rng.randrange(0, min(3, len(pool)) + 1))
            on_ring = name in successor and successor[name] not in children
            if on_ring and rng.random() < 0.7:
                children.append(successor[name])
            manifest = Manifest(
                ManifestHeader(tid, InstanceId(tid, name)),
                ManifestBody(
                    child_shells=tuple(InstanceId(tid, c) for c in children)
                ),
            )
            expect_cycle = whole_graph_cycle({**graph, name: tuple(children)})
            try:
                registry.register_shell(manifest)
            except CycleDetected:
                assert expect_cycle, (graph, name, children)
                rejected += 1
            else:
                assert not expect_cycle, (graph, name, children)
                graph[name] = tuple(children)
            assert [i.serial for i in registry.list_shells()] == list(graph)
            # an extra nest() edge between two registered shells
            if len(graph) >= 2 and rng.random() < 0.3:
                parent, child = rng.sample(list(graph), 2)
                if child in graph[parent]:
                    continue
                expect_cycle = whole_graph_cycle(
                    {**graph, parent: graph[parent] + (child,)}
                )
                try:
                    registry.nest(InstanceId(tid, parent), InstanceId(tid, child))
                except CycleDetected:
                    assert expect_cycle, (graph, parent, child)
                else:
                    assert not expect_cycle, (graph, parent, child)
                    graph[parent] += (child,)
                    nested += 1
    assert rejected > 50 and nested > 50  # both outcomes were exercised


def test_diamond_nesting_is_legal():
    registry = Registry()
    top = registry.register_shell(shell("acme", "cell", "t"))
    left = registry.register_shell(shell("acme", "arm", "l"))
    right = registry.register_shell(shell("acme", "arm", "r"))
    base = registry.register_shell(shell("acme", "table", "b"))
    registry.nest(top, left)
    registry.nest(top, right)
    registry.nest(left, base)
    registry.nest(right, base)  # a DAG, not a tree
    assert registry.resolve(top).body.child_shells == (left, right)
    assert registry.resolve(left).body.child_shells == (base,)
    assert registry.resolve(right).body.child_shells == (base,)


def test_list_shells_keeps_registration_order():
    registry = Registry()
    s1 = registry.register_shell(shell("acme", "ut-scanner", "u1"))
    person = registry.register_shell(shell("acme", "inspector-level2", "alice"))
    s2 = registry.register_shell(shell("acme", "ut-scanner", "u2"))
    assert registry.list_shells() == (s1, person, s2)


def test_humans_register_like_machines():
    registry = Registry()
    person = shell(
        "acme",
        "vt-inspector-level3",
        "bob",
        ManifestBody(
            service_descs=(ServiceDesc("inspect-vt", (TAG_ORDER_ID,), ()),)
        ),
    )
    machine = shell(
        "acme",
        "ut-scanner",
        "u1",
        ManifestBody(
            service_descs=(ServiceDesc("inspect-ut", (TAG_ORDER_ID,), ()),)
        ),
    )
    p = registry.register_shell(person)
    m = registry.register_shell(machine)
    # same manifest surface, same lookup paths, no special casing
    assert registry.resolve(p).body.service_descs[0].service_name == "inspect-vt"
    assert registry.resolve(m).body.service_descs[0].service_name == "inspect-ut"


def test_manifest_json_round_trip():
    manifest = shell(
        "acme",
        "ut-scanner",
        "unit-7",
        ManifestBody(
            data_refs=(DataRef(TAG_ORDER_ID, "obj-1"),),
            service_descs=(
                ServiceDesc("inspect-ut", (TAG_ORDER_ID,), (TAG_AMPLITUDE_GRID,)),
            ),
            child_shells=(InstanceId(TypeId("acme", "probe"), "p1"),),
        ),
    )
    text = dump_manifest(manifest)
    assert load_manifest(text) == manifest
    document = json.loads(text)
    assert document["header"]["shellTypeId"] == "urn:nde4:type:acme:ut-scanner"
    assert document["header"]["assetInstanceId"] == "urn:nde4:inst:acme:ut-scanner:unit-7"
    assert document["body"]["dataRefs"][0]["tag"] == "0020,0001"
    assert document["body"]["services"][0]["name"] == "inspect-ut"
    assert document["body"]["children"] == ["urn:nde4:inst:acme:probe:p1"]
    assert MANIFEST_FILE_SUFFIX == ".aas"


def test_manifest_to_dict_tolerates_missing_ids():
    manifest = Manifest(ManifestHeader(None, None, "nameless"), ManifestBody())
    document = manifest_to_dict(manifest)
    assert load_manifest(json.dumps(document)).header.display_name == "nameless"


@pytest.mark.parametrize(
    "body, header, message",
    [
        ({}, {"displayName": 5}, "header.displayName: expected str, got int"),
        (
            {"dataRefs": [{"tag": "0020,0001", "locator": 7}]},
            {},
            "body.dataRefs[0].locator: expected str, got int",
        ),
        ({"children": "abc"}, {}, "body.children: expected list, got str"),
        ({"child": []}, {}, "body.child: unknown key"),
        (
            {"children": ["urn:nde4:type:acme:probe"]},
            {},
            "body.children[0]: expected InstanceId text",
        ),
        ({}, {"shellTypeId": 5}, "header.shellTypeId: expected str, got int"),
    ],
)
def test_load_manifest_refuses_wrong_types(body, header, message):
    document = {"header": {"displayName": "x", **header}, "body": body}
    with pytest.raises(ValueError) as info:
        load_manifest(json.dumps(document))
    assert f"malformed manifest document: {message}" in str(info.value)


@pytest.mark.parametrize(
    "text",
    ["{not json", "[" * 100_000, '{"header": {"displayName": ' + "7" * 5000 + "}}"],
    ids=["not-json", "too-deep", "huge-int"],
)
def test_load_manifest_refuses_unparseable_text(text):
    with pytest.raises(ValueError) as info:
        load_manifest(text)
    assert "malformed manifest document: " in str(info.value)


def test_every_constructible_instance_id_survives_the_manifest_round_trip():
    # serials of every allowed character and length, incl. the 64-char limit,
    # under namespaces and type names of every allowed character and length
    rng = random.Random(4242)
    names = random.Random(4243)
    head = "abcXYZ019"
    tail = head + "-"

    def name_token(length: int) -> str:
        return names.choice("abz019") + "".join(
            names.choice("abz019-") for _ in range(length - 1))

    for length in [1, 2, 63, 64] + [rng.randint(1, 64) for _ in range(40)]:
        serial = rng.choice(head) + "".join(rng.choice(tail) for _ in range(length - 1))
        manifest = shell("acme", "ut-scanner", serial)
        assert load_manifest(dump_manifest(manifest)) == manifest
        assert parse_id(f"urn:nde4:inst:acme:ut-scanner:{serial}").serial == serial
        # namespace lengths run against the serial's: 64, 63, 2, 1, ...
        type_id = TypeId(name_token(65 - length), name_token(names.randint(1, 64)))
        assert parse_id(type_id.canonical()) == type_id
        manifest = shell(type_id.namespace, type_id.name, serial)
        assert load_manifest(dump_manifest(manifest)) == manifest
