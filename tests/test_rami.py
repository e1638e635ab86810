from __future__ import annotations

import random
import re
from importlib import resources
from itertools import product
from pathlib import Path

import pytest

from nde4.rami import (
    DEFAULT_LOCI,
    GATEWAY_LOCUS,
    ORDERS_BUS_LOCUS,
    PLANTDESIGN_DOC_LOCUS,
    SOVEREIGNTY_LOCUS,
    ComponentLocus,
    Hierarchy,
    Layer,
    Lifecycle,
    RamiCoordinate,
    UnknownComponent,
    cells,
    coverage_check,
    dump_loci_tsv,
    gaps_text,
    load_loci_tsv,
    locate,
)

ALL_CELLS = tuple(
    RamiCoordinate(layer, lifecycle, hierarchy)
    for layer, lifecycle, hierarchy in product(Layer, Lifecycle, Hierarchy)
)


def test_axes_have_the_expected_extent():
    assert len(Layer) == 6
    assert len(Lifecycle) == 4
    assert len(Hierarchy) == 7
    assert len(ALL_CELLS) == 6 * 4 * 7


def test_coordinate_text_round_trip():
    for coordinate in ALL_CELLS:
        assert RamiCoordinate.from_text(coordinate.text()) == coordinate
    with pytest.raises(ValueError):
        RamiCoordinate.from_text("INFORMATION/INST_USE")
    with pytest.raises(ValueError):
        RamiCoordinate.from_text("NOPE/INST_USE/FIELD")


def test_cells_is_the_cartesian_product():
    got = cells((Layer.INFORMATION,), (Lifecycle.INST_USE,), Hierarchy)
    assert len(got) == len(Hierarchy)
    assert all(c.layer == Layer.INFORMATION for c in got)


def test_locus_guards():
    with pytest.raises(ValueError):
        ComponentLocus("bad name!", frozenset(ALL_CELLS[:1]))
    with pytest.raises(ValueError):
        ComponentLocus("empty", frozenset())


def test_orders_bus_stops_below_enterprise():
    hierarchies = {c.hierarchy for c in ORDERS_BUS_LOCUS.cells}
    assert Hierarchy.ENTERPRISE not in hierarchies
    assert Hierarchy.CONNECTED_WORLD not in hierarchies
    assert hierarchies == {
        Hierarchy.PROCESS,
        Hierarchy.FIELD,
        Hierarchy.CONTROL,
        Hierarchy.SHOP_FLOOR,
        Hierarchy.PLANT,
    }
    layers = {c.layer for c in ORDERS_BUS_LOCUS.cells}
    assert layers == {Layer.INFORMATION, Layer.COMMUNICATION}
    lifecycles = {c.lifecycle for c in ORDERS_BUS_LOCUS.cells}
    assert lifecycles == {Lifecycle.INST_PROD, Lifecycle.INST_USE}


def test_gateway_adds_exactly_the_enterprise_level():
    extra = GATEWAY_LOCUS.cells - ORDERS_BUS_LOCUS.cells
    assert ORDERS_BUS_LOCUS.cells < GATEWAY_LOCUS.cells
    assert {c.hierarchy for c in extra} == {Hierarchy.ENTERPRISE}
    assert Hierarchy.CONNECTED_WORLD not in {
        c.hierarchy for c in GATEWAY_LOCUS.cells
    }


def test_plantdesign_doc_covers_the_type_side():
    lifecycles = {c.lifecycle for c in PLANTDESIGN_DOC_LOCUS.cells}
    assert lifecycles == {Lifecycle.TYPE_DEV, Lifecycle.TYPE_USE}
    assert {c.hierarchy for c in PLANTDESIGN_DOC_LOCUS.cells} == set(Hierarchy)


def test_sovereignty_closes_the_connected_world():
    assert {c.hierarchy for c in SOVEREIGNTY_LOCUS.cells} == {
        Hierarchy.CONNECTED_WORLD
    }
    union = frozenset().union(*(l.cells for l in DEFAULT_LOCI))
    middle_cells = cells(
        (Layer.INFORMATION, Layer.COMMUNICATION), Lifecycle, Hierarchy
    )
    assert coverage_check(middle_cells, DEFAULT_LOCI) == frozenset()
    assert union == middle_cells


def test_locate_and_registry():
    assert locate("orders-bus") is ORDERS_BUS_LOCUS
    assert locate("gateway") is GATEWAY_LOCUS
    with pytest.raises(UnknownComponent):
        locate("teleporter")
    assert [locus.component for locus in DEFAULT_LOCI] == [
        "orders-bus",
        "gateway",
        "plantdesign-doc",
        "sovereignty",
    ]
    for locus in DEFAULT_LOCI:
        assert locate(locus.component) is locus


def test_coverage_check_matches_set_difference_oracle():
    rng = random.Random(9393)
    for _ in range(1000):
        required = frozenset(
            rng.sample(ALL_CELLS, rng.randrange(0, len(ALL_CELLS) + 1))
        )
        loci = []
        for n in range(rng.randrange(0, 4)):
            chosen = rng.sample(ALL_CELLS, rng.randrange(1, 20))
            loci.append(ComponentLocus(f"c-{n}", frozenset(chosen)))
        oracle = set(required)
        for locus in loci:
            oracle -= set(locus.cells)
        assert coverage_check(required, loci) == frozenset(oracle)


def test_gaps_text_is_sorted_and_stable():
    gaps = coverage_check(ALL_CELLS, [ORDERS_BUS_LOCUS])
    rendered = gaps_text(gaps)
    assert rendered == tuple(sorted(rendered))
    assert len(rendered) == len(gaps)
    assert gaps_text(()) == ()


def test_loci_tsv_round_trip():
    text = dump_loci_tsv(DEFAULT_LOCI)
    again = load_loci_tsv(text)
    assert again == DEFAULT_LOCI
    with pytest.raises(ValueError):
        load_loci_tsv("orders-bus\tINFORMATION\tINST_USE\n")
    with pytest.raises(ValueError):
        load_loci_tsv("orders-bus\tNOPE\tINST_USE\tFIELD\n")
    assert load_loci_tsv("# comment\n\n") == ()


def test_packaged_loci_match_builtin():
    text = resources.files("nde4").joinpath("data/rami-loci.tsv").read_text()
    assert load_loci_tsv(text) == DEFAULT_LOCI


def test_named_loci_come_from_the_packaged_file():
    named = {
        "orders-bus": ORDERS_BUS_LOCUS,
        "gateway": GATEWAY_LOCUS,
        "plantdesign-doc": PLANTDESIGN_DOC_LOCUS,
        "sovereignty": SOVEREIGNTY_LOCUS,
    }
    for component, locus in named.items():
        assert locus.component == component
        assert locus in DEFAULT_LOCI


def test_cells_quoted_in_the_docs_parse():
    root = Path(__file__).resolve().parent.parent
    quoted = [
        (name, cell)
        for name in ("docs/FORMATS.md", "README.md")
        for cell in re.findall(r"\b[A-Z_]+/[A-Z_]+/[A-Z_]+\b", (root / name).read_text("utf-8"))
        if cell != "LAYER/LIFECYCLE/HIERARCHY"
    ]
    assert quoted
    for name, cell in quoted:
        assert RamiCoordinate.from_text(cell).text() == cell, name
