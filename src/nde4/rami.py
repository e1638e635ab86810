"""Three-axis architecture cube: locate components, check interface coverage.

A coordinate is one cell of layer x lifecycle x hierarchy. Components claim
cell sets (loci); a system's coverage is the union of the loci of the
interfaces it actually runs. coverage_check is pure set algebra: the gap
report is the required set minus that union.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from importlib.resources import files
from itertools import product
from typing import Iterable

from .errors import Nde4Error
from .semantics import is_id_token, tsv_rows, tsv_text


class Layer(Enum):
    ASSET = "ASSET"
    INTEGRATION = "INTEGRATION"
    COMMUNICATION = "COMMUNICATION"
    INFORMATION = "INFORMATION"
    FUNCTIONAL = "FUNCTIONAL"
    BUSINESS = "BUSINESS"


class Lifecycle(Enum):
    TYPE_DEV = "TYPE_DEV"
    TYPE_USE = "TYPE_USE"
    INST_PROD = "INST_PROD"
    INST_USE = "INST_USE"


class Hierarchy(Enum):
    PROCESS = "PROCESS"
    FIELD = "FIELD"
    CONTROL = "CONTROL"
    SHOP_FLOOR = "SHOP_FLOOR"
    PLANT = "PLANT"
    ENTERPRISE = "ENTERPRISE"
    CONNECTED_WORLD = "CONNECTED_WORLD"


class UnknownComponent(Nde4Error):
    """No locus registered under this component name."""


@dataclass(frozen=True, slots=True)
class RamiCoordinate:
    layer: Layer
    lifecycle: Lifecycle
    hierarchy: Hierarchy

    def text(self) -> str:
        return f"{self.layer.value}/{self.lifecycle.value}/{self.hierarchy.value}"

    @classmethod
    def from_text(cls, text: str) -> "RamiCoordinate":
        parts = text.split("/")
        if len(parts) != 3:
            raise ValueError(f"expected LAYER/LIFECYCLE/HIERARCHY: {text!r}")
        return cls(Layer(parts[0]), Lifecycle(parts[1]), Hierarchy(parts[2]))


def cells(
    layers: Iterable[Layer],
    lifecycles: Iterable[Lifecycle],
    hierarchies: Iterable[Hierarchy],
) -> frozenset[RamiCoordinate]:
    return frozenset(
        RamiCoordinate(layer, lifecycle, hierarchy)
        for layer, lifecycle, hierarchy in product(layers, lifecycles, hierarchies)
    )


@dataclass(frozen=True, slots=True)
class ComponentLocus:
    component: str
    cells: frozenset[RamiCoordinate]

    def __post_init__(self) -> None:
        if not is_id_token(self.component):
            raise ValueError(f"component not a valid token: {self.component!r}")
        if not self.cells:
            raise ValueError(f"locus for {self.component!r} has no cells")


def dump_loci_tsv(loci: Iterable[ComponentLocus]) -> str:
    return tsv_text(
        (
            locus.component,
            coordinate.layer.value,
            coordinate.lifecycle.value,
            coordinate.hierarchy.value,
        )
        for locus in loci
        for coordinate in sorted(locus.cells, key=RamiCoordinate.text)
    )


def load_loci_tsv(text: str) -> tuple[ComponentLocus, ...]:
    collected: dict[str, set[RamiCoordinate]] = {}
    for component, layer, lifecycle, hierarchy in tsv_rows(text, 4, "loci"):
        coordinate = RamiCoordinate(
            Layer(layer), Lifecycle(lifecycle), Hierarchy(hierarchy)
        )
        collected.setdefault(component, set()).add(coordinate)
    return tuple(
        ComponentLocus(component, frozenset(coordinates))
        for component, coordinates in collected.items()
    )


DEFAULT_LOCI = load_loci_tsv(
    files("nde4").joinpath("data/rami-loci.tsv").read_text("utf-8")
)
_LOCI = {locus.component: locus for locus in DEFAULT_LOCI}  # by component name


def locate(component: str) -> ComponentLocus:
    locus = _LOCI.get(component)
    if locus is None:
        raise UnknownComponent(component)
    return locus


ORDERS_BUS_LOCUS = locate("orders-bus")
GATEWAY_LOCUS = locate("gateway")
PLANTDESIGN_DOC_LOCUS = locate("plantdesign-doc")
SOVEREIGNTY_LOCUS = locate("sovereignty")


def coverage_check(
    required: Iterable[RamiCoordinate], loci: Iterable[ComponentLocus]
) -> frozenset[RamiCoordinate]:
    """Gap report: required minus the union of the loci's cells."""
    covered: set[RamiCoordinate] = set()
    for locus in loci:
        covered |= locus.cells
    return frozenset(required) - covered


def gaps_text(gaps: Iterable[RamiCoordinate]) -> tuple[str, ...]:
    """Deterministic textual gap listing."""
    return tuple(sorted(coordinate.text() for coordinate in gaps))
