"""Application specs: the one description of a workload.

The simulator's grid and cell cache, the live fleet and the serve daemon
all name an application with one of these frozen dataclasses.  A spec
**builds** it (``build()``, or call the spec: specs are picklable
zero-argument builders), has one JSON **wire form** (``to_wire`` /
``from_wire``), one **string form** for command lines (``parse``), one
report **label**, and a canonical :meth:`cache_key` for
:mod:`repro.experiments.cache`.

Reading a wire document is *shallow*: kind, field types and dataclass
defaults, never a preset or an instance, so a document that reads but
cannot build (an unknown UTS preset) fails in ``build`` — the serve
daemon's poisoned-spec path.  Each ``build`` imports its own application:
a process pays only for the kinds it runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

from ..apps import BNB_UNIT_COST, UTS_UNIT_COST
from ..sim.errors import SimConfigError

if TYPE_CHECKING:
    from ..apps.base import Application
    from ..bnb.flowshop import FlowshopInstance
    from ..uts.tree import UTSParams

#: Wire field type -> (what it must be, the JSON types it may have).
_TYPES: dict[str, tuple[str, tuple[type, ...]]] = {
    "int": ("an integer", (int,)), "str": ("a string", (str,)),
    "float": ("a number", (int, float)), "bool": ("a boolean", (bool,))}

GRAMMAR = "uts:<preset> | bnb:<k>[:jobs[:machines]] | synthetic:<units>"


def is_spec(obj) -> bool:
    """True for callables that also carry a canonical ``cache_key()``."""
    return callable(obj) and hasattr(obj, "cache_key")


def _wire_fields(cls) -> list:
    return [(f.metadata.get("wire", f.name), f)
            for f in dataclasses.fields(cls)]


class AppSpec:
    """Base of the spec dataclasses (see the module docstring)."""

    #: the ``kind`` of the wire form
    kind: ClassVar[str]
    #: the string form's positional fields, by wire name
    text_fields: ClassVar[tuple[str, ...]]
    #: wire values the string form may omit though the wire may not
    text_defaults: ClassVar[dict] = {}

    @staticmethod
    def from_wire(doc) -> AppSpec:
        """Read a wire document: kind, known field types, defaults."""
        if not isinstance(doc, dict):
            raise SimConfigError("app spec must be a JSON object")
        kind = doc.get("kind")
        spec_cls = KINDS.get(kind) if isinstance(kind, str) else None
        if spec_cls is None:
            raise SimConfigError(f"unknown app kind {kind!r}; "
                                 f"known: {', '.join(KINDS)}")
        kwargs: dict = {}
        for name, f in _wire_fields(spec_cls):
            what, types = _TYPES[f.type]
            if name in doc and type(doc[name]) in types:    # bool is no int
                kwargs[f.name] = types[-1](doc[name])
            elif name in doc or f.default is MISSING:
                raise SimConfigError(f"{kind} spec needs {what} {name!r}")
        return spec_cls(**kwargs)

    @staticmethod
    def parse(text: str) -> AppSpec:
        """Read the string form ``kind[:field[:field...]]`` (:data:`GRAMMAR`),
        positional fields in ``text_fields`` order."""
        kind, _, rest = text.partition(":")
        spec_cls = KINDS.get(kind)
        values = [v for v in rest.split(":") if v]
        bad = f"bad app spec {text!r}; want {GRAMMAR}"
        if spec_cls is None or len(values) > len(spec_cls.text_fields):
            raise SimConfigError(bad)
        doc: dict = {"kind": kind, **spec_cls.text_defaults}
        types = {name: f.type for name, f in _wire_fields(spec_cls)}
        for name, value in zip(spec_cls.text_fields, values):
            try:
                doc[name] = _TYPES[types[name]][1][-1](value)
            except ValueError:
                raise SimConfigError(bad) from None
        return AppSpec.from_wire(doc)

    def to_wire(self) -> dict:
        """The wire document: the kind, required fields and whatever
        differs from its default."""
        doc: dict = {"kind": self.kind}
        for name, f in _wire_fields(type(self)):
            value = getattr(self, f.name)
            if f.default is MISSING or value != f.default:
                doc[name] = value
        return doc

    @property
    def label(self) -> str:
        raise NotImplementedError

    def cache_key(self) -> tuple:
        raise NotImplementedError

    def build(self) -> Application:
        raise NotImplementedError

    def __call__(self) -> Application:
        return self.build()


@dataclass(frozen=True)
class UTSSpec(AppSpec):
    """An Unbalanced-Tree-Search workload, by preset name
    (:data:`repro.uts.params.PRESETS`)."""

    kind = "uts"
    text_fields = ("preset",)
    text_defaults = {"preset": "bin_small"}

    preset: str
    unit_cost: float = UTS_UNIT_COST

    @property
    def params(self) -> UTSParams:
        from ..uts.params import get_preset
        return get_preset(self.preset).params

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.preset}"

    def cache_key(self) -> tuple:
        return ("uts", dataclasses.astuple(self.params), self.unit_cost)

    def build(self) -> Application:
        from ..apps.uts_app import UTSApplication
        return UTSApplication(self.params, unit_cost=self.unit_cost)


@dataclass(frozen=True)
class BnBSpec(AppSpec):
    """A scaled Taillard flow-shop B&B workload, by instance coordinates.

    ``index`` selects Ta(20+index); ``n_jobs`` x ``n_machines`` is the
    truncation (see :func:`repro.bnb.taillard.scaled_instance`).  The
    instance matrix and (when ``warm_start``) the NEH solution are computed
    on first use and cached on the spec, so a spec built once ships them
    with its pickle.  They are not fields: two specs with the same
    coordinates are the same workload either way.
    """

    kind = "bnb"
    text_fields = ("index", "jobs", "machines")

    index: int
    n_jobs: int = field(default=10, metadata={"wire": "jobs"})
    n_machines: int = field(default=10, metadata={"wire": "machines"})
    bound: str = "lb1"
    warm_start: bool = True
    unit_cost: float = BNB_UNIT_COST

    @cached_property
    def instance(self) -> FlowshopInstance:
        from ..bnb.taillard import scaled_instance
        return scaled_instance(self.index, n_jobs=self.n_jobs,
                               n_machines=self.n_machines)

    @cached_property
    def neh(self) -> tuple[int, list[int]] | None:
        from ..bnb.neh import neh
        return neh(self.instance) if self.warm_start else None

    @property
    def label(self) -> str:
        return (f"{self.kind}/ta{20 + self.index}"
                f"@{self.n_jobs}x{self.n_machines}/{self.bound}")

    def cache_key(self) -> tuple:
        return ("bnb", self.index, self.n_jobs, self.n_machines, self.bound,
                self.warm_start, self.unit_cost)

    def build(self) -> Application:
        from ..apps.bnb_app import BnBApplication
        return BnBApplication(self.instance, bound=self.bound,
                              unit_cost=self.unit_cost,
                              warm_start=self.warm_start, neh=self.neh)


@dataclass(frozen=True)
class SyntheticSpec(AppSpec):
    """A divisible synthetic workload of ``units`` identical work units.

    The cheap oracle workload (total processed must equal ``units``
    exactly), used by tests, the scale sweep and the :mod:`repro.serve`
    job stream, where per-job wall time must be small and verifiable.
    """

    kind = "synthetic"
    text_fields = ("units",)

    units: int
    unit_cost: float = 1e-5

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.units}"

    def cache_key(self) -> tuple:
        return ("synthetic", self.units, self.unit_cost)

    def build(self) -> Application:
        from ..apps.synthetic import SyntheticApplication
        return SyntheticApplication(self.units, unit_cost=self.unit_cost)


#: Every spec class by its wire ``kind``.
KINDS: dict[str, type[AppSpec]] = {
    cls.kind: cls for cls in (UTSSpec, BnBSpec, SyntheticSpec)}

__all__ = ["AppSpec", "BnBSpec", "GRAMMAR", "KINDS", "SyntheticSpec",
           "UTSSpec", "is_spec"]
