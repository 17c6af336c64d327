"""Typed component registry: one construction path for every component.

Every attack, defence, traffic hook and headline metric registers here
under a stable string key together with a *parameter schema* -- the
parameter names and defaults introspected from the component's
constructor (overridable at registration time for parameters that need
JSON coercion, e.g. enum lists).  The registry is what turns component
references in declarative experiment specs (:mod:`repro.core.experiment`)
into live instances, and what the sweep layer consults to validate
``attack.*``/``defense.*`` parameter axes before anything runs.

Registration happens where the components live: the attack suite
registers itself in :mod:`repro.core.attacks`, the defence suite in
:mod:`repro.core.defenses`, and hooks/metrics in
:mod:`repro.core.experiment`.  This module deliberately imports none of
them, so it can be imported from anywhere without cycles.

Lookup errors are ``KeyError`` (as for unknown threats and mechanisms
in :mod:`repro.experiments`); *parameter* errors -- unknown names,
missing required values -- are ``ValueError`` naming the valid choices,
so a typo in a spec file fails loudly and helpfully.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

#: Sentinel default for parameters that must be supplied explicitly.
REQUIRED = object()

#: The component kinds the registry understands.
KINDS = ("attack", "defense", "hook", "metric")


@dataclass(frozen=True)
class ParamSpec:
    """Schema entry for one component parameter."""

    name: str
    default: Any = REQUIRED
    #: Optional JSON -> native coercion applied before construction
    #: (e.g. ``["wireless"]`` -> ``(InfectionVector.WIRELESS,)``).
    convert: Optional[Callable[[Any], Any]] = None

    @property
    def required(self) -> bool:
        return self.default is REQUIRED


@dataclass
class ComponentInfo:
    """One registered component: key, factory and parameter schema."""

    kind: str
    key: str
    factory: Optional[Callable]
    params: Dict[str, ParamSpec] = field(default_factory=dict)
    description: str = ""
    metadata: dict = field(default_factory=dict)


def introspect_params(factory: Callable) -> Dict[str, ParamSpec]:
    """Build a parameter schema from a constructor/callable signature.

    ``self``, ``*args`` and ``**kwargs`` are skipped; everything else
    becomes a :class:`ParamSpec` whose default is the signature default
    (or :data:`REQUIRED` when the signature has none).
    """
    params: Dict[str, ParamSpec] = {}
    for name, parameter in inspect.signature(factory).parameters.items():
        if parameter.kind in (inspect.Parameter.VAR_POSITIONAL,
                              inspect.Parameter.VAR_KEYWORD):
            continue
        default = (REQUIRED if parameter.default is inspect.Parameter.empty
                   else parameter.default)
        params[name] = ParamSpec(name=name, default=default)
    return params


class ComponentRegistry:
    """Keyed store of constructible components with parameter schemas."""

    def __init__(self) -> None:
        self._components: Dict[str, Dict[str, ComponentInfo]] = {
            kind: {} for kind in KINDS}
        self._attr_cache: Dict[tuple, frozenset] = {}

    # --------------------------------------------------------- registration

    def register(self, kind: str, key: str, factory: Optional[Callable] = None,
                 *, params: Optional[Dict[str, ParamSpec]] = None,
                 description: str = "", metadata: Optional[dict] = None,
                 replace: bool = False) -> ComponentInfo:
        """Register a component under ``(kind, key)``.

        The parameter schema is introspected from ``factory`` and then
        merged with any explicit ``params`` overrides (which win).
        Re-registering an existing key raises unless ``replace=True`` --
        silent shadowing is how catalogue drift starts.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown component kind {kind!r}; expected one "
                             f"of {KINDS}")
        if not key or not isinstance(key, str):
            raise ValueError("component key must be a non-empty string, "
                             f"got {key!r}")
        if key in self._components[kind] and not replace:
            raise ValueError(f"{kind} component {key!r} is already "
                             "registered; pass replace=True to override")
        schema = introspect_params(factory) if factory is not None else {}
        if params:
            schema.update(params)
        info = ComponentInfo(kind=kind, key=key, factory=factory,
                             params=schema, description=description,
                             metadata=dict(metadata or {}))
        self._components[kind][key] = info
        self._attr_cache.pop((kind, key), None)
        return info

    # --------------------------------------------------------------- lookup

    def get(self, kind: str, key: str) -> ComponentInfo:
        if kind not in KINDS:
            raise ValueError(f"unknown component kind {kind!r}; expected one "
                             f"of {KINDS}")
        try:
            return self._components[kind][key]
        except KeyError:
            raise KeyError(f"unknown {kind} component {key!r}; expected one "
                           f"of {self.keys(kind)}") from None

    def keys(self, kind: str) -> list:
        return sorted(self._components.get(kind, {}))

    # ----------------------------------------------------------- validation

    def validate_params(self, kind: str, key: str, params: dict) -> None:
        """Check parameter *names* against the component's schema.

        Raises ``ValueError`` naming the valid parameters on a miss --
        uniform schema validation, so a typo'd spec fails identically
        whether it names an attack, a defence or a hook parameter.
        """
        info = self.get(kind, key)
        unknown = sorted(set(params) - set(info.params))
        if unknown:
            raise ValueError(
                f"{kind} {key!r} has no parameter(s) {unknown}; valid "
                f"parameters: {sorted(info.params)}")

    def create(self, kind: str, key: str, params: Optional[dict] = None) -> Any:
        """Construct a fresh component instance with validated parameters."""
        info = self.get(kind, key)
        if info.factory is None:
            raise ValueError(f"{kind} component {key!r} is declarative only "
                             "(no factory); it cannot be constructed")
        params = dict(params or {})
        self.validate_params(kind, key, params)
        missing = sorted(name for name, spec in info.params.items()
                         if spec.required and name not in params)
        if missing:
            raise ValueError(f"{kind} {key!r} is missing required "
                             f"parameter(s) {missing}")
        kwargs = {}
        for name, value in params.items():
            spec = info.params[name]
            kwargs[name] = spec.convert(value) if spec.convert else value
        return info.factory(**kwargs)

    def settable_attrs(self, kind: str, key: str) -> frozenset:
        """Public attributes a default-constructed instance exposes.

        This is the ground truth for dotted sweep overrides
        (``attack.power_dbm``): the campaign runner applies them with
        ``setattr`` on live instances, so the valid targets are instance
        attributes -- constructor parameters that are stored verbatim
        qualify, renamed ones (e.g. ``position`` -> ``position_override``)
        appear under their stored name.  Falls back to the schema names
        when the component cannot be default-constructed.
        """
        cache_key = (kind, key)
        if cache_key not in self._attr_cache:
            info = self.get(kind, key)
            attrs: frozenset
            try:
                instance = self.create(kind, key)
                attrs = frozenset(name for name in vars(instance)
                                  if not name.startswith("_"))
            except (TypeError, ValueError):
                attrs = frozenset(info.params)
            self._attr_cache[cache_key] = attrs
        return self._attr_cache[cache_key]


#: The process-wide default registry.  Components register themselves
#: into it at import time (attacks in ``repro.core.attacks``, defences
#: in ``repro.core.defenses``, hooks/metrics in ``repro.core.experiment``).
REGISTRY = ComponentRegistry()


def register_attack(cls, *, params: Optional[Dict[str, ParamSpec]] = None,
                    description: str = "") -> None:
    """Register an :class:`~repro.core.attack.Attack` subclass under its
    taxonomy ``name``."""
    REGISTRY.register("attack", cls.name, cls, params=params,
                      description=description or _first_doc_line(cls))


def register_defense(cls, *, params: Optional[Dict[str, ParamSpec]] = None,
                     description: str = "") -> None:
    """Register a :class:`~repro.core.defense.Defense` subclass under its
    taxonomy ``name``."""
    REGISTRY.register("defense", cls.name, cls, params=params,
                      description=description or _first_doc_line(cls))


def register_hook(key: str, factory: Callable, *,
                  description: str = "") -> None:
    """Register a setup-hook factory (returns a ``hook(scenario)``)."""
    REGISTRY.register("hook", key, factory,
                      description=description or _first_doc_line(factory))


def register_metric(key: str, *, lower_is_better: bool,
                    description: str = "") -> None:
    """Register a headline metric and its comparison direction."""
    REGISTRY.register("metric", key, None,
                      metadata={"lower_is_better": lower_is_better},
                      description=description)


def metric_direction(key: str) -> bool:
    """``lower_is_better`` for a registered headline metric."""
    return bool(REGISTRY.get("metric", key).metadata["lower_is_better"])


def _first_doc_line(obj: Any) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else ""
