"""Properties: the annotation mechanism of architectural elements.

"Elements in the graph can be annotated with a property list" (§2) — e.g.
a connector's ``bandwidth``, a component's ``load``.  Property changes are
observable so that (a) gauge consumers can drive constraint re-evaluation
and (b) repair transactions can journal undo information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import PropertyError

__all__ = ["Property", "PropertyBag", "PROPERTY_ABSENT"]

_MISSING = object()

#: hears ``(owner, name, old_value, new_value)``
PropertyListener = Callable[["PropertyBag", str, Any, Any], None]


class _Absent:
    """Sentinel for "the property did not exist" in change notifications.

    Distinguishes a newly created property (``old is PROPERTY_ABSENT``)
    from one whose previous value happened to be ``None`` — the repair
    transaction needs the difference to undo a creation by *removing*
    the property rather than leaving it behind with value ``None``.
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<absent>"


PROPERTY_ABSENT = _Absent()


@dataclass(slots=True)
class Property:
    """One named, typed value.

    ``ptype`` is a free-form type tag ("float", "int", "string", "boolean",
    "any"); when given, assignments are checked against it.
    """

    name: str
    value: Any = None
    ptype: str = "any"

    _CHECKS = {
        "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "string": lambda v: isinstance(v, str),
        "boolean": lambda v: isinstance(v, bool),
        "any": lambda v: True,
    }

    def __post_init__(self) -> None:
        if self.ptype not in self._CHECKS:
            raise PropertyError(
                f"unknown property type {self.ptype!r} for {self.name!r}; "
                f"valid: {sorted(self._CHECKS)}"
            )
        if self.value is not None:
            self.check(self.value)

    def check(self, value: Any) -> None:
        if value is not None and not self._CHECKS[self.ptype](value):
            raise PropertyError(
                f"property {self.name!r} expects {self.ptype}, got "
                f"{type(value).__name__} ({value!r})"
            )


#: per ``ptype``, the exact value types :meth:`Property.check` accepts:
#: one C-level test that lets :meth:`PropertyBag.set_property` skip the
#: call.  Anything else (``None``, a subclass such as ``numpy.float64``,
#: an ``"any"`` property, a wrong type) goes through ``check``.
_EXACT = {
    "float": frozenset({float, int}),
    "int": frozenset({int}),
    "string": frozenset({str}),
    "boolean": frozenset({bool}),
    "any": frozenset(),
}


class PropertyBag:
    """Mixin: a mapping of :class:`Property` with change notification.

    Listeners registered through :meth:`on_property_change` receive
    ``(owner, name, old_value, new_value)`` where ``old_value`` is
    :data:`PROPERTY_ABSENT` for newly declared properties and
    ``new_value`` is :data:`PROPERTY_ABSENT` for removals.  The listener
    list is allocated by the first registration: a bag nobody listens to
    holds none.
    """

    __slots__ = ("_props", "_prop_listeners")

    def __init__(self) -> None:
        self._props: Dict[str, Property] = {}
        self._prop_listeners: Optional[List[PropertyListener]] = None

    # -- declaration & access ------------------------------------------------
    def declare_property(
        self, name: str, value: Any = None, ptype: str = "any"
    ) -> Property:
        """Declare a property (idempotent re-declaration is an error)."""
        if name in self._props:
            raise PropertyError(f"property {name!r} already declared")
        prop = Property(name, value, ptype)
        self._props[name] = prop
        self._notify(name, PROPERTY_ABSENT, value)
        return prop

    def has_property(self, name: str) -> bool:
        return name in self._props

    def get_property(self, name: str, default: Any = _MISSING) -> Any:
        if name not in self._props:
            if default is _MISSING:
                raise PropertyError(f"no property {name!r} on {self!r}")
            return default
        return self._props[name].value

    def set_property(self, name: str, value: Any) -> Any:
        """Set (declaring untyped if absent); returns the previous value."""
        prop = self._props.get(name)
        if prop is None:
            old = PROPERTY_ABSENT
            self._props[name] = Property(name, value, "any")
        else:
            if type(value) not in _EXACT[prop.ptype]:
                prop.check(value)
            old = prop.value
            prop.value = value
        self._notify(name, old, value)
        return None if old is PROPERTY_ABSENT else old

    def remove_property(self, name: str) -> Any:
        """Remove a property entirely; returns its last value."""
        if name not in self._props:
            raise PropertyError(f"no property {name!r} on {self!r}")
        prop = self._props.pop(name)
        self._notify(name, prop.value, PROPERTY_ABSENT)
        return prop.value

    def property_names(self) -> List[str]:
        return sorted(self._props)

    def properties(self) -> Iterator[Property]:
        for name in sorted(self._props):
            yield self._props[name]

    # -- observation ------------------------------------------------------------
    def on_property_change(self, listener: PropertyListener) -> None:
        if self._prop_listeners is None:
            self._prop_listeners = []
        self._prop_listeners.append(listener)

    def _notify(self, name: str, old: Any, new: Any) -> None:
        if self._prop_listeners is not None:
            for listener in self._prop_listeners:
                listener(self, name, old, new)
