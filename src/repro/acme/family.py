"""Families (architectural styles): element types.

"These operators will be specific to the structure of the architecture
(this is called an architecture style)" (§3.3).  A family declares
component/connector/port/role **types** with typed properties, defaults
and optional structural rules; :meth:`Family.initialize` gives a new
element its types' defaults, and :func:`repro.acme.validation.validate_system`
checks a system's elements against the types.

A family holds nothing else.  A style's invariants and their repairs are
written in its repair script (the Figure 5 DSL), which the runtime
compiles into its constraint checkers; its operators (``addServer``,
``move``, ``remove``, ...) are the table ``AdaptationSpec.operators``
builds for repair contexts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.acme.elements import Element
from repro.errors import DuplicateElementError, TypeViolationError, UnknownElementError

__all__ = ["ElementType", "Family"]

# validator(system, element) -> list of problem strings
StructuralRule = Callable[[Any, Element], List[str]]


@dataclass
class ElementType:
    """A named element type within a family.

    ``kind`` is one of component/connector/port/role.  ``properties`` maps
    property name -> (ptype, default); a default of ``None`` with
    ``required=True`` means instances must supply a value.
    """

    name: str
    kind: str
    properties: Dict[str, Tuple[str, Any]] = field(default_factory=dict)
    required: Dict[str, bool] = field(default_factory=dict)
    rules: List[StructuralRule] = field(default_factory=list)

    VALID_KINDS = ("component", "connector", "port", "role")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise TypeViolationError(
                f"element type kind must be one of {self.VALID_KINDS}, "
                f"got {self.kind!r}"
            )

    def declare_property(
        self, name: str, ptype: str = "any", default: Any = None, required: bool = False
    ) -> "ElementType":
        self.properties[name] = (ptype, default)
        self.required[name] = required
        return self

    def add_rule(self, rule: StructuralRule) -> "ElementType":
        self.rules.append(rule)
        return self

    def apply_defaults(self, element: Element) -> None:
        """Declare missing typed properties with their defaults."""
        for pname, (ptype, default) in self.properties.items():
            if not element.has_property(pname):
                element.declare_property(pname, default, ptype)

    def check(self, system: Any, element: Element) -> List[str]:
        """Return conformance problems for ``element`` (empty = conforms)."""
        problems: List[str] = []
        if element.kind != self.kind:
            problems.append(
                f"{element.qualified_name}: declared {self.name} "
                f"but is a {element.kind}"
            )
            return problems
        for pname, (_ptype, _default) in self.properties.items():
            if not element.has_property(pname):
                if self.required.get(pname):
                    problems.append(
                        f"{element.qualified_name}: missing required property {pname!r}"
                    )
        for rule in self.rules:
            problems.extend(rule(system, element))
        return problems


class Family:
    """A named style: the element types its systems are built from."""

    def __init__(self, name: str):
        self.name = name
        self._types: Dict[str, ElementType] = {}

    # -- types ------------------------------------------------------------------
    def declare_type(self, etype: ElementType) -> ElementType:
        if etype.name in self._types:
            raise DuplicateElementError(
                f"type {etype.name!r} already declared in family {self.name}"
            )
        self._types[etype.name] = etype
        return etype

    def component_type(self, name: str) -> ElementType:
        return self.declare_type(ElementType(name, "component"))

    def connector_type(self, name: str) -> ElementType:
        return self.declare_type(ElementType(name, "connector"))

    def port_type(self, name: str) -> ElementType:
        return self.declare_type(ElementType(name, "port"))

    def role_type(self, name: str) -> ElementType:
        return self.declare_type(ElementType(name, "role"))

    def type(self, name: str) -> ElementType:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownElementError(
                f"no type {name!r} in family {self.name}"
            ) from None

    def has_type(self, name: str) -> bool:
        return name in self._types

    # -- element initialization --------------------------------------------------------
    def initialize(self, element: Element) -> None:
        """Apply the defaults of every type the element declares."""
        for tname in sorted(element.types):
            if tname in self._types:
                self._types[tname].apply_defaults(element)
