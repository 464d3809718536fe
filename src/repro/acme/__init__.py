"""Acme-style architectural models (substrate S7).

A lightweight reimplementation of the AcmeLib core the paper builds on
[11, 21]: systems are graphs of **components** (with **ports**) and
**connectors** (with **roles**) joined by **attachments**; every element
carries a property list; **families** (architectural styles) declare the
element types and their typed, defaulted properties.  Models are built
with the Python API (each style's ``build_*_model``);
:func:`unparse_system` renders one as Acme surface text, and
:func:`validate_system` checks a system against its family (no runtime
path calls it yet).  A style's invariants live in its repair script and
its operators in ``AdaptationSpec.operators``, not in the family.
"""

from repro.acme.properties import PROPERTY_ABSENT, Property, PropertyBag
from repro.acme.elements import Element, Port, Role, Component, Connector, Attachment
from repro.acme.system import ArchSystem
from repro.acme.sharding import ShardedArchSystem
from repro.acme.family import ElementType, Family
from repro.acme.validation import validate_system, ValidationIssue
from repro.acme.unparser import unparse_system

__all__ = [
    "PROPERTY_ABSENT",
    "Property",
    "PropertyBag",
    "Element",
    "Port",
    "Role",
    "Component",
    "Connector",
    "Attachment",
    "ArchSystem",
    "ShardedArchSystem",
    "ElementType",
    "Family",
    "validate_system",
    "ValidationIssue",
    "unparse_system",
]
