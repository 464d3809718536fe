"""Structural validation of systems against their family.

"Architectural models can make integrity constraints explicit, helping to
ensure the validity of any change" (§1).  :func:`validate_system` reports
where a system departs from its family's types and where its attachments
or roles dangle.  No runtime path calls it yet: the tests check the style
builders' models with it, and a repair that validates the model before
commit would be its first caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.acme.elements import Element
from repro.acme.family import Family
from repro.acme.system import ArchSystem

__all__ = ["ValidationIssue", "validate_system"]


@dataclass(frozen=True)
class ValidationIssue:
    """One conformance problem found during validation."""

    element: str
    message: str

    def __str__(self) -> str:
        return f"{self.element}: {self.message}"


def _check_element(
    system: ArchSystem, family: Family, element: Element, issues: List[ValidationIssue]
) -> None:
    for tname in sorted(element.types):
        if not family.has_type(tname):
            issues.append(
                ValidationIssue(element.qualified_name, f"unknown type {tname!r}")
            )
            continue
        for problem in family.type(tname).check(system, element):
            issues.append(ValidationIssue(element.qualified_name, problem))


def validate_system(
    system: ArchSystem, family: Optional[Family] = None
) -> List[ValidationIssue]:
    """Return all structural problems (empty list = valid).

    Checks, in order:

    1. family conformance of every element (typed properties, custom rules);
    2. attachment sanity: every attachment references ports/roles that are
       still owned by live elements of this system;
    3. dangling roles are *reported* (a connector role with no attachment) —
       Acme tolerates them during editing, but repairs should not leave any.
    """
    issues: List[ValidationIssue] = []

    if family is not None:
        if system.family is not None and system.family != family.name:
            issues.append(
                ValidationIssue(
                    system.name,
                    f"system declares family {system.family!r}, validated "
                    f"against {family.name!r}",
                )
            )
        for comp in system.components:
            _check_element(system, family, comp, issues)
            for port in comp.ports:
                _check_element(system, family, port, issues)
        for conn in system.connectors:
            _check_element(system, family, conn, issues)
            for role in conn.roles:
                _check_element(system, family, role, issues)

    # Attachment sanity
    for att in system.attachments:
        comp = att.port.component
        conn = att.role.connector
        if not system.has_component(comp.name) or system.component(comp.name) is not comp:
            issues.append(
                ValidationIssue(str(att), "port's component is not in the system")
            )
        elif not comp.has_port(att.port.name) or comp.port(att.port.name) is not att.port:
            issues.append(ValidationIssue(str(att), "port no longer on its component"))
        if not system.has_connector(conn.name) or system.connector(conn.name) is not conn:
            issues.append(
                ValidationIssue(str(att), "role's connector is not in the system")
            )
        elif not conn.has_role(att.role.name) or conn.role(att.role.name) is not att.role:
            issues.append(ValidationIssue(str(att), "role no longer on its connector"))

    # Dangling roles
    for conn in system.connectors:
        for role in conn.roles:
            if system.attached_port(role) is None:
                issues.append(
                    ValidationIssue(role.qualified_name, "role is not attached")
                )

    return issues
