"""Unparser: render a system as Acme surface text.

Every component, connector, port, role, type name, non-``None`` property
value and attachment appears in the text, representations nested in
their component, so two systems that differ in any of these render
differently (``tests/test_properties_model.py``).  Differential suites
compare models through it, and ``examples/load_balancing_experiment.py``
prints it.  Nothing parses it back.
"""

from __future__ import annotations

from typing import Any, List

from repro.acme.elements import Component, Connector
from repro.acme.system import ArchSystem

__all__ = ["unparse_system"]


def _literal(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return f'"{value}"'


def _types_suffix(types) -> str:
    return f" : {', '.join(sorted(types))}" if types else ""


def _unparse_properties(element, indent: str, lines: List[str]) -> None:
    for prop in element.properties():
        if prop.value is None:
            continue
        ptype = f" : {prop.ptype}" if prop.ptype != "any" else ""
        lines.append(f"{indent}Property {prop.name}{ptype} = {_literal(prop.value)};")


def _unparse_component(comp: Component, lines: List[str], indent: str) -> None:
    inner = indent + "    "
    header = f"{indent}Component {comp.name}{_types_suffix(comp.types)}"
    body: List[str] = []
    for port in comp.ports:
        body.append(f"{inner}Port {port.name}{_types_suffix(port.types)};")
    _unparse_properties(comp, inner, body)
    if comp.representation is not None:
        body.append(f"{inner}Representation = {{")
        _unparse_members(comp.representation, body, inner + "    ")
        body.append(f"{inner}}};")
    if body:
        lines.append(header + " = {")
        lines.extend(body)
        lines.append(indent + "};")
    else:
        lines.append(header + ";")


def _unparse_connector(conn: Connector, lines: List[str], indent: str) -> None:
    inner = indent + "    "
    header = f"{indent}Connector {conn.name}{_types_suffix(conn.types)}"
    body: List[str] = []
    for role in conn.roles:
        body.append(f"{inner}Role {role.name}{_types_suffix(role.types)};")
    _unparse_properties(conn, inner, body)
    if body:
        lines.append(header + " = {")
        lines.extend(body)
        lines.append(indent + "};")
    else:
        lines.append(header + ";")


def _unparse_members(system: ArchSystem, lines: List[str], indent: str) -> None:
    """System members (components, connectors, attachments)."""
    for comp in system.components:
        _unparse_component(comp, lines, indent)
    for conn in system.connectors:
        _unparse_connector(conn, lines, indent)
    for att in system.attachments:
        lines.append(
            f"{indent}Attachment {att.port.qualified_name} "
            f"to {att.role.qualified_name};"
        )


def unparse_system(system: ArchSystem) -> str:
    """Render a system declaration (including component representations)."""
    family = f" : {system.family}" if system.family else ""
    lines: List[str] = [f"System {system.name}{family} = {{"]
    _unparse_members(system, lines, "    ")
    lines.append("};")
    return "\n".join(lines)
