"""Parser for the Acme-ish textual surface syntax.

Supported subset (enough to express the paper's Figure 2/3 models):

.. code-block:: text

    Family ClientServerFam = {
        Component Type ClientT = {
            Property averageLatency : float = 0.0;
        };
        Connector Type LinkT = { Property bandwidth : float = 0.0; };
        invariant latencyOk : averageLatency <= maxLatency;
    };

    System S : ClientServerFam = {
        Component c1 : ClientT = {
            Property averageLatency = 0.1;
            Port request;
        };
        Connector conn1 : LinkT = { Role client; Role group; };
        Attachment c1.request to conn1.client;
        invariant qos : forall c : ClientT in self.components |
                        c.averageLatency <= 2.0;
    };

Invariant bodies are captured as raw text (tokens up to the terminating
semicolon) and handed to :mod:`repro.constraints` for parsing on demand —
the same layering the paper uses (AcmeLib stores constraints; a checker
evaluates them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.acme.elements import Component, Connector
from repro.acme.family import ElementType, Family
from repro.acme.lexer import Token, TokenStream, join_tokens, tokenize
from repro.acme.system import ArchSystem
from repro.errors import ParseError

__all__ = ["AcmeDocument", "parse_acme"]


@dataclass
class AcmeDocument:
    """Everything found in one source text."""

    families: Dict[str, Family] = field(default_factory=dict)
    systems: Dict[str, ArchSystem] = field(default_factory=dict)

    def family(self, name: str) -> Family:
        return self.families[name]

    def system(self, name: str) -> ArchSystem:
        return self.systems[name]


_KIND_WORDS = {"Component": "component", "Connector": "connector",
               "Port": "port", "Role": "role"}


class _AcmeParser:
    def __init__(self, source: str):
        self.ts = TokenStream(tokenize(source))
        self.doc = AcmeDocument()

    # -- toplevel -----------------------------------------------------------
    def parse(self) -> AcmeDocument:
        while self.ts.current.kind != "eof":
            if self.ts.at_ident("Family"):
                self._family()
            elif self.ts.at_ident("System"):
                self._system()
            else:
                raise self.ts.error(
                    f"expected 'Family' or 'System', got {self.ts.current.text!r}"
                )
        return self.doc

    # -- families -------------------------------------------------------------
    def _family(self) -> None:
        self.ts.expect_ident("Family")
        name = self.ts.expect_ident().text
        if name in self.doc.families:
            raise self.ts.error(f"duplicate family {name!r}")
        family = Family(name)
        self.ts.expect_punct("=")
        self.ts.expect_punct("{")
        while not self.ts.match_punct("}"):
            if self.ts.at_ident("invariant"):
                iname, expr = self._invariant()
                family.add_invariant(iname, expr)
            elif self.ts.current.text in _KIND_WORDS and self.ts.peek().is_ident("Type"):
                self._element_type(family)
            else:
                raise self.ts.error(
                    f"unexpected {self.ts.current.text!r} in family body"
                )
        self.ts.match_punct(";")
        self.doc.families[name] = family

    def _element_type(self, family: Family) -> None:
        kind = _KIND_WORDS[self.ts.advance().text]
        self.ts.expect_ident("Type")
        name = self.ts.expect_ident().text
        etype = ElementType(name, kind)
        self.ts.expect_punct("=")
        self.ts.expect_punct("{")
        while not self.ts.match_punct("}"):
            if self.ts.at_ident("Property"):
                pname, ptype, value, _ = self._property_decl(require_type=True)
                etype.declare_property(pname, ptype or "any", value,
                                       required=value is None)
            else:
                raise self.ts.error(
                    f"unexpected {self.ts.current.text!r} in type body"
                )
        self.ts.match_punct(";")
        family.declare_type(etype)

    # -- systems ----------------------------------------------------------------
    def _system(self) -> None:
        self.ts.expect_ident("System")
        name = self.ts.expect_ident().text
        if name in self.doc.systems:
            raise self.ts.error(f"duplicate system {name!r}")
        family_name: Optional[str] = None
        if self.ts.match_punct(":"):
            family_name = self.ts.expect_ident().text
        system = ArchSystem(name, family=family_name)
        family = self.doc.families.get(family_name) if family_name else None
        self.ts.expect_punct("=")
        self._system_members(system, family)
        self.ts.match_punct(";")
        self.doc.systems[name] = system

    def _system_members(self, system: ArchSystem, family: Optional[Family]) -> None:
        """Parse a brace-delimited member list into ``system``.

        Shared between top-level systems and component representations
        (Figure 2's server group containing replicated servers).
        """
        pending_attachments: List[Tuple[str, str, str, str, Token]] = []
        self.ts.expect_punct("{")
        while not self.ts.match_punct("}"):
            if self.ts.at_ident("Component"):
                self._component(system, family)
            elif self.ts.at_ident("Connector"):
                self._connector(system, family)
            elif self.ts.at_ident("Attachment"):
                pending_attachments.append(self._attachment())
            elif self.ts.at_ident("invariant"):
                iname, expr = self._invariant()
                system.add_invariant(iname, expr)
            else:
                raise self.ts.error(
                    f"unexpected {self.ts.current.text!r} in system body"
                )

        for comp_name, port_name, conn_name, role_name, tok in pending_attachments:
            try:
                port = system.component(comp_name).port(port_name)
                role = system.connector(conn_name).role(role_name)
                system.attach(port, role)
            except Exception as exc:
                raise ParseError(f"bad attachment: {exc}", tok.line, tok.column)

    def _type_list(self) -> List[str]:
        names = [self.ts.expect_ident().text]
        while self.ts.match_punct(","):
            names.append(self.ts.expect_ident().text)
        return names

    def _component(self, system: ArchSystem, family: Optional[Family]) -> None:
        self.ts.expect_ident("Component")
        name = self.ts.expect_ident().text
        types: List[str] = []
        if self.ts.match_punct(":"):
            types = self._type_list()
        comp = Component(name, set(types))
        if self.ts.match_punct("="):
            self.ts.expect_punct("{")
            while not self.ts.match_punct("}"):
                if self.ts.at_ident("Port"):
                    self.ts.advance()
                    pname = self.ts.expect_ident().text
                    ptypes: List[str] = []
                    if self.ts.match_punct(":"):
                        ptypes = self._type_list()
                    comp.add_port(pname, set(ptypes))
                    self.ts.match_punct(";")
                elif self.ts.at_ident("Property"):
                    pname, ptype, value, _ = self._property_decl(require_type=False)
                    comp.declare_property(pname, value, ptype or "any")
                elif self.ts.at_ident("Representation"):
                    self.ts.advance()
                    self.ts.match_punct("=")
                    rep = ArchSystem(f"{name}_rep", family=system.family)
                    self._system_members(rep, family)
                    self.ts.match_punct(";")
                    comp.representation = rep
                else:
                    raise self.ts.error(
                        f"unexpected {self.ts.current.text!r} in component body"
                    )
        self.ts.match_punct(";")
        system.add_component(comp)
        if family is not None:
            family.initialize(comp)

    def _connector(self, system: ArchSystem, family: Optional[Family]) -> None:
        self.ts.expect_ident("Connector")
        name = self.ts.expect_ident().text
        types: List[str] = []
        if self.ts.match_punct(":"):
            types = self._type_list()
        conn = Connector(name, set(types))
        if self.ts.match_punct("="):
            self.ts.expect_punct("{")
            while not self.ts.match_punct("}"):
                if self.ts.at_ident("Role"):
                    self.ts.advance()
                    rname = self.ts.expect_ident().text
                    rtypes: List[str] = []
                    if self.ts.match_punct(":"):
                        rtypes = self._type_list()
                    conn.add_role(rname, set(rtypes))
                    self.ts.match_punct(";")
                elif self.ts.at_ident("Property"):
                    pname, ptype, value, _ = self._property_decl(require_type=False)
                    conn.declare_property(pname, value, ptype or "any")
                else:
                    raise self.ts.error(
                        f"unexpected {self.ts.current.text!r} in connector body"
                    )
        self.ts.match_punct(";")
        system.add_connector(conn)
        if family is not None:
            family.initialize(conn)

    def _attachment(self) -> Tuple[str, str, str, str, Token]:
        tok = self.ts.expect_ident("Attachment")
        comp = self.ts.expect_ident().text
        self.ts.expect_punct(".")
        port = self.ts.expect_ident().text
        self.ts.expect_ident("to")
        conn = self.ts.expect_ident().text
        self.ts.expect_punct(".")
        role = self.ts.expect_ident().text
        self.ts.expect_punct(";")
        return comp, port, conn, role, tok

    # -- shared pieces ---------------------------------------------------------------
    def _property_decl(
        self, require_type: bool
    ) -> Tuple[str, Optional[str], Any, Token]:
        """``Property name [: type] [= literal] ;``"""
        tok = self.ts.expect_ident("Property")
        name = self.ts.expect_ident().text
        ptype: Optional[str] = None
        if self.ts.match_punct(":"):
            ptype = self.ts.expect_ident().text
        elif require_type:
            raise self.ts.error(f"property {name!r} in a type needs ': <type>'")
        value: Any = None
        if self.ts.match_punct("="):
            value = self._literal()
        self.ts.match_punct(";")
        return name, ptype, value, tok

    def _literal(self) -> Any:
        tok = self.ts.current
        if tok.kind == "number":
            self.ts.advance()
            return int(tok.value) if tok.value.is_integer() and "." not in tok.text \
                and "e" not in tok.text.lower() else tok.value
        if tok.kind == "string":
            self.ts.advance()
            return tok.text
        if tok.is_ident("true"):
            self.ts.advance()
            return True
        if tok.is_ident("false"):
            self.ts.advance()
            return False
        if self.ts.match_punct("-"):
            inner = self._literal()
            if not isinstance(inner, (int, float)):
                raise self.ts.error("'-' must precede a number")
            return -inner
        raise self.ts.error(f"expected literal, got {tok.text!r}")

    def _invariant(self) -> Tuple[str, str]:
        """``invariant [name :] <raw tokens> ;`` — body kept as source text."""
        self.ts.expect_ident("invariant")
        name = "invariant"
        if (
            self.ts.current.kind == "ident"
            and self.ts.peek().is_punct(":")
            and not self.ts.peek(2).is_punct(":")
        ):
            name = self.ts.advance().text
            self.ts.advance()  # ':'
        pieces: List[str] = []
        depth = 0
        while True:
            tok = self.ts.current
            if tok.kind == "eof":
                raise self.ts.error("unterminated invariant (missing ';')")
            if tok.is_punct(";") and depth == 0:
                self.ts.advance()
                break
            if tok.is_punct("(") or tok.is_punct("{"):
                depth += 1
            elif tok.is_punct(")") or tok.is_punct("}"):
                depth -= 1
            pieces.append(tok.text if tok.kind != "string" else f'"{tok.text}"')
            self.ts.advance()
        return name, join_tokens(pieces)


def parse_acme(source: str) -> AcmeDocument:
    """Parse Acme text into families and systems."""
    return _AcmeParser(source).parse()
