"""Parser for the repair DSL (Figure 5 syntax).

Two things beyond the grammar itself:

* every declaration and statement node records the ``line``/``column``
  of its first token (the lint pass anchors findings there);
* a parse failure *inside* a named declaration is re-raised with the
  declaration named in the message — ``in tactic 'fixServerLoad':
  expected ';', got '}' (line 21, column 5)`` — so multi-document
  sources point at the offending strategy/tactic, not just a bare
  coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.acme.lexer import TokenStream, join_tokens, tokenize
from repro.constraints.parser import ExpressionParser
from repro.errors import ParseError
from repro.repair.dsl.ast import (
    AbortStmt,
    CommitStmt,
    ExprStmt,
    ForeachStmt,
    IfStmt,
    InvariantDecl,
    LetStmt,
    Param,
    ReturnStmt,
    Stmt,
    StrategyDecl,
    TacticDecl,
)

__all__ = ["RepairDocument", "parse_repair_dsl"]


@dataclass
class RepairDocument:
    """All declarations found in one repair-DSL source."""

    strategies: Dict[str, StrategyDecl] = field(default_factory=dict)
    tactics: Dict[str, TacticDecl] = field(default_factory=dict)
    invariants: List[InvariantDecl] = field(default_factory=list)


class _DslParser:
    def __init__(self, source: str):
        self.ts = TokenStream(tokenize(source))
        self.expr = ExpressionParser(self.ts)
        self.doc = RepairDocument()

    def parse(self) -> RepairDocument:
        while self.ts.current.kind != "eof":
            if self.ts.at_ident("strategy"):
                decl = self._strategy()
                if decl.name in self.doc.strategies:
                    raise self.ts.error(f"duplicate strategy {decl.name!r}")
                self.doc.strategies[decl.name] = decl
            elif self.ts.at_ident("tactic"):
                decl = self._tactic()
                if decl.name in self.doc.tactics:
                    raise self.ts.error(f"duplicate tactic {decl.name!r}")
                self.doc.tactics[decl.name] = decl
            elif self.ts.at_ident("invariant"):
                self.doc.invariants.append(self._invariant())
            else:
                raise self.ts.error(
                    f"expected strategy/tactic/invariant, got {self.ts.current.text!r}"
                )
        return self.doc

    # -- declarations -------------------------------------------------------
    def _decl_error(self, kind: str, name: str, exc: ParseError) -> ParseError:
        """Re-raise a parse error naming its enclosing declaration."""
        return ParseError(
            f"in {kind} {name!r}: {exc.bare_message}", exc.line, exc.column
        )

    def _params(self) -> List[Param]:
        self.ts.expect_punct("(")
        params: List[Param] = []
        while not self.ts.at_punct(")"):
            tok = self.ts.expect_ident()
            name = tok.text
            type_name: Optional[str] = None
            if self.ts.match_punct(":"):
                type_name = self._type_name()
            params.append(Param(name, type_name, line=tok.line, column=tok.column))
            if not self.ts.match_punct(","):
                break
        self.ts.expect_punct(")")
        return params

    def _type_name(self) -> str:
        name = self.ts.expect_ident().text
        if name == "set" and self.ts.match_punct("{"):
            inner = self.ts.expect_ident().text
            self.ts.expect_punct("}")
            return inner
        return name

    def _strategy(self) -> StrategyDecl:
        kw = self.ts.expect_ident("strategy")
        name = self.ts.expect_ident().text
        try:
            params = self._params()
            self.ts.expect_punct("=")
            body = self._block()
        except ParseError as exc:
            raise self._decl_error("strategy", name, exc) from None
        return StrategyDecl(name, params, body, line=kw.line, column=kw.column)

    def _tactic(self) -> TacticDecl:
        kw = self.ts.expect_ident("tactic")
        name = self.ts.expect_ident().text
        try:
            params = self._params()
            returns: Optional[str] = None
            if self.ts.match_punct(":"):
                returns = self._type_name()
            self.ts.expect_punct("=")
            body = self._block()
        except ParseError as exc:
            raise self._decl_error("tactic", name, exc) from None
        return TacticDecl(name, params, body, returns, line=kw.line, column=kw.column)

    def _invariant(self) -> InvariantDecl:
        """``invariant name : <expr tokens> ! -> strategy(arg);``"""
        kw = self.ts.expect_ident("invariant")
        name = self.ts.expect_ident().text
        try:
            self.ts.expect_punct(":")
            pieces: List[str] = []
            while not (self.ts.at_punct("!") and self.ts.peek().is_punct("->")):
                tok = self.ts.current
                if tok.kind == "eof":
                    raise self.ts.error("unterminated invariant (expected '! ->')")
                pieces.append(tok.text if tok.kind != "string" else f'"{tok.text}"')
                self.ts.advance()
            self.ts.expect_punct("!")
            self.ts.expect_punct("->")
            strategy = self.ts.expect_ident().text
            argument: Optional[str] = None
            if self.ts.match_punct("("):
                if not self.ts.at_punct(")"):
                    argument = self.ts.expect_ident().text
                self.ts.expect_punct(")")
            self.ts.expect_punct(";")
        except ParseError as exc:
            raise self._decl_error("invariant", name, exc) from None
        return InvariantDecl(
            name,
            join_tokens(pieces),
            strategy,
            argument,
            line=kw.line,
            column=kw.column,
        )

    # -- statements -----------------------------------------------------------
    def _block(self) -> List[Stmt]:
        self.ts.expect_punct("{")
        stmts: List[Stmt] = []
        while not self.ts.match_punct("}"):
            stmts.append(self._statement())
        return stmts

    def _statement(self) -> Stmt:
        tok = self.ts.current
        if self.ts.at_ident("let"):
            return self._let()
        if self.ts.at_ident("if"):
            return self._if()
        if self.ts.at_ident("foreach"):
            return self._foreach()
        if self.ts.at_ident("return"):
            return self._return()
        if self.ts.at_ident("commit"):
            self.ts.advance()
            self.ts.expect_ident("repair")
            self.ts.expect_punct(";")
            return CommitStmt(line=tok.line, column=tok.column)
        if self.ts.at_ident("abort"):
            self.ts.advance()
            reason = self.ts.expect_ident().text
            self.ts.expect_punct(";")
            return AbortStmt(reason, line=tok.line, column=tok.column)
        expr = self.expr.expression()
        self.ts.expect_punct(";")
        return ExprStmt(expr, line=tok.line, column=tok.column)

    def _let(self) -> LetStmt:
        kw = self.ts.expect_ident("let")
        name = self.ts.expect_ident().text
        type_name: Optional[str] = None
        if self.ts.match_punct(":"):
            type_name = self._type_name()
        self.ts.expect_punct("=")
        value = self.expr.expression()
        self.ts.expect_punct(";")
        return LetStmt(name, type_name, value, line=kw.line, column=kw.column)

    def _if(self) -> IfStmt:
        kw = self.ts.expect_ident("if")
        self.ts.expect_punct("(")
        cond = self.expr.expression()
        self.ts.expect_punct(")")
        then_block = self._block()
        else_block: Optional[List[Stmt]] = None
        if self.ts.match_ident("else"):
            if self.ts.at_ident("if"):
                else_block = [self._if()]
            else:
                else_block = self._block()
        return IfStmt(cond, then_block, else_block, line=kw.line, column=kw.column)

    def _foreach(self) -> ForeachStmt:
        kw = self.ts.expect_ident("foreach")
        var = self.ts.expect_ident().text
        self.ts.expect_ident("in")
        domain = self.expr.expression()
        body = self._block()
        return ForeachStmt(var, domain, body, line=kw.line, column=kw.column)

    def _return(self) -> ReturnStmt:
        kw = self.ts.expect_ident("return")
        if self.ts.match_punct(";"):
            return ReturnStmt(None, line=kw.line, column=kw.column)
        value = self.expr.expression()
        self.ts.expect_punct(";")
        return ReturnStmt(value, line=kw.line, column=kw.column)


def parse_repair_dsl(source: str) -> RepairDocument:
    """Parse repair-DSL text into strategies, tactics, and invariants."""
    return _DslParser(source).parse()
