"""Recursive-descent parser for constraint expressions.

Grammar (highest line binds loosest)::

    expr        := implies
    implies     := or_expr ('->' or_expr)*               (right-assoc)
    or_expr     := and_expr (('or' | '||') and_expr)*
    and_expr    := not_expr (('and' | '&&') not_expr)*
    not_expr    := ('!' | 'not') not_expr | comparison
    comparison  := additive (('<'|'<='|'>'|'>='|'=='|'!='|'in') additive)?
    additive    := term (('+'|'-') term)*
    term        := unary (('*'|'/'|'%') unary)*
    unary       := '-' unary | postfix
    postfix     := primary ('.' IDENT ['(' args ')'])*
    primary     := NUMBER | STRING | 'true' | 'false' | 'nil'
                 | quantified | select | IDENT ['(' args ')']
                 | '(' expr ')' | '{' [expr (',' expr)*] '}'
    quantified  := ('forall'|'exists' ['unique']) IDENT [':' IDENT]
                   'in' expr '|' expr
    select      := 'select' ['one'] IDENT [':' IDENT] 'in' expr '|' expr
"""

from __future__ import annotations

from typing import List, Optional

from repro.acme.lexer import TokenStream, tokenize
from repro.constraints.ast import (
    Binary,
    Call,
    Literal,
    Name,
    Node,
    PropertyAccess,
    Quantifier,
    Select,
    SetLiteral,
    Unary,
)
from repro.errors import ParseError

__all__ = ["parse_expression", "ExpressionParser"]

_KEYWORDS = {
    "forall",
    "exists",
    "unique",
    "select",
    "one",
    "in",
    "and",
    "or",
    "not",
    "true",
    "false",
    "nil",
}


class ExpressionParser:
    """Parses one expression; also reusable by the repair-DSL parser
    (construct with an existing :class:`TokenStream`)."""

    def __init__(self, ts: TokenStream):
        self.ts = ts

    # -- entry -----------------------------------------------------------------
    def expression(self) -> Node:
        return self._implies()

    # -- precedence ladder --------------------------------------------------------
    def _implies(self) -> Node:
        left = self._or()
        if self.ts.at_punct("->"):
            tok = self.ts.advance()
            right = self._implies()  # right associative
            return Binary("->", left, right).at(tok.line, tok.column)
        return left

    def _or(self) -> Node:
        left = self._and()
        while self.ts.at_ident("or") or self.ts.at_punct("||"):
            tok = self.ts.advance()
            left = Binary("or", left, self._and()).at(tok.line, tok.column)
        return left

    def _and(self) -> Node:
        left = self._not()
        while self.ts.at_ident("and") or self.ts.at_punct("&&"):
            tok = self.ts.advance()
            left = Binary("and", left, self._not()).at(tok.line, tok.column)
        return left

    def _not(self) -> Node:
        if self.ts.at_punct("!") or self.ts.at_ident("not"):
            tok = self.ts.advance()
            return Unary("!", self._not()).at(tok.line, tok.column)
        return self._comparison()

    _CMP = ("<=", ">=", "<", ">", "==", "!=")

    def _comparison(self) -> Node:
        left = self._additive()
        for op in self._CMP:
            if self.ts.at_punct(op):
                tok = self.ts.advance()
                return Binary(op, left, self._additive()).at(tok.line, tok.column)
        if self.ts.at_ident("in"):
            tok = self.ts.advance()
            return Binary("in", left, self._additive()).at(tok.line, tok.column)
        return left

    def _additive(self) -> Node:
        left = self._term()
        while self.ts.at_punct("+") or self.ts.at_punct("-"):
            tok = self.ts.advance()
            left = Binary(tok.text, left, self._term()).at(tok.line, tok.column)
        return left

    def _term(self) -> Node:
        left = self._unary()
        while self.ts.at_punct("*") or self.ts.at_punct("/") or self.ts.at_punct("%"):
            tok = self.ts.advance()
            left = Binary(tok.text, left, self._unary()).at(tok.line, tok.column)
        return left

    def _unary(self) -> Node:
        if self.ts.at_punct("-"):
            tok = self.ts.advance()
            return Unary("-", self._unary()).at(tok.line, tok.column)
        return self._postfix()

    def _postfix(self) -> Node:
        node = self._primary()
        while self.ts.at_punct("."):
            self.ts.advance()
            attr_tok = self.ts.expect_ident()
            if self.ts.at_punct("("):
                args = self._arguments()
                node = Call(attr_tok.text, args, receiver=node).at(
                    attr_tok.line, attr_tok.column
                )
            else:
                node = PropertyAccess(node, attr_tok.text).at(
                    attr_tok.line, attr_tok.column
                )
        return node

    def _arguments(self) -> List[Node]:
        self.ts.expect_punct("(")
        args: List[Node] = []
        if not self.ts.at_punct(")"):
            args.append(self.expression())
            while self.ts.match_punct(","):
                args.append(self.expression())
        self.ts.expect_punct(")")
        return args

    def _primary(self) -> Node:
        tok = self.ts.current
        if tok.kind == "number":
            self.ts.advance()
            return Literal(tok.value).at(tok.line, tok.column)
        if tok.kind == "string":
            self.ts.advance()
            return Literal(tok.text).at(tok.line, tok.column)
        if tok.is_ident("true"):
            self.ts.advance()
            return Literal(True).at(tok.line, tok.column)
        if tok.is_ident("false"):
            self.ts.advance()
            return Literal(False).at(tok.line, tok.column)
        if tok.is_ident("nil"):
            self.ts.advance()
            return Literal(None).at(tok.line, tok.column)
        if tok.is_ident("forall") or tok.is_ident("exists"):
            return self._quantifier()
        if tok.is_ident("select"):
            return self._select()
        if self.ts.match_punct("("):
            inner = self.expression()
            self.ts.expect_punct(")")
            return inner
        if self.ts.match_punct("{"):
            items: List[Node] = []
            if not self.ts.at_punct("}"):
                items.append(self.expression())
                while self.ts.match_punct(","):
                    items.append(self.expression())
            self.ts.expect_punct("}")
            return SetLiteral(items).at(tok.line, tok.column)
        if tok.kind == "ident":
            if tok.text in _KEYWORDS:
                raise self.ts.error(f"unexpected keyword {tok.text!r}")
            self.ts.advance()
            if self.ts.at_punct("("):
                args = self._arguments()
                return Call(tok.text, args).at(tok.line, tok.column)
            return Name(tok.text).at(tok.line, tok.column)
        raise self.ts.error(f"unexpected token {tok.text!r} in expression")

    # -- quantified forms ------------------------------------------------------------
    def _var_type_domain(self):
        var = self.ts.expect_ident().text
        type_name: Optional[str] = None
        if self.ts.match_punct(":"):
            # allow set{...} style annotations: `set{ServerGroupT}`
            tname = self.ts.expect_ident().text
            if tname == "set" and self.ts.match_punct("{"):
                tname = self.ts.expect_ident().text
                self.ts.expect_punct("}")
            type_name = tname
        self.ts.expect_ident("in")
        domain = self.expression()
        self.ts.expect_punct("|")
        body = self.expression()
        return var, type_name, domain, body

    def _quantifier(self) -> Node:
        tok = self.ts.advance()  # forall | exists
        kind = tok.text
        if kind == "exists" and self.ts.match_ident("unique"):
            kind = "exists_unique"
        var, type_name, domain, body = self._var_type_domain()
        return Quantifier(kind, var, type_name, domain, body).at(tok.line, tok.column)

    def _select(self) -> Node:
        tok = self.ts.advance()  # select
        one = self.ts.match_ident("one")
        var, type_name, domain, body = self._var_type_domain()
        return Select(var, type_name, domain, body, one=one).at(tok.line, tok.column)


def parse_expression(source: str) -> Node:
    """Parse a standalone constraint expression from text."""
    ts = TokenStream(tokenize(source))
    node = ExpressionParser(ts).expression()
    if ts.current.kind != "eof":
        raise ParseError(
            f"trailing input after expression: {ts.current.text!r}",
            ts.current.line,
            ts.current.column,
        )
    return node
