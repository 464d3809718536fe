"""Tokenizer shared by the constraint and repair-DSL parsers.

Produces a flat token list with line/column information.  Comments (``//``
and ``/* */``) and whitespace are skipped.  Keywords are *not* distinguished
here — each parser treats the identifiers it cares about as keywords, which
keeps one lexer serving both small languages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ParseError

__all__ = ["Token", "join_tokens", "tokenize"]

_PUNCT2 = ("<=", ">=", "==", "!=", "->", "||", "&&", ":=")
_PUNCT1 = "{}()[].,;:<>=!+-*/|&%"
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is ``ident``, ``number``, ``string``, ``punct``, or ``eof``;
    ``text`` is the raw lexeme (strings are unquoted), ``value`` is the
    parsed number for numeric tokens.
    """

    kind: str
    text: str
    line: int
    column: int
    value: float = 0.0

    def is_punct(self, text: str) -> bool:
        return self.kind == "punct" and self.text == text

    def is_ident(self, text: str) -> bool:
        return self.kind == "ident" and self.text == text


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into tokens, ending with a single ``eof`` token."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    while i < n:
        ch = source[i]
        # -- whitespace ---------------------------------------------------
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        # -- comments -----------------------------------------------------
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        # -- strings --------------------------------------------------------
        if ch in "\"'":
            quote = ch
            j = i + 1
            buf: List[str] = []
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    raise error("unterminated string literal")
                if source[j] == "\\" and j + 1 < n:
                    buf.append(source[j + 1])
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise error("unterminated string literal")
            text = "".join(buf)
            tokens.append(Token("string", text, line, col))
            col += j + 1 - i
            i = j + 1
            continue
        # -- numbers ----------------------------------------------------------
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # don't swallow a dotted name like "1..2" or method call
                    if j + 1 < n and not source[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            # exponent
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            tokens.append(Token("number", text, line, col, value=float(text)))
            col += j - i
            i = j
            continue
        # -- identifiers ----------------------------------------------------------
        if ch in _IDENT_START:
            j = i
            while j < n and source[j] in _IDENT_CONT:
                j += 1
            text = source[i:j]
            tokens.append(Token("ident", text, line, col))
            col += j - i
            i = j
            continue
        # -- punctuation -------------------------------------------------------------
        two = source[i:i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", "", line, col))
    return tokens


def join_tokens(pieces: List[str]) -> str:
    """Re-join raw tokens with minimal spacing (keeps '.' tight)."""
    out: List[str] = []
    for piece in pieces:
        if piece == "." and out:
            out[-1] = out[-1] + "."
        elif out and out[-1].endswith("."):
            out[-1] = out[-1] + piece
        else:
            out.append(piece)
    return " ".join(out)


class TokenStream:
    """Cursor over a token list with the usual parser conveniences."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, ahead: int = 1) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        return self.current.is_punct(text)

    def at_ident(self, text: str) -> bool:
        return self.current.is_ident(text)

    def match_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.advance()
            return True
        return False

    def match_ident(self, text: str) -> bool:
        if self.at_ident(text):
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.error(f"expected {text!r}, got {self.current.text!r}")
        return self.advance()

    def expect_ident(self, text: str = "") -> Token:
        if self.current.kind != "ident" or (text and self.current.text != text):
            want = text or "identifier"
            raise self.error(f"expected {want!r}, got {self.current.text!r}")
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(message, tok.line, tok.column)
