"""Lexer and recursive-descent parser for the surface language.

Term grammar::

    term   ::= "\\" ident "." term
             | "let" ident "=" term "in" term
             | app
    app    ::= atom+                          -- application, left associative
    atom   ::= ident | int | string | "(" term ")" | record
             | atom "." ident                 -- field selection
             | atom "-" ident                 -- field restriction
    record ::= "{" [field ("," field)*] ["|" term] "}"
    field  ::= ident "=" term

``{l = e, ... | r}`` extends record ``r`` with the given fields; without
the tail it is a record literal.  Selection and restriction bind tighter
than application, so ``f r.name`` is ``f (r.name)``.

Type grammar::

    type   ::= appty "->" type | appty       -- arrows, right associative
    appty  ::= atomty+                        -- application, left associative
    atomty ::= conname | varname | "(" type ")" | row
    row    ::= "{" [ident ":" type ("," ...)*] ["|" varname] "}"

Names starting with an upper-case letter are type constructors, others
are type variables.  A variable used as a row tail has kind row, any
other use has kind ``*``; one name may not be used both ways.

Comments run from ``--`` to end of line.  Keywords: ``let``, ``in``.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

from rowml.syntax import (
    App,
    BASE_CONSTRUCTORS,
    Extend,
    Lam,
    Let,
    Lit,
    ROW,
    RecordLit,
    Restrict,
    STAR,
    Select,
    TApp,
    TFun,
    TRow,
    TVar,
    Term,
    Type,
    TypeVar,
    Var,
)


@dataclass(frozen=True)
class SourceSpan:
    """Byte range in the input plus the 1-based line/column of its start."""

    start: int
    end: int
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, span: SourceSpan, expected: tuple[str, ...], found: str) -> None:
        assert expected, "a parse error must list what it expected"
        self.span = span
        self.expected = expected
        self.found = found
        if len(expected) == 1:
            what = expected[0]
        else:
            what = "one of: " + ", ".join(expected)
        super().__init__(f"expected {what}, found {found}")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


_KEYWORDS = {"let", "in"}
_SIMPLE = {
    "\\": "lambda",
    ".": "dot",
    "(": "lparen",
    ")": "rparen",
    "{": "lbrace",
    "}": "rbrace",
    ",": "comma",
    "|": "pipe",
    "=": "equals",
    ":": "colon",
}
_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, col = 0, 1, 1

    def span(start: int, start_line: int, start_col: int) -> SourceSpan:
        return SourceSpan(start, pos, start_line, start_col)

    def advance() -> str:
        nonlocal pos, line, col
        c = src[pos]
        pos += 1
        if c == "\n":
            line += 1
            col = 1
        else:
            col += 1
        return c

    while pos < len(src):
        c = src[pos]
        if c in " \t\r\n":
            advance()
            continue
        if src.startswith("--", pos):
            while pos < len(src) and src[pos] != "\n":
                advance()
            continue
        start, start_line, start_col = pos, line, col
        if c.isalpha() or c == "_":
            while pos < len(src) and (src[pos].isalnum() or src[pos] == "_"):
                advance()
            text = src[start:pos]
            kind = text if text in _KEYWORDS else "ident"
            tokens.append(_Token(kind, text, span(start, start_line, start_col)))
            continue
        if c.isdigit():
            while pos < len(src) and src[pos].isdigit():
                advance()
            tokens.append(_Token("int", src[start:pos], span(start, start_line, start_col)))
            continue
        if c == '"':
            advance()
            chars: list[str] = []
            while True:
                if pos >= len(src) or src[pos] == "\n":
                    raise ParseError(
                        span(start, start_line, start_col), ("closing '\"'",), "end of string"
                    )
                c = advance()
                if c == '"':
                    break
                if c == "\\":
                    if pos >= len(src) or src[pos] not in _STRING_ESCAPES:
                        raise ParseError(
                            span(start, start_line, start_col),
                            ("escape sequence",),
                            repr(src[pos]) if pos < len(src) else "end of input",
                        )
                    chars.append(_STRING_ESCAPES[advance()])
                else:
                    chars.append(c)
            tokens.append(_Token("string", "".join(chars), span(start, start_line, start_col)))
            continue
        if c == "-":
            advance()
            if pos < len(src) and src[pos] == ">":
                advance()
                tokens.append(_Token("arrow", "->", span(start, start_line, start_col)))
            else:
                tokens.append(_Token("minus", "-", span(start, start_line, start_col)))
            continue
        if c in _SIMPLE:
            advance()
            tokens.append(_Token(_SIMPLE[c], c, span(start, start_line, start_col)))
            continue
        raise ParseError(SourceSpan(pos, pos + 1, line, col), ("a token",), repr(c))
    tokens.append(_Token("eof", "", SourceSpan(pos, pos, line, col)))
    return tokens


_TOKEN_NAMES = {
    "ident": "identifier",
    "int": "integer literal",
    "string": "string literal",
    "eof": "end of input",
}


def _describe(tok: _Token) -> str:
    if tok.kind in _TOKEN_NAMES:
        return _TOKEN_NAMES[tok.kind]
    return f"'{tok.text}'"


_ATOM_START = ("ident", "int", "string", "lparen", "lbrace")


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, description: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.span, (description,), _describe(tok))
        return self.next()

    def fail(self, *expected: str) -> ParseError:
        tok = self.peek()
        return ParseError(tok.span, expected, _describe(tok))

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "lambda":
            self.next()
            param = self.expect("ident", "identifier")
            self.expect("dot", "'.'")
            body = self.term()
            return Lam(param.text, body, span=_join(tok.span, _term_span(body)))
        if tok.kind == "let":
            self.next()
            name = self.expect("ident", "identifier")
            self.expect("equals", "'='")
            bound = self.term()
            self.expect("in", "'in'")
            body = self.term()
            return Let(name.text, bound, body, span=_join(tok.span, _term_span(body)))
        return self.application()

    def application(self) -> Term:
        t = self.atom()
        while self.peek().kind in _ATOM_START:
            arg = self.atom()
            t = App(t, arg, span=_join(_term_span(t), _term_span(arg)))
        return t

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            t: Term = Var(tok.text, span=tok.span)
        elif tok.kind == "int":
            self.next()
            try:
                value = int(tok.text)
            except ValueError:  # more digits than the interpreter converts
                limit = sys.get_int_max_str_digits()
                raise ParseError(
                    tok.span,
                    (f"integer literal of at most {limit} digits",),
                    f"{len(tok.text)} digits",
                ) from None
            t = Lit(value, span=tok.span)
        elif tok.kind == "string":
            self.next()
            t = Lit(tok.text, span=tok.span)
        elif tok.kind == "lparen":
            self.next()
            t = self.term()
            close = self.expect("rparen", "')'")
            t = _with_span(t, _join(tok.span, close.span))
        elif tok.kind == "lbrace":
            t = self.record()
        else:
            raise self.fail("identifier", "literal", "'('", "'{'")
        return self.postfix(t)

    def postfix(self, t: Term) -> Term:
        while True:
            tok = self.peek()
            if tok.kind == "dot":
                self.next()
                label = self.expect("ident", "identifier")
                t = Select(t, label.text, span=_join(_term_span(t), label.span))
            elif tok.kind == "minus":
                self.next()
                label = self.expect("ident", "identifier")
                t = Restrict(t, label.text, span=_join(_term_span(t), label.span))
            else:
                return t

    def record(self) -> Term:
        open_ = self.expect("lbrace", "'{'")
        fields: list[tuple[_Token, Term]] = []
        if self.peek().kind == "ident":
            while True:
                label = self.expect("ident", "identifier")
                self.expect("equals", "'='")
                fields.append((label, self.term()))
                if self.peek().kind != "comma":
                    break
                self.next()
        elif self.peek().kind != "rbrace":
            raise self.fail("identifier", "'}'")
        seen: set[str] = set()
        for label, _ in fields:
            if label.text in seen:
                raise ParseError(label.span, ("a distinct label",), f"duplicate label '{label.text}'")
            seen.add(label.text)
        if self.peek().kind == "pipe":
            pipe = self.next()
            if not fields:
                raise ParseError(pipe.span, ("at least one field before '|'",), "'|'")
            tail = self.term()
            close = self.expect("rbrace", "'}'")
            span = _join(open_.span, close.span)
            t = tail
            for label, value in reversed(fields):
                t = Extend(label.text, value, t, span=span)
            return t
        close = self.expect("rbrace", "'}'")
        return RecordLit(
            {label.text: value for label, value in fields},
            span=_join(open_.span, close.span),
        )

    # -- types --------------------------------------------------------------

    def type_(self, ctx: _TypeContext) -> Type:
        t = self.type_application(ctx)
        if self.peek().kind == "arrow":
            self.next()
            return TFun(t, self.type_(ctx))
        return t

    def type_application(self, ctx: _TypeContext) -> Type:
        t = self.type_atom(ctx)
        while self.peek().kind in ("ident", "lparen", "lbrace"):
            t = TApp(t, self.type_atom(ctx))
        return t

    def type_atom(self, ctx: _TypeContext) -> Type:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            if tok.text[0].isupper():
                con = BASE_CONSTRUCTORS.get(tok.text)
                if con is None:
                    raise ParseError(
                        tok.span, ("a known type constructor",), f"'{tok.text}'"
                    )
                return con
            return TVar(ctx.var(tok, STAR))
        if tok.kind == "lparen":
            self.next()
            t = self.type_(ctx)
            self.expect("rparen", "')'")
            return t
        if tok.kind == "lbrace":
            return self.row(ctx)
        raise self.fail("type constructor", "type variable", "'('", "'{'")

    def row(self, ctx: _TypeContext) -> Type:
        self.expect("lbrace", "'{'")
        fields: dict[str, Type] = {}
        if self.peek().kind == "ident":
            while True:
                label = self.expect("ident", "identifier")
                if label.text in fields:
                    raise ParseError(
                        label.span, ("a distinct label",), f"duplicate label '{label.text}'"
                    )
                self.expect("colon", "':'")
                fields[label.text] = self.type_(ctx)
                if self.peek().kind != "comma":
                    break
                self.next()
        tail = None
        if self.peek().kind == "pipe":
            self.next()
            name = self.expect("ident", "row variable")
            if name.text[0].isupper():
                raise ParseError(name.span, ("a row variable",), f"'{name.text}'")
            tail = ctx.var(name, ROW)
        self.expect("rbrace", "'}'")
        return TRow(fields, tail)


class _TypeContext:
    """Names to variables: each name gets one variable whose kind is
    fixed by its first use (row tail vs. field/arrow position)."""

    def __init__(self) -> None:
        self.vars: dict[str, TypeVar] = {}

    def var(self, tok: _Token, kind) -> TypeVar:
        existing = self.vars.get(tok.text)
        if existing is not None:
            if existing.kind != kind:
                raise ParseError(
                    tok.span,
                    (f"'{tok.text}' used at one kind only",),
                    f"'{tok.text}' at kind {kind} after kind {existing.kind}",
                )
            return existing
        v = TypeVar(len(self.vars), kind)
        self.vars[tok.text] = v
        return v


def _term_span(t: Term) -> SourceSpan:
    span = t.span  # type: ignore[attr-defined]
    assert span is not None
    return span


def _join(a: SourceSpan, b: SourceSpan) -> SourceSpan:
    return SourceSpan(a.start, b.end, a.line, a.col)


def _with_span(t: Term, span: SourceSpan):
    return dataclasses.replace(t, span=span)


def parse_term(src: str) -> Term:
    """Parse a complete term; raises ParseError with a source span."""
    parser = _Parser(_tokenize(src))
    t = parser.term()
    parser.expect("eof", "end of input")
    return t


def parse_type(src: str) -> Type:
    """Parse a complete type expression over the built-in constructors
    (Int, String, Bool, List, Rec)."""
    parser = _Parser(_tokenize(src))
    ctx = _TypeContext()
    t = parser.type_(ctx)
    parser.expect("eof", "end of input")
    return t
