"""Lexer and recursive-descent parser for the surface language.

Lexical rules: whitespace is space, tab, CR and LF.  An identifier is a
letter or ``_``, then letters, digits or ``_`` (Unicode: a character
for which `str.isalpha` holds, then ones for which `str.isalnum` does).
An integer is decimal digits (`str.isdecimal`, what `int` reads).  A
string is double-quoted on one line, with the escapes
``\\\\ \\" \\n \\t``.  Comments run from ``--`` to the end of the line.
Keywords: ``let``, ``in``.  A span's line and column count characters
from 1.

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
"""

from __future__ import annotations

import dataclasses
import re
import sys
from typing import NamedTuple

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
    Term,
    Type,
    TypeVar,
    Var,
)


class SourceSpan(NamedTuple):
    """Character range in the input plus the 1-based line/column of its start."""

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


# Splitting on tokens leaves the space between them, which must be
# whitespace.  `[^\W\d]` also takes numeric characters such as 'Ⅻ' that
# are no letters; `_tokenize` rejects those.
_TOKEN = re.compile(
    r"""( [^\W\d]\w*                    # identifier or keyword
        | \d+                          # integer
        | "(?:[^"\\\n]|\\[\\"nt])*"     # string
        | --[^\n]*                     # comment
        | ->
        | [-\\.(){},|=:]
        )""",
    re.VERBOSE,
)
_SPACE = " \t\r\n"
# The longest well-formed prefix of a string that does not close.
_STRING_PREFIX = re.compile(r'"(?:[^"\\\n]|\\[\\"nt])*')
_ESCAPE = re.compile(r"\\(.)")
_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
# The kind of every token whose text is fixed.
_KINDS = {
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
    "-": "minus",
    "->": "arrow",
    "let": "let",
    "in": "in",
    "": "eof",
}


def _tokenize(src: str):
    """The tokens of `src` as parallel lists: kind, text (a string
    literal's value), start, end, and the line and column of the start.
    The last token is "eof"."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    lines: list[int] = []
    cols: list[int] = []
    pos, line, line_start = 0, 1, 0
    parts = _TOKEN.split(src)
    parts.append("")  # the end of input, after the trailing space
    pairs = iter(parts)
    for space, text in zip(pairs, pairs):
        if space:
            if space.strip(_SPACE):
                raise _lex_error(src, pos + len(space) - len(space.lstrip(_SPACE)))
            if "\n" in space:
                line += space.count("\n")
                line_start = pos + space.rindex("\n") + 1
            pos += len(space)
        start = pos
        pos += len(text)
        kind = _KINDS.get(text)
        if kind is None:
            c = text[0]
            if c.isalpha() or c == "_":
                kind = "ident"
            elif c.isdecimal():
                kind = "int"
            elif c == '"':
                kind = "string"
                text = text[1:-1]
                if "\\" in text:
                    text = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e[1]], text)
            elif c == "-":
                continue  # a comment
            else:
                raise _lex_error(src, start)
        kinds.append(kind)
        texts.append(text)
        starts.append(start)
        ends.append(pos)
        lines.append(line)
        cols.append(start - line_start + 1)
    return kinds, texts, starts, ends, lines, cols


def _lex_error(src: str, pos: int) -> ParseError:
    """The error for position `pos`, where no token starts: a character
    that starts none, or a string that meets a newline, the end of the
    input or a bad escape before it closes."""
    line = src.count("\n", 0, pos) + 1
    col = pos - src.rfind("\n", 0, pos)
    if src[pos] != '"':
        return ParseError(SourceSpan(pos, pos + 1, line, col), ("a token",), repr(src[pos]))
    end = _STRING_PREFIX.match(src, pos).end()
    if end == len(src) or src[end] == "\n":
        return ParseError(SourceSpan(pos, end, line, col), ("closing '\"'",), "end of string")
    found = repr(src[end + 1]) if end + 1 < len(src) else "end of input"
    return ParseError(SourceSpan(pos, end + 1, line, col), ("escape sequence",), found)


_TOKEN_NAMES = {
    "ident": "identifier",
    "int": "integer literal",
    "string": "string literal",
    "eof": "end of input",
}
_ATOM_START = ("ident", "int", "string", "lparen", "lbrace")


class _Parser:
    """Recursive descent over the token lists of `_tokenize`; a token is
    addressed by its index."""

    def __init__(self, src: str) -> None:
        self.kinds, self.texts, self.starts, self.ends, self.lines, self.cols = _tokenize(src)
        self.pos = 0
        # Type variables by name; a name's first use fixes its kind (row
        # tail vs. field/arrow position).
        self.type_vars: dict[str, TypeVar] = {}

    def span(self, i: int, end: int | None = None) -> SourceSpan:
        """Token `i`'s span, or the span from its start to `end`."""
        return SourceSpan(
            self.starts[i], self.ends[i] if end is None else end, self.lines[i], self.cols[i]
        )

    def expect(self, kind: str, description: str) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            raise self.fail(description)
        self.pos = i + 1
        return i

    def fail(self, *expected: str) -> ParseError:
        i = self.pos
        found = _TOKEN_NAMES.get(self.kinds[i]) or f"'{self.texts[i]}'"
        return ParseError(self.span(i), expected, found)

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        i = self.pos
        kind = self.kinds[i]
        if kind == "lambda":
            self.pos = i + 1
            param = self.expect("ident", "identifier")
            self.expect("dot", "'.'")
            body = self.term()
            return Lam(self.texts[param], body, span=self.span(i, body.span.end))
        if kind == "let":
            self.pos = i + 1
            name = self.expect("ident", "identifier")
            self.expect("equals", "'='")
            bound = self.term()
            self.expect("in", "'in'")
            body = self.term()
            return Let(self.texts[name], bound, body, span=self.span(i, body.span.end))
        return self.application()

    def application(self) -> Term:
        t = self.atom()
        while self.kinds[self.pos] in _ATOM_START:
            arg = self.atom()
            t = App(t, arg, span=_join(t.span, arg.span.end))
        return t

    def atom(self) -> Term:
        i = self.pos
        kind = self.kinds[i]
        if kind == "ident":
            self.pos = i + 1
            t: Term = Var(self.texts[i], span=self.span(i))
        elif kind == "int":
            self.pos = i + 1
            text = self.texts[i]
            try:
                value = int(text)
            except ValueError:  # more digits than the interpreter converts
                limit = sys.get_int_max_str_digits()
                raise ParseError(
                    self.span(i),
                    (f"integer literal of at most {limit} digits",),
                    f"{len(text)} digits",
                ) from None
            t = Lit(value, span=self.span(i))
        elif kind == "string":
            self.pos = i + 1
            t = Lit(self.texts[i], span=self.span(i))
        elif kind == "lparen":
            self.pos = i + 1
            t = self.term()
            close = self.expect("rparen", "')'")
            t = dataclasses.replace(t, span=self.span(i, self.ends[close]))
        elif kind == "lbrace":
            t = self.record()
        else:
            raise self.fail("identifier", "literal", "'('", "'{'")
        return self.postfix(t)

    def postfix(self, t: Term) -> Term:
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind == "dot" or kind == "minus":
                self.pos += 1
                label = self.expect("ident", "identifier")
                node = Select if kind == "dot" else Restrict
                t = node(t, self.texts[label], span=_join(t.span, self.ends[label]))
            else:
                return t

    def record(self) -> Term:
        open_ = self.expect("lbrace", "'{'")
        kinds, texts = self.kinds, self.texts
        fields: list[tuple[int, Term]] = []
        if kinds[self.pos] == "ident":
            while True:
                label = self.expect("ident", "identifier")
                self.expect("equals", "'='")
                fields.append((label, self.term()))
                if kinds[self.pos] != "comma":
                    break
                self.pos += 1
        elif kinds[self.pos] != "rbrace":
            raise self.fail("identifier", "'}'")
        seen: set[str] = set()
        for label, _ in fields:
            if texts[label] in seen:
                raise ParseError(
                    self.span(label), ("a distinct label",), f"duplicate label '{texts[label]}'"
                )
            seen.add(texts[label])
        if kinds[self.pos] == "pipe":
            if not fields:
                raise ParseError(self.span(self.pos), ("at least one field before '|'",), "'|'")
            self.pos += 1
            tail = self.term()
            close = self.expect("rbrace", "'}'")
            span = self.span(open_, self.ends[close])
            t = tail
            for label, value in reversed(fields):
                t = Extend(texts[label], value, t, span=span)
            return t
        close = self.expect("rbrace", "'}'")
        return RecordLit(
            {texts[label]: value for label, value in fields},
            span=self.span(open_, self.ends[close]),
        )

    # -- types --------------------------------------------------------------

    def type_(self) -> Type:
        t = self.type_application()
        if self.kinds[self.pos] == "arrow":
            self.pos += 1
            return TFun(t, self.type_())
        return t

    def type_application(self) -> Type:
        t = self.type_atom()
        while self.kinds[self.pos] in ("ident", "lparen", "lbrace"):
            t = TApp(t, self.type_atom())
        return t

    def type_atom(self) -> Type:
        i = self.pos
        kind = self.kinds[i]
        if kind == "ident":
            self.pos = i + 1
            name = self.texts[i]
            if name[0].isupper():
                con = BASE_CONSTRUCTORS.get(name)
                if con is None:
                    raise ParseError(self.span(i), ("a known type constructor",), f"'{name}'")
                return con
            return self.type_var(i, STAR)
        if kind == "lparen":
            self.pos = i + 1
            t = self.type_()
            self.expect("rparen", "')'")
            return t
        if kind == "lbrace":
            return self.row()
        raise self.fail("type constructor", "type variable", "'('", "'{'")

    def type_var(self, i: int, kind) -> TypeVar:
        """The variable named by token `i`, used at `kind`."""
        name = self.texts[i]
        existing = self.type_vars.get(name)
        if existing is None:
            existing = self.type_vars[name] = TypeVar(len(self.type_vars), kind)
        elif existing.kind != kind:
            raise ParseError(
                self.span(i),
                (f"'{name}' used at one kind only",),
                f"'{name}' at kind {kind} after kind {existing.kind}",
            )
        return existing

    def row(self) -> Type:
        self.expect("lbrace", "'{'")
        fields: dict[str, Type] = {}
        if self.kinds[self.pos] == "ident":
            while True:
                label = self.expect("ident", "identifier")
                text = self.texts[label]
                if text in fields:
                    raise ParseError(
                        self.span(label), ("a distinct label",), f"duplicate label '{text}'"
                    )
                self.expect("colon", "':'")
                fields[text] = self.type_()
                if self.kinds[self.pos] != "comma":
                    break
                self.pos += 1
        tail = None
        if self.kinds[self.pos] == "pipe":
            self.pos += 1
            name = self.expect("ident", "row variable")
            text = self.texts[name]
            if text[0].isupper():
                raise ParseError(self.span(name), ("a row variable",), f"'{text}'")
            tail = self.type_var(name, ROW)
        self.expect("rbrace", "'}'")
        return TRow(fields, tail)


def _join(span: SourceSpan, end: int) -> SourceSpan:
    return SourceSpan(span.start, end, span.line, span.col)


def parse_term(src: str) -> Term:
    """Parse a complete term; raises ParseError with a source span."""
    parser = _Parser(src)
    t = parser.term()
    parser.expect("eof", "end of input")
    return t


def parse_type(src: str) -> Type:
    """Parse a complete type expression over the built-in constructors
    (Int, String, Bool, List, Rec)."""
    parser = _Parser(src)
    t = parser.type_()
    parser.expect("eof", "end of input")
    return t
