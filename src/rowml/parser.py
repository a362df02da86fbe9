"""Lexer and recursive-descent parser for the surface language.

Lexical rules: whitespace is space, tab, CR and LF.  An identifier is a
letter or ``_``, then letters, digits or ``_`` (Unicode: a character
for which `str.isalpha` holds, then ones for which `str.isalnum` does).
An integer is decimal digits (`str.isdecimal`, what `int` reads).  A
string is double-quoted on one line, with the escapes
``\\\\ \\" \\n \\t``.  Comments run from ``--`` to the end of the line.
Keywords: ``let``, ``in``.

The lexer gives each token a kind, a text as written and a start, in
three parallel tables: a token ends at its start plus its text's length,
and a string literal is unescaped when the parser builds its `Lit`.  A
span is the character offsets of a node's or an error's start and end;
`line_col` turns an offset into the line and column an error reports.

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

import re
import sys
from array import array
from collections import namedtuple
from itertools import accumulate, islice

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


SourceSpan = namedtuple("SourceSpan", ("start", "end"))
SourceSpan.__doc__ = "The character offsets where a node or an error starts and ends in the input."
# Builds a span from a tuple of its two fields, skipping the keyword
# handling of the generated `SourceSpan.__new__`.
_new = tuple.__new__


def line_col(src: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset` in `src`.  Only LF ends a
    line, and a column counts characters."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


class ParseError(Exception):
    """The source does not parse: at `span`, one of `expected` was due
    and `found` came.  The fields are its `args` too, so it copies and
    pickles; its message is rendered when it is read."""

    def __init__(self, span: SourceSpan, expected: tuple[str, ...], found: str) -> None:
        assert expected, "a parse error must list what it expected"
        super().__init__(span, expected, found)
        self.span = span
        self.expected = expected
        self.found = found

    def __str__(self) -> str:
        expected = self.expected
        what = expected[0] if len(expected) == 1 else "one of: " + ", ".join(expected)
        return f"expected {what}, found {self.found}"


# Splitting on tokens leaves the space between them.  The last
# alternative takes any other character as a token of its own, so that
# space is whitespace alone and `_tokenize` need not look at it.
# `[^\W\d]` also takes numeric characters such as 'Ⅻ' that are no
# letters; `_tokenize` rejects those, and a '"' that starts no string.
# The lookahead fails at a blank in one test instead of one per
# alternative.
_TOKEN = re.compile(
    r"""( (?![ \t\r\n])
          (?: [^\W\d]\w*                 # identifier or keyword
            | [\\.(){},|=:]
            | \d+                        # integer
            | ->?                        # '->' or '-'
            | "(?:[^"\\\n]|\\[\\"nt])*"   # string
            | .                          # any other character
        ))""",
    re.VERBOSE,
)
# The longest well-formed prefix of a string that does not close.
_STRING_PREFIX = re.compile(r'"(?:[^"\\\n]|\\[\\"nt])*')
_ESCAPE = re.compile(r"\\(.)")
# A comment, or a string, which may hold "--".
_COMMENT = re.compile(r'--[^\n]*|"(?:[^"\\\n]|\\[\\"nt])*"')
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
    """The tokens of `src` as parallel tables: kinds, texts as written
    and starts, an `array`.  The last token is "eof"."""
    # Comments are blanked out, keeping every offset; a source without
    # "--" skips that pass, which costs more than the test.
    if "--" in src:
        parts = _TOKEN.split(_COMMENT.sub(_blank, src))
    else:
        parts = _TOKEN.split(src)
    texts = parts[1::2]
    texts.append("")
    # A space part ends where the token after it starts, the last where "eof"
    # does.  An array is built faster from a list than from the iterator.
    starts = array("q", list(islice(accumulate(map(len, parts)), 0, None, 2)))
    kinds = list(map(_KINDS.get, texts))
    for i, kind in enumerate(kinds):
        if kind is None:
            c = texts[i][0]
            if c.isalpha() or c == "_":
                kinds[i] = "ident"
            elif c.isdecimal():
                kinds[i] = "int"
            elif c == '"' and len(texts[i]) > 1:
                kinds[i] = "string"
            else:
                raise _lex_error(src, starts[i])
    return kinds, texts, starts


def _blank(m: re.Match) -> str:
    """A string as it is; a comment as spaces, one per character."""
    text = m[0]
    return text if text[0] == '"' else " " * len(text)


def _lex_error(src: str, pos: int) -> ParseError:
    """The error for position `pos`, where no token starts: a character
    that starts none, or a string that meets a newline, the end of the
    input or a bad escape before it closes."""
    if src[pos] != '"':
        return ParseError(SourceSpan(pos, pos + 1), ("a token",), repr(src[pos]))
    end = _STRING_PREFIX.match(src, pos).end()
    if end == len(src) or src[end] == "\n":
        return ParseError(SourceSpan(pos, end), ("closing '\"'",), "end of string")
    found = repr(src[end + 1]) if end + 1 < len(src) else "end of input"
    return ParseError(SourceSpan(pos, end + 1), ("escape sequence",), found)


_TOKEN_NAMES = {
    "ident": "identifier",
    "int": "integer literal",
    "string": "string literal",
    "eof": "end of input",
}
_ATOM_START = frozenset(("ident", "int", "string", "lparen", "lbrace"))


class _Parser:
    """Recursive descent over the token tables of `_tokenize`; a token
    is addressed by its index."""

    def __init__(self, src: str) -> None:
        self.kinds, self.texts, self.starts = _tokenize(src)
        self.pos = 0
        # Type variables by name; a name's first use fixes its kind (row
        # tail vs. field/arrow position).
        self.type_vars: dict[str, TypeVar] = {}

    def span(self, i: int, end: int | None = None) -> SourceSpan:
        """Token `i`'s span, or the span from its start to `end`."""
        start = self.starts[i]
        if end is None:
            end = start + len(self.texts[i])
        return _new(SourceSpan, (start, end))

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
        """A spine of binders, read in a loop, then an application."""
        kinds, texts = self.kinds, self.texts
        binders: list[tuple[int, int, Term | None]] = []  # (first token, name, bound)
        while True:
            i = self.pos
            kind = kinds[i]
            # A binder's name is token i + 1; `expect` reports a token out of place.
            if kind == "lambda":
                self.pos = i + 1
                if kinds[i + 1] != "ident" or kinds[i + 2] != "dot":
                    self.expect("ident", "identifier")
                    self.expect("dot", "'.'")
                self.pos = i + 3
                binders.append((i, i + 1, None))
            elif kind == "let":
                self.pos = i + 1
                if kinds[i + 1] != "ident" or kinds[i + 2] != "equals":
                    self.expect("ident", "identifier")
                    self.expect("equals", "'='")
                self.pos = i + 3
                bound = self.term()
                self.expect("in", "'in'")
                binders.append((i, i + 1, bound))
            else:
                break
        t = self.atom()
        while kinds[self.pos] in _ATOM_START:
            arg = self.atom()
            t = App(t, arg, _join(t.span, arg.span[1]))
        if binders:
            end = t.span[1]  # every binder of the spine ends where its body ends
            for i, name, bound in reversed(binders):
                if bound is None:
                    t = Lam(texts[name], t, self.span(i, end))
                else:
                    t = Let(texts[name], bound, t, self.span(i, end))
        return t

    def atom(self) -> Term:
        """An atom and the selections and restrictions after it."""
        kinds, texts = self.kinds, self.texts
        i = self.pos
        kind = kinds[i]
        if kind == "ident":
            self.pos = i + 1
            t: Term = Var(texts[i], self.span(i))
        elif kind == "int":
            self.pos = i + 1
            text = texts[i]
            try:
                value = int(text)
            except ValueError:  # more digits than the interpreter converts
                limit = sys.get_int_max_str_digits()
                raise ParseError(
                    self.span(i),
                    (f"integer literal of at most {limit} digits",),
                    f"{len(text)} digits",
                ) from None
            t = Lit(value, self.span(i))
        elif kind == "string":
            self.pos = i + 1
            t = Lit(_ESCAPE.sub(lambda e: _STRING_ESCAPES[e[1]], texts[i][1:-1]), self.span(i))
        elif kind == "lparen":
            self.pos = i + 1
            t = self.term()
            close = self.expect("rparen", "')'")
            # The term is new and not yet shared: widen its span in place.
            object.__setattr__(t, "span", self.span(i, self.starts[close] + 1))
        elif kind == "lbrace":
            t = self.record()
        else:
            raise self.fail("identifier", "literal", "'('", "'{'")
        while True:
            kind = kinds[self.pos]
            if kind == "dot":
                node = Select
            elif kind == "minus":
                node = Restrict
            else:
                return t
            self.pos += 1
            label = self.expect("ident", "identifier")
            t = node(t, texts[label], _join(t.span, self.starts[label] + len(texts[label])))

    def record(self) -> Term:
        open_ = self.expect("lbrace", "'{'")
        kinds, texts = self.kinds, self.texts
        fields: dict[str, Term] = {}
        duplicate = None  # the first label that repeats one before it
        if kinds[self.pos] == "ident":
            while True:
                label = self.expect("ident", "identifier")
                self.expect("equals", "'='")
                value = self.term()
                if texts[label] not in fields:
                    fields[texts[label]] = value
                elif duplicate is None:
                    duplicate = label
                if kinds[self.pos] != "comma":
                    break
                self.pos += 1
        elif kinds[self.pos] != "rbrace":
            raise self.fail("identifier", "'}'")
        if duplicate is not None:
            raise ParseError(
                self.span(duplicate), ("a distinct label",), f"duplicate label '{texts[duplicate]}'"
            )
        if kinds[self.pos] == "pipe":  # `fields` is not empty: '|' is no label
            self.pos += 1
            t = self.term()
            close = self.expect("rbrace", "'}'")
            span = self.span(open_, self.starts[close] + 1)
            for label, value in reversed(fields.items()):
                t = Extend(label, value, t, span)
            return t
        close = self.expect("rbrace", "'}'")
        return RecordLit(fields, self.span(open_, self.starts[close] + 1))

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
    """`span` extended to `end`."""
    return _new(SourceSpan, (span[0], end))


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
