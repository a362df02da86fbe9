"""Tests for the lexer and parser, including print/parse round trips."""

import copy
import gc
import pickle
import re
import sys
import tracemalloc
from array import array
from itertools import accumulate

import hypothesis.strategies as st
import pytest
from hypothesis import given

from rowml.parser import ParseError, SourceSpan, _tokenize, line_col, parse_term, parse_type
from rowml.syntax import (
    App,
    Extend,
    INT,
    LIST,
    Lam,
    Let,
    Lit,
    REC,
    RecordLit,
    Restrict,
    ROW,
    STRING,
    Select,
    Term,
    TApp,
    TFun,
    TRow,
    TypeVar,
    Var,
    pretty_type,
)


def _quote(s: str) -> str:
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}
    return '"' + "".join(escapes.get(c, c) for c in s) + '"'


def pretty_term(t: Term) -> str:
    """Render a term in the concrete syntax accepted by the parser."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        return _quote(t.value) if isinstance(t.value, str) else str(t.value)
    if isinstance(t, Lam):
        return f"\\{t.param}. {pretty_term(t.body)}"
    if isinstance(t, Let):
        return f"let {t.name} = {pretty_term(t.bound)} in {pretty_term(t.body)}"
    if isinstance(t, App):
        fun = pretty_term(t.fun)
        if isinstance(t.fun, (Lam, Let)):
            fun = f"({fun})"
        return f"{fun} {_term_atom(t.arg)}"
    if isinstance(t, Select):
        return f"{_term_atom(t.record)}.{t.label}"
    if isinstance(t, Restrict):
        return f"{_term_atom(t.record)} - {t.label}"
    if isinstance(t, RecordLit):
        inner = ", ".join(f"{l} = {pretty_term(t.fields[l])}" for l in sorted(t.fields))
        return "{" + inner + "}"
    if isinstance(t, Extend):
        return f"{{{t.label} = {pretty_term(t.value)} | {pretty_term(t.record)}}}"
    raise AssertionError(f"unexpected term node: {t!r}")


def _term_atom(t: Term) -> str:
    s = pretty_term(t)
    return f"({s})" if isinstance(t, (Lam, Let, App)) else s


class TestParseTerm:
    def test_lambda(self):
        assert parse_term("\\x. x") == Lam("x", Var("x"))

    def test_record_literal(self):
        t = parse_term('{name = "Ana", age = 7}')
        assert t == RecordLit({"name": Lit("Ana"), "age": Lit(7)})

    def test_selection(self):
        assert parse_term("r.name") == Select(Var("r"), "name")

    def test_restriction(self):
        assert parse_term("r - name") == Restrict(Var("r"), "name")

    def test_let(self):
        t = parse_term("let id = \\x. x in id id")
        assert t == Let("id", Lam("x", Var("x")), App(Var("id"), Var("id")))

    def test_application_left_associative(self):
        assert parse_term("f x y") == App(App(Var("f"), Var("x")), Var("y"))

    def test_postfix_binds_tighter_than_application(self):
        assert parse_term("f r.name") == App(Var("f"), Select(Var("r"), "name"))
        assert parse_term("f r - x") == App(Var("f"), Restrict(Var("r"), "x"))
        assert parse_term("(f r).name") == Select(App(Var("f"), Var("r")), "name")

    def test_postfix_chains(self):
        t = parse_term("r.a.b - c")
        assert t == Restrict(Select(Select(Var("r"), "a"), "b"), "c")

    def test_extension(self):
        t = parse_term("{x = 1 | r}")
        assert t == Extend("x", Lit(1), Var("r"))

    def test_multi_field_extension_nests_rightward(self):
        t = parse_term("{a = 1, b = 2 | r}")
        assert t == Extend("a", Lit(1), Extend("b", Lit(2), Var("r")))

    def test_empty_record(self):
        assert parse_term("{}") == RecordLit({})

    def test_comments_and_whitespace(self):
        src = """-- leading comment
        let x = 1 in  -- trailing comment
        x"""
        assert parse_term(src) == Let("x", Lit(1), Var("x"))

    def test_string_escapes(self):
        assert parse_term('"a\\"b\\\\c\\n"') == Lit('a"b\\c\n')

    def test_lambda_body_extends_right(self):
        assert parse_term("\\x. f x") == Lam("x", App(Var("f"), Var("x")))


class TestParseTermErrors:
    def test_duplicate_record_label(self):
        with pytest.raises(ParseError) as exc:
            parse_term("{a = 1, a = 2}")
        assert "duplicate" in str(exc.value)

    def test_extension_requires_a_field(self):
        with pytest.raises(ParseError):
            parse_term("{| r}")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as exc:
            parse_term("(x")
        assert "')'" in str(exc.value)

    def test_trailing_junk(self):
        with pytest.raises(ParseError) as exc:
            parse_term("x )")
        assert "end of input" in str(exc.value)

    def test_keyword_is_not_a_variable(self):
        with pytest.raises(ParseError):
            parse_term("let")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_term('"abc')

    @pytest.mark.parametrize(
        "src",
        ["", "\\", "\\x x", "let x = 1", "{a = }", "f .", "(", "{a: 1}", "1 2 }"],
    )
    def test_errors_carry_spans_inside_input(self, src):
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        span = exc.value.span
        assert 0 <= span.start <= span.end <= max(len(src), 1)
        line, col = line_col(src, span.start)
        assert line >= 1 and col >= 1
        assert exc.value.expected

    def test_span_points_at_offender(self):
        with pytest.raises(ParseError) as exc:
            parse_term("let x = 1 in )")
        assert exc.value.span.start == len("let x = 1 in ")

    def test_integer_beyond_the_digit_limit(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        src = f"let x = {digits} in x"
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        span = exc.value.span
        assert (span.start, span.end) == (len("let x = "), len(src) - len(" in x"))
        assert "digits" in str(exc.value)


    @pytest.mark.parametrize(
        "src, fields, location, message",
        [
            (
                "let x = 1 in )",
                (SourceSpan(13, 14), ("identifier", "literal", "'('", "'{'"), "')'"),
                (1, 14),
                "expected one of: identifier, literal, '(', '{', found ')'",
            ),
            (
                '"a\\qb"',
                (SourceSpan(0, 3), ("escape sequence",), "'q'"),
                (1, 1),
                "expected escape sequence, found 'q'",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "duplicate", [copy.copy, lambda exc: pickle.loads(pickle.dumps(exc))], ids=["copy", "pickle"]
    )
    def test_errors_copy_and_pickle(self, src, fields, location, message, duplicate):
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        for error in (exc.value, duplicate(exc.value)):
            assert type(error) is ParseError
            assert (error.span, error.expected, error.found) == fields
            assert error.args == fields
            assert line_col(src, error.span.start) == location
            assert str(error) == message


class TestSpans:
    def test_term_spans_cover_source(self):
        src = "f {a = 1}"
        t = parse_term(src)
        assert t.span.start == 0 and t.span.end == len(src)
        assert src[t.arg.span.start : t.arg.span.end] == "{a = 1}"

    def test_parentheses_widen_the_span_of_the_term_inside(self):
        src = "(f x).a"
        t = parse_term(src)
        assert src[t.record.span.start : t.record.span.end] == "(f x)"
        assert t.record == parse_term("f x")

    def test_nested_span_lines(self):
        src = "let x = 1 in\n  x.y"
        t = parse_term(src)
        assert line_col(src, t.body.span.start) == (2, 3)

    @pytest.mark.parametrize(
        "src, offset, location",
        [
            ("x", 0, (1, 1)),
            ("", 0, (1, 1)),
            ("x\n", 2, (2, 1)),
            ("x\r\n", 3, (2, 1)),
            ("a\rb", 2, (1, 3)),
            ("\n\n\té\rx", 5, (3, 4)),
        ],
    )
    def test_line_col(self, src, offset, location):
        # Only LF ends a line, so a CR is a character of the line it is
        # on; the end of the input after a trailing LF starts a line.
        assert line_col(src, offset) == location == _located(src, offset)


class TestParseType:
    def test_list_application(self):
        assert parse_type("List Int") == TApp(LIST, INT)

    def test_open_record_type(self):
        t = parse_type("Rec {name:String | r}")
        assert t == TApp(REC, TRow({"name": STRING}, TypeVar(0, ROW)))

    def test_empty_row(self):
        assert parse_type("{}") == TRow({}, None)

    def test_empty_open_row(self):
        assert parse_type("{ | r}") == TRow({}, TypeVar(0, ROW))

    def test_arrow_right_associative(self):
        t = parse_type("a -> b -> a")
        a, b = TypeVar(0), TypeVar(1)
        assert t == TFun(a, TFun(b, a))

    def test_application_left_associative_and_parens(self):
        t = parse_type("List (List Int)")
        assert t == TApp(LIST, TApp(LIST, INT))

    def test_shared_variables_are_shared(self):
        t = parse_type("a -> a")
        assert t.dom == t.cod

    def test_row_variable_kind_conflict(self):
        with pytest.raises(ParseError) as exc:
            parse_type("r -> Rec { | r}")
        assert "kind" in str(exc.value)

    def test_unknown_constructor(self):
        with pytest.raises(ParseError):
            parse_type("Maybe Int")

    def test_duplicate_row_label(self):
        with pytest.raises(ParseError):
            parse_type("{a:Int, a:Bool}")

    @pytest.mark.parametrize(
        "src, message, span",
        [
            ("Rec {a:Int | R}", "expected a row variable, found 'R'", (13, 14, 1, 14)),
            (
                "Int -> ",
                "expected one of: type constructor, type variable, '(', '{', found end of input",
                (7, 7, 1, 8),
            ),
        ],
    )
    def test_error_messages_and_spans(self, src, message, span):
        with pytest.raises(ParseError) as exc:
            parse_type(src)
        assert str(exc.value) == message
        _assert_span(src, exc.value.span, span)


# -- round trips -------------------------------------------------------------

idents = st.sampled_from(("x", "y", "f", "r", "rec2"))
labels = st.sampled_from(("a", "b", "name", "age"))
literals = st.one_of(
    st.integers(min_value=0, max_value=999).map(Lit),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=6,
    ).map(Lit),
)


def terms(depth=3):
    if depth == 0:
        return st.one_of(idents.map(Var), literals)
    sub = terms(depth - 1)
    return st.one_of(
        idents.map(Var),
        literals,
        st.builds(Lam, idents, sub),
        st.builds(App, sub, sub),
        st.builds(Let, idents, sub, sub),
        st.builds(RecordLit, st.dictionaries(labels, sub, max_size=3)),
        st.builds(Select, sub, labels),
        st.builds(Restrict, sub, labels),
        st.builds(Extend, labels, sub, sub),
    )


types_atoms = st.sampled_from(("Int", "String", "Bool", "a", "b", "r"))


def type_sources(depth=2):
    if depth == 0:
        return types_atoms
    sub = type_sources(depth - 1)
    return st.one_of(
        types_atoms,
        st.builds(lambda d, c: f"{d} -> {c}", sub, sub),
        st.builds(lambda t: f"List ({t})", sub),
        st.builds(
            lambda items, tail: "Rec {"
            + ", ".join(f"{l}:{t}" for l, t in items.items())
            + (" | rho}" if tail else "}"),
            st.dictionaries(labels, sub, min_size=0, max_size=3),
            st.booleans(),
        ),
    )


class TestRoundTrip:
    @given(terms())
    def test_terms_round_trip(self, t):
        assert parse_term(pretty_term(t)) == t

    @given(type_sources())
    def test_types_reach_a_printing_fixpoint(self, src):
        try:
            t = parse_type(src)
        except ParseError:  # e.g. 'r' used at both kinds
            return
        printed = pretty_type(t, _positional_names(t))
        again = parse_type(printed)
        assert pretty_type(again, _positional_names(again)) == printed


def _positional_names(t):
    from rowml.syntax import free_vars_ordered

    return {v.id: f"v{i}" for i, v in enumerate(free_vars_ordered(t))}


# -- lexical structure ---------------------------------------------------------

# What the README specifies, written out independently of the lexer.
_ESCAPED = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}

spaces = st.lists(
    st.sampled_from((" ", "\t", "\r\n", "\n", " -- é \\ \"\n", "--\r\n")), min_size=1, max_size=2
).map("".join)
names = st.text(alphabet="abxyé٣Ⅻ_0", min_size=1, max_size=4).filter(
    lambda s: (s[0].isalpha() or s[0] == "_") and s not in ("let", "in")
)
string_literals = st.lists(
    st.sampled_from(("a", " ", "é", "\t", "\\\\", '\\"', "\\n", "\\t", "--")), max_size=4
).map(lambda parts: '"' + "".join(parts) + '"')
integers = st.text(alphabet="09٣", min_size=1, max_size=3)


def programs(depth=3):
    """Sources of terms, with whitespace and comments between tokens."""
    leaf = st.one_of(names, integers, string_literals)
    if depth == 0:
        return leaf
    sub = programs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda x, s, b: f"\\{x}.{s}{b}", names, spaces, sub),
        st.builds(lambda x, s, a, b: f"let{s}{x}{s}={s}{a}{s}in{s}{b}", names, spaces, sub, sub),
        st.builds(lambda a, s, b: f"({a}){s}({b})", sub, spaces, sub),
        st.builds(lambda l, s, a: f"{{{l}{s}={s}{a}}}", names, spaces, sub),
        st.builds(lambda a, s, l: f"({a}){s}.{s}{l}", sub, spaces, names),
        st.builds(lambda a, s, l: f"({a}){s}-{l}", sub, spaces, names),
        st.builds(lambda l, a, s, b: f"{{{l} = {a}{s}|{s}{b}}}", names, sub, spaces, sub),
    )


noise = st.text(alphabet=st.sampled_from(list('ab1٣éⅫ²_ \t\r\n-->."\\(){},|=:#')), max_size=20)

# Pieces that join into sources for the lexer alone: every token, space
# and line ends, comments, strings with each escape and strings that do
# not close, and characters that start no token.
lexer_sources = st.lists(
    st.sampled_from((
        "\\", ".", "(", ")", "{", "}", ",", "|", "=", ":", "-", "->", "let", "in",
        "x", "_a1", "letx", "x²", "é٣", "٣", "12", " ", "\t", "\r", "\n", "\r\n",
        "--", "-- c", "-->", "x---y", "--\r\n", '"a"', '"\\\\"', '"\\""', '"\\n"', '"\\t"',
        '"--"', '"', '"a', '"\\q"', '"\\', "Ⅻ", "²", "#", "\x0c", "\xa0", "\ufeff",
    )),
    max_size=24,
).map("".join)


# The lexer as it was when it kept four lists (kind, text with a string
# literal unquoted, start and end), frozen as a reference for the tables
# of `_tokenize`.
_REF_TOKEN = re.compile(
    r"""( (?![ \t\r\n])
          (?: [\\.(){},|=:]
            | [^\W\d]\w*                 # identifier or keyword
            | \d+                        # integer
            | ->?                        # '->' or '-'
            | "(?:[^"\\\n]|\\[\\"nt])*"   # string
            | .                          # any other character
        ))""",
    re.VERBOSE,
)
_REF_STRING_PREFIX = re.compile(r'"(?:[^"\\\n]|\\[\\"nt])*')
_REF_COMMENT = re.compile(r'--[^\n]*|"(?:[^"\\\n]|\\[\\"nt])*"')
_REF_KINDS = {
    "\\": "lambda", ".": "dot", "(": "lparen", ")": "rparen", "{": "lbrace", "}": "rbrace",
    ",": "comma", "|": "pipe", "=": "equals", ":": "colon", "-": "minus", "->": "arrow",
    "let": "let", "in": "in", "": "eof",
}


def _reference_tokenize(src):
    parts = _REF_TOKEN.split(_REF_COMMENT.sub(_reference_blank, src) if "--" in src else src)
    texts = parts[1::2]
    texts.append("")
    offsets = list(accumulate(map(len, parts)))
    starts = offsets[::2]
    ends = offsets[1::2]
    ends.append(offsets[-1])
    kinds = list(map(_REF_KINDS.get, texts))
    for i, kind in enumerate(kinds):
        if kind is None:
            text = texts[i]
            c = text[0]
            if c.isalpha() or c == "_":
                kinds[i] = "ident"
            elif c.isdecimal():
                kinds[i] = "int"
            elif c == '"' and len(text) > 1:
                kinds[i] = "string"
                texts[i] = _unquote(text)
            else:
                raise _reference_lex_error(src, starts[i])
    return kinds, texts, starts, ends


def _reference_blank(m):
    return m[0] if m[0][0] == '"' else " " * len(m[0])


def _reference_lex_error(src, pos):
    if src[pos] != '"':
        return ParseError(SourceSpan(pos, pos + 1), ("a token",), repr(src[pos]))
    end = _REF_STRING_PREFIX.match(src, pos).end()
    if end == len(src) or src[end] == "\n":
        return ParseError(SourceSpan(pos, end), ("closing '\"'",), "end of string")
    found = repr(src[end + 1]) if end + 1 < len(src) else "end of input"
    return ParseError(SourceSpan(pos, end + 1), ("escape sequence",), found)


def _unquote(text):
    """A string literal's value."""
    return re.sub(r"\\(.)", lambda m: _ESCAPED[m[1]], text[1:-1])


def _tables(src):
    """`_tokenize`'s tables as lists, one entry per token: kinds, texts
    with each string literal unquoted, starts and ends."""
    kinds, texts, starts = _tokenize(src)
    values = [_unquote(text) if kind == "string" else text for kind, text in zip(kinds, texts)]
    return kinds, values, list(starts), [start + len(text) for start, text in zip(starts, texts)]


def _located(src, offset):
    """The line and column of `offset`, found otherwise than `line_col`
    finds them: the lines before it are the LF-separated parts of the
    source up to it, the last of them its own line."""
    parts = src[:offset].split("\n")
    return len(parts), len(parts[-1]) + 1


def _assert_located(src, span):
    assert line_col(src, span.start) == _located(src, span.start)


def _assert_span(src, span, expected):
    """`span` runs from `start` to `end` of `expected`, which starts at
    its `line` and `col`."""
    start, end, line, col = expected
    assert span == SourceSpan(start, end)
    assert line_col(src, start) == (line, col)


def _nodes(t):
    yield t
    for value in vars(t).values():
        if isinstance(value, Term):
            yield from _nodes(value)
        elif isinstance(value, dict):
            for field in value.values():
                yield from _nodes(field)


class TestLexer:
    @pytest.mark.parametrize(
        "src, message, span",
        [
            ('x\n  "ab\ncd"', "expected closing '\"', found end of string", (4, 7, 2, 3)),
            ('f "abc', "expected closing '\"', found end of string", (2, 6, 1, 3)),
            ('f "a\\qb"', "expected escape sequence, found 'q'", (2, 5, 1, 3)),
            ('f "a\\\nb"', "expected escape sequence, found '\\n'", (2, 5, 1, 3)),
            ('f "a\\', "expected escape sequence, found end of input", (2, 5, 1, 3)),
            ("x\r\n # y", "expected a token, found '#'", (4, 5, 2, 2)),
            ("Ⅻ", "expected a token, found 'Ⅻ'", (0, 1, 1, 1)),
            ('f "a\\q -- b"', "expected escape sequence, found 'q'", (2, 5, 1, 3)),
            ('-- "a\n#', "expected a token, found '#'", (6, 7, 2, 1)),
        ],
    )
    def test_error_messages_and_spans(self, src, message, span):
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        assert str(exc.value) == message
        _assert_span(src, exc.value.span, span)

    @pytest.mark.parametrize("src, span", [("²", (0, 1, 1, 1)), ("3²", (1, 2, 1, 2))])
    def test_superscript_digits_are_no_integer(self, src, span):
        # '²' is a digit to str.isdigit but not to int(); integers are
        # decimal digits only.
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        assert str(exc.value) == "expected a token, found '²'"
        _assert_span(src, exc.value.span, span)

    def test_digits_continue_an_identifier(self):
        assert parse_term("x²") == Var("x²")
        assert parse_term("é٣") == Var("é٣")
        assert parse_term("٣") == Lit(3)

    @given(st.one_of(programs(), noise, lexer_sources))
    def test_spans_locate_the_source(self, src):
        try:
            t = parse_term(src)
        except ParseError as exc:
            assert 0 <= exc.span.start <= exc.span.end <= len(src)
            _assert_located(src, exc.span)
            return
        for node in _nodes(t):
            _assert_located(src, node.span)
            text = src[node.span.start : node.span.end]
            while text.startswith("("):  # a parenthesised term spans its parentheses
                text = text[1:-1]
            if isinstance(node, Var):
                assert text == node.name
            elif isinstance(node, Lit) and isinstance(node.value, int):
                assert text.isdecimal() and int(text) == node.value
            elif isinstance(node, Lit):
                assert text[0] == text[-1] == '"'
                assert _unquote(text) == node.value

    @pytest.mark.parametrize(
        "src, kinds, texts, starts, ends",
        [
            ("", ["eof"], [""], [0], [0]),
            (" \t\r\n ", ["eof"], [""], [5], [5]),
            ("x\r\n\ty", ["ident", "ident", "eof"], ["x", "y", ""], [0, 4, 5], [1, 5, 5]),
            ("a\rb", ["ident", "ident", "eof"], ["a", "b", ""], [0, 2, 3], [1, 3, 3]),
            ("\t\\x.\tx", ["lambda", "ident", "dot", "ident", "eof"], ["\\", "x", ".", "x", ""],
             [1, 2, 3, 5, 6], [2, 3, 4, 6, 6]),
            ("f -- note", ["ident", "eof"], ["f", ""], [0, 9], [1, 9]),
            ("f --\n1", ["ident", "int", "eof"], ["f", "1", ""], [0, 5, 6], [1, 6, 6]),
            ("-->", ["eof"], [""], [3], [3]),
            ("- ->", ["minus", "arrow", "eof"], ["-", "->", ""], [0, 2, 4], [1, 4, 4]),
            ('"a--b"', ["string", "eof"], ["a--b", ""], [0, 6], [6, 6]),
            ('"a" -- "b\n"c"', ["string", "string", "eof"], ["a", "c", ""], [0, 10, 13], [3, 13, 13]),
            ("x---y\nz", ["ident", "ident", "eof"], ["x", "z", ""], [0, 6, 7], [1, 7, 7]),
            ('"\\\\ \\" \\n \\t"', ["string", "eof"], ['\\ " \n \t', ""], [0, 13], [13, 13]),
            ("é٣ ٣", ["ident", "int", "eof"], ["é٣", "٣", ""], [0, 3, 4], [2, 4, 4]),
        ],
    )
    def test_tokens(self, src, kinds, texts, starts, ends):
        assert _tables(src) == (kinds, texts, starts, ends)

    def test_tables_hold_texts_as_written_and_starts_in_an_array(self):
        kinds, texts, starts = _tokenize('f "a\\n" 12')
        assert (kinds, texts) == (["ident", "string", "int", "eof"], ["f", '"a\\n"', "12", ""])
        assert isinstance(starts, array) and list(starts) == [0, 2, 8, 10]

    @given(st.one_of(lexer_sources, programs(), noise))
    def test_tables_agree_with_the_reference_lexer(self, src):
        try:
            expected = _reference_tokenize(src)
        except ParseError as exc:
            with pytest.raises(ParseError) as again:
                _tokenize(src)
            assert again.value.args == exc.args  # span, expected and found
        else:
            assert _tables(src) == expected

    @given(st.one_of(programs(), noise), st.data())
    def test_space_between_tokens_changes_no_term(self, src, data):
        # Whitespace or a comment goes where a token ends; a token split
        # or joined by it would change the term or the error.
        padding = st.sampled_from((" ", "\t", "\r", "\n", "\r\n", " -- é \\ \"\n", " --\r\n"))
        try:
            _, _, _, ends = _tables(src)
        except ParseError:
            return
        padded, last = [], 0
        for end in sorted(data.draw(st.sets(st.sampled_from(ends)))):
            padded += [src[last:end], data.draw(padding)]
            last = end
        padded = "".join(padded) + src[last:]
        try:
            t = parse_term(src)
        except ParseError as exc:
            with pytest.raises(ParseError) as again:
                parse_term(padded)
            assert str(again.value) == str(exc)
        else:
            assert parse_term(padded) == t


class TestParseMemory:
    def test_a_parse_allocates_little_beyond_its_term(self):
        # A 64-field record and 64 selections from it, one line of 710
        # tokens.  What a parse holds at its peak besides the term it
        # returns is the token tables: 96 bytes a token when they kept
        # four lists of Python ints, about 47 with the starts in an array
        # and no ends.
        fields = ", ".join(f"l{i} = {i * 389 % 1000}" for i in range(64))
        lets = "".join(f"let y{i} = r.l{i * 5 % 64} in " for i in range(64))
        src = f"let r = {{{fields}}} in {lets}y7"
        tokens = len(_tokenize(src)[0]) - 1
        assert tokens >= 700
        parse_term(src)  # first-call costs stay out of the measure
        gc.collect()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            term = parse_term(src)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert isinstance(term, Let)
        assert (peak - held) / tokens < 64


class TestBinderSpines:
    # The parser reads a spine of binders in a loop, so its depth is no
    # limit; checking such a program still is (tests/test_cli.py).
    @pytest.mark.parametrize(
        "src, body",
        [
            ("".join(f"\\x{i}. " for i in range(1500)) + "1", Lit(1)),
            ("".join(f"let x{i} = {i} in " for i in range(1500)) + "x0", Var("x0")),
        ],
        ids=["lambdas", "lets"],
    )
    def test_1500_binders(self, src, body):
        t = parse_term(src)
        starts = [m.start() for m in re.finditer(r"\\|let", src)]
        for start in starts:  # each binder ends where the spine's body ends
            assert isinstance(t, (Lam, Let)) and t.span == (start, len(src))
            assert line_col(src, start) == (1, start + 1)
            t = t.body
        assert len(starts) == 1500 and t == body
