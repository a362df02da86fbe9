"""Tests for the lexer and parser, including print/parse round trips."""

import re
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from rowml.parser import ParseError, SourceSpan, parse_term, parse_type
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
    pretty_term,
    pretty_type,
)


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
        assert span.line >= 1 and span.col >= 1
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
        t = parse_term("let x = 1 in\n  x.y")
        assert t.body.span.line == 2


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


def _assert_located(src, span):
    assert span.line == src.count("\n", 0, span.start) + 1
    assert span.col == span.start - src.rfind("\n", 0, span.start)


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
        ],
    )
    def test_error_messages_and_spans(self, src, message, span):
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        assert str(exc.value) == message
        assert exc.value.span == SourceSpan(*span)

    @pytest.mark.parametrize("src, span", [("²", (0, 1, 1, 1)), ("3²", (1, 2, 1, 2))])
    def test_superscript_digits_are_no_integer(self, src, span):
        # '²' is a digit to str.isdigit but not to int(); integers are
        # decimal digits only.
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        assert str(exc.value) == "expected a token, found '²'"
        assert exc.value.span == SourceSpan(*span)

    def test_digits_continue_an_identifier(self):
        assert parse_term("x²") == Var("x²")
        assert parse_term("é٣") == Var("é٣")
        assert parse_term("٣") == Lit(3)

    @given(st.one_of(programs(), noise))
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
                assert re.sub(r"\\(.)", lambda m: _ESCAPED[m[1]], text[1:-1]) == node.value
