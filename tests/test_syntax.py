"""Tests for the type/term syntax: canonical rows, alpha equivalence,
free variables, the node contract, and printing.  Two schemes are alpha-equivalent exactly
when they print the same: `pretty_scheme` renames quantifiers in
first-occurrence order, sorts labels, prints free variables by id and
shows the labels a row variable lacks."""

import copy
import gc
import pickle
from dataclasses import FrozenInstanceError

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from rowml.infer import InferError, InferSession, infer_program, instantiate
from rowml.oracle import CampaignResult, GroundSpace
from rowml.parser import SourceSpan
from rowml.syntax import (
    App,
    ArrowKind,
    BOOL,
    Extend,
    INT,
    LIST,
    Lam,
    Let,
    Lit,
    ROW,
    RecordLit,
    Restrict,
    RowKind,
    STAR,
    STRING,
    Scheme,
    Select,
    StarKind,
    TApp,
    TCon,
    TFun,
    TRow,
    Type,
    TypeEnv,
    TypeVar,
    Var,
    canonicalize,
    free_vars_ordered,
    pretty_scheme,
    pretty_type,
    record,
    type_kind,
)
from rowml.unify import Mismatch
from test_parser import pretty_term

A = TypeVar(0)
B = TypeVar(1)
RHO = TypeVar(2, ROW)
RHO2 = TypeVar(3, ROW)


# -- strategies --------------------------------------------------------------

labels = st.sampled_from(("a", "b", "c", "name", "age"))
base = st.sampled_from((INT, BOOL, STRING))
star_vars = st.sampled_from((A, B))
tails = st.sampled_from((None, RHO, RHO2))


def types(depth=2):
    if depth == 0:
        return st.one_of(base, star_vars)
    sub = types(depth - 1)
    return st.one_of(
        base,
        star_vars,
        st.builds(TFun, sub, sub),
        st.builds(lambda t: TApp(LIST, t), sub),
        st.builds(record, st.dictionaries(labels, sub, max_size=3), tails),
    )


rows = st.builds(TRow, st.dictionaries(labels, types(1), max_size=4), tails)


def schemes():
    def close(t):
        return Scheme(tuple(free_vars_ordered(t)), t)

    return types(2).map(close)


# -- canonicalize on rows ----------------------------------------------------


class TestCanonicalizeRow:
    def test_already_sorted(self):
        row = TRow({"age": INT, "name": STRING})
        out = canonicalize(row)
        assert out == row
        assert list(out.fields) == ["age", "name"]

    def test_reorders_iteration(self):
        row = TRow({"name": STRING, "age": INT})
        out = canonicalize(row)
        assert out == row  # same map, rows are unordered
        assert list(out.fields) == ["age", "name"]

    def test_empty_open_row(self):
        row = TRow({}, RHO)
        out = canonicalize(row)
        assert out == row
        assert out.tail is RHO

    @given(rows)
    def test_idempotent(self, row):
        once = canonicalize(row)
        assert canonicalize(once) == once
        assert list(canonicalize(once).fields) == list(once.fields)

    @given(rows)
    def test_preserves_alpha_equal(self, row):
        lhs = Scheme((), TApp(LIST, TFun(row, INT)))
        rhs = Scheme((), TApp(LIST, TFun(canonicalize(row), INT)))
        assert pretty_scheme(lhs) == pretty_scheme(rhs)


# -- alpha equivalence, as printed-scheme equality ---------------------------


class TestAlphaEqual:
    def test_renaming(self):
        s1 = Scheme((A,), TFun(A, A))
        s2 = Scheme((B,), TFun(B, B))
        assert pretty_scheme(s1) == pretty_scheme(s2)

    def test_row_reordering(self):
        s1 = Scheme((), record({"name": STRING, "age": INT}))
        s2 = Scheme((), record({"age": INT, "name": STRING}))
        assert pretty_scheme(s1) == pretty_scheme(s2)

    def test_row_reordering_names_variables_by_label(self):
        s1 = Scheme((A, B), record({"x": A, "y": B}))
        s2 = Scheme((A, B), record({"y": B, "x": A}))
        assert pretty_scheme(s1) == pretty_scheme(s2) == "∀a:*. ∀b:*. Rec {x:a, y:b}"

    def test_distinct_bodies(self):
        s1 = Scheme((A,), TFun(A, A))
        s2 = Scheme((A,), TFun(A, INT))
        assert pretty_scheme(s1) != pretty_scheme(s2)

    def test_kinds_must_match(self):
        s1 = Scheme((RHO,), record({}, RHO))
        s2 = Scheme((A,), record({}, RHO))  # RHO free on the right
        assert pretty_scheme(s1) != pretty_scheme(s2)

    def test_free_vars_compare_by_identity(self):
        s1 = Scheme((), A)
        s2 = Scheme((), B)
        assert pretty_scheme(s1) != pretty_scheme(s2)
        assert pretty_scheme(s1) == pretty_scheme(Scheme((), A))

    def test_quantified_does_not_match_free(self):
        s1 = Scheme((A,), A)
        s2 = Scheme((), A)
        assert pretty_scheme(s1) != pretty_scheme(s2)

    def test_inconsistent_pairing_rejected(self):
        # a -> b vs c -> c: first occurrence pairs a~c, then b~c must fail
        C = TypeVar(9)
        s1 = Scheme((A, B), TFun(A, B))
        s2 = Scheme((C,), TFun(C, C))
        assert pretty_scheme(s1) != pretty_scheme(s2)

    @settings(max_examples=200)
    @given(types(2), st.data())
    def test_renaming_and_field_order_do_not_change_the_print(self, body, data):
        # Most variables are quantified, and get fresh ids by a permutation,
        # so the old and the new ids rank differently; free variables keep
        # theirs.
        quantified = [v for v in free_vars_ordered(body) if data.draw(st.integers(0, 3))]
        lacks = tuple((v, ("c",)) for v in quantified if v.kind == ROW and data.draw(st.booleans()))
        fresh = data.draw(st.permutations(range(10, 10 + len(quantified))))
        renaming = {v.id: TypeVar(i, v.kind) for v, i in zip(quantified, fresh)}

        def rename(v):
            return renaming.get(v.id, v)

        def rebuild(t):
            if isinstance(t, TypeVar):
                return rename(t)
            if isinstance(t, TApp):
                return TApp(rebuild(t.fun), rebuild(t.arg))
            if isinstance(t, TFun):
                return TFun(rebuild(t.dom), rebuild(t.cod))
            if isinstance(t, TRow):
                fields = data.draw(st.permutations(list(t.fields.items())))
                tail = rename(t.tail) if t.tail else None
                return TRow({label: rebuild(value) for label, value in fields}, tail)
            return t

        moved = data.draw(st.permutations([rename(v) for v in quantified]))
        s1 = Scheme(tuple(quantified), body, lacks)
        s2 = Scheme(tuple(moved), rebuild(body), tuple((rename(v), ls) for v, ls in lacks))
        assert pretty_scheme(s1) == pretty_scheme(s2)

    @given(schemes(), st.integers(min_value=1, max_value=100))
    def test_transitive_through_renaming(self, s, offset):
        def shift(t, by):
            if isinstance(t, TypeVar):
                return TypeVar(t.id + by, t.kind)
            if isinstance(t, TApp):
                return TApp(shift(t.fun, by), shift(t.arg, by))
            if isinstance(t, TFun):
                return TFun(shift(t.dom, by), shift(t.cod, by))
            if isinstance(t, TRow):
                tail = TypeVar(t.tail.id + by, ROW) if t.tail else None
                return TRow({l: shift(v, by) for l, v in t.fields.items()}, tail)
            return t

        s2 = Scheme(
            tuple(TypeVar(v.id + offset, v.kind) for v in s.quantified),
            shift(s.body, offset),
        )
        s3 = Scheme(
            tuple(TypeVar(v.id + 2 * offset, v.kind) for v in s.quantified),
            shift(s.body, 2 * offset),
        )
        assert pretty_scheme(s) == pretty_scheme(s2)
        assert pretty_scheme(s2) == pretty_scheme(s3)
        assert pretty_scheme(s) == pretty_scheme(s3)


    def test_paired_row_variables_lack_the_same_labels(self):
        s1 = Scheme((RHO,), record({}, RHO), ((RHO, ("a",)),))
        s2 = Scheme((RHO2,), record({}, RHO2), ((RHO2, ("a",)),))
        bare = Scheme((RHO2,), record({}, RHO2))
        assert pretty_scheme(s1) == pretty_scheme(s2)
        assert pretty_scheme(s1) != pretty_scheme(bare)


class TestSchemeLacks:
    def test_body_rows_add_the_labels_they_imply(self):
        body = TFun(record({"name": A}, RHO), record({"age": INT}, RHO))
        s = Scheme((A, RHO), body, ((RHO, {"x"}),))
        assert s.lacks == ((RHO, ("age", "name", "x")),)
        assert Scheme((A, RHO), body).lacks == ((RHO, ("age", "name")),)
        assert Scheme((A,), body).lacks == ()  # RHO is free

    def test_lacks_only_on_a_quantified_row_variable(self):
        with pytest.raises(ValueError):
            Scheme((A,), A, ((A, ("x",)),))
        with pytest.raises(ValueError):
            Scheme((), record({}, RHO), ((RHO, ("x",)),))


# -- free variables ----------------------------------------------------------


class TestFreeTypeVars:
    def test_quantifier_removes(self):
        s = Scheme((A,), TFun(A, B))
        assert pretty_scheme(s) == f"∀a:*. a -> t{B.id}"

    def test_env_union(self):
        # the environment's free variables stay free in the program's
        # scheme; only y's instantiated quantifier is generalized
        env = TypeEnv().extend("x", Scheme((), A))
        env = env.extend("y", Scheme((B,), TFun(B, B)))
        env = env.extend("z", Scheme((), record({}, RHO)))
        delta = {v.id: v.kind for v in [A, RHO]}
        s = infer_program("{x = x, y = y, z = z}", env=env, delta=delta)
        free = set(free_vars_ordered(s.body)) - set(s.quantified)
        assert free == {A, RHO}
        assert len(s.quantified) == 1 and s.quantified[0] not in (A, B, RHO)

    def test_row_tail_is_free(self):
        assert free_vars_ordered(record({"name": STRING}, RHO)) == [RHO]

    def test_ground_type(self):
        assert free_vars_ordered(INT) == []

    def test_ordered_traversal_sorts_rows(self):
        t = record({"b": B, "a": A}, RHO)
        assert free_vars_ordered(t) == [A, B, RHO]

    def test_a_deep_chain_is_walked_without_recursion(self):
        depth = 100_000
        t = TypeVar(depth)
        for i in reversed(range(depth)):
            t = TFun(TypeVar(i), t)
        assert [v.id for v in free_vars_ordered(t)] == list(range(depth + 1))

    @given(schemes())
    def test_instantiated_body_covers_scheme(self, s):
        s = Scheme(s.quantified[:1], s.body)  # leave the rest free
        free = set(free_vars_ordered(s.body)) - set(s.quantified)
        body = set(free_vars_ordered(instantiate(InferSession(fresh_start=10), s)))
        assert body >= free
        assert not body & set(s.quantified)


# -- the node contract -------------------------------------------------------


SPAN = SourceSpan(3, 4)


def terms(span=None):
    """One term of each class, every node with the given span."""
    r = Var("r", span=span)
    return [
        r,
        Lit(1, span=span),
        Lam("x", r, span=span),
        App(r, r, span=span),
        Let("x", Lit("s", span=span), r, span=span),
        Select(r, "a", span=span),
        Restrict(r, "a", span=span),
        Extend("a", r, r, span=span),
        RecordLit({"a": r}, span=span),
    ]


# The other values on the type nodes' base.
VALUES = [
    ArrowKind(STAR, ArrowKind(ROW, STAR)),
    Scheme((A, RHO), TFun(record({"a": A}, RHO), A), ((RHO, ("b",)),)),
    TypeEnv((("id", Scheme((A,), TFun(A, A))),)),
    GroundSpace(labels=("a", "b"), base_types=(INT,), max_row_size=1),
    CampaignResult(3, 1, (TRow({"a": INT}), TRow({}, RHO))),
]

values = st.one_of(types(), st.sampled_from(terms() + terms(SPAN) + VALUES))


class TestNodes:
    """Type nodes, terms and the other values on their base are immutable:
    equal when of one class with equal fields, a term's span aside, and
    hashable unless they hold a dict.  `STAR` and `ROW` are the only
    instances of their classes."""

    def test_classes_with_equal_fields_differ(self):
        a, b = A, B
        assert TApp(a, b) != TFun(a, b) and not TApp(a, b) == TFun(a, b)
        assert TCon("List", STAR) != LIST
        assert Select(Var("r"), "a") != Restrict(Var("r"), "a")

    @given(values, values)
    def test_ne_is_the_negation_of_eq(self, t1, t2):
        for x, y in ((t1, t2), (t2, t1), (t1, copy.deepcopy(t1))):
            assert (x != y) is not (x == y)

    @given(values)
    def test_equal_nodes_hash_equal(self, t):
        twin = copy.deepcopy(t)
        assert twin == t and twin is not t
        try:
            h = hash(t)
        except TypeError:  # a row or a record literal somewhere inside
            return
        assert hash(twin) == h

    @pytest.mark.parametrize(
        "plain, spanned", zip(terms(), terms(SPAN)), ids=[type(t).__name__ for t in terms()]
    )
    def test_a_term_is_equal_whatever_its_span(self, plain, spanned):
        assert spanned.span == SPAN and plain.span is None
        assert plain == spanned and not plain != spanned
        assert repr(plain) == repr(spanned)
        if not isinstance(plain, RecordLit):
            assert hash(plain) == hash(spanned)

    def test_rows_do_not_hash(self):
        with pytest.raises(TypeError):
            hash(TRow({"a": INT}, RHO))
        with pytest.raises(TypeError):
            hash(record({}))
        with pytest.raises(TypeError):
            hash(RecordLit({"a": Lit(1)}))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TRow({}, TypeVar(0, STAR)), "row tail must have kind row, got *"),
            (lambda: Scheme((A, A), A), "scheme quantifies the same variable twice"),
        ],
        ids=["star_tail", "repeated_quantifier"],
    )
    def test_ill_formed_nodes_are_rejected(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("cls", [TypeVar, TCon, TApp, TFun, TRow], ids=lambda c: c.__name__)
    def test_type_node_classes_are_final(self, cls):
        # the walks over types dispatch on a node's exact class
        with pytest.raises(TypeError, match=f"type node class {cls.__name__} is final"):
            type("Sub", (cls,), {"__slots__": ()})

    def test_a_direct_subclass_of_type_still_gets_its_fields(self):
        node = type("Node", (Type,), {"__slots__": ("x",), "__match_args__": ("x",)})
        assert "_fields" in vars(node)

    @pytest.mark.parametrize(
        "node, name",
        [(A, "id"), (A, "var"), (INT, "name"), (TApp(LIST, INT), "arg"),
         (TFun(INT, INT), "dom"), (TRow({}), "tail")]
        + [(v, v.__match_args__[0]) for v in terms(SPAN) + VALUES]
        + [(Var("r", span=SPAN), "span")],
    )
    def test_fields_cannot_be_assigned(self, node, name):
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, getattr(node, name))
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)

    @pytest.mark.parametrize("term", terms(SPAN), ids=lambda t: type(t).__name__)
    def test_a_span_may_follow_the_fields_by_position(self, term):
        fields = [getattr(term, name) for name in term.__match_args__]
        again = type(term)(*fields, SPAN)
        assert again == term and vars(again) == vars(term)

    def test_repr(self):
        assert repr(TypeVar(id=1, kind=RowKind())) == "TypeVar(id=1, kind=RowKind())"
        row = TRow({"b": INT, "a": TFun(A, TApp(LIST, BOOL))}, RHO)
        assert repr(row) == (
            "TRow(fields={'b': TCon(name='Int', kind=StarKind()), "
            "'a': TFun(dom=TypeVar(id=0, kind=StarKind()), "
            "cod=TApp(fun=TCon(name='List', kind=ArrowKind(param=StarKind(), result=StarKind())), "
            "arg=TCon(name='Bool', kind=StarKind())))}, tail=TypeVar(id=2, kind=RowKind()))"
        )
        term = Extend("a", Lit(1, span=SPAN), Var("r", span=SPAN), span=SPAN)
        assert repr(term) == "Extend(label='a', value=Lit(value=1), record=Var(name='r'))"
        assert repr(CampaignResult(3, 0)) == (
            "CampaignResult(problems=3, failures=0, first_failure=None)"
        )

    @pytest.mark.parametrize("kind, cls", [(STAR, StarKind), (ROW, RowKind)])
    def test_kinds_without_parts_are_singletons(self, kind, cls):
        assert cls() is kind
        assert copy.copy(kind) is kind and copy.deepcopy(kind) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert pickle.loads(pickle.dumps(TypeVar(5, kind))).kind is kind
        assert copy.deepcopy(TypeVar(5, kind)).kind is kind

    def test_nodes_copy_and_pickle_as_values(self):
        t = TFun(record({"a": TApp(LIST, A)}, RHO), TCon("F", ArrowKind(STAR, STAR)))
        for value in [t, *VALUES, *terms(SPAN)]:
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert type(twin) is type(value) and twin == value
                assert getattr(twin, "span", None) == getattr(value, "span", None)


class TestVariableIsAType:
    """A type variable is a type node itself, wherever it occurs."""

    def test_a_bare_variable_prints(self):
        assert isinstance(TypeVar(3), Type)
        assert pretty_type(TypeVar(3)) == "t3"
        assert pretty_type(TFun(TypeVar(3), TypeVar(3)), {3: "a"}) == "a -> a"

    def test_a_bare_variable_hashes_by_id_and_kind(self):
        assert hash(TypeVar(3, ROW)) == hash(TypeVar(3, ROW))
        assert {TypeVar(3): "a"}[TypeVar(3)] == "a"
        assert TypeVar(3) != TypeVar(3, ROW)

    @pytest.mark.parametrize("kind", [STAR, ROW, ArrowKind(STAR, STAR)])
    def test_type_kind_of_a_variable_is_its_kind(self, kind):
        assert type_kind(TypeVar(3, kind)) == kind

    def test_var_is_the_variable_itself(self):
        v = TypeVar(3)
        assert v.var is v


# -- kinds and printing ------------------------------------------------------


class TestTypeKind:
    def test_shapes(self):
        assert type_kind(INT) == STAR
        assert type_kind(TRow({}, RHO)) == ROW
        assert type_kind(TApp(LIST, INT)) == STAR
        assert type_kind(record({"a": INT})) == STAR
        assert type_kind(RHO) == ROW


class TestPretty:
    def test_identity_scheme(self):
        s = Scheme((A,), TFun(A, A))
        assert pretty_scheme(s) == "∀a:*. a -> a"

    def test_record(self):
        assert pretty_type(record({"name": STRING, "age": INT})) == "Rec {age:Int, name:String}"

    def test_open_row(self):
        s = Scheme((A, RHO), TFun(record({"name": A}, RHO), A))
        assert pretty_scheme(s) == "∀a:*. ∀b:row. Rec {name:a | b} -> a"

    def test_empty_open_row(self):
        assert pretty_type(TRow({}, RHO), {RHO.id: "r"}) == "{ | r}"

    def test_arrow_associativity(self):
        assert pretty_type(TFun(INT, TFun(BOOL, STRING))) == "Int -> Bool -> String"
        assert pretty_type(TFun(TFun(INT, BOOL), STRING)) == "(Int -> Bool) -> String"

    def test_application_parens(self):
        assert pretty_type(TApp(LIST, TApp(LIST, INT))) == "List (List Int)"

    def test_names_follow_first_occurrence(self):
        s = Scheme((B, A), TFun(B, A))
        assert pretty_scheme(s) == "∀a:*. ∀b:*. a -> b"

    def test_higher_kind_binder_parenthesized(self):
        f = TypeVar(5, ArrowKind(STAR, STAR))
        s = Scheme((f, A), TApp(f, A))
        assert pretty_scheme(s) == "∀a:(* -> *). ∀b:*. a b"

    def test_unnamed_free_vars(self):
        assert pretty_type(TypeVar(42)) == "t42"

    def test_printing_leaves_no_garbage_cycle(self):
        s = Scheme((A, RHO), TFun(record({"name": A}, RHO), A), ((RHO, ("x",)),))
        twice = Lam("f", Lam("x", App(Var("f"), App(Var("f"), Var("x")))))
        gc.collect()
        gc.disable()
        try:
            pretty_scheme(s)
            Mismatch(INT, TFun(INT, A))
            pretty_term(twice)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_inference_leaves_no_garbage_cycle(self):
        lets = "let f = \\r. {a = 1 | r} in let g = \\r. (f r).a in let h = \\x. x in "
        gc.collect()
        gc.disable()
        try:
            infer_program(lets + "h (g {b = 2})")
            with pytest.raises(InferError):
                infer_program(lets + "g {a = 2}")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_row_binder_shows_the_labels_the_body_does_not_imply(self):
        body = TFun(record({"b": INT}, RHO), INT)
        s = Scheme((RHO,), body, ((RHO, ("x", "b", "a")),))
        assert pretty_scheme(s) == "∀a:row∖{a, x}. Rec {b:Int | a} -> Int"
        assert pretty_scheme(Scheme((RHO,), body, ((RHO, ("b",)),))) == "∀a:row. Rec {b:Int | a} -> Int"

    def test_canonicalize_deep(self):
        t = record({"x": record({"b": INT, "a": BOOL})})
        out = canonicalize(t)
        assert list(out.arg.fields["x"].arg.fields) == ["a", "b"]
