"""Tests for type inference: schemes, let polymorphism, records, errors,
and the staging discipline."""

import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import rowml.infer as infer_mod
from rowml.infer import (
    InferError,
    InferSession,
    KindFailure,
    NotARecord,
    UnboundVariable,
    UnifyFailure,
    generalize,
    infer_program,
    instantiate,
)
from rowml.parser import parse_term
from rowml.syntax import (
    BOOL,
    INT,
    LIST,
    Let,
    REC,
    ROW,
    STAR,
    STRING,
    Scheme,
    TApp,
    TFun,
    TRow,
    TypeEnv,
    TypeVar,
    free_vars_ordered,
    pretty_scheme,
    record,
    scan_rows,
)
from rowml.unify import DuplicateLabel, Mismatch, OccursCheck, RowMissingLabel
from test_soundness import applied_programs

A = TypeVar(0)
RHO = TypeVar(1, ROW)


def scheme_of(src: str, env: TypeEnv | None = None) -> Scheme:
    return infer_program(src, env=env)


class TestInstantiate:
    def test_fresh_copies(self):
        session = InferSession(fresh_start=10)
        s = Scheme((A,), TFun(A, A))
        t1 = instantiate(session, s)
        t2 = instantiate(session, s)
        assert isinstance(t1, TFun) and t1.dom == t1.cod
        assert t1 != t2  # distinct fresh variables each time
        assert A not in free_vars_ordered(t1)

    def test_row_binder_gets_row_kind(self):
        session = InferSession(fresh_start=10)
        s = Scheme((RHO,), record({"name": STRING}, RHO))
        t = instantiate(session, s)
        (v,) = free_vars_ordered(t)
        assert v.kind == ROW and v != RHO

    def test_free_vars_survive_instantiation(self):
        session = InferSession(fresh_start=10)
        b = TypeVar(5)
        s = Scheme((A,), TFun(A, b))
        assert b in free_vars_ordered(instantiate(session, s))

    def test_monomorphic_is_identity(self):
        session = InferSession()
        assert instantiate(session, Scheme((), INT)) is INT

    def test_copies_the_labels_a_row_binder_lacks(self):
        session = InferSession(fresh_start=10)
        s = Scheme((RHO,), TFun(record({}, RHO), INT), ((RHO, ("b", "a")),))
        tails = [instantiate(session, s).dom.arg.tail for _ in range(2)]
        assert tails[0] != tails[1]
        assert [session.subst.lacks[v.id] for v in tails] == [frozenset("ab")] * 2


def deeper_vars(session: InferSession, *kinds) -> tuple[TypeVar, ...]:
    """Fresh variables one level below the session's, where the bound of
    a `let` makes its variables."""
    session.level += 1
    made = tuple(session.fresh(kind) for kind in kinds)
    session.level -= 1
    return made


class TestGeneralize:
    def test_closed_environment(self):
        session = InferSession()
        (a,) = deeper_vars(session, STAR)
        s = generalize(session, TFun(a, a))
        assert s == Scheme((a,), TFun(a, a))

    def test_row_polymorphic_scheme(self):
        session = InferSession()
        (rho,) = deeper_vars(session, ROW)
        t = TFun(record({"name": STRING}, rho), STRING)
        scan_rows(t, session.subst.lacks)  # as inference seeds the rows it is given
        s = generalize(session, t)
        assert s == Scheme((rho,), t) and s.lacks == ((rho, ("name",)),)

    def test_a_bound_row_is_read_in_label_order_and_its_tail_lacks_its_labels(self):
        # Seeding the store with the row, as inference does, is what makes
        # its tail lack its labels; the scheme takes them from the store.
        session = InferSession()
        x, a, b, rho = deeper_vars(session, STAR, STAR, STAR, ROW)
        bound = record({"y": a, "x": b}, rho)
        scan_rows(bound, session.subst.lacks)
        session.unify(x, bound, None)
        s = generalize(session, TFun(x, a))
        assert s.quantified == (b, a, rho)
        assert s.lacks == ((rho, ("x", "y")),)
        assert s == Scheme(s.quantified, s.body, s.lacks)

    def test_environment_blocks_generalization(self):
        # ids below fresh_start belong to the initial environment: level 0
        session = InferSession(fresh_start=10)
        s = generalize(session, TFun(A, INT))
        assert s.quantified == ()
        (b,) = deeper_vars(session, STAR)
        assert generalize(session, TFun(A, b)).quantified == (b,)

    def test_quantifier_order_is_first_occurrence(self):
        session = InferSession()
        a, b = deeper_vars(session, STAR, STAR)
        t = TFun(b, TFun(a, b))
        assert generalize(session, t).quantified == (b, a)

    def test_binding_lowers_the_image(self):
        session = InferSession()
        x = session.fresh(STAR)
        (b,) = deeper_vars(session, STAR)
        session.unify(x, TFun(b, INT), None)
        assert generalize(session, x) == Scheme((), TFun(b, INT))

    def test_shared_row_tail_takes_the_lower_level(self):
        session = InferSession()
        outer = session.fresh(ROW)
        session.level += 1
        inner = session.fresh(ROW)
        session.unify(record({"a": INT}, outer), record({"b": INT}, inner), None)
        session.level -= 1
        s = generalize(session, record({}, inner))
        assert s.quantified == ()
        assert s.body.arg.fields == {"a": INT}

    def test_binding_lowers_through_a_bound_variable(self):
        # v's image mentions w, which is bound itself; the level-3 u in
        # w's image must come up to v's level 1, or u would be generalized
        session = InferSession()
        session.level = 1
        v = session.fresh(STAR)
        session.level = 3
        u, w = session.fresh(STAR), session.fresh(STAR)
        session.unify(w, TFun(u, INT), None)
        session.unify(v, TFun(w, INT), None)
        assert session.subst.mapping[v.id] == TFun(w, INT)
        assert session.subst.levels[u.id] == 1
        session.level = 1
        assert generalize(session, v) == Scheme((), TFun(TFun(u, INT), INT))


class TestInferExamples:
    def test_identity(self):
        assert pretty_scheme(scheme_of("\\x. x")) == "∀a:*. a -> a"

    def test_record_literal(self):
        assert pretty_scheme(scheme_of('{name = "Ana", age = 7}')) == "Rec {age:Int, name:String}"

    def test_field_selection_is_row_polymorphic(self):
        got = scheme_of("\\r. r.name")
        a, rho = TypeVar(50), TypeVar(51, ROW)
        want = Scheme((a, rho), TFun(record({"name": a}, rho), a))
        assert pretty_scheme(got) == pretty_scheme(want)

    def test_missing_label_is_reported(self):
        with pytest.raises(UnifyFailure) as exc:
            scheme_of("(\\r. r.name) {age = 7}")
        assert isinstance(exc.value.cause, RowMissingLabel)
        assert exc.value.cause.label == "name"

    def test_one_function_many_records(self):
        src = (
            "let pair = \\x. \\y. \\s. s x y in "
            "let f = \\r. r.name in "
            'pair (f {name = "a"}) (f {name = "b", age = 1})'
        )
        scheme_of(src)  # must simply typecheck

    def test_literals(self):
        assert pretty_scheme(scheme_of("42")) == "Int"
        assert pretty_scheme(scheme_of('"hi"')) == "String"

    def test_single_field_record(self):
        assert pretty_scheme(scheme_of('{name = "Ana"}')) == "Rec {name:String}"

    def test_selection_result(self):
        src = 'let f = \\r. r.name in f {name = "a", age = 1}'
        assert pretty_scheme(scheme_of(src)) == "String"

    def test_extension(self):
        got = scheme_of("\\r. {x = 1 | r}")
        rho = TypeVar(60, ROW)
        want = Scheme(
            (rho,), TFun(record({}, rho), record({"x": INT}, rho))
        )
        assert pretty_scheme(got) == pretty_scheme(want)

    def test_restriction(self):
        got = scheme_of("\\r. r - x")
        a, rho = TypeVar(61), TypeVar(62, ROW)
        want = Scheme((a, rho), TFun(record({"x": a}, rho), record({}, rho)))
        assert pretty_scheme(got) == pretty_scheme(want)

    def test_extension_after_restriction_replaces_field(self):
        src = '\\r. {x = "s" | r - x}'
        got = scheme_of(src)
        a, rho = TypeVar(63), TypeVar(64, ROW)
        want = Scheme(
            (a, rho),
            TFun(record({"x": a}, rho), record({"x": STRING}, rho)),
        )
        assert pretty_scheme(got) == pretty_scheme(want)

    def test_nested_records(self):
        src = '{outer = {inner = 1}, flag = "y"}'
        assert (
            pretty_scheme(scheme_of(src))
            == "Rec {flag:String, outer:Rec {inner:Int}}"
        )


class TestHMBattery:
    def test_let_polymorphism_accepted(self):
        src = (
            "let pair = \\x. \\y. \\s. s x y in "
            'let id = \\z. z in pair (id 1) (id "a")'
        )
        scheme_of(src)

    def test_lambda_bound_polymorphism_rejected(self):
        src = (
            "let pair = \\x. \\y. \\s. s x y in "
            '(\\id. pair (id 1) (id "a")) (\\z. z)'
        )
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, Mismatch)

    def test_self_application_fails_occurs_check(self):
        with pytest.raises(UnifyFailure) as exc:
            scheme_of("\\x. x x")
        assert isinstance(exc.value.cause, OccursCheck)

    def test_applying_a_non_function(self):
        with pytest.raises(UnifyFailure) as exc:
            scheme_of("7 8")
        assert isinstance(exc.value.cause, Mismatch)
        assert exc.value.cause.left == INT
        assert isinstance(exc.value.cause.right, TFun)
        assert exc.value.cause.right.dom == INT

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            scheme_of("nope")

    def test_shadowing_uses_innermost_binding(self):
        assert pretty_scheme(scheme_of("\\x. \\x. x")) == "∀a:*. ∀b:*. a -> b -> b"


class TestScopes:
    """A program's own bindings shadow the initial environment only
    inside their body."""

    ENV = TypeEnv((("x", Scheme((), INT)),))

    def test_a_lambda_and_a_let_shadow_an_initial_name(self):
        src = '\\x. {a = let x = "s" in x, b = x}'
        assert pretty_scheme(scheme_of(src, self.ENV)) == "∀a:*. a -> Rec {a:String, b:a}"

    def test_the_initial_binding_is_visible_after_the_inner_bodies(self):
        src = '{f = \\x. {a = let x = "s" in x, b = x}, g = x, h = let x = {} in x}'
        assert (
            pretty_scheme(scheme_of(src, self.ENV))
            == "∀a:*. Rec {f:a -> Rec {a:String, b:a}, g:Int, h:Rec {}}"
        )

    def test_an_unbound_variable_keeps_its_span(self):
        src = "let y = 1 in \\z. {a = y, b = w}"
        with pytest.raises(UnboundVariable) as exc:
            scheme_of(src)
        span = exc.value.span
        assert (span.line, span.col) == (1, 30)
        assert src[span.start : span.end] == "w"

    def test_a_failure_in_a_nested_scope_leaves_the_environment_as_it_was(self):
        with pytest.raises(UnifyFailure):
            scheme_of('\\y. let x = "s" in \\x. x 1 (x 2)', self.ENV)
        assert self.ENV == TypeEnv((("x", Scheme((), INT)),))
        src = "{a = x, b = \\x. x}"
        fresh = TypeEnv((("x", Scheme((), INT)),))
        assert scheme_of(src, self.ENV) == scheme_of(src, fresh)
        assert pretty_scheme(scheme_of(src, self.ENV)) == "∀a:*. Rec {a:Int, b:a -> a}"

    def test_the_innermost_binding_of_the_initial_environment_wins(self):
        # The environment is read in place: seeding the scope with
        # `dict(env.bindings)` would let the outer, later entry win.
        env = TypeEnv().extend("x", Scheme((), INT)).extend("x", Scheme((), STRING))
        assert pretty_scheme(scheme_of("x", env)) == "String"
        src = "{a = \\x. x, b = x}"
        assert pretty_scheme(scheme_of(src, env)) == "∀a:*. Rec {a:a -> a, b:String}"


class TestRecordErrors:
    def test_selection_via_application_mismatches(self):
        # the lambda itself types fine; the failure is applying it to an Int
        with pytest.raises(UnifyFailure) as exc:
            scheme_of("(\\x. x.name) 7")
        assert isinstance(exc.value.cause, Mismatch)

    def test_selecting_from_literal(self):
        with pytest.raises(NotARecord):
            scheme_of("7 . name".replace(" ", ""))

    def test_restricting_a_string(self):
        with pytest.raises(NotARecord):
            scheme_of('"s" - x')

    def test_extending_a_list_alike(self):
        env = TypeEnv().extend("xs", Scheme((), INT))
        with pytest.raises(NotARecord):
            infer_program("{a = 1 | xs}", env=env)

    def test_not_a_record_names_variables_by_letter(self):
        # the variable's id counts the variables made before it; its name does not
        with pytest.raises(NotARecord) as exc:
            scheme_of("let g = \\x. {a = x} in let h = \\y. y in (h g).a")
        assert str(exc.value) == "not a record: a -> Rec {a:a}"

    def test_duplicate_extension_of_known_record(self):
        # the record already has x; the merge that would duplicate it is
        # reported where the substitution gets applied
        with pytest.raises(UnifyFailure) as exc:
            scheme_of("let r = {x = 1} in {x = 2 | r}")
        assert isinstance(exc.value.cause, DuplicateLabel)
        assert exc.value.cause.label == "x"

    def test_duplicate_extension_through_application(self):
        # same collision, but the row is still open when extended and the
        # duplicate only appears when the function meets its argument
        src = '(\\r. {x = 2 | r}) {x = "s"}'
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)

    def test_late_tail_repeats_a_label_of_an_environment_row(self):
        # x and y share the free row variable RHO; selecting a from y binds
        # RHO to a row with a, which x's row already has
        env = (
            TypeEnv()
            .extend("x", Scheme((), record({"a": INT}, RHO)))
            .extend("y", Scheme((), record({}, RHO)))
        )
        delta = {v.id: v.kind for v in [RHO]}
        with pytest.raises(UnifyFailure) as exc:
            infer_program("y.a", env=env, delta=delta)
        assert isinstance(exc.value.cause, DuplicateLabel)
        assert exc.value.cause.label == "a"
        assert exc.value.span is not None  # the program's

    def test_late_tail_repeats_a_label_of_a_binding(self):
        # s is bound to Rec {a:Int | t}, where t is r's tail, so t lacks a;
        # r.a then binds t to a row with a, and that step is the error
        src = "\\r. (\\s. \\t. t) {a = 1 | r} r.a"
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        assert exc.value.cause.label == "a"
        span = exc.value.span
        assert (span.line, span.col) == (1, 29)
        assert src[span.start : span.end] == "r.a"

    def test_late_tail_repeats_a_label_of_a_restricted_row(self):
        # r - x binds r's type to Rec {x:a | t}, so t lacks x; .x then
        # gives t an x
        src = "\\r. (r - x).x"
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        span = exc.value.span
        assert (span.line, span.col) == (1, 5)
        assert src[span.start : span.end] == "(r - x).x"

    def test_late_tail_repeats_a_label_of_a_let_bound_scheme(self):
        # the inner let is inferred after r.a has bound the tail of s's row
        src = "\\r. let s = {a = 1 | r} in let t = r.a in t"
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        assert exc.value.span is not None
        assert src[exc.value.span.start : exc.value.span.end] == "r.a"

    def test_tail_bound_later_in_the_step_repeats_a_label_of_an_argument_row(self):
        # a's row {x:Int | r} meets p's row field by field, so it is in no
        # binding image; matching b then gives r's tail an x.  The error
        # belongs to the application, not to the end of the program.
        src = "\\r. (\\p. {u = p.a.x, v = p.b.x}) {a = {x = 1 | r}, b = r}"
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        assert exc.value.span is not None
        assert src[exc.value.span.start : exc.value.span.end] == src[4:]

    @pytest.mark.parametrize(
        "src, step",
        [
            # {a = 1 | r} makes r's tail lack a, and r.a gives it an a
            ("\\r. (\\s. \\t. s) {a = 1 | r} r.a", "r.a"),
            # the restriction makes its tail lack a, and .a gives it an a
            ("\\r. \\q. (({b = q | q}) - a).a", "(({b = q | q}) - a).a"),
        ],
    )
    def test_row_made_to_repeat_a_label_fails_the_step_that_adds_the_label(self, src, step):
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        span = exc.value.span
        assert src[span.start : span.end] == step

    def test_input_row_that_already_repeats_a_label_is_the_error(self):
        # {a = 1 | r} makes r's tail lack a, so r.a, which would give s's
        # row a second a, fails before the last application is reached
        src = "\\r. (\\s. \\t. \\f. f (t 1) s) {a = 1 | r} {z = r.a}"
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        span = exc.value.span
        assert src[span.start : span.end] == "r.a"

    def test_row_that_would_repeat_a_label_fails_before_a_not_a_record(self):
        # f's row makes r's tail lack a; r.a fails before f.x selects from
        # a function
        src = "\\r. let f = \\u. {a = 1 | r} in (\\s. \\t. t) r.a (f.x)"
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        span = exc.value.span
        assert (span.line, span.col) == (1, 44)
        assert src[span.start : span.end] == "r.a"

    @pytest.mark.parametrize(
        "src",
        [
            # s's row makes r's tail lack a, although s is never used
            "\\r. let s = {a = 1 | r} in r.a",
            "\\r. let s = {a = 1 | r} in (\\u. let t = 1 in t) r.a",
            # the let that selects a is outside s's scope
            "\\r. (\\x. \\y. y) (let s = {a = 1 | r} in 1) (let t = r.a in t)",
        ],
    )
    def test_let_bound_row_makes_its_tail_lack_its_labels(self, src):
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        span = exc.value.span
        assert src[span.start : span.end] == "r.a"

    @pytest.mark.parametrize(
        "src",
        [
            "(\\r. let s = {a = 1 | r} in 1) {a = 5}",
            "(\\r. let s = {a = 1 | r} in r.a) {a = 5}",
            "(\\r. let s = {a = 1 | r} in let t = 3 in r.a) {a = 5}",
            "let f = \\r. (\\s. 1) {a = 1 | r} in f {a = 5}",
        ],
    )
    def test_row_extended_out_of_sight_lacks_the_label(self, src):
        # nothing else mentions s's row, but it makes r's tail lack a
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, DuplicateLabel)
        span = exc.value.span
        assert span is not None and 0 <= span.start < span.end <= len(src)

    @pytest.mark.parametrize("src", ["\\r. (\\s. 1) {a = 1 | r}", "\\r. let s = {a = 1 | r} in 1"])
    def test_scheme_shows_a_label_no_row_of_its_body_implies(self, src):
        assert pretty_scheme(scheme_of(src)) == "∀a:row∖{a}. Rec { | a} -> Int"

    def test_hand_built_scheme_lacks_the_labels_its_body_implies(self):
        rho = TypeVar(0, ROW)
        f = Scheme((rho,), TFun(record({"name": STRING}, rho), record({}, rho)))
        env = TypeEnv().extend("f", f)
        with pytest.raises(UnifyFailure) as exc:
            infer_program("\\r. (f r).name", env=env)
        assert isinstance(exc.value.cause, DuplicateLabel)
        assert exc.value.cause.label == "name"

    def test_error_spans_point_into_source(self):
        src = "(\\r. r.name) {age = 7}"
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        span = exc.value.span
        assert span is not None and 0 <= span.start < span.end <= len(src)


class TestStageSeparation:
    def test_ill_kinded_environment_scheme_fails_first(self):
        # Rec applied to a star-kinded argument; the program itself would
        # also fail to unify, but the kind error must win
        from rowml.syntax import REC, TApp

        bad = Scheme((A,), TApp(REC, A))
        env = TypeEnv().extend("x", bad)
        with pytest.raises(KindFailure):
            infer_program("7 8", env=env)

    def test_row_valued_scheme_rejected(self):
        env = TypeEnv().extend("x", Scheme((RHO,), RHO))
        with pytest.raises(KindFailure):
            infer_program("x", env=env)

    def test_a_shadowed_binding_is_kind_checked_too(self):
        # Stage one checks every binding, not the innermost one per name.
        env = TypeEnv().extend("x", Scheme((), LIST)).extend("x", Scheme((), INT))
        with pytest.raises(KindFailure) as exc:
            infer_program("x", env=env)
        assert str(exc.value.cause) == "List has kind * -> *, expected *"

    def test_no_kind_checking_during_inference(self, monkeypatch):
        calls = []

        def spy(delta, tau):
            calls.append(tau)
            raise AssertionError("kind_of must not run during inference")

        monkeypatch.setattr(infer_mod, "check_scheme", lambda d, s: None)
        import rowml.kindcheck as kindcheck_mod

        monkeypatch.setattr(kindcheck_mod, "kind_of", spy)
        scheme_of('let f = \\r. {y = 2 | r - y} in f {x = 1, y = "s"}')
        assert calls == []

    def test_kinding_happens_before_any_unification(self, monkeypatch):
        events = []
        real_check = infer_mod.check_scheme
        real_unify = infer_mod.unify

        monkeypatch.setattr(
            infer_mod, "check_scheme", lambda d, s: events.append("kind") or real_check(d, s)
        )
        monkeypatch.setattr(
            infer_mod, "unify", lambda *a, **k: events.append("unify") or real_unify(*a, **k)
        )
        env = TypeEnv().extend("n", Scheme((), INT))
        infer_program("(\\x. x) n", env=env)
        assert "kind" in events and "unify" in events
        assert events.index("kind") < events.index("unify")


class TestResultIsFullySubstituted:
    @pytest.mark.parametrize(
        "src",
        [
            "\\x. x",
            "\\r. r.name",
            "let f = \\r. r.name in f",
            "\\r. {x = 1 | r}",
            '{a = {b = "s"}}',
        ],
    )
    def test_session_substitution_is_settled(self, src):
        session = InferSession()
        term = parse_term(src)
        t = session.resolve(infer_mod._RULES[term.__class__](session, {}, term))
        assert session.resolve(t) == t
        for image in list(session.subst.mapping.values()):  # idempotency
            once = session.resolve(image)
            assert session.resolve(once) == once


class TestLevels:
    @pytest.mark.parametrize(
        "src, expected",
        [
            ("\\x. let y = x in y", "∀a:*. a -> a"),
            ("\\r. let f = \\u. r.a in f", "∀a:*. ∀b:row. ∀c:*. Rec {a:a | b} -> c -> a"),
            ("\\f. let g = \\x. f x in g", "∀a:*. ∀b:*. (a -> b) -> a -> b"),
            ("\\r. let s = {x = 1 | r} in s.y", "∀a:*. ∀b:row∖{x}. Rec {y:a | b} -> a"),
            (
                "\\r. let t = r - a in {a = 1 | t}",
                "∀a:*. ∀b:row. Rec {a:a | b} -> Rec {a:Int | b}",
            ),
            (
                'let get = \\r. r.name in {p = get {name = 1}, q = get {name = "s", age = 2}}',
                "Rec {p:Int, q:String}",
            ),
        ],
    )
    def test_lambda_bound_variables_stay_monomorphic_under_let(self, src, expected):
        assert pretty_scheme(scheme_of(src)) == expected


class TestScale:
    def test_wide_record_selected_field_by_field(self):
        for n in (200, 400):
            fields = ", ".join(f"l{i} = {i}" for i in range(n))
            lets = "".join(f"let y{i} = r.l{(7 * i) % n} in " for i in range(n))
            src = f"let r = {{{fields}}} in {lets}y{n // 2}"
            assert pretty_scheme(scheme_of(src)) == "Int"

    def test_long_let_chain(self):
        n = 200
        lets = "".join(f"let f{i} = \\r. {{x{i} = {i} | r}} in " for i in range(n))
        assert pretty_scheme(scheme_of(f"{lets}f{n - 3} {{}}")) == f"Rec {{x{n - 3}:Int}}"

    def test_deep_let_bound_records_generalize_without_recursion(self):
        # No bound makes a variable, so no `let` generalizes, and no walk
        # of a type meets the last record, nested n deep: more than a
        # recursive walk of its type could take under this stack.
        n = sys.getrecursionlimit() // 2
        lets = "".join(f"let x{i} = {{a = x{i - 1}}} in " for i in range(1, n))
        assert pretty_scheme(scheme_of(f"let x0 = 1 in {lets}1")) == "Int"

    def test_long_binding_chains_resolve_without_recursion(self):
        session = InferSession()
        n = 5 * sys.getrecursionlimit()
        chain = [session.fresh(STAR) for _ in range(n)]
        for v, w in zip(chain, chain[1:]):
            session.unify(v, w, None)
        assert session.resolve(chain[0]) == chain[-1]
        tails = [session.fresh(ROW) for _ in range(n)]
        for i, (v, w) in enumerate(zip(tails, tails[1:])):
            session.subst.mapping[v.id] = TRow({f"l{i}": INT}, w)
        resolved = session.resolve(record({}, tails[0])).arg
        assert len(resolved.fields) == n - 1 and resolved.tail == tails[-1]


def nested_records(t, depth: int):
    """The type nested `depth` records ``Rec {a:..}`` inside `t`, read
    with a loop: `==` on the whole type would recurse."""
    for _ in range(depth):
        assert isinstance(t, TApp) and t.fun is REC and list(t.arg.fields) == ["a"]
        t = t.arg.fields["a"]
    return t


def lambdas_result(scheme: Scheme, depth: int):
    t = scheme.body
    for _ in range(depth):
        assert isinstance(t, TFun)
        t = t.cod
    return t


class TestOneFramePerLevel:
    """Each shape checks a little below the depth at which it first ran
    out of stack on CPython 3.11 when inference recursed one Python frame
    per level of nesting (lets 992, lambdas 991, parentheses 495, nested
    arguments 495, records 330, selections 248, each counted from a
    script's top level).  A rule that added a frame per level would fail
    the shapes whose limit inference sets."""

    def test_lets(self):
        src = "".join(f"let x{i} = {i} in " for i in range(900)) + "x0"
        assert pretty_scheme(scheme_of(src)) == "Int"

    def test_lambdas(self):
        scheme = scheme_of("".join(f"\\x{i}. " for i in range(900)) + "1")
        assert len(scheme.quantified) == 900 and lambdas_result(scheme, 900) == INT

    def test_parentheses(self):
        assert pretty_scheme(scheme_of("(" * 450 + "1" + ")" * 450)) == "Int"

    def test_nested_arguments(self):
        src = "\\f. " + "f (" * 450 + "1" + ")" * 450
        assert pretty_scheme(scheme_of(src)) == "(Int -> Int) -> Int"

    def test_record_literals(self):
        scheme = scheme_of("{a = " * 300 + "1" + "}" * 300)
        assert scheme.quantified == () and nested_records(scheme.body, 300) == INT

    def test_selection_chains(self):
        scheme = scheme_of("\\r. r" + ".a" * 225)
        dom, cod = scheme.body.dom, scheme.body.cod
        assert len(scheme.quantified) == 226
        assert nested_records(dom, 225) == cod


class TestGeneralizeWithAnEmptyStore:
    def test_a_deep_record_ladder_under_a_lambda(self):
        """No step of this program unifies, so `generalize` meets `f`'s
        type, 600 records deep, with an empty store and collects its
        variables with `free_vars_ordered`'s stack.  The recursive
        resolving walk runs out of stack here from about 400 `let`s on."""
        src = (
            "let x0 = {a = 1} in "
            + "".join(f"let x{i} = {{a = x{i - 1}}} in " for i in range(1, 599))
            + "let f = \\y. x598 in 1"
        )
        assert src.count("let ") == 600
        assert pretty_scheme(scheme_of(src)) == "Int"


class TestInferProgramPipeline:
    def test_env_schemes_are_usable(self):
        env = TypeEnv().extend(
            "get_name", Scheme((RHO,), TFun(record({"name": STRING}, RHO), STRING))
        )
        assert pretty_scheme(infer_program('get_name {name = "x", age = 1}', env=env)) == "String"

    def test_result_rows_are_canonical(self):
        s = infer_program('{z = 1, a = "s"}')
        assert list(s.body.arg.fields) == ["a", "z"]

    def test_parse_errors_surface(self):
        from rowml.parser import ParseError

        with pytest.raises(ParseError):
            infer_program("let = 1")


# -- properties ---------------------------------------------------------------

record_labels = st.sampled_from(("a", "b", "x"))


def record_programs(let_wrapped: bool = False):
    """Programs over two row-polymorphic parameters that extend, select
    from and restrict records: a tail bound late often makes a row
    recorded earlier repeat a label.  With `let_wrapped`, a subterm may
    also be bound by a `let` and used once, so that it is generalized."""

    def extend(inner):
        cases = [
            st.builds(lambda l, v, e: f"{{{l} = {v} | {e}}}", record_labels, inner, inner),
            st.builds(lambda e, l: f"({e}).{l}", inner, record_labels),
            st.builds(lambda e, l: f"({e}) - {l}", inner, record_labels),
            st.builds(lambda f, e: f"({f}) ({e})", inner, inner),
            st.builds(lambda e1, e2: f"(\\s. \\t. t) ({e1}) ({e2})", inner, inner),
            st.builds(lambda e1, e2: f"(let s = {e1} in {e2})", inner, inner),
        ]
        if let_wrapped:
            cases.append(inner.map(lambda e: f"(let v = {e} in v)"))
        return st.one_of(*cases)

    leaves = st.sampled_from(("r", "q", "s", "1"))
    return st.recursive(leaves, extend, max_leaves=12).map(lambda e: f"\\r. \\q. {e}")


STAR_POOL = tuple(TypeVar(i) for i in range(3))
ROW_POOL = tuple(TypeVar(i, ROW) for i in range(3, 6))


def pool_types():
    """Types over a fixed pool of variables, so that the steps of one
    session share them."""
    leaves = st.sampled_from((INT, *STAR_POOL))

    def extend(inner):
        tails = st.sampled_from((None, *ROW_POOL))
        return st.one_of(
            st.builds(TFun, inner, inner),
            st.builds(TApp, st.just(LIST), inner),
            st.builds(record, st.dictionaries(record_labels, inner, max_size=2), tails),
        )

    return st.recursive(leaves, extend, max_leaves=6)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(record_programs())
    def test_every_inference_error_is_located(self, src):
        try:
            infer_program(src)
        except InferError as exc:
            assert exc.span is not None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=6, max_size=6),
        st.lists(
            st.tuples(st.one_of(st.sampled_from(STAR_POOL), pool_types()), pool_types()),
            min_size=2,
            max_size=6,
        ),
    )
    def test_session_steps_unify_and_keep_images_at_their_level(self, pool_levels, steps):
        session = InferSession(fresh_start=6)
        session.level = 3
        levels = session.subst.levels
        levels.update(enumerate(pool_levels))
        for t1, t2 in steps:  # as inference seeds the rows of its environment
            scan_rows(t1, session.subst.lacks)
            scan_rows(t2, session.subst.lacks)
        for t1, t2 in steps:
            try:
                session.unify(t1, t2, None)
            except UnifyFailure:
                return  # inference stops at a failed step
            assert session.resolve(t1) == session.resolve(t2)
            for vid, image in session.subst.mapping.items():
                for var in free_vars_ordered(session.resolve(image)):
                    assert levels.get(var.id, 0) <= levels.get(vid, 0)
            # What `generalize` trusts: an unbound row variable lacks the
            # labels of every row it ends.
            implied: dict[int, frozenset[str]] = {}
            scan_rows(session.resolve(t1), implied)
            for vid, labels in implied.items():
                assert labels <= session.subst.lacks.get(vid, frozenset())


def unify_steps(monkeypatch, src: str) -> tuple[Scheme, int]:
    """The scheme of `src` and the number of session unification steps
    its inference ran."""
    steps = []
    real = InferSession.unify

    def counted(self, t1, t2, span):
        steps.append(span)
        return real(self, t1, t2, span)

    monkeypatch.setattr(InferSession, "unify", counted)
    return scheme_of(src), len(steps)


class TestSelectionFromAClosedRow:
    def test_reads_the_field_without_a_unification_step(self, monkeypatch):
        n = 64
        fields = ", ".join(f"l{i} = {i}" for i in range(n))
        lets = "".join(f"let y{i} = r.l{i} in " for i in range(n))
        scheme, steps = unify_steps(monkeypatch, f"let r = {{{fields}}} in {lets}y0")
        assert (pretty_scheme(scheme), steps) == ("Int", 0)

    def test_an_open_row_still_unifies_against_a_template(self, monkeypatch):
        scheme, steps = unify_steps(monkeypatch, "\\r. r.a")
        assert (pretty_scheme(scheme), steps) == ("∀a:*. ∀b:row. Rec {a:a | b} -> a", 1)

    def test_a_missing_label_is_still_located_at_the_selection(self):
        src = "{a = 1}.b"
        with pytest.raises(UnifyFailure) as exc:
            scheme_of(src)
        assert isinstance(exc.value.cause, RowMissingLabel)
        span = exc.value.span
        assert (span.start, span.end) == (0, len(src))

    def test_the_field_type_meets_its_use(self):
        with pytest.raises(UnifyFailure) as exc:
            scheme_of('let r = {a = 1} in r.a "x"')
        assert isinstance(exc.value.cause, Mismatch)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=6, max_size=6),
        st.lists(
            st.tuples(st.sampled_from(STAR_POOL), pool_types()), min_size=1, max_size=4
        ),
        st.dictionaries(record_labels, pool_types(), min_size=1),
        st.data(),
    )
    def test_template_step_only_binds_the_template(self, pool_levels, steps, fields, data):
        # What lets inference read the field instead: when no variable is
        # deeper than the session's level, unifying a closed row that has
        # `l` with `Rec {l:v | rho}` binds v to the field and rho to the
        # other fields, and changes no other variable's level or lacks.
        session = InferSession(fresh_start=6)
        session.level = 3
        session.subst.levels.update(enumerate(pool_levels))
        row = TRow(fields, None)
        scan_rows(row, session.subst.lacks)
        for t1, t2 in steps:
            scan_rows(t1, session.subst.lacks)
            scan_rows(t2, session.subst.lacks)
        for t1, t2 in steps:
            try:
                session.unify(t1, t2, None)
            except UnifyFailure:
                pass  # the bindings of a failed step stay
        label = data.draw(st.sampled_from(sorted(fields)))
        value = session.fresh(STAR)
        template = session.template_row(label, value)
        mine = {value.id, template.tail.id}
        levels = {v: n for v, n in session.subst.levels.items() if v not in mine}
        lacks = {v: ls for v, ls in session.subst.lacks.items() if v not in mine}
        session.unify(TApp(REC, row), TApp(REC, template), None)
        assert session.resolve(value) == session.resolve(fields[label])
        rest = {l: t for l, t in fields.items() if l != label}
        assert session.resolve(TRow({}, template.tail)) == session.resolve(TRow(rest, None))
        assert {v: n for v, n in session.subst.levels.items() if v not in mine} == levels
        assert {v: ls for v, ls in session.subst.lacks.items() if v not in mine} == lacks


def reference_generalize(session: InferSession, tau, store_lacks) -> Scheme:
    """What `generalize` computes in one walk, in three steps: resolve
    `tau`, quantify its free variables deeper than the session's level,
    and let the public constructor normalize the labels they lacked in
    `store_lacks`, the store's lacks before the call."""
    tau = session.resolve(tau)
    level, levels = session.level, session.subst.levels
    quantified = tuple(v for v in free_vars_ordered(tau) if levels.get(v.id, 0) > level)
    lacks = tuple((v, store_lacks[v.id]) for v in quantified if v.id in store_lacks)
    return Scheme(quantified, tau, lacks)


def let_ladders():
    """``let f0 = \\r. r in let f1 = \\r. e1 in .. in fj {}``, where each
    rung's e is a record step on r, or applies the rung before it."""
    rung = st.sampled_from(
        ("{{x{i} = {i} | r}}", "r - x{i}", "(\\s. r) r.x{i}", "f{p} {{x{i} = 1 | r}}")
    )

    def program(rungs, j):
        lets = "".join(
            f"let f{i} = \\r. {step.format(i=i, p=i - 1)} in " for i, step in enumerate(rungs, 1)
        )
        return f"let f0 = \\r. r in {lets}f{j % (len(rungs) + 1)} {{}}"

    return st.builds(program, st.lists(rung, min_size=1, max_size=12), st.integers(0, 11))


HELPERS = TypeEnv(
    (
        # sel : ∀a r. Rec {a:a | r} -> a
        ("sel", Scheme((A, RHO), TFun(record({"a": A}, RHO), A))),
        # keep : ∀r∖{a}. Rec { | r} -> Rec { | r}, a label no row of its body implies
        ("keep", Scheme((RHO,), TFun(record({}, RHO), record({}, RHO)), ((RHO, ("a",)),))),
        # ext : ∀r. Rec { | r} -> Rec {b:Int | r}
        ("ext", Scheme((RHO,), TFun(record({}, RHO), record({"b": INT}, RHO)))),
    )
)


def helper_programs():
    """Programs ``\\r. \\q. e`` that apply, `let`-bind and extend the
    helpers of `HELPERS`, whose labels reach the store through
    `instantiate`."""

    def extend(inner):
        functions = st.sampled_from(("sel", "keep", "ext", "s"))
        return st.one_of(
            st.builds(lambda f, e: f"{f} ({e})", functions, inner),
            st.builds(lambda e1, e2: f"(let s = {e1} in {e2})", inner, inner),
            st.builds(lambda l, v, e: f"{{{l} = {v} | {e}}}", record_labels, inner, inner),
        )

    leaves = st.sampled_from(("r", "q", "s", "1", "sel", "keep", "ext"))
    return st.recursive(leaves, extend, max_leaves=10).map(lambda e: f"\\r. \\q. {e}")


class TestGeneralizeAgainstTheReference:
    """`generalize` resolves `tau` and collects what the scheme needs in
    one walk and builds the scheme in normal form; every call inside
    `infer_program` must give the scheme the reference gives."""

    def check(self, src: str, env: TypeEnv | None = None) -> None:
        real = infer_mod.generalize

        def checked(session, tau):
            store_lacks = dict(session.subst.lacks)
            s = real(session, tau)
            assert s == reference_generalize(session, tau, store_lacks)
            assert Scheme(s.quantified, s.body, s.lacks) == s
            return s

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(infer_mod, "generalize", checked)
            try:
                infer_program(src, env=env)
            except InferError:
                pass

    @settings(max_examples=250, deadline=None)
    @given(record_programs(let_wrapped=True))
    def test_record_programs(self, src):
        self.check(src)

    @settings(max_examples=60, deadline=None)
    @given(let_ladders())
    def test_let_ladders(self, src):
        self.check(src)

    @settings(max_examples=150, deadline=None)
    @given(helper_programs())
    def test_programs_over_an_initial_environment(self, src):
        self.check(src, HELPERS)

    def test_labels_from_the_store_only(self):
        self.check("let f = \\r. \\q. (\\s. \\t. 1) {b = 1, a = 2 | r} {y = 1, x = 2, c = 3 | q} in f")


class TestLetWithoutNewVariables:
    """A `let` whose bound made no variable binds the bound's type as it
    is, with no `generalize` walk.  At each such `let`, the walk run on
    the same session state must quantify nothing, pop no lacks and give
    the resolved bound, so the two schemes mean the same."""

    def check(self, src: str, env: TypeEnv | None = None) -> int:
        """Infer `src`, checking each `let` that skipped the walk when its
        body is entered; returns how many there were."""
        lets = {}  # id of a let's body -> the let and the supply's count before its bound
        skipped = []

        def wrap(rule):
            def checked_rule(session, scope, term):
                entry = lets.pop(id(term), None)
                if entry is not None and session._next == entry[1]:
                    scheme = scope[entry[0].name]
                    assert scheme.quantified == () and scheme.lacks == ()
                    store_lacks = dict(session.subst.lacks)
                    walked = generalize(session, scheme.body)
                    assert walked.quantified == () and walked.lacks == ()
                    assert session.subst.lacks == store_lacks
                    assert walked.body == session.resolve(scheme.body)
                    skipped.append(entry[0])
                if isinstance(term, Let):
                    lets[id(term.body)] = (term, session._next)
                return rule(session, scope, term)

            return checked_rule

        with pytest.MonkeyPatch.context() as patch:
            for cls, rule in list(infer_mod._RULES.items()):
                patch.setitem(infer_mod._RULES, cls, wrap(rule))
            try:
                infer_program(src, env=env)
            except InferError:
                pass
        return len(skipped)

    @settings(max_examples=200, deadline=None)
    @given(applied_programs())
    def test_applied_programs(self, src):
        self.check(src)

    @settings(max_examples=150, deadline=None)
    @given(helper_programs())
    def test_programs_over_an_initial_environment(self, src):
        self.check(src, HELPERS)

    def test_literals_records_and_selections_from_known_records(self):
        src = "\\r. let a = 1 in let b = {x = a, y = r} in let c = b.y in let d = r in {c = c, d = d}"
        assert self.check(src) == 4
        assert self.check("let f = \\x. x in let g = f in g", HELPERS) == 0
