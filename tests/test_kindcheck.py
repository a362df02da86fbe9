"""Tests for the kinding stage."""

import pytest

from rowml.kindcheck import KindError, UnboundTypeName, check_scheme, kind_of
from rowml.parser import parse_type
from rowml.syntax import (
    ArrowKind,
    INT,
    LIST,
    REC,
    ROW,
    STAR,
    STRING,
    Scheme,
    TApp,
    TCon,
    TFun,
    TRow,
    TypeVar,
    free_vars_ordered,
    record,
)

from stores import solve

DELTA = {}
RHO = TypeVar(0, ROW)
A = TypeVar(1)


class TestKindOf:
    def test_list_int_is_star(self):
        assert kind_of(DELTA, parse_type("List Int")) == STAR

    def test_record_is_star_with_row_argument(self):
        rec = parse_type("Rec {name:String, age:Int}")
        assert kind_of(DELTA, rec) == STAR
        assert kind_of(DELTA, rec.arg) == ROW

    def test_bare_row_is_row(self):
        assert kind_of(DELTA, parse_type("{name:String, age:Int}")) == ROW

    def test_star_applied_to_star(self):
        with pytest.raises(KindError) as exc:
            kind_of(DELTA, TApp(INT, INT))
        err = exc.value
        assert err.actual == STAR
        assert isinstance(err.expected, ArrowKind)
        assert err.expected.param == STAR

    def test_constructor_argument_kind_mismatch(self):
        with pytest.raises(KindError) as exc:
            kind_of(DELTA, TApp(REC, INT))
        assert exc.value.expected == ROW
        assert exc.value.actual == STAR

    def test_arrow_requires_star_sides(self):
        with pytest.raises(KindError) as exc:
            kind_of({v.id: v.kind for v in [RHO]}, TFun(RHO, INT))
        assert exc.value.expected == STAR
        assert exc.value.actual == ROW

    def test_row_fields_must_be_star(self):
        with pytest.raises(KindError):
            kind_of(DELTA, TRow({"a": TRow({})}))

    def test_unbound_constructor(self):
        with pytest.raises(UnboundTypeName):
            kind_of(DELTA, TCon("Maybe", ArrowKind(STAR, STAR)))

    def test_unbound_variable(self):
        with pytest.raises(UnboundTypeName):
            kind_of(DELTA, A)

    def test_row_tail_bound_at_the_wrong_kind(self):
        with pytest.raises(KindError) as exc:
            kind_of({v.id: v.kind for v in [TypeVar(0, STAR)]}, TRow({"a": INT}, RHO))
        assert str(exc.value) == "a has kind *, expected row"
        assert exc.value.offender == RHO

    def test_unbound_row_tail(self):
        with pytest.raises(UnboundTypeName) as exc:
            kind_of(DELTA, TRow({"a": INT}, RHO))
        assert exc.value.name == RHO.id

    def test_constructor_used_at_wrong_kind(self):
        with pytest.raises(KindError):
            kind_of(DELTA, TCon("Int", ArrowKind(STAR, STAR)))

    def test_kinds_are_unique(self):
        tau = parse_type("Rec {xs:List Int | r} -> List String")
        delta = {v.id: v.kind for v in free_vars_ordered(tau)}
        assert kind_of(delta, tau) == kind_of(delta, tau) == STAR


class TestCheckScheme:
    def test_polymorphic_list(self):
        check_scheme(DELTA, Scheme((A,), TApp(LIST, A)))

    def test_row_polymorphic_record(self):
        check_scheme(DELTA, Scheme((RHO,), record({"name": STRING}, RHO)))

    def test_row_body_is_not_a_type(self):
        with pytest.raises(KindError) as exc:
            check_scheme(DELTA, Scheme((RHO,), RHO))
        assert exc.value.expected == STAR
        assert exc.value.actual == ROW

    def test_binder_kinds_are_respected(self):
        f = TypeVar(2, ArrowKind(STAR, STAR))
        check_scheme(DELTA, Scheme((f, A), TApp(f, A)))
        with pytest.raises(KindError):
            check_scheme(DELTA, Scheme((f,), f))


class TestSubstitutionPreservesKinds:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("Rec {name:String | r} -> a", "Rec {age:Int, name:String} -> Int"),
            ("List a -> b", "List (Rec {x:Bool | r}) -> Rec { | r}"),
            ("Rec {a:x | r} -> x", "Rec {a:Int, b:b2} -> a2"),
        ],
    )
    def test_unifier_output_keeps_kinds(self, left, right):
        t1, t2 = parse_type(left), parse_type(right)
        # shift right-hand ids so the two parses do not collide
        shift = 100
        t2 = _shift(t2, shift)
        sigma = solve(t1, t2)
        all_vars = set(free_vars_ordered(t1)) | set(free_vars_ordered(t2))
        for image in sigma.mapping.values():
            all_vars |= set(free_vars_ordered(image))
        delta = {v.id: v.kind for v in all_vars}
        for t in (t1, t2):
            assert kind_of(delta, sigma.apply(t)) == kind_of(delta, t)


def _shift(t, by):
    from rowml.syntax import TApp, TFun, TRow, TypeVar

    if isinstance(t, TypeVar):
        return TypeVar(t.id + by, t.kind)
    if isinstance(t, TApp):
        return TApp(_shift(t.fun, by), _shift(t.arg, by))
    if isinstance(t, TFun):
        return TFun(_shift(t.dom, by), _shift(t.cod, by))
    if isinstance(t, TRow):
        tail = TypeVar(t.tail.id + by, t.tail.kind) if t.tail else None
        return TRow({l: _shift(v, by) for l, v in t.fields.items()}, tail)
    return t
