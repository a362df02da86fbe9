"""Tests for substitutions and (row) unification."""

import copy
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from rowml.oracle import GroundSpace, oracle_agrees
from rowml.syntax import (
    ArrowKind,
    BOOL,
    FreshVars,
    INT,
    LIST,
    REC,
    ROW,
    STAR,
    STRING,
    Scheme,
    TApp,
    TFun,
    TRow,
    TypeVar,
    free_vars_ordered,
    pretty_scheme,
    record,
    scan_rows,
    type_kind,
)
from rowml.unify import (
    DuplicateLabel,
    KindMismatch,
    Mismatch,
    OccursCheck,
    RowMissingLabel,
    RowTailEscape,
    Subst,
    UnifyError,
    unify,
    unify_rows,
)

from stores import solve

A = TypeVar(0)
B = TypeVar(1)
RHO = TypeVar(2, ROW)
RHO1 = TypeVar(3, ROW)
RHO2 = TypeVar(4, ROW)
F = TypeVar(5, ArrowKind(STAR, STAR))


def assert_idempotent(s: Subst, *types):
    """Each of `types` read through the store mentions no bound variable,
    and reading it again changes nothing."""
    for t in types:
        once = s.apply(t)
        assert not {v.id for v in free_vars_ordered(once)} & s.mapping.keys()
        assert s.apply(once) == once


def assert_sound(s: Subst, t1, t2):
    # rows are unordered maps, so == is already equality modulo reordering
    assert s.apply(t1) == s.apply(t2)


class TestApply:
    def test_tail_instantiation_merges_fields(self):
        s = Subst({RHO.id: TRow({"age": INT})})
        out = s.apply(record({"name": STRING}, RHO))
        assert out == record({"name": STRING, "age": INT})

    def test_tail_instantiation_to_empty_row(self):
        s = Subst({RHO.id: TRow({})})
        out = s.apply(record({"name": STRING}, RHO))
        assert out == record({"name": STRING})

    def test_empty_substitution_is_identity(self):
        t = TFun(A, record({"x": B}, RHO))
        assert Subst().apply(t) is t

    def test_tail_to_tail(self):
        s = Subst({RHO.id: RHO2})
        assert s.apply(TRow({}, RHO)) == TRow({}, RHO2)

    def test_images_are_read_through_their_bindings(self):
        s = Subst({A.id: TFun(B, B), B.id: INT})
        assert s.apply(A) == TFun(INT, INT)
        assert s.mapping == {A.id: TFun(B, B), B.id: INT}  # reading rewrites no image

    def test_row_chains_merge_and_settle(self):
        s = Subst({RHO1.id: TRow({"b": BOOL}, RHO2), RHO2.id: TRow({})})
        assert s.apply(record({"a": INT}, RHO1)) == record({"a": INT, "b": BOOL})
        assert_idempotent(s, RHO1, RHO2)

    def test_merge_collision_is_reported(self):
        s = Subst({RHO.id: TRow({"name": INT})})
        with pytest.raises(DuplicateLabel) as exc:
            s.apply(TRow({"name": STRING}, RHO))
        assert exc.value.label == "name"

    def test_unbound_subtrees_come_back_as_they_are(self):
        s = Subst({A.id: INT, RHO.id: TRow({"age": INT})})
        untouched = TFun(B, record({"x": TApp(LIST, B)}, RHO1))
        assert s.apply(untouched) is untouched
        out = s.apply(TFun(A, untouched))
        assert out == TFun(INT, untouched) and out.cod is untouched
        row = TRow({"x": untouched}, RHO)
        assert s.apply(row).fields["x"] is untouched

    @given(st.data())
    def test_apply_equals_a_full_rebuild(self, data):
        mapping = data.draw(store_mappings())
        t = data.draw(store_types(-1))
        expected = rebuild_apply(mapping, t)
        out = Subst(dict(mapping)).apply(t)
        assert out == expected
        assert not {v.id for v in free_vars_ordered(out)} & mapping.keys()
        if not {v.id for v in free_vars_ordered(t)} & mapping.keys():
            assert out is t


class _Writes(dict):
    """A store mapping that records the ids written to it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.written = []

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)


class TestFind:
    def test_a_chain_is_rebound_straight_to_its_end(self):
        c, d = TypeVar(5), TypeVar(6)
        for end in (d, INT):
            mapping = _Writes({A.id: B, B.id: c, c.id: end})
            s = Subst(mapping)
            assert s.find(A) is end
            # c's link is the last one, so already straight to the end
            assert mapping.written == [A.id, B.id]
            assert mapping == {A.id: end, B.id: end, c.id: end}
            assert s.find(A) is end and s.find(B) is end

    def test_a_one_link_chain_writes_nothing(self):
        for image in (B, INT, TFun(B, B), TRow({"a": INT})):
            mapping = _Writes({A.id: image})
            assert Subst(mapping).find(A) is image
            assert mapping.written == []

    def test_a_non_variable_comes_back_as_it_is(self):
        mapping = _Writes({A.id: INT})
        s = Subst(mapping)
        for t in (INT, TFun(A, A), TApp(LIST, A), record({"a": A}, RHO), TRow({}, RHO)):
            assert s.find(t) is t
        assert s.find(B) is B  # an unbound variable too
        assert mapping.written == []


# Random acyclic stores: star variables 10-13 and row variables 14-17, where
# an image mentions only variables of a higher id, and each row variable's
# image has labels of its own, so that no merge repeats a label.
STORE_STARS = tuple(TypeVar(i) for i in range(10, 14))
STORE_ROWS = tuple(TypeVar(i, ROW) for i in range(14, 18))


def store_tails(above):
    return st.sampled_from([None, *(v for v in STORE_ROWS if v.id > above)])


def store_rows(above, labels, depth):
    fields = st.dictionaries(st.sampled_from(labels), store_types(above, depth), max_size=3)
    return st.builds(TRow, fields, store_tails(above))


def store_types(above, depth=2):
    leaf = st.sampled_from([INT, BOOL, *(v for v in STORE_STARS if v.id > above)])
    if depth == 0:
        return leaf
    sub = store_types(above, depth - 1)
    return st.one_of(
        leaf,
        st.builds(TFun, sub, sub),
        st.builds(lambda t: TApp(LIST, t), sub),
        st.builds(lambda row: TApp(REC, row), store_rows(above, ("a", "b", "c"), depth - 1)),
    )


@st.composite
def store_mappings(draw):
    mapping = {}
    for v in STORE_STARS:
        if draw(st.booleans()):
            mapping[v.id] = draw(store_types(v.id))
    for v in STORE_ROWS:
        if draw(st.booleans()):
            renames = [w for w in STORE_ROWS if w.id > v.id]
            own_labels = tuple(f"{label}{v.id}" for label in "abc")
            images = store_rows(v.id, own_labels, 1)
            mapping[v.id] = draw(st.one_of(images, st.sampled_from(renames)) if renames else images)
    return mapping


def rebuild_apply(mapping, t):
    """What `Subst.apply` computes, built afresh at every node."""
    if isinstance(t, TypeVar):
        image = mapping.get(t.id)
        return t if image is None else rebuild_apply(mapping, image)
    if isinstance(t, TApp):
        return TApp(rebuild_apply(mapping, t.fun), rebuild_apply(mapping, t.arg))
    if isinstance(t, TFun):
        return TFun(rebuild_apply(mapping, t.dom), rebuild_apply(mapping, t.cod))
    if isinstance(t, TRow):
        fields = {label: rebuild_apply(mapping, f) for label, f in t.fields.items()}
        tail = t.tail
        while tail is not None and tail.id in mapping:
            image = mapping[tail.id]
            if isinstance(image, TypeVar):
                tail = image
                continue
            fields.update((label, rebuild_apply(mapping, f)) for label, f in image.fields.items())
            tail = image.tail
        return TRow(fields, tail)
    return t


def assert_shares_unbound_subtrees(mapping, t, out):
    """Each subtree of `t` that mentions no bound variable is, as the same
    object, at its place in `out`."""
    if not {v.id for v in free_vars_ordered(t)} & mapping.keys():
        assert out is t
    elif isinstance(t, TFun):
        assert_shares_unbound_subtrees(mapping, t.dom, out.dom)
        assert_shares_unbound_subtrees(mapping, t.cod, out.cod)
    elif isinstance(t, TApp):
        assert_shares_unbound_subtrees(mapping, t.fun, out.fun)
        assert_shares_unbound_subtrees(mapping, t.arg, out.arg)
    elif isinstance(t, TRow):
        for label, field in t.fields.items():
            assert_shares_unbound_subtrees(mapping, field, out.fields[label])


class TestApplyCollecting:
    @given(store_mappings(), store_types(-1))
    # Variables are collected by label, not in the row's own order.
    @example({12: INT}, TApp(REC, TRow({"b": TypeVar(10), "a": TypeVar(11)})))
    # The bound tail brings back the label the row has.
    @example({14: TRow({"a": INT})}, TApp(REC, TRow({"a": BOOL}, TypeVar(14, ROW))))
    def test_the_walk_is_apply_and_collects_in_free_vars_order(self, mapping, t):
        try:
            expected = Subst(dict(mapping)).apply(t)
        except DuplicateLabel as exc:
            with pytest.raises(DuplicateLabel) as again:
                Subst(dict(mapping)).apply_collecting(t, {})
            assert again.value.label == exc.label
            return
        free = {}
        out = Subst(dict(mapping)).apply_collecting(t, free)
        assert out == expected == rebuild_apply(mapping, t)
        assert_shares_unbound_subtrees(mapping, t, out)
        assert list(free.values()) == free_vars_ordered(out)


class TestUnify:
    def test_classic_arrow_case(self):
        s = solve(TFun(A, A), TFun(INT, B))
        assert (s.apply(A), s.apply(B)) == (INT, INT)

    def test_open_record_against_closed(self):
        s = solve(record({"name": STRING}, RHO), record({"age": INT, "name": STRING}))
        assert s.apply(RHO) == TRow({"age": INT})

    def test_constructor_mismatch(self):
        with pytest.raises(Mismatch):
            solve(INT, BOOL)

    def test_occurs_check(self):
        with pytest.raises(OccursCheck):
            solve(A, TApp(LIST, A))

    def test_occurs_check_through_a_binding_of_the_same_step(self):
        # the domains bind A to B; the occurs check must see A in List A
        with pytest.raises(OccursCheck):
            solve(TFun(A, B), TFun(B, TApp(LIST, A)))

    def test_occurs_check_through_row_tail(self):
        with pytest.raises(OccursCheck):
            solve(RHO, TRow({"a": INT}, RHO))

    def test_var_binds_to_var(self):
        s = solve(A, B)
        assert (s.apply(A), s.apply(B)) == (B, B)
        assert solve(A, A).apply(A) == A

    def test_fun_against_con(self):
        with pytest.raises(Mismatch):
            solve(INT, TFun(INT, B))

    def test_given_store_is_extended_in_place(self):
        # unresolved inputs unify under the store's bindings; the images
        # already in it are not re-applied
        c = TypeVar(5)
        s = Subst({A.id: TFun(B, B)})
        out = unify(A, TFun(INT, c), FreshVars(100), s)
        assert out is s
        assert s.mapping[A.id] == TFun(B, B)
        assert s.apply(A) == TFun(INT, INT)
        assert s.apply(c) == INT

    def test_row_case_of_a_step_extends_the_given_store(self):
        # the rows meet inside a step: the row case solves in the step's
        # store with the step's supply, and seeds nothing itself
        r1, r2 = TypeVar(1, ROW), TypeVar(2, ROW)
        t1 = TFun(record({"a": INT}, r1), INT)
        t2 = TFun(record({"b": INT}, r2), INT)
        s = Subst()
        scan_rows(t1, s.lacks)
        scan_rows(t2, s.lacks)
        assert unify(t1, t2, FreshVars(100), s) is s
        tail = TypeVar(100, ROW)
        assert s.mapping == {r1.id: TRow({"b": INT}, tail), r2.id: TRow({"a": INT}, tail)}
        assert s.lacks == {tail.id: frozenset("ab")}

    def test_a_store_starts_with_no_levels_and_no_lacks(self):
        for name in ("levels", "lacks"):
            with pytest.raises(TypeError):
                Subst(**{name: {}})
        s = Subst({A.id: INT})
        assert s.levels == {} and s.lacks == {}

    def test_failed_step_reports_an_input_row_that_already_repeats_a_label(self):
        # under the store, RHO's row already has a, so the input row
        # {a:Int | RHO} repeats it before anything is unified
        s = Subst({RHO.id: TRow({"a": INT}, RHO2)})
        s.lacks[RHO2.id] = frozenset("a")
        before, lacks = dict(s.mapping), dict(s.lacks)
        with pytest.raises(DuplicateLabel) as exc:
            unify_rows(TRow({"a": INT}, RHO), TRow({"b": INT}, RHO1), FreshVars(100), s)
        assert exc.value.label == "a"
        assert (s.mapping, s.lacks) == (before, lacks)

    def test_failed_step_reports_its_own_error_under_the_old_bindings(self):
        # the input row {a:Int | RHO} makes RHO lack a, so binding RHO to
        # {a:Bool} fails before Int meets Bool
        row = record({"a": INT}, RHO)
        t1 = TFun(TFun(row, record({}, RHO)), INT)
        t2 = TFun(TFun(row, record({"a": BOOL})), BOOL)
        s = Subst()
        scan_rows(t1, s.lacks)
        with pytest.raises(DuplicateLabel):
            unify(t1, t2, FreshVars(100), s)
        assert (s.mapping, s.lacks) == ({}, {RHO.id: frozenset("a")})

    def test_binding_a_row_variable_hands_its_labels_on(self):
        s = solve(TRow({"a": INT}, RHO1), TRow({"b": INT}, RHO2), FreshVars(100), unify_rows)
        shared = s.walk_row(TRow({}, RHO1)).tail
        assert s.lacks == {shared.id: frozenset("ab")}
        # binding one row variable to another unites their labels
        s = Subst()
        scan_rows(TRow({"a": INT, "x": INT}, RHO1), s.lacks)
        scan_rows(TRow({"a": INT, "y": INT}, RHO2), s.lacks)
        unify_rows(TRow({"a": INT}, RHO1), TRow({"a": INT}, RHO2), FreshVars(100), s)
        shared = s.walk_row(TRow({}, RHO1)).tail
        assert s.lacks == {shared.id: frozenset("axy")}
        # a closed row meets the labels a tail lacks
        t1 = TFun(record({"b": INT, "c": INT}, RHO1), record({}, RHO1))
        with pytest.raises(DuplicateLabel) as exc:
            solve(t1, TFun(A, record({"c": INT, "b": INT})))
        assert exc.value.label == "b"  # the least label that overlaps

SPACE = GroundSpace(labels=("a", "b", "name", "age"), max_row_size=3)


class TestUnifyRows:
    def test_both_empty_closed(self):
        assert solve(TRow({}), TRow({}), run=unify_rows).mapping == {}

    def test_open_absorbs_missing_fields(self):
        r1 = TRow({"name": STRING}, RHO)
        r2 = TRow({"name": STRING, "age": INT})
        s = solve(r1, r2, run=unify_rows)
        assert s.apply(RHO) == TRow({"age": INT})
        assert_sound(s, r1, r2)

    def test_two_open_rows_share_a_fresh_tail(self):
        r1 = TRow({"a": INT}, RHO1)
        r2 = TRow({"b": BOOL}, RHO2)
        s = solve(r1, r2, FreshVars(100), unify_rows)
        image1, image2 = s.apply(RHO1), s.apply(RHO2)
        assert image1.fields == {"b": BOOL} and image2.fields == {"a": INT}
        assert image1.tail is not None and image1.tail == image2.tail
        assert image1.tail.id >= 100  # genuinely fresh
        assert_sound(s, r1, r2)
        assert oracle_agrees((r1, r2), SPACE)

    def test_closed_row_missing_label(self):
        with pytest.raises(RowMissingLabel) as exc:
            solve(TRow({"a": INT}), TRow({"a": INT, "b": BOOL}), run=unify_rows)
        assert exc.value.label == "b"

    def test_pointwise_field_mismatch(self):
        r1 = TRow({"name": INT}, RHO)
        r2 = TRow({"name": STRING, "age": INT})
        with pytest.raises(Mismatch):
            solve(r1, r2, run=unify_rows)
        assert oracle_agrees((r1, r2), SPACE)  # brute force finds no solution

    def test_shared_tail_with_leftovers_is_rejected(self):
        with pytest.raises(RowTailEscape):
            solve(TRow({"a": INT}, RHO), TRow({"b": BOOL}, RHO), run=unify_rows)

    def test_shared_tail_with_equal_fields(self):
        s = solve(TRow({"a": A}, RHO), TRow({"a": INT}, RHO), run=unify_rows)
        assert (s.apply(A), s.apply(RHO)) == (INT, RHO)

    def test_same_fields_different_order_built(self):
        r1 = TRow(dict([("a", INT), ("b", BOOL)]))
        r2 = TRow(dict([("b", BOOL), ("a", INT)]))
        assert solve(r1, r2, run=unify_rows).mapping == {}

    def test_tail_bound_during_pointwise_step(self):
        # unifying the shared field binds RHO2, revealing a new shared label
        r1 = TRow({"a": record({}, RHO2), "b": INT}, RHO1)
        r2 = TRow({"a": record({"b": INT})}, RHO2)
        for left, right in ((r1, r2), (r2, r1)):
            assert_sound(solve(left, right, FreshVars(100), unify_rows), left, right)

    def test_tail_bound_during_pointwise_step_brings_a_leftover_label(self):
        # unifying the shared field binds RHO2 to a row with b, a label
        # that the other side lacks and its tail must absorb
        rho3 = TypeVar(5, ROW)
        r1 = TRow({"a": record({}, RHO2)}, RHO1)
        r2 = TRow({"a": record({"b": INT}, rho3)}, RHO2)
        for left, right in ((r1, r2), (r2, r1)):
            assert_sound(solve(left, right, FreshVars(100), unify_rows), left, right)

    def test_given_store_is_extended_and_returned(self):
        s = Subst({A.id: INT})
        r1 = TRow({"a": A}, RHO1)
        r2 = TRow({"a": B, "b": BOOL})
        out = unify_rows(r1, r2, FreshVars(100), s)
        assert out is s
        assert s.mapping[A.id] == INT
        assert s.apply(B) == INT
        assert s.mapping[RHO1.id] == TRow({"b": BOOL})

    def test_tail_bound_after_a_row_was_matched_repeats_its_label(self):
        # field a gives RHO1 and RHO2 one fresh tail; field b then binds
        # that tail to {x:Int}, which RHO1's row in field a already has
        r1 = TRow({"a": record({"x": INT}, RHO1), "b": record({}, RHO1)})
        r2 = TRow({"a": record({"x": INT}, RHO2), "b": record({"x": INT})})
        for left, right in ((r1, r2), (r2, r1)):
            with pytest.raises(DuplicateLabel):
                solve(left, right, run=unify_rows)
            with pytest.raises(DuplicateLabel):
                solve(record(left.fields), record(right.fields))

    def test_empty_open_row_unifies_with_anything(self):
        s = solve(TRow({}, RHO), TRow({"a": INT, "b": BOOL}), run=unify_rows)
        assert s.apply(RHO) == TRow({"a": INT, "b": BOOL})


# Each failure class raised by a unification, with its fields and the
# exact message it renders.
FAILURES = [
    pytest.param(
        lambda: solve(TApp(LIST, A), TFun(A, B)),
        Mismatch,
        {"left": TApp(LIST, A), "right": TFun(A, B)},
        "cannot unify List a with a -> b",
        id="Mismatch",
    ),
    pytest.param(
        lambda: solve(A, TFun(B, TApp(LIST, A))),
        OccursCheck,
        {"var": A, "type": TFun(B, TApp(LIST, A))},
        "infinite type: a occurs in b -> List a",
        id="OccursCheck",
    ),
    pytest.param(
        lambda: solve(TRow({"a": INT, "c": A}, RHO), TRow({"b": BOOL}), run=unify_rows),
        RowMissingLabel,
        {"label": "a", "closed_row": TRow({"b": BOOL})},
        "record row {b:Bool} lacks label 'a'",
        id="RowMissingLabel",
    ),
    pytest.param(
        lambda: solve(TRow({"a": INT}, RHO), TRow({"b": A}, RHO), run=unify_rows),
        RowTailEscape,
        {"var": RHO, "row": TRow({"b": A}, RHO)},
        "row variable a would have to contain itself to match {b:b | a}",
        id="RowTailEscape",
    ),
    pytest.param(
        lambda: solve(
            TFun(record({"a": INT}, RHO), record({}, RHO)),
            TFun(record({"b": INT}, RHO1), record({"a": BOOL}, RHO1)),
        ),
        DuplicateLabel,
        {"label": "a", "row": TRow({"a": INT}, TypeVar(4, ROW))},
        "duplicate record label 'a'",
        id="DuplicateLabel",
    ),
    pytest.param(
        lambda: solve(TApp(F, A), record({"a": INT})),
        KindMismatch,
        {"var": F, "type": REC},
        "kind mismatch: a has kind * -> * but Rec has kind row -> *",
        id="KindMismatch",
    ),
]


class TestFailures:
    def test_a_kind_clash_raises_before_the_store_changes(self):
        # The occurs walk would lower A's level to F's.
        s = Subst()
        s.levels[A.id] = 1
        with pytest.raises(KindMismatch):
            s.bind(F, A)
        assert s.mapping == {} and s.levels == {A.id: 1}

    @pytest.mark.parametrize("step, cls, fields, message", FAILURES)
    def test_each_failure_keeps_its_fields_and_renders_its_message(
        self, step, cls, fields, message
    ):
        with pytest.raises(UnifyError) as info:
            step()
        assert type(info.value) is cls
        assert vars(info.value) == fields
        assert info.value.args == tuple(fields.values())
        assert str(info.value) == message

    @pytest.mark.parametrize("step, cls, fields, message", FAILURES)
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda exc: pickle.loads(pickle.dumps(exc))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_each_failure_copies_and_pickles(self, step, cls, fields, message, duplicate):
        with pytest.raises(UnifyError) as info:
            step()
        twin = duplicate(info.value)
        assert type(twin) is cls
        assert vars(twin) == fields
        assert str(twin) == message


# -- properties ---------------------------------------------------------------

label_st = st.sampled_from(("a", "b", "c", "name"))
base_st = st.sampled_from((INT, BOOL, STRING))
field_st = st.one_of(base_st, st.sampled_from((A, B)))
tail_st = st.sampled_from((None, RHO1, RHO2))
row_st = st.builds(TRow, st.dictionaries(label_st, field_st, max_size=3), tail_st)


def nested_types():
    leaves = st.sampled_from((INT, BOOL, A, B))

    def extend(inner):
        records = st.builds(
            record, st.dictionaries(label_st, inner, max_size=3), tail_st
        )
        return st.one_of(
            st.builds(TFun, inner, inner), st.builds(TApp, st.just(LIST), inner), records
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def rewalk_pairs(draw):
    """Two records whose pointwise pass binds, at one field, the row
    variable that ends the other record: one record's field is
    `Rec {… | ρ}` and the other record is `{… | ρ}`, in either order.
    The labels that binding brings to the second record are often in the
    first too, so the rows must be walked again to unify them."""
    shared = draw(st.sampled_from((RHO1, RHO2)))
    label = draw(label_st)
    brought = draw(st.dictionaries(label_st, field_st, min_size=1, max_size=2))
    left = draw(st.dictionaries(label_st, field_st, max_size=2))
    for other, t in brought.items():
        if draw(st.booleans()):
            left[other] = draw(st.one_of(st.just(t), field_st))
    left[label] = record(draw(st.dictionaries(label_st, field_st, max_size=1)), shared)
    right = draw(st.dictionaries(label_st, field_st, max_size=1))
    right[label] = record(brought)
    pair = (record(left, draw(tail_st)), record(right, shared))
    return pair if draw(st.booleans()) else pair[::-1]


def nested_pairs():
    return st.one_of(st.tuples(nested_types(), nested_types()), rewalk_pairs())


def assert_kinds_kept(s: Subst, *types):
    kinds = {v.id: v.kind for t in (*types, *s.mapping.values()) for v in free_vars_ordered(t)}
    for vid, image in s.mapping.items():
        assert type_kind(image) == kinds.get(vid, ROW)  # unlisted: a fresh tail


class TestProperties:
    @given(nested_pairs())
    # unifying field a binds RHO2, the tail of the right-hand row, to a row
    # with b: the rows must be walked again to see b on both sides
    @example(
        (record({"a": record({}, RHO2), "b": INT}, RHO1), record({"a": record({"b": INT})}, RHO2))
    )
    def test_nested_success_is_symmetric_and_sound(self, pair):
        t1, t2 = pair
        try:
            s12 = solve(t1, t2, FreshVars(100))
        except UnifyError:
            s12 = None
        try:
            s21 = solve(t2, t1, FreshVars(200))
        except UnifyError:
            s21 = None
        assert (s12 is None) == (s21 is None)
        for s in (s12, s21):
            if s is not None:
                assert_sound(s, t1, t2)
                assert_idempotent(s, t1, t2)
                assert_kinds_kept(s, t1, t2)

    @given(nested_pairs())
    def test_a_given_store_gives_the_verdict_of_a_new_one(self, pair):
        t1, t2 = pair
        # inference unifies in a store that already holds bindings of
        # earlier steps; bindings of other variables change no verdict
        try:
            expected = solve(t1, t2, FreshVars(100))
        except UnifyError:
            expected = None
        c, d, r3, r4 = TypeVar(20), TypeVar(21), TypeVar(22, ROW), TypeVar(23, ROW)
        earlier = {c.id: TFun(d, INT), r3.id: TRow({"z": INT}, r4)}
        store = Subst(dict(earlier))
        store.lacks[r4.id] = frozenset("z")
        scan_rows(t1, store.lacks)
        scan_rows(t2, store.lacks)
        try:
            out = unify(t1, t2, FreshVars(100), store)
        except UnifyError:
            out = None
        assert (out is None) == (expected is None)
        if out is not None:
            assert out is store
            assert store.apply(t1) == store.apply(t2) == expected.apply(t1)
            assert {vid: store.mapping[vid] for vid in earlier} == earlier

    @given(row_st, row_st)
    def test_success_is_symmetric_and_sound(self, r1, r2):
        try:
            s12 = solve(r1, r2, FreshVars(100), unify_rows)
        except UnifyError:
            s12 = None
        try:
            s21 = solve(r2, r1, FreshVars(200), unify_rows)
        except UnifyError:
            s21 = None
        assert (s12 is None) == (s21 is None)
        for s in (s12, s21):
            if s is not None:
                assert_sound(s, r1, r2)
                assert_idempotent(s, r1, r2)

    @given(row_st, row_st)
    def test_insertion_order_is_irrelevant(self, r1, r2):
        def reversed_row(r):
            return TRow(dict(reversed(list(r.fields.items()))), r.tail)

        def try_unify(a, b):
            try:
                return solve(a, b, FreshVars(100), unify_rows)
            except UnifyError:
                return None

        straight = try_unify(r1, r2)
        shuffled = try_unify(reversed_row(r1), reversed_row(r2))
        assert (straight is None) == (shuffled is None)
        if straight is not None:
            probe = record({"probe": A}, RHO1)
            lhs = Scheme((), straight.apply(probe))
            rhs = Scheme((), shuffled.apply(probe))
            # fresh tails may differ by id; compare after closing over them
            close = lambda s: Scheme(tuple(free_vars_ordered(s.body)), s.body)
            assert pretty_scheme(close(lhs)) == pretty_scheme(close(rhs))

    @given(row_st, row_st)
    def test_substitutions_are_idempotent(self, r1, r2):
        try:
            s = solve(r1, r2, FreshVars(100), unify_rows)
        except UnifyError:
            return
        for row in (r1, r2):
            once = s.apply(row)
            assert s.apply(once) == once
