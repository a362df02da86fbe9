"""Substitutions and unification, including unification of rows of
unknown size.

Rows unify modulo field order: labels shared by both rows unify
pointwise, and the fields present on one side only must be absorbed by
the other side's tail variable.  When both rows are open the leftovers
meet in a fresh shared tail; when one side is closed its missing labels
are a hard error.  Every variable binding passes an occurs check and
respects kinds.

Rows stay duplicate-free because every unbound row variable carries the
labels it must lack (Rémy, "Type checking records and variants in a
natural extension of ML", POPL 1989; Gaster & Jones 1996): those of
each row it ends.  Binding a row variable to a row that has one of them
is a DuplicateLabel; otherwise the labels pass on to the variable that
ends the row.

One `Subst` is threaded through a whole unification step: each binding
is recorded as it is made and never re-applied to the bindings before
it, so the store is triangular.  A failed step raises where it fails,
and its caller discards the store.  Given no store, the public entry
points seed the labels to lack from the rows of their inputs and answer
with a new, settled store, whose images mention no bound variable; given
the inference session's store, whose rows are registered already, and
its variable supply, they extend it in place and leave it triangular.
"""

from __future__ import annotations

import operator
from typing import Iterable

from rowml.syntax import (
    FreshVars,
    ROW,
    TApp,
    TCon,
    TFun,
    TRow,
    Type,
    TypeVar,
    pretty_type,
    pretty_types_shared,
    scan_rows,
    type_kind,
)


class UnifyError(Exception):
    """Base class for unification failures."""


class Mismatch(UnifyError):
    """Two types with different head constructors."""

    def __init__(self, left: Type, right: Type) -> None:
        self.left = left
        self.right = right
        left_s, right_s = pretty_types_shared([left, right])
        super().__init__(f"cannot unify {left_s} with {right_s}")


class OccursCheck(UnifyError):
    """Binding the variable would make it contain itself."""

    def __init__(self, var: TypeVar, type_: Type) -> None:
        self.var = var
        self.type = type_
        var_s, type_s = pretty_types_shared([var, type_])
        super().__init__(f"infinite type: {var_s} occurs in {type_s}")


class RowMissingLabel(UnifyError):
    """A closed row lacks a label required by the other side."""

    def __init__(self, label: str, closed_row: TRow) -> None:
        self.label = label
        self.closed_row = closed_row
        super().__init__(f"record row {pretty_type(closed_row)} lacks label '{label}'")


class RowTailEscape(UnifyError):
    """One row variable terminates both rows but their fields differ."""

    def __init__(self, var: TypeVar, row: TRow) -> None:
        self.var = var
        self.row = row
        var_s, row_s = pretty_types_shared([var, row])
        super().__init__(
            f"row variable {var_s} would have to contain itself to match {row_s}"
        )


class DuplicateLabel(UnifyError):
    """Binding a row variable would make a row repeat a label, e.g. by
    extending a record with a label it already has."""

    def __init__(self, label: str, row: TRow) -> None:
        self.label = label
        self.row = row
        super().__init__(f"duplicate record label '{label}'")


class Subst:
    """A kind-respecting map from variable ids to types.

    The map is triangular: an image may mention variables that are bound
    themselves, so types are read through `find`, `walk_row` and `apply`,
    which follow the chains.  Row variables map to rows; reading a row
    whose tail is bound merges the bound fields into the row, and a merge
    that repeats a label raises DuplicateLabel.  `unify` and `unify_rows`
    answer with `settled()` stores, whose images mention no bound
    variable, unless they were given a store to extend.

    `levels` maps a variable id to its let-depth, absent meaning 0.  `bind`
    lowers it to the bound variable's level for every variable an image
    reaches; the inference session writes the level of each variable it
    makes there.

    `lacks` maps an unbound row variable's id to the labels it must lack,
    absent meaning none.  `register` adds the labels of a row to the
    variable that ends it, and `bind` checks them and passes them on, so
    no row reached through the store repeats a label.
    """

    __slots__ = ("mapping", "levels", "lacks")

    def __init__(self, mapping: dict[int, Type] | None = None) -> None:
        self.mapping = {} if mapping is None else mapping
        self.levels: dict[int, int] = {}
        self.lacks: dict[int, frozenset[str]] = {}

    def find(self, t: Type) -> Type:
        """`t` itself unless it is a bound variable; else the end of its
        chain of variable bindings, an unbound variable or a type that is
        not a variable.  Every variable on the chain is rebound straight
        to that end."""
        path: list[int] = []
        while isinstance(t, TypeVar):
            image = self.mapping.get(t.id)
            if image is None:
                break
            path.append(t.id)
            t = image
        for vid in path[:-1]:
            self.mapping[vid] = t
        return t

    def walk_row(self, row: TRow) -> TRow:
        """`row` with the fields its tail stands for merged in and the
        tail replaced by the unbound variable that ends the tail's chain;
        field types are left as they are.  A chain of more than one link
        is rebound straight to its merged fields.  Raises DuplicateLabel,
        before any write, when the merge repeats a label."""
        tail = row.tail
        if tail is None or tail.id not in self.mapping:
            return row
        extra: dict[str, Type] = {}
        links = 0
        while tail is not None:
            image = self.mapping.get(tail.id)
            if image is None:
                break
            links += 1
            if isinstance(image, TypeVar):
                tail = image
                continue
            assert isinstance(image, TRow), "row variable bound to a non-row"
            overlap = extra.keys() & image.fields.keys()
            if overlap:
                raise DuplicateLabel(min(overlap), image)
            extra.update(image.fields)
            tail = image.tail
        overlap = row.fields.keys() & extra.keys()
        if overlap:
            raise DuplicateLabel(min(overlap), row)
        if links > 1:
            self.mapping[row.tail.id] = TRow(dict(extra), tail)
        extra.update(row.fields)
        return TRow(extra, tail)

    def apply(self, t: Type) -> Type:
        """`t` with every bound variable replaced by what it stands for.
        A subtree that mentions no bound variable comes back as it is."""
        if not self.mapping:
            return t
        if isinstance(t, TypeVar):
            image = self.find(t)
            return image if isinstance(image, TypeVar) else self.apply(image)
        if isinstance(t, TCon):
            return t
        if isinstance(t, TApp):
            fun, arg = self.apply(t.fun), self.apply(t.arg)
            return t if fun is t.fun and arg is t.arg else TApp(fun, arg)
        if isinstance(t, TFun):
            dom, cod = self.apply(t.dom), self.apply(t.cod)
            return t if dom is t.dom and cod is t.cod else TFun(dom, cod)
        if isinstance(t, TRow):
            row = self.walk_row(t)
            fields = {label: self.apply(f) for label, f in row.fields.items()}
            if row is t and all(map(operator.is_, fields.values(), t.fields.values())):
                return t
            return TRow(fields, row.tail)
        raise AssertionError(f"unexpected type node: {t!r}")

    def _lack(self, vid: int, labels: Iterable[str]) -> None:
        old = self.lacks.get(vid)
        if old is None:
            self.lacks[vid] = frozenset(labels)
        elif not old.issuperset(labels):
            self.lacks[vid] = old.union(labels)

    def register(self, row: TRow) -> None:
        """Record that the variable ending `row`'s tail chain lacks the
        row's labels.  Raises DuplicateLabel, with nothing written, when
        the row repeats a label under the store's bindings."""
        end = self.walk_row(row)
        if end.tail is not None and end.fields:
            self._lack(end.tail.id, end.fields.keys())

    def bind(self, v: TypeVar, t: Type) -> None:
        """Bind the unbound variable `v` to `t`, after an occurs check
        that follows the bindings of `t`'s variables.

        The same walk lowers every variable it meets to `v`'s level, so a
        variable that an image reaches, through bound variables too, is
        generalized no deeper than `v`.  A row variable hands the labels
        it lacks on to the variable that ends `t`'s tail chain, and drops
        its own entry; when `t` already has one of them, that is a
        DuplicateLabel naming the least such label, and `v` is not bound.
        When it raises, the levels its walk lowered stay lowered."""
        if isinstance(t, TypeVar) and t.id == v.id:
            return
        levels = self.levels
        level = levels.get(v.id, 0)
        todo: list[Type] = [t]
        while todo:
            u = todo.pop()
            if isinstance(u, TypeVar):
                if u.id == v.id:
                    raise OccursCheck(v, self.apply(t))
                if levels.get(u.id, 0) > level:
                    levels[u.id] = level
                image = self.mapping.get(u.id)
                if image is not None:
                    todo.append(image)
            elif isinstance(u, TRow):
                todo += u.fields.values()
                if u.tail is not None:
                    todo.append(u.tail)
            elif isinstance(u, TApp):
                todo += (u.fun, u.arg)
            elif isinstance(u, TFun):
                todo += (u.dom, u.cod)
        assert type_kind(t) == v.kind, "binding would not respect kinds"
        lacks = self.lacks.get(v.id)
        if lacks is not None:
            row = self.walk_row(t if isinstance(t, TRow) else TRow({}, t))
            clash = row.fields.keys() & lacks
            if clash:
                raise DuplicateLabel(min(clash), row)
            if row.tail is not None:
                self._lack(row.tail.id, lacks)
            del self.lacks[v.id]
        self.mapping[v.id] = t

    def settled(self) -> Subst:
        """A copy whose images mention no bound variable."""
        if len(self.mapping) < 2:  # `bind` keeps a variable out of its own image
            out = Subst(dict(self.mapping))
        else:
            out = Subst({vid: self.apply(t) for vid, t in self.mapping.items()})
        out.lacks = self.lacks
        return out


def unify(
    t1: Type, t2: Type, fresh: FreshVars | None = None, subst: Subst | None = None
) -> Subst:
    """Most general unifier of two types of equal kind.

    Structural everywhere except at row nodes, which unify through
    `unify_rows` and therefore ignore field order.  With `subst`, whose
    `register` the inputs' rows have been through, the types unify under
    its bindings, and `subst` itself is extended and returned, unsettled;
    a failed step leaves it as the step left it when it raised, so discard
    it.  Otherwise the answer is a new, settled store.  `fresh` supplies
    the tail variables row unification may need.  A given store needs it,
    or ValueError is raised; without one, an omitted supply starts above
    every variable in the inputs.
    """
    return _step(_unify, t1, t2, fresh, subst)


def unify_rows(
    r1: TRow, r2: TRow, fresh: FreshVars | None = None, subst: Subst | None = None
) -> Subst:
    """Unify two rows regardless of field order or known size.

    Fields under labels common to both rows unify pointwise; because a
    pointwise step can instantiate a tail and reveal new common labels,
    this repeats until the shared labels are exhausted.  The remaining
    fields on each side are then pushed into the other side's tail: a
    closed side with leftovers on the other side fails with
    RowMissingLabel, two distinct tails meet in a fresh shared tail, and
    the same tail on both sides is only consistent when nothing is left.

    `fresh` and `subst` are as for `unify`.  Inside a step of `unify`,
    this is the step's row case and extends its store.
    """
    return _step(_unify_rows, r1, r2, fresh, subst)


def _step(solve, t1: Type, t2: Type, fresh: FreshVars | None, subst: Subst | None) -> Subst:
    """Run `solve` on `subst`, as the row case of a step does, or on a
    new store, seeded with the labels its inputs' row variables lack, that
    is settled when the step ends."""
    if subst is not None:
        if fresh is None:
            raise ValueError("unifying in a given store needs a fresh variable supply")
        solve(t1, t2, fresh, subst)
        return subst
    s = Subst()
    top = max(scan_rows(t1, s.lacks), scan_rows(t2, s.lacks))
    solve(t1, t2, fresh if fresh is not None else FreshVars(top + 1), s)
    return s.settled()


def _unify(t1: Type, t2: Type, fresh: FreshVars, s: Subst) -> None:
    t1 = s.find(t1)
    t2 = s.find(t2)
    if isinstance(t1, TypeVar):
        s.bind(t1, t2)
    elif isinstance(t2, TypeVar):
        s.bind(t2, t1)
    elif isinstance(t1, TCon) and isinstance(t2, TCon):
        if t1 != t2:
            raise Mismatch(t1, t2)
    elif isinstance(t1, TApp) and isinstance(t2, TApp):
        _unify(t1.fun, t2.fun, fresh, s)
        _unify(t1.arg, t2.arg, fresh, s)
    elif isinstance(t1, TFun) and isinstance(t2, TFun):
        _unify(t1.dom, t2.dom, fresh, s)
        _unify(t1.cod, t2.cod, fresh, s)
    elif isinstance(t1, TRow) and isinstance(t2, TRow):
        unify_rows(t1, t2, fresh, s)
    else:
        raise Mismatch(s.apply(t1), s.apply(t2))


def _unify_rows(r1: TRow, r2: TRow, fresh: FreshVars, s: Subst) -> None:
    done: set[str] = set()
    while True:
        a = s.walk_row(r1)
        b = s.walk_row(r2)
        todo = sorted((a.fields.keys() & b.fields.keys()) - done)
        if not todo:
            break
        for label in todo:
            _unify(a.fields[label], b.fields[label], fresh, s)
            done.add(label)
    only1 = {label: t for label, t in a.fields.items() if label not in b.fields}
    only2 = {label: t for label, t in b.fields.items() if label not in a.fields}
    if only2 and a.tail is None:
        raise RowMissingLabel(min(only2), s.apply(a))
    if only1 and b.tail is None:
        raise RowMissingLabel(min(only1), s.apply(b))
    if a.tail is not None and b.tail is not None and a.tail.id == b.tail.id:
        if only1 or only2:
            raise RowTailEscape(a.tail, s.apply(b))
    elif a.tail is not None and b.tail is not None:
        shared = fresh.fresh(ROW)
        s.bind(a.tail, TRow(only2, shared))
        s.bind(b.tail, TRow(only1, shared))
    elif a.tail is not None:
        s.bind(a.tail, TRow(only2, None))
    elif b.tail is not None:
        s.bind(b.tail, TRow(only1, None))
