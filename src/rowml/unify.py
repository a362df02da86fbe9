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

One `Subst` is threaded through a whole unification step, and `unify`
and `unify_rows` extend the store they are given and return it: each
binding is recorded as it is made and never re-applied to the bindings
before it, so the store is triangular.  The caller seeds the labels the
inputs' row variables lack, with `scan_rows` for a new store; the
inference session records them as it builds each row.  A failed step
raises where it fails, and its caller discards the store.

The walks over types here (`find`, `apply_collecting`, the occurs walk
of `bind`, `unify`) rely on the five type-node classes being final:
they dispatch on a node's exact class, ``t.__class__ is TApp``, the
most frequent class first, and an unknown node is an AssertionError.
A constructor leaf has no variable in it, so a walk returns or skips a
`TCon` child where it meets it and never calls into one.
"""

from __future__ import annotations

import operator

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
    type_kind,
)


class UnifyError(Exception):
    """Base class for unification failures.  A failure keeps the types
    and labels it names, as attributes and as its `args`, so it copies
    and pickles; its message is rendered when it is read, by `str`."""


class Mismatch(UnifyError):
    """Two types with different head constructors."""

    def __init__(self, left: Type, right: Type) -> None:
        super().__init__(left, right)
        self.left = left
        self.right = right

    def __str__(self) -> str:
        left_s, right_s = pretty_types_shared([self.left, self.right])
        return f"cannot unify {left_s} with {right_s}"


class OccursCheck(UnifyError):
    """Binding the variable would make it contain itself."""

    def __init__(self, var: TypeVar, type_: Type) -> None:
        super().__init__(var, type_)
        self.var = var
        self.type = type_

    def __str__(self) -> str:
        var_s, type_s = pretty_types_shared([self.var, self.type])
        return f"infinite type: {var_s} occurs in {type_s}"


class RowMissingLabel(UnifyError):
    """A closed row lacks a label required by the other side."""

    def __init__(self, label: str, closed_row: TRow) -> None:
        super().__init__(label, closed_row)
        self.label = label
        self.closed_row = closed_row

    def __str__(self) -> str:
        return f"record row {pretty_type(self.closed_row)} lacks label '{self.label}'"


class RowTailEscape(UnifyError):
    """One row variable terminates both rows but their fields differ."""

    def __init__(self, var: TypeVar, row: TRow) -> None:
        super().__init__(var, row)
        self.var = var
        self.row = row

    def __str__(self) -> str:
        var_s, row_s = pretty_types_shared([self.var, self.row])
        return f"row variable {var_s} would have to contain itself to match {row_s}"


class DuplicateLabel(UnifyError):
    """Binding a row variable would make a row repeat a label, e.g. by
    extending a record with a label it already has."""

    def __init__(self, label: str, row: TRow) -> None:
        super().__init__(label, row)
        self.label = label
        self.row = row

    def __str__(self) -> str:
        return f"duplicate record label '{self.label}'"


class Subst:
    """A kind-respecting map from variable ids to types.

    The map is triangular: an image may mention variables that are bound
    themselves, so types are read through `find`, `walk_row` and `apply`,
    which follow the chains.  Row variables map to rows; reading a row
    whose tail is bound merges the bound fields into the row, and a merge
    that repeats a label raises DuplicateLabel.

    `levels` maps a variable id to its let-depth, absent meaning 0.  `bind`
    lowers it to the bound variable's level for every variable an image
    reaches; the inference session writes the level of each variable it
    makes there.

    `lacks` maps an unbound row variable's id to the labels it must lack,
    absent meaning none.  Whoever builds the store seeds it with the
    labels of each row a variable ends, and `bind` checks them and passes
    them on, so no row reached through the store repeats a label.
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
        if t.__class__ is not TypeVar:
            return t
        mapping = self.mapping
        image = mapping.get(t.id)
        if image is None:
            return t
        if image.__class__ is not TypeVar:
            return image  # one link: nothing to rebind
        path = [t.id]
        t = image
        while t.__class__ is TypeVar:
            image = mapping.get(t.id)
            if image is None:
                break
            path.append(t.id)
            t = image
        for vid in path[:-1]:
            mapping[vid] = t
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
        return self.apply_collecting(t, {}) if self.mapping else t

    def apply_collecting(self, t: Type, free: dict[int, TypeVar]) -> Type:
        """`apply(t)`, whose walk also adds the unbound variables of the
        result to `free` in the order `free_vars_ordered` visits them:
        row fields by label, then the tail.  A row keeps its field order.

        The walk dispatches on the node's exact class, variables first,
        and takes a constructor child as it is without calling into it."""
        cls = t.__class__
        if cls is TypeVar:
            mapping = self.mapping
            image = mapping.get(t.id)
            if image is not None:
                if image.__class__ is TypeVar and image.id in mapping:
                    image = self.find(t)  # a chain of variables, which `find` shortens
                t = image
            cls = t.__class__
            if cls is TypeVar:
                if t.id not in free:
                    free[t.id] = t
                return t
        if cls is TApp:
            fun, arg = t.fun, t.arg
            new_fun = fun if fun.__class__ is TCon else self.apply_collecting(fun, free)
            new_arg = arg if arg.__class__ is TCon else self.apply_collecting(arg, free)
            return t if new_fun is fun and new_arg is arg else TApp(new_fun, new_arg)
        if cls is TFun:
            dom, cod = t.dom, t.cod
            new_dom = dom if dom.__class__ is TCon else self.apply_collecting(dom, free)
            new_cod = cod if cod.__class__ is TCon else self.apply_collecting(cod, free)
            return t if new_dom is dom and new_cod is cod else TFun(new_dom, new_cod)
        if cls is TRow:
            row = self.walk_row(t)
            row_fields = row.fields
            fields = dict.fromkeys(row_fields)
            for label in sorted(fields):
                field = row_fields[label]
                if field.__class__ is not TCon:
                    field = self.apply_collecting(field, free)
                fields[label] = field
            tail = row.tail
            if tail is not None and tail.id not in free:
                free[tail.id] = tail
            if row is t and all(map(operator.is_, fields.values(), row_fields.values())):
                return t
            return TRow(fields, tail)
        if cls is TCon:
            return t
        raise AssertionError(f"unexpected type node: {t!r}")

    def bind(self, v: TypeVar, t: Type) -> None:
        """Bind the unbound variable `v` to `t`, after an occurs check
        that follows the bindings of `t`'s variables.

        The same walk lowers every variable it meets to `v`'s level, so a
        variable that an image reaches, through bound variables too, is
        generalized no deeper than `v`.  A row variable hands the labels
        it lacks on to the variable that ends `t`'s tail chain, and drops
        its own entry; when `t` already has one of them, that is a
        DuplicateLabel naming the least such label, and `v` is not bound.
        When it raises, the levels its walk lowered stay lowered.

        The walk dispatches on the node's exact class and pushes no
        constructor child, which has no variable to meet."""
        if t.__class__ is TypeVar and t.id == v.id:
            return
        vid = v.id
        levels, mapping = self.levels, self.mapping
        level = levels.get(vid, 0)
        todo: list[Type] = [t]
        while todo:
            u = todo.pop()
            cls = u.__class__
            if cls is TypeVar:
                if u.id == vid:
                    raise OccursCheck(v, self.apply(t))
                if levels.get(u.id, 0) > level:
                    levels[u.id] = level
                image = mapping.get(u.id)
                if image is not None and image.__class__ is not TCon:
                    todo.append(image)
            elif cls is TApp:
                if u.fun.__class__ is not TCon:
                    todo.append(u.fun)
                if u.arg.__class__ is not TCon:
                    todo.append(u.arg)
            elif cls is TRow:
                for field in u.fields.values():
                    if field.__class__ is not TCon:
                        todo.append(field)
                if u.tail is not None:
                    todo.append(u.tail)
            elif cls is TFun:
                if u.dom.__class__ is not TCon:
                    todo.append(u.dom)
                if u.cod.__class__ is not TCon:
                    todo.append(u.cod)
        assert type_kind(t) == v.kind, "binding would not respect kinds"
        lacks = self.lacks.get(vid)
        if lacks is not None:
            row = self.walk_row(t if t.__class__ is TRow else TRow({}, t))
            clash = row.fields.keys() & lacks
            if clash:
                raise DuplicateLabel(min(clash), row)
            if row.tail is not None:
                old = self.lacks.get(row.tail.id)
                if old is None or not old.issuperset(lacks):
                    self.lacks[row.tail.id] = lacks if old is None else old | lacks
            del self.lacks[v.id]
        self.mapping[v.id] = t


def unify(t1: Type, t2: Type, fresh: FreshVars, s: Subst) -> Subst:
    """Most general unifier of two types of equal kind, as an extension
    of the store `s`, which is returned.

    Structural everywhere except at row nodes, which unify through
    `unify_rows` and therefore ignore field order.  The types unify
    under the store's bindings, and the store must know the labels each
    row variable of the inputs lacks (`scan_rows` seeds a new store).
    `fresh` supplies the tail variables row unification may need.  A
    failed step leaves the store as it was when the step raised.
    """
    if t1.__class__ is TypeVar:
        t1 = s.find(t1)
    if t2.__class__ is TypeVar:
        t2 = s.find(t2)
    cls = t1.__class__
    if cls is TypeVar:
        s.bind(t1, t2)
    elif t2.__class__ is TypeVar:
        s.bind(t2, t1)
    elif cls is not t2.__class__:
        raise Mismatch(s.apply(t1), s.apply(t2))
    # Two children that are one constructor, mostly a shared constant such
    # as REC, already agree: only other children are unified.
    elif cls is TApp:
        if t1.fun.__class__ is not TCon or t1.fun is not t2.fun:
            unify(t1.fun, t2.fun, fresh, s)
        if t1.arg.__class__ is not TCon or t1.arg is not t2.arg:
            unify(t1.arg, t2.arg, fresh, s)
    elif cls is TFun:
        if t1.dom.__class__ is not TCon or t1.dom is not t2.dom:
            unify(t1.dom, t2.dom, fresh, s)
        if t1.cod.__class__ is not TCon or t1.cod is not t2.cod:
            unify(t1.cod, t2.cod, fresh, s)
    elif cls is TRow:
        unify_rows(t1, t2, fresh, s)
    elif cls is TCon:
        # Constructors are mostly the shared constants, whose identity
        # spares `!=` its field-by-field compare.
        if t1 is not t2 and t1 != t2:
            raise Mismatch(t1, t2)
    else:
        raise AssertionError(f"unexpected type node: {t1!r}")
    return s


def unify_rows(r1: TRow, r2: TRow, fresh: FreshVars, s: Subst) -> Subst:
    """Unify two rows regardless of field order or known size, as an
    extension of the store `s`, which is returned.

    Fields under labels common to both rows unify pointwise; because a
    pointwise step can instantiate a tail and reveal new common labels,
    this repeats until the shared labels are exhausted.  The remaining
    fields on each side are then pushed into the other side's tail: a
    closed side with leftovers on the other side fails with
    RowMissingLabel, two distinct tails meet in a fresh shared tail, and
    the same tail on both sides is only consistent when nothing is left.

    `fresh` and `s` are as for `unify`, whose row case this is.
    """
    a = s.walk_row(r1)
    b = s.walk_row(r2)
    todo = sorted(a.fields.keys() & b.fields.keys())
    done: set[str] = set()
    while todo:
        for label in todo:
            unify(a.fields[label], b.fields[label], fresh, s)
        # Walk again only when the pass bound a.tail or b.tail: a walk of
        # r1 follows r1's tail chain, which ends at a.tail, and a binding
        # is never undone, so no other binding changes what it gives.
        mapping = s.mapping
        if (a.tail is None or a.tail.id not in mapping) and (
            b.tail is None or b.tail.id not in mapping
        ):
            break
        done.update(todo)
        a = s.walk_row(r1)
        b = s.walk_row(r2)
        todo = sorted((a.fields.keys() & b.fields.keys()) - done)
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
    return s
