"""Substitutions and unification, including unification of rows of
unknown size.

Rows unify modulo field order: labels shared by both rows unify
pointwise, and the fields present on one side only must be absorbed by
the other side's tail variable.  When both rows are open the leftovers
meet in a fresh shared tail; when one side is closed its missing labels
are a hard error.  Every variable binding passes an occurs check and
respects kinds.

One `Subst` is threaded through a whole unification step: each binding
is recorded as it is made and never re-applied to the bindings before
it, so the store is triangular.  A step is atomic.  When it ends, it
walks once more the rows that a tail it bound late could make repeat a
label.  When it fails, it takes back every write it made, and a row of
an input that already repeated a label under the old bindings is the
error.  Given no store, the public entry points answer with a new,
settled one, whose images mention no bound variable; given the
inference session's store, they extend it in place and leave it
triangular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from rowml.syntax import (
    FreshVars,
    ROW,
    TApp,
    TCon,
    TFun,
    TRow,
    TVar,
    Type,
    TypeVar,
    max_var_id,
    pretty_type,
    pretty_types_shared,
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
        var_s, type_s = pretty_types_shared([TVar(var), type_])
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
        var_s, row_s = pretty_types_shared([TVar(var), row])
        super().__init__(
            f"row variable {var_s} would have to contain itself to match {row_s}"
        )


class DuplicateLabel(UnifyError):
    """Substituting a tail produced a row with a repeated label, e.g. by
    extending a record with a label it already has."""

    def __init__(self, label: str, row: TRow) -> None:
        self.label = label
        self.row = row
        super().__init__(f"duplicate record label '{label}'")


@dataclass
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
    reaches; the inference session shares it with its variable supply.

    The unifier keeps the other fields as it goes.  `rows` collects the
    rows with fields and a tail that are part of an image itself, in the
    order they were bound.  While a step runs, `met` holds the other rows
    it met that a tail bound later in it could make repeat a label: rows
    compared while both tails stay open, and the open rows reached through
    the bindings of an image.  `trail` records every write to `mapping`
    since the last step began, with the image it replaced, so that `undo`
    can take a failed step back.  `stepping` is set while a step runs.
    """

    mapping: dict[int, Type] = field(default_factory=dict)
    levels: dict[int, int] = field(default_factory=dict)
    rows: list[TRow] = field(default_factory=list, init=False)
    met: list[TRow] = field(default_factory=list, init=False)
    trail: list[tuple[int, Type | None]] = field(default_factory=list, init=False)
    stepping: bool = field(default=False, init=False)

    def _write(self, vid: int, t: Type) -> None:
        self.trail.append((vid, self.mapping.get(vid)))
        self.mapping[vid] = t

    def undo(self) -> None:
        """Take back every write recorded in `trail`, newest first."""
        while self.trail:
            vid, old = self.trail.pop()
            if old is None:
                del self.mapping[vid]
            else:
                self.mapping[vid] = old

    def find(self, t: Type) -> Type:
        """`t` itself unless it is a bound variable; else the end of its
        chain of variable bindings, an unbound variable or a type that is
        not a variable.  Every variable on the chain is rebound straight
        to that end."""
        path: list[int] = []
        while isinstance(t, TVar):
            image = self.mapping.get(t.var.id)
            if image is None:
                break
            path.append(t.var.id)
            t = image
        for vid in path[:-1]:
            self._write(vid, t)
        return t

    def walk_row(self, row: TRow) -> TRow:
        """`row` with the fields its tail stands for merged in and the
        tail replaced by the unbound variable that ends the tail's chain;
        field types are left as they are.  A chain of more than one link
        is rebound straight to its merged fields.  Raises DuplicateLabel
        when the merge repeats a label."""
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
            if isinstance(image, TVar):
                tail = image.var
                continue
            assert isinstance(image, TRow), "row variable bound to a non-row"
            overlap = extra.keys() & image.fields.keys()
            if overlap:
                raise DuplicateLabel(min(overlap), image)
            extra.update(image.fields)
            tail = image.tail
        if links > 1:
            self._write(row.tail.id, TRow(dict(extra), tail))
        overlap = row.fields.keys() & extra.keys()
        if overlap:
            raise DuplicateLabel(min(overlap), row)
        extra.update(row.fields)
        return TRow(extra, tail)

    def apply(self, t: Type) -> Type:
        """`t` with every bound variable replaced by what it stands for."""
        if not self.mapping:
            return t
        if isinstance(t, TVar):
            image = self.find(t)
            return image if isinstance(image, TVar) else self.apply(image)
        if isinstance(t, TCon):
            return t
        if isinstance(t, TApp):
            return TApp(self.apply(t.fun), self.apply(t.arg))
        if isinstance(t, TFun):
            return TFun(self.apply(t.dom), self.apply(t.cod))
        if isinstance(t, TRow):
            row = self.walk_row(t)
            return TRow({label: self.apply(f) for label, f in row.fields.items()}, row.tail)
        raise AssertionError(f"unexpected type node: {t!r}")

    def bind(self, v: TypeVar, t: Type) -> None:
        """Bind the unbound variable `v` to `t`, after an occurs check
        that follows the bindings of `t`'s variables.

        The same walk keeps `levels` and the rows: every variable it
        meets is lowered to `v`'s level, so a variable that
        an image reaches, through bound variables too, is generalized no
        deeper than `v`.  The walk visits `t` itself first and the images
        of its bound variables after, so it knows which rows are `t`'s
        own (`rows`) and which it reached through a binding (`met`)."""
        if isinstance(t, TVar) and t.var.id == v.id:
            return
        levels, rows = self.levels, self.rows
        level = levels.get(v.id, 0)
        todo: list[Type] = [t]
        images: list[Type] = []
        while todo or images:
            if not todo:
                todo, images, rows = images, [], self.met
            u = todo.pop()
            if isinstance(u, TCon):
                continue
            if isinstance(u, TVar):
                var = u.var
            elif isinstance(u, TRow):
                todo += u.fields.values()
                var = u.tail
                if var is not None and u.fields:
                    rows.append(u)
            else:
                if isinstance(u, TApp):
                    todo += (u.fun, u.arg)
                elif isinstance(u, TFun):
                    todo += (u.dom, u.cod)
                continue
            if var is not None:
                if var.id == v.id:
                    raise OccursCheck(v, self.apply(t))
                if levels.get(var.id, 0) > level:
                    levels[var.id] = level
                image = self.mapping.get(var.id)
                if image is not None:
                    images.append(image)
        assert type_kind(t) == v.kind, "binding would not respect kinds"
        self._write(v.id, t)

    def settled(self) -> Subst:
        """A copy whose images mention no bound variable."""
        if len(self.mapping) < 2:  # `bind` keeps a variable out of its own image
            return Subst(dict(self.mapping))
        return Subst({vid: self.apply(t) for vid, t in self.mapping.items()})


def unify(
    t1: Type, t2: Type, fresh: FreshVars | None = None, subst: Subst | None = None
) -> Subst:
    """Most general unifier of two types of equal kind.

    Structural everywhere except at row nodes, which unify through
    `unify_rows` and therefore ignore field order.  With `subst`, the
    types unify under its bindings, and `subst` itself is extended and
    returned, unsettled; a failed step leaves its `mapping` as it was.
    Otherwise the answer is a new, settled store.  `fresh` supplies the
    tail variables row unification may need; when omitted, a supply
    starting above every variable in the inputs and in `subst` is created.
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
    """Run `solve` as one atomic step on `subst`, or on a new store that
    is settled when the step ends."""
    s = subst if subst is not None else Subst()
    if s.stepping:  # the row case of a step in progress
        solve(t1, t2, fresh, s)
        return s
    if fresh is None:
        fresh = _supply_above(s, t1, t2)
    rows, mark = s.rows, len(s.rows)
    s.trail.clear()
    s.stepping = True
    try:
        solve(t1, t2, fresh, s)
        # a tail bound late in the step may repeat a label of a row it met
        # or of a row in one of its images
        for row in s.met:
            s.walk_row(row)
        for row in islice(rows, mark, None):
            s.walk_row(row)
    except UnifyError:
        s.undo()
        del rows[mark:]
        try:  # a row of an input that already repeated a label is the error
            s.apply(t1)
            s.apply(t2)
        finally:
            s.undo()  # the re-resolve's path compression
        raise
    finally:
        s.stepping = False
        s.met.clear()
    return s if subst is not None else s.settled()


def _supply_above(s: Subst, *types: Type) -> FreshVars:
    """A supply starting above every variable in `types` and in `s`."""
    return FreshVars(max([max_var_id(*types, *s.mapping.values()), *s.mapping]) + 1)


def _unify(t1: Type, t2: Type, fresh: FreshVars, s: Subst) -> None:
    t1 = s.find(t1)
    t2 = s.find(t2)
    if isinstance(t1, TVar):
        s.bind(t1.var, t2)
    elif isinstance(t2, TVar):
        s.bind(t2.var, t1)
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
    if a.tail is not None and b.tail is not None:
        # both rows now stand for the same fields and open tail, so either
        # tells whether a tail bound later in the step repeats a label
        s.met.append(r1)
