"""Substitutions and unification, including unification of rows of
unknown size.

Rows unify modulo field order: labels shared by both rows unify
pointwise, and the fields present on one side only must be absorbed by
the other side's tail variable.  When both rows are open the leftovers
meet in a fresh shared tail; when one side is closed its missing labels
are a hard error.  Every variable binding passes an occurs check, and
the substitutions built here stay idempotent and kind-respecting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    _iter_vars,
    free_type_vars,
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
    """An idempotent, kind-respecting map from variable ids to types.

    Row variables map to rows; applying a substitution to a row whose
    tail is bound merges the bound fields into the row.
    """

    mapping: dict[int, Type] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> Subst:
        return cls({})

    def apply(self, t: Type) -> Type:
        if not self.mapping:
            return t
        if isinstance(t, TVar):
            return self.mapping.get(t.var.id, t)
        if isinstance(t, TCon):
            return t
        if isinstance(t, TApp):
            return TApp(self.apply(t.fun), self.apply(t.arg))
        if isinstance(t, TFun):
            return TFun(self.apply(t.dom), self.apply(t.cod))
        if isinstance(t, TRow):
            return self.apply_row(t)
        raise AssertionError(f"unexpected type node: {t!r}")

    def apply_row(self, row: TRow) -> TRow:
        fields = {label: self.apply(t) for label, t in row.fields.items()}
        tail = row.tail
        if tail is not None and tail.id in self.mapping:
            image = self.mapping[tail.id]
            if isinstance(image, TVar):
                tail = image.var
            else:
                assert isinstance(image, TRow), "row variable bound to a non-row"
                overlap = fields.keys() & image.fields.keys()
                if overlap:
                    raise DuplicateLabel(min(overlap), row)
                fields.update(image.fields)
                tail = image.tail
        return TRow(fields, tail)

    def compose(self, inner: Subst) -> Subst:
        """``self . inner``: applying the result equals applying `inner`,
        then `self`.  Identity bindings produced by the composition are
        dropped so the result never maps a variable to itself."""
        mapping: dict[int, Type] = {}
        for vid, t in inner.mapping.items():
            image = self.apply(t)
            if isinstance(image, TVar) and image.var.id == vid:
                continue
            mapping[vid] = image
        for vid, t in self.mapping.items():
            if vid not in inner.mapping:
                mapping[vid] = t
        return Subst(mapping)


def _max_var_id(*types: Type) -> int:
    return max((v.id for t in types for v in _iter_vars(t)), default=-1)


def _bind(v: TypeVar, t: Type) -> Subst:
    if isinstance(t, TVar) and t.var.id == v.id:
        return Subst.empty()
    if v in free_type_vars(t):
        raise OccursCheck(v, t)
    assert type_kind(t) == v.kind, "binding would not respect kinds"
    return Subst({v.id: t})


def unify(t1: Type, t2: Type, fresh: FreshVars | None = None) -> Subst:
    """Most general unifier of two types of equal kind.

    Structural everywhere except at row nodes, which unify through
    `unify_rows` and therefore ignore field order.  `fresh` supplies the
    tail variables row unification may need; when omitted, a supply
    starting above every variable in either input is created.
    """
    if fresh is None:
        fresh = FreshVars(_max_var_id(t1, t2) + 1)
    return _unify(t1, t2, fresh)


def _unify(t1: Type, t2: Type, fresh: FreshVars) -> Subst:
    if isinstance(t1, TVar):
        return _bind(t1.var, t2)
    if isinstance(t2, TVar):
        return _bind(t2.var, t1)
    if isinstance(t1, TCon) and isinstance(t2, TCon):
        if t1 == t2:
            return Subst.empty()
        raise Mismatch(t1, t2)
    if isinstance(t1, TApp) and isinstance(t2, TApp):
        s1 = _unify(t1.fun, t2.fun, fresh)
        s2 = _unify(s1.apply(t1.arg), s1.apply(t2.arg), fresh)
        return s2.compose(s1)
    if isinstance(t1, TFun) and isinstance(t2, TFun):
        s1 = _unify(t1.dom, t2.dom, fresh)
        s2 = _unify(s1.apply(t1.cod), s1.apply(t2.cod), fresh)
        return s2.compose(s1)
    if isinstance(t1, TRow) and isinstance(t2, TRow):
        return unify_rows(t1, t2, fresh)
    raise Mismatch(t1, t2)


def unify_rows(r1: TRow, r2: TRow, fresh: FreshVars | None = None) -> Subst:
    """Unify two rows regardless of field order or known size.

    Fields under labels common to both rows unify pointwise; because a
    pointwise step can instantiate a tail and reveal new common labels,
    this repeats until the shared labels are exhausted.  The remaining
    fields on each side are then pushed into the other side's tail: a
    closed side with leftovers on the other side fails with
    RowMissingLabel, two distinct tails meet in a fresh shared tail, and
    the same tail on both sides is only consistent when nothing is left.
    """
    if fresh is None:
        fresh = FreshVars(_max_var_id(r1, r2) + 1)
    s = Subst.empty()
    done: set[str] = set()
    while True:
        a = s.apply_row(r1)
        b = s.apply_row(r2)
        todo = sorted((a.fields.keys() & b.fields.keys()) - done)
        if not todo:
            break
        for label in todo:
            step = _unify(s.apply(a.fields[label]), s.apply(b.fields[label]), fresh)
            s = step.compose(s)
            done.add(label)
    only1 = {label: t for label, t in a.fields.items() if label not in b.fields}
    only2 = {label: t for label, t in b.fields.items() if label not in a.fields}
    if only2 and a.tail is None:
        raise RowMissingLabel(min(only2), a)
    if only1 and b.tail is None:
        raise RowMissingLabel(min(only1), b)
    if a.tail is not None and b.tail is not None and a.tail.id == b.tail.id:
        if only1 or only2:
            raise RowTailEscape(a.tail, b)
        return s
    if a.tail is None and b.tail is None:
        return s
    if b.tail is None:
        return _bind(a.tail, TRow(only2, None)).compose(s)
    if a.tail is None:
        return _bind(b.tail, TRow(only1, None)).compose(s)
    shared = fresh.fresh(ROW)
    s1 = _bind(a.tail, TRow(only2, shared))
    s2 = _bind(b.tail, s1.apply(TRow(only1, shared)))
    return s2.compose(s1).compose(s)
