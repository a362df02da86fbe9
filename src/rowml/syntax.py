"""Kinds, types, terms and type schemes for a small functional language
with row-polymorphic extensible records.

A row is a finite, duplicate-free map from labels to types plus an
optional tail variable of kind row; a record type is the application of
the distinguished constructor ``Rec : row -> *`` to a row.  Rows are
unordered: ``fields`` is a dict, so structural equality already ignores
field order, and ``canonicalize`` merely fixes iteration order to be
lexicographic.  A type variable is itself a type: one `TypeVar`, of
any kind, stands wherever the variable occurs, a row's tail included.

Type nodes, terms, arrow kinds, schemes and type environments are
immutable values on one base, `_Node`: assigning or deleting a field
raises, two values are equal when they are of one class with equal
fields, and a value hashes unless it holds a dict, as a ``TRow`` and a
``RecordLit`` do.  Being immutable, a value is shared freely, and a
function may return a part of its input as it is.  Type nodes keep their
fields in slots.  A term keeps them in its instance dict, with its
source ``span``, which equality, hashing and repr leave out and copying
and pickling keep.  The kinds ``STAR`` and ``ROW`` are singletons,
compared by identity.

The five type-node classes, `TypeVar`, `TCon`, `TApp`, `TFun` and
`TRow`, are final.  The walks over types (Traversals below, and those of
`rowml.unify` and `rowml.infer`) rely on it: they dispatch on a node's
exact class, ``t.__class__ is TApp``, the most frequent class first, and
take a constructor leaf, which has no variable in it, as it is where
they meet it, never calling into it.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator

TYPE_CHECKING = False  # what typing.TYPE_CHECKING is, without importing typing
if TYPE_CHECKING:
    from rowml.parser import SourceSpan


_set = object.__setattr__  # how a value's own constructor writes its fields


class _Node:
    """An immutable value whose fields `__match_args__` names, in
    constructor order.  It equals a value of its own class with equal
    fields, hashes by its fields, shows them in its repr, and copies and
    pickles by calling its class on them.  A subclass keeps its fields in
    `__slots__` or in its instance dict; its constructor writes each one
    with `_set`, which keeps an instance dict's values inline."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls.__match_args__:
            cls._fields = operator.attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _frozen(message: str) -> Exception:
    # Imported only to raise: its module loads inspect and more.
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


# ---------------------------------------------------------------------------
# Kinds


class Kind:
    """A kind: ``*`` for value types, ``row`` for rows, or an arrow."""

    __slots__ = ()


class _KindAtom(Kind):
    """A kind without parts.  Each subclass has one instance, which
    construction, copying and unpickling all give back, so these kinds
    compare by identity."""

    __slots__ = ()
    _symbol: str
    _global: str  # the module-level name of the instance

    def __new__(cls) -> _KindAtom:
        return globals()[cls._global]

    def __reduce__(self) -> str:
        return self._global

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __str__(self) -> str:
        return self._symbol


class StarKind(_KindAtom):
    __slots__ = ()
    _symbol, _global = "*", "STAR"


class RowKind(_KindAtom):
    __slots__ = ()
    _symbol, _global = "row", "ROW"


class ArrowKind(Kind, _Node):
    __slots__ = __match_args__ = ("param", "result")
    param: Kind
    result: Kind

    def __init__(self, param: Kind, result: Kind) -> None:
        _set(self, "param", param)
        _set(self, "result", result)

    def __str__(self) -> str:
        param = f"({self.param})" if isinstance(self.param, ArrowKind) else str(self.param)
        return f"{param} -> {self.result}"


STAR = object.__new__(StarKind)
ROW = object.__new__(RowKind)


# ---------------------------------------------------------------------------
# Types


class Type(_Node):
    """Base class for type expressions.  Its five node classes are
    final: the walks over types dispatch on a node's exact class, so a
    subclass of one would be walked wrongly, and defining one raises
    TypeError."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        for base in cls.__bases__:
            if base is not Type and issubclass(base, Type):
                raise TypeError(f"type node class {base.__name__} is final")
        super().__init_subclass__()


class TypeVar(Type):
    """A type variable of any kind, itself a type; a row's tail is one of
    kind ``row``.  Ids are unique within one inference session.

    `var` is the variable itself: the benchmark's `problem_space`
    (`bench/workloads.py`) tells a field variable from a constructor by
    that attribute."""

    __slots__ = __match_args__ = ("id", "kind")
    id: int
    kind: Kind

    def __init__(self, id: int, kind: Kind = STAR) -> None:
        _set(self, "id", id)
        _set(self, "kind", kind)

    @property
    def var(self) -> TypeVar:
        return self


class TCon(Type):
    """A type constructor such as ``Int : *`` or ``List : * -> *``."""

    __slots__ = __match_args__ = ("name", "kind")
    name: str
    kind: Kind

    def __init__(self, name: str, kind: Kind = STAR) -> None:
        _set(self, "name", name)
        _set(self, "kind", kind)


class TApp(Type):
    __slots__ = __match_args__ = ("fun", "arg")
    fun: Type
    arg: Type

    def __init__(self, fun: Type, arg: Type) -> None:
        _set(self, "fun", fun)
        _set(self, "arg", arg)


class TFun(Type):
    __slots__ = __match_args__ = ("dom", "cod")
    dom: Type
    cod: Type

    def __init__(self, dom: Type, cod: Type) -> None:
        _set(self, "dom", dom)
        _set(self, "cod", cod)


class TRow(Type):
    """An unordered row ``{l1:T1, ...}``, open when it has a tail variable.
    Its fields are a dict, so hashing it raises TypeError."""

    __slots__ = __match_args__ = ("fields", "tail")
    fields: dict[str, Type]
    tail: TypeVar | None

    def __init__(self, fields: dict[str, Type], tail: TypeVar | None = None) -> None:
        if tail is not None and tail.kind is not ROW:
            raise ValueError(f"row tail must have kind row, got {tail.kind}")
        _set(self, "fields", fields)
        _set(self, "tail", tail)


INT = TCon("Int")
STRING = TCon("String")
BOOL = TCon("Bool")
LIST = TCon("List", ArrowKind(STAR, STAR))
REC = TCon("Rec", ArrowKind(ROW, STAR))

BASE_CONSTRUCTORS: dict[str, TCon] = {c.name: c for c in (INT, STRING, BOOL, LIST, REC)}


def record(fields: dict[str, Type], tail: TypeVar | None = None) -> Type:
    """The record type over the given row: ``Rec {fields | tail}``."""
    return TApp(REC, TRow(dict(fields), tail))


class Scheme(_Node):
    """A type quantified over kinded variables, e.g. ``forall a:*. a -> a``.

    `lacks` pairs each quantified row variable that must lack labels with
    those labels, sorted, in the order of `quantified`.  Building a scheme
    puts it in that form and adds the labels of every row of the body
    that the variable ends.  A scheme with no quantifiers is just a
    monomorphic type.  `Scheme._normal` builds a scheme that is already
    in that form without checking it again.
    """

    __slots__ = __match_args__ = ("quantified", "body", "lacks")
    quantified: tuple[TypeVar, ...]
    body: Type
    lacks: tuple[tuple[TypeVar, tuple[str, ...]], ...]

    def __init__(
        self,
        quantified: tuple[TypeVar, ...],
        body: Type,
        lacks: tuple[tuple[TypeVar, tuple[str, ...]], ...] = (),
    ) -> None:
        ids = [v.id for v in quantified]
        if len(set(ids)) != len(ids):
            raise ValueError("scheme quantifies the same variable twice")
        rows = [v for v in quantified if v.kind is ROW]
        if rows or lacks:
            labels: dict[int, frozenset[str]] = {}
            scan_rows(body, labels)
            for v, lacked in lacks:
                if v not in rows:
                    raise ValueError(f"t{v.id} lacks labels but is no quantified row variable")
                labels[v.id] = labels.get(v.id, frozenset()).union(lacked)
            lacks = tuple((v, tuple(sorted(labels[v.id]))) for v in rows if labels.get(v.id))
        _set(self, "quantified", quantified)
        _set(self, "body", body)
        _set(self, "lacks", lacks)

    @classmethod
    def _normal(cls, quantified: tuple[TypeVar, ...], body: Type, lacks: tuple) -> Scheme:
        """The scheme of these three fields, set as they are, with no
        check and no walk of `body`.  The caller guarantees that they are
        already in the form `Scheme(quantified, body, lacks)` gives:
        `quantified` names no variable twice, and `lacks` pairs, in the
        order of `quantified`, every quantified row variable that lacks a
        label with all it lacks, sorted, counting the labels of each row
        of `body` with fields that the variable ends.  `generalize` passes
        the inference store's sets, which count those labels because
        the store knows the labels of every row of `body`."""
        scheme = object.__new__(cls)
        _set(scheme, "quantified", quantified)
        _set(scheme, "body", body)
        _set(scheme, "lacks", lacks)
        return scheme


# ---------------------------------------------------------------------------
# Environments


class TypeEnv(_Node):
    """Term-variable context; lookup returns the innermost binding first.
    Inference reads it only as the initial environment, in place, for
    each name the program does not bind: a name bound twice means its
    innermost binding, and the program's own bindings go in a scope of
    their own, so this is never copied or extended.  Stage one
    kind-checks every binding, a shadowed one too."""

    __slots__ = __match_args__ = ("bindings",)
    bindings: tuple[tuple[str, Scheme], ...]

    def __init__(self, bindings: tuple[tuple[str, Scheme], ...] = ()) -> None:
        _set(self, "bindings", bindings)

    def lookup(self, name: str) -> Scheme | None:
        for bound_name, scheme in self.bindings:
            if bound_name == name:
                return scheme
        return None

    def extend(self, name: str, scheme: Scheme) -> TypeEnv:
        return TypeEnv(((name, scheme),) + self.bindings)

    def __iter__(self) -> Iterator[tuple[str, Scheme]]:
        return iter(self.bindings)


# ---------------------------------------------------------------------------
# Terms


class Term(_Node):
    """Base class for surface-language terms.  A term keeps its fields in
    its instance dict, where `term_nodes` in `bench/spans.py` reads them.
    Every constructor also takes a `span`, after the fields, by position
    or by keyword, which the parser fills; it is no field, so equality,
    hashing and repr leave it out, and copying and pickling keep it."""

    span: SourceSpan | None

    def __reduce__(self) -> tuple:
        cls, args = super().__reduce__()
        return cls, args, {"span": self.span}


class Var(Term):
    __match_args__ = ("name",)
    name: str

    def __init__(self, name: str, span: SourceSpan | None = None) -> None:
        _set(self, "name", name)
        _set(self, "span", span)


class Lam(Term):
    __match_args__ = ("param", "body")
    param: str
    body: Term

    def __init__(self, param: str, body: Term, span: SourceSpan | None = None) -> None:
        _set(self, "param", param)
        _set(self, "body", body)
        _set(self, "span", span)


class App(Term):
    __match_args__ = ("fun", "arg")
    fun: Term
    arg: Term

    def __init__(self, fun: Term, arg: Term, span: SourceSpan | None = None) -> None:
        _set(self, "fun", fun)
        _set(self, "arg", arg)
        _set(self, "span", span)


class Let(Term):
    __match_args__ = ("name", "bound", "body")
    name: str
    bound: Term
    body: Term

    def __init__(
        self, name: str, bound: Term, body: Term, span: SourceSpan | None = None
    ) -> None:
        _set(self, "name", name)
        _set(self, "bound", bound)
        _set(self, "body", body)
        _set(self, "span", span)


class Lit(Term):
    """An integer or string literal."""

    __match_args__ = ("value",)
    value: int | str

    def __init__(self, value: int | str, span: SourceSpan | None = None) -> None:
        _set(self, "value", value)
        _set(self, "span", span)


class RecordLit(Term):
    __match_args__ = ("fields",)
    fields: dict[str, Term]

    def __init__(self, fields: dict[str, Term], span: SourceSpan | None = None) -> None:
        _set(self, "fields", fields)
        _set(self, "span", span)


class Select(Term):
    __match_args__ = ("record", "label")
    record: Term
    label: str

    def __init__(self, record: Term, label: str, span: SourceSpan | None = None) -> None:
        _set(self, "record", record)
        _set(self, "label", label)
        _set(self, "span", span)


class Extend(Term):
    __match_args__ = ("label", "value", "record")
    label: str
    value: Term
    record: Term

    def __init__(
        self, label: str, value: Term, record: Term, span: SourceSpan | None = None
    ) -> None:
        _set(self, "label", label)
        _set(self, "value", value)
        _set(self, "record", record)
        _set(self, "span", span)


class Restrict(Term):
    __match_args__ = ("record", "label")
    record: Term
    label: str

    def __init__(self, record: Term, label: str, span: SourceSpan | None = None) -> None:
        _set(self, "record", record)
        _set(self, "label", label)
        _set(self, "span", span)


# ---------------------------------------------------------------------------
# Fresh variables


class FreshVars:
    """Monotone supply of fresh type variables for one inference session."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def fresh(self, kind: Kind) -> TypeVar:
        v = TypeVar(self._next, kind)
        self._next += 1
        return v


# ---------------------------------------------------------------------------
# Traversals
#
# `free_vars_ordered` and `type_kind` dispatch on a node's exact class and
# never push or call into a constructor leaf (see the module docstring).


def free_vars_ordered(t: Type) -> list[TypeVar]:
    """Free variables of a type in first-occurrence order.

    Rows are traversed in lexicographic label order (fields before the
    tail) so the result does not depend on how a row was built.
    """
    seen: set[int] = set()
    out: list[TypeVar] = []
    todo: list[Type] = [t]  # popped from the end: push right to left
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is TypeVar:
            if t.id not in seen:
                seen.add(t.id)
                out.append(t)
        elif cls is TFun:
            if t.cod.__class__ is not TCon:
                todo.append(t.cod)
            if t.dom.__class__ is not TCon:
                todo.append(t.dom)
        elif cls is TApp:
            if t.arg.__class__ is not TCon:
                todo.append(t.arg)
            if t.fun.__class__ is not TCon:
                todo.append(t.fun)
        elif cls is TRow:
            if t.tail is not None:
                todo.append(t.tail)
            fields = t.fields
            for label in sorted(fields, reverse=True):
                if fields[label].__class__ is not TCon:
                    todo.append(fields[label])
    return out


def scan_rows(t: Type, lacks: dict[int, frozenset[str]]) -> int:
    """Add the labels of every row of `t` that has fields and a tail to
    `lacks` under the tail's id, and return the highest variable id in
    `t`, or -1 when it has none."""
    top = -1
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, TCon):
            continue
        if isinstance(t, TRow):
            for field in t.fields.values():
                if type(field) is not TCon:  # a constructor leaf has nothing to scan
                    todo.append(field)
            tail = t.tail
            if tail is not None:
                if tail.id > top:
                    top = tail.id
                if t.fields:
                    old = lacks.get(tail.id)
                    lacks[tail.id] = frozenset(t.fields) if old is None else old.union(t.fields)
        elif isinstance(t, TypeVar):
            if t.id > top:
                top = t.id
        elif isinstance(t, TFun):
            todo += (t.dom, t.cod)
        elif isinstance(t, TApp):
            todo += (t.fun, t.arg)
    return top


def type_kind(t: Type) -> Kind:
    """The kind of a type, computed from the kinds its leaves carry.

    Unlike kind checking proper this consults no context and assumes the
    tree is well-kinded; it exists so substitutions can verify that
    bindings respect kinds.
    """
    cls = t.__class__
    if cls is TApp:
        fun = t.fun
        k = fun.kind if fun.__class__ is TCon else type_kind(fun)
        assert isinstance(k, ArrowKind), f"application of non-constructor kind {k}"
        return k.result
    if cls is TFun:
        return STAR
    if cls is TRow:
        return ROW
    if cls is TypeVar or cls is TCon:
        return t.kind
    raise AssertionError(f"unexpected type node: {t!r}")


# ---------------------------------------------------------------------------
# Canonical form


def canonicalize(t: Type) -> Type:
    """Recursively put every row in `t` into canonical field order."""
    if isinstance(t, TApp):
        return TApp(canonicalize(t.fun), canonicalize(t.arg))
    if isinstance(t, TFun):
        return TFun(canonicalize(t.dom), canonicalize(t.cod))
    if isinstance(t, TRow):
        return TRow({label: canonicalize(t.fields[label]) for label in sorted(t.fields)}, t.tail)
    return t


# ---------------------------------------------------------------------------
# Printing


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _var_names() -> Iterator[str]:
    suffix = 0
    while True:
        for c in _LETTERS:
            yield c if suffix == 0 else f"{c}{suffix}"
        suffix += 1


def _kind_atom(k: Kind) -> str:
    return f"({k})" if isinstance(k, ArrowKind) else str(k)


def pretty_type(t: Type, names: dict[int, str] | None = None) -> str:
    """Render a type; variables not in `names` print as ``t<id>``."""
    return _pretty(t, names or {})


def _pretty(t: Type, names: dict[int, str]) -> str:
    if isinstance(t, TypeVar):
        return names.get(t.id, f"t{t.id}")
    if isinstance(t, TCon):
        return t.name
    if isinstance(t, TFun):
        dom = _pretty(t.dom, names)
        if isinstance(t.dom, TFun):
            dom = f"({dom})"
        return f"{dom} -> {_pretty(t.cod, names)}"
    if isinstance(t, TApp):
        fun = _pretty(t.fun, names)
        if isinstance(t.fun, TFun):
            fun = f"({fun})"
        arg = _pretty(t.arg, names)
        if isinstance(t.arg, (TApp, TFun)):
            arg = f"({arg})"
        return f"{fun} {arg}"
    if isinstance(t, TRow):
        inner = ", ".join(f"{l}:{_pretty(t.fields[l], names)}" for l in sorted(t.fields))
        if t.tail is not None:
            inner += f" | {_pretty(t.tail, names)}"
        return "{" + inner + "}"
    raise AssertionError(f"unexpected type node: {t!r}")


def pretty_scheme(s: Scheme) -> str:
    """Render a scheme, renaming variables to ``a, b, c, ...`` in
    first-occurrence order; monomorphic schemes print as bare types.  A
    row variable's kind shows the labels it lacks beyond those the rows
    of the body imply, as in ``∀a:row∖{x}. Rec { | a} -> Int``."""
    names: dict[int, str] = {}
    order: list[TypeVar] = []
    seq = _var_names()
    quantified = {v.id: v for v in s.quantified}
    for v in free_vars_ordered(s.body):
        if v.id in quantified and v.id not in names:
            names[v.id] = next(seq)
            order.append(v)
    for v in s.quantified:  # quantifiers that never occur in the body
        if v.id not in names:
            names[v.id] = next(seq)
            order.append(v)
    implied: dict[int, frozenset[str]] = {}
    if s.lacks:
        scan_rows(s.body, implied)
    lacks = {v.id: [l for l in labels if l not in implied.get(v.id, ())] for v, labels in s.lacks}
    prefix = "".join(
        f"∀{names[v.id]}:{_kind_atom(v.kind)}{_lacks_suffix(lacks.get(v.id))}. " for v in order
    )
    return prefix + pretty_type(s.body, names)


def _lacks_suffix(labels: list[str] | None) -> str:
    return "∖{" + ", ".join(labels) + "}" if labels else ""


def pretty_types_shared(types: Iterable[Type]) -> list[str]:
    """Render several types with one shared variable-naming table, for
    error messages that mention more than one type."""
    types = list(types)
    names: dict[int, str] = {}
    seq = _var_names()
    for t in types:
        for v in free_vars_ordered(t):
            if v.id not in names:
                names[v.id] = next(seq)
    return [pretty_type(t, names) for t in types]
