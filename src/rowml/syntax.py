"""Kinds, types, terms and type schemes for a small functional language
with row-polymorphic extensible records.

A row is a finite, duplicate-free map from labels to types plus an
optional tail variable of kind row; a record type is the application of
the distinguished constructor ``Rec : row -> *`` to a row.  Rows are
unordered: ``fields`` is a dict, so structural equality already ignores
field order, and ``canonicalize`` merely fixes iteration order to be
lexicographic.  A type variable is itself a type: one `TypeVar`, of
any kind, stands wherever the variable occurs, a row's tail included.

Type nodes are immutable values with slots: assigning a field raises,
two nodes are equal when they are of one class with equal fields, and
every node but a ``TRow`` hashes.  Being immutable, a node is shared
freely, and a function may return a part of its input as it is.  The
kinds ``STAR`` and ``ROW`` are singletons, compared by identity.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Union

if TYPE_CHECKING:
    from rowml.parser import SourceSpan


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


@dataclass(frozen=True)
class ArrowKind(Kind):
    param: Kind
    result: Kind

    def __str__(self) -> str:
        param = f"({self.param})" if isinstance(self.param, ArrowKind) else str(self.param)
        return f"{param} -> {self.result}"


STAR = object.__new__(StarKind)
ROW = object.__new__(RowKind)


# ---------------------------------------------------------------------------
# Types


_set = object.__setattr__  # how a node's own constructor writes its fields


class _Node:
    """An immutable value whose fields are its `__slots__`, listed in
    constructor order.  It equals a node of its own class with equal
    fields, and hashes by its fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if cls.__slots__:
            cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Type(_Node):
    """Base class for type expressions."""

    __slots__ = ()


class TypeVar(Type):
    """A type variable of any kind, itself a type; a row's tail is one of
    kind ``row``.  Ids are unique within one inference session.

    `var` is the variable itself: the benchmark's `problem_space`
    (`bench/workloads.py`) tells a field variable from a constructor by
    that attribute."""

    __slots__ = ("id", "kind")
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

    __slots__ = ("name", "kind")
    name: str
    kind: Kind

    def __init__(self, name: str, kind: Kind = STAR) -> None:
        _set(self, "name", name)
        _set(self, "kind", kind)


class TApp(Type):
    __slots__ = ("fun", "arg")
    fun: Type
    arg: Type

    def __init__(self, fun: Type, arg: Type) -> None:
        _set(self, "fun", fun)
        _set(self, "arg", arg)


class TFun(Type):
    __slots__ = ("dom", "cod")
    dom: Type
    cod: Type

    def __init__(self, dom: Type, cod: Type) -> None:
        _set(self, "dom", dom)
        _set(self, "cod", cod)


class TRow(Type):
    """An unordered row ``{l1:T1, ...}``, open when it has a tail variable.
    Its fields are a dict, so hashing it raises TypeError."""

    __slots__ = ("fields", "tail")
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


@dataclass(frozen=True)
class Scheme:
    """A type quantified over kinded variables, e.g. ``forall a:*. a -> a``.

    `lacks` pairs each quantified row variable that must lack labels with
    those labels, sorted, in the order of `quantified`.  Building a scheme
    puts it in that form and adds the labels of every row of the body
    that the variable ends.  A scheme with no quantifiers is just a
    monomorphic type.  `Scheme._normal` builds a scheme that is already
    in that form without checking it again.
    """

    quantified: tuple[TypeVar, ...]
    body: Type
    lacks: tuple[tuple[TypeVar, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        ids = [v.id for v in self.quantified]
        if len(set(ids)) != len(ids):
            raise ValueError("scheme quantifies the same variable twice")
        rows = [v for v in self.quantified if v.kind is ROW]
        if not rows and not self.lacks:
            return
        labels: dict[int, frozenset[str]] = {}
        scan_rows(self.body, labels)
        for v, lacked in self.lacks:
            if v not in rows:
                raise ValueError(f"t{v.id} lacks labels but is no quantified row variable")
            labels[v.id] = labels.get(v.id, frozenset()).union(lacked)
        lacks = tuple((v, tuple(sorted(labels[v.id]))) for v in rows if labels.get(v.id))
        object.__setattr__(self, "lacks", lacks)

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
        every row of `body` was registered with the store."""
        scheme = object.__new__(cls)
        _set(scheme, "quantified", quantified)
        _set(scheme, "body", body)
        _set(scheme, "lacks", lacks)
        return scheme


# ---------------------------------------------------------------------------
# Environments


@dataclass
class KindEnv:
    """Kinding context: the kinds of type constructors and type variables."""

    cons: dict[str, Kind] = field(default_factory=dict)
    vars: dict[int, Kind] = field(default_factory=dict)

    def with_vars(self, new: Iterable[TypeVar]) -> KindEnv:
        ext = dict(self.vars)
        for v in new:
            ext[v.id] = v.kind
        return KindEnv(self.cons, ext)


def base_kind_env() -> KindEnv:
    """The constructors every program starts with: Int, String, Bool, List, Rec."""
    return KindEnv({name: con.kind for name, con in BASE_CONSTRUCTORS.items()}, {})


@dataclass(frozen=True)
class TypeEnv:
    """Term-variable context; lookup returns the innermost binding first."""

    bindings: tuple[tuple[str, Scheme], ...] = ()

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


@dataclass(frozen=True)
class Term:
    """Base class for surface-language terms."""

    span: SourceSpan | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    param: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Let(Term):
    name: str
    bound: Term
    body: Term


@dataclass(frozen=True)
class Lit(Term):
    """An integer or string literal."""

    value: Union[int, str]


@dataclass(frozen=True)
class RecordLit(Term):
    fields: dict[str, Term]


@dataclass(frozen=True)
class Select(Term):
    record: Term
    label: str


@dataclass(frozen=True)
class Extend(Term):
    label: str
    value: Term
    record: Term


@dataclass(frozen=True)
class Restrict(Term):
    record: Term
    label: str


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
        if isinstance(t, TypeVar):
            if t.id not in seen:
                seen.add(t.id)
                out.append(t)
        elif isinstance(t, TFun):
            todo += (t.cod, t.dom)
        elif isinstance(t, TApp):
            todo += (t.arg, t.fun)
        elif isinstance(t, TRow):
            if t.tail is not None:
                todo.append(t.tail)
            todo += [t.fields[label] for label in sorted(t.fields, reverse=True)]
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
            todo += t.fields.values()
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
    if isinstance(t, (TypeVar, TCon)):
        return t.kind
    if isinstance(t, TFun):
        return STAR
    if isinstance(t, TRow):
        return ROW
    if isinstance(t, TApp):
        k = type_kind(t.fun)
        assert isinstance(k, ArrowKind), f"application of non-constructor kind {k}"
        return k.result
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


def _quote(s: str) -> str:
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}
    return '"' + "".join(escapes.get(c, c) for c in s) + '"'


def pretty_term(t: Term) -> str:
    """Render a term in the concrete syntax accepted by the parser."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        return _quote(t.value) if isinstance(t.value, str) else str(t.value)
    if isinstance(t, Lam):
        return f"\\{t.param}. {pretty_term(t.body)}"
    if isinstance(t, Let):
        return f"let {t.name} = {pretty_term(t.bound)} in {pretty_term(t.body)}"
    if isinstance(t, App):
        fun = pretty_term(t.fun)
        if isinstance(t.fun, (Lam, Let)):
            fun = f"({fun})"
        return f"{fun} {_term_atom(t.arg)}"
    if isinstance(t, Select):
        return f"{_term_atom(t.record)}.{t.label}"
    if isinstance(t, Restrict):
        return f"{_term_atom(t.record)} - {t.label}"
    if isinstance(t, RecordLit):
        inner = ", ".join(f"{l} = {pretty_term(t.fields[l])}" for l in sorted(t.fields))
        return "{" + inner + "}"
    if isinstance(t, Extend):
        return f"{{{t.label} = {pretty_term(t.value)} | {pretty_term(t.record)}}}"
    raise AssertionError(f"unexpected term node: {t!r}")


def _term_atom(t: Term) -> str:
    s = pretty_term(t)
    return f"({s})" if isinstance(t, (Lam, Let, App)) else s
