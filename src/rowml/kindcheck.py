"""Kind checking: the stage that runs before type inference.

Every type expression entering inference is first assigned a kind here,
so unification and the typing rules only ever see well-kinded types.
The judgement is ``Δ ⊢ τ : κ``, where Δ is a plain dict from the ids of
the type variables in scope to their kinds.  A constructor's kind comes
from `BASE_CONSTRUCTORS`, the fixed table the parser reads too.  There
is no kind inference: quantified variables carry explicit kinds, and
internal variables get theirs at the point of introduction.
"""

from __future__ import annotations

from rowml.syntax import (
    ArrowKind,
    BASE_CONSTRUCTORS,
    Kind,
    ROW,
    STAR,
    Scheme,
    TApp,
    TCon,
    TFun,
    TRow,
    Type,
    TypeVar,
    pretty_type,
)


class UnboundTypeName(Exception):
    """A type constructor or type variable with no binding in the context."""

    def __init__(self, name: str | int) -> None:
        self.name = name
        if isinstance(name, int):
            super().__init__(f"unbound type variable t{name}")
        else:
            super().__init__(f"unbound type constructor '{name}'")


class KindError(Exception):
    """A type used at the wrong kind."""

    def __init__(self, offender: Type, expected: Kind, actual: Kind) -> None:
        self.offender = offender
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"{pretty_type(offender)} has kind {actual}, expected {expected}"
        )


def kind_of(delta: dict[int, Kind], tau: Type) -> Kind:
    """The unique kind of `tau` under `delta`, which maps the ids of the
    type variables in scope to their kinds.

    Raises UnboundTypeName when a variable is missing from `delta` or a
    constructor from `BASE_CONSTRUCTORS`, KindError on any mismatch.
    """
    if isinstance(tau, TypeVar):
        k = delta.get(tau.id)
        if k is None:
            raise UnboundTypeName(tau.id)
        return k
    if isinstance(tau, TCon):
        con = BASE_CONSTRUCTORS.get(tau.name)
        if con is None:
            raise UnboundTypeName(tau.name)
        if con.kind != tau.kind:
            raise KindError(tau, con.kind, tau.kind)
        return con.kind
    if isinstance(tau, TFun):
        for side in (tau.dom, tau.cod):
            k = kind_of(delta, side)
            if k is not STAR:
                raise KindError(side, STAR, k)
        return STAR
    if isinstance(tau, TApp):
        fun_kind = kind_of(delta, tau.fun)
        arg_kind = kind_of(delta, tau.arg)
        if not isinstance(fun_kind, ArrowKind):
            raise KindError(tau.fun, ArrowKind(arg_kind, STAR), fun_kind)
        if fun_kind.param != arg_kind:
            raise KindError(tau.arg, fun_kind.param, arg_kind)
        return fun_kind.result
    if isinstance(tau, TRow):
        for label in sorted(tau.fields):
            k = kind_of(delta, tau.fields[label])
            if k is not STAR:
                raise KindError(tau.fields[label], STAR, k)
        if tau.tail is not None:
            k = kind_of(delta, tau.tail)
            if k is not ROW:
                raise KindError(tau.tail, ROW, k)
        return ROW
    raise AssertionError(f"unexpected type node: {tau!r}")


def check_scheme(delta: dict[int, Kind], scheme: Scheme) -> None:
    """Check that a scheme's body has kind ``*`` with its quantified
    variables in scope at their declared kinds; `delta` is not changed."""
    inner = delta | {v.id: v.kind for v in scheme.quantified}
    k = kind_of(inner, scheme.body)
    if k is not STAR:
        raise KindError(scheme.body, STAR, k)
