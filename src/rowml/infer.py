"""Type inference for the surface language.

Algorithm W over mutable session state.  The session keeps a fresh
variable supply, a triangular map of variable bindings and the level of
every variable it made.  Each unification runs the pure unifier of
`rowml.unify` on resolved inputs and records the step's bindings as
they are: the image of a bound variable may mention variables bound
later, and `InferSession.resolve` follows the chains only where a
decision needs the whole type.  Records funnel all row reasoning
through unification against a template ``Rec {l:a | r}``, so row
unification is exercised exactly where function application (and the
record primitives, which are typed as applications of such templates)
demands it.

Generalization is by level, after Rémy (INRIA RR-1766, 1992) and
Kiselyov, "How OCaml type checker works" (2013).  A `let` infers its
bound one level deeper than its body.  Binding a variable lowers every
variable of its image to the bound variable's level, so a variable still
deeper than the session after the bound is free nowhere in the
environment and may be quantified.

Resolving late leaves one check to be made on its own: a tail bound
late can make a row recorded earlier repeat a label.  The session keeps
the rows that can go bad this way and checks them where the verdict of
eager resolution depended on them: the rows of the let-bound schemes in
scope after every `let` bound, and the rows of every binding's image
once, when the whole term is inferred.

Inference is staged: `infer_program` first kind-checks every scheme of
the initial environment, then runs inference; constraint solving never
consults the kind checker.
"""

from __future__ import annotations

from typing import Union

from rowml.kindcheck import KindError, UnboundTypeName, check_scheme
from rowml.parser import SourceSpan, parse_term
from rowml.syntax import (
    App,
    Extend,
    FreshVars,
    INT,
    Kind,
    KindEnv,
    Lam,
    Let,
    Lit,
    REC,
    ROW,
    RecordLit,
    Restrict,
    STAR,
    Scheme,
    Select,
    STRING,
    TApp,
    TCon,
    TFun,
    TRow,
    TVar,
    Term,
    Type,
    TypeEnv,
    TypeVar,
    Var,
    base_kind_env,
    canonicalize,
    free_vars_ordered,
    pretty_type,
)
from rowml.unify import DuplicateLabel, Subst, UnifyError, unify


class InferError(Exception):
    """Base class for type errors; carries a source span when one is known."""

    def __init__(self, message: str, span: SourceSpan | None = None) -> None:
        super().__init__(message)
        self.span = span


class UnboundVariable(InferError):
    def __init__(self, name: str, span: SourceSpan | None = None) -> None:
        super().__init__(f"unbound variable '{name}'", span)
        self.name = name


class UnifyFailure(InferError):
    """A unification step failed; wraps the underlying UnifyError."""

    def __init__(self, cause: UnifyError, span: SourceSpan | None = None) -> None:
        super().__init__(str(cause), span)
        self.cause = cause


class KindFailure(InferError):
    """The kinding stage rejected a scheme before inference began."""

    def __init__(self, cause: Union[KindError, UnboundTypeName]) -> None:
        super().__init__(f"kind error: {cause}")
        self.cause = cause


class NotARecord(InferError):
    def __init__(self, actual: Type, span: SourceSpan | None = None) -> None:
        super().__init__(f"not a record: {pretty_type(actual)}", span)
        self.actual = actual


class _LevelledVars(FreshVars):
    """A fresh-variable supply that records the level it made each
    variable at, the shared row tails the unifier asks for included.

    The supply, not the session, owns the current level: a supply that
    pointed back at its session would form a reference cycle, and every
    finished session would then wait for the cyclic garbage collector."""

    def __init__(self, start: int) -> None:
        super().__init__(start)
        self.level = 0
        self.levels: dict[int, int] = {}

    def fresh(self, kind: Kind) -> TypeVar:
        v = super().fresh(kind)
        self.levels[v.id] = self.level
        return v


class InferSession:
    """Mutable state for inferring one program.

    `bindings` maps a variable id to the type the variable was bound to.
    It is triangular: an image may mention variables that are bound
    themselves, so read types through `resolve`.  `fresh.level` is the
    let-depth being inferred, and `fresh.levels` maps every variable the
    session made to the level it lives at; the variables of the initial
    environment, whose ids lie below `fresh_start`, are not in it and are
    at level 0.

    A tail bound late can make a row recorded earlier repeat a label.  Two
    lists keep the rows that can go bad this way, so they are checked
    without resolving every type again: `open_rows` holds the rows with
    fields and a tail in the images of `bindings`, and `let_rows` those in
    the schemes of the `let`s being inferred, whose tails are not
    quantified.
    """

    def __init__(self, fresh_start: int = 0) -> None:
        self.bindings: dict[int, Type] = {}
        self.fresh = _LevelledVars(fresh_start)
        self.open_rows: list[TRow] = []
        self.let_rows: list[TRow] = []

    def fresh_var(self, kind: Kind) -> TypeVar:
        return self.fresh.fresh(kind)

    def find(self, t: Type) -> Type:
        """`t` itself unless it is a bound variable; else the end of its
        chain of variable bindings, an unbound variable or a type that is
        not a variable.  Every variable on the chain is rebound straight
        to that end."""
        path: list[int] = []
        while isinstance(t, TVar):
            image = self.bindings.get(t.var.id)
            if image is None:
                break
            path.append(t.var.id)
            t = image
        for vid in path[:-1]:
            self.bindings[vid] = t
        return t

    def walk_row(self, row: TRow) -> TRow:
        """`row` with the fields its tail stands for merged in and the
        tail replaced by the unbound variable that ends the tail's chain;
        field types are left unresolved.  A chain of more than one link
        is rebound straight to its merged fields.  Raises DuplicateLabel
        when the merge repeats a label."""
        tail = row.tail
        if tail is None or tail.id not in self.bindings:
            return row
        extra: dict[str, Type] = {}
        links = 0
        while tail is not None:
            image = self.bindings.get(tail.id)
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
            self.bindings[row.tail.id] = TRow(dict(extra), tail)
        overlap = row.fields.keys() & extra.keys()
        if overlap:
            raise DuplicateLabel(min(overlap), row)
        extra.update(row.fields)
        return TRow(extra, tail)

    def resolve(self, t: Type) -> Type:
        """`t` with every bound variable replaced by what it stands for."""
        if isinstance(t, TVar):
            image = self.find(t)
            return image if isinstance(image, TVar) else self.resolve(image)
        if isinstance(t, TCon):
            return t
        if isinstance(t, TApp):
            return TApp(self.resolve(t.fun), self.resolve(t.arg))
        if isinstance(t, TFun):
            return TFun(self.resolve(t.dom), self.resolve(t.cod))
        if isinstance(t, TRow):
            row = self.walk_row(t)
            return TRow({label: self.resolve(f) for label, f in row.fields.items()}, row.tail)
        raise AssertionError(f"unexpected type node: {t!r}")

    def resolve_env(self, gamma: TypeEnv) -> TypeEnv:
        return TypeEnv(
            tuple((name, Scheme(s.quantified, self.resolve(s.body))) for name, s in gamma)
        )

    def check_let_rows(self) -> None:
        """Raise DuplicateLabel if a tail bound since a `let` generalized
        its scheme repeats a label of one of the scheme's rows."""
        rows = self.let_rows
        for i, row in enumerate(rows):
            if row.tail is not None and row.tail.id in self.bindings:
                rows[i] = self.walk_row(row)

    def check_bindings(self) -> None:
        """Raise DuplicateLabel if a tail bound after a binding was recorded
        repeats a label of a row in the binding's image."""
        for row in self.open_rows:
            self.walk_row(row)

    def unify(self, t1: Type, t2: Type, span: SourceSpan | None) -> None:
        try:
            step = unify(self.resolve(t1), self.resolve(t2), self.fresh)
        except UnifyError as exc:
            raise UnifyFailure(exc, span) from exc
        for vid, image in step.mapping.items():
            self._bind(vid, image)

    def _bind(self, vid: int, image: Type) -> None:
        """Record one binding of a unification step, lower every variable
        of `image` to the bound variable's level and keep its open rows."""
        self.bindings[vid] = image
        level = self.fresh.levels.get(vid, 0)
        todo = [image]
        while todo:
            t = todo.pop()
            if isinstance(t, TVar):
                self._lower(t.var, level)
            elif isinstance(t, TApp):
                todo += (t.fun, t.arg)
            elif isinstance(t, TFun):
                todo += (t.dom, t.cod)
            elif isinstance(t, TRow):
                todo += t.fields.values()
                if t.tail is not None:
                    self._lower(t.tail, level)
                    if t.fields:
                        self.open_rows.append(t)

    def _lower(self, v: TypeVar, level: int) -> None:
        levels = self.fresh.levels
        if levels.get(v.id, 0) > level:
            levels[v.id] = level


def instantiate(session: InferSession, scheme: Scheme) -> Type:
    """The scheme's body with every quantified variable replaced by a
    fresh variable of the same kind."""
    if not scheme.quantified:
        return scheme.body
    renaming = Subst(
        {v.id: TVar(session.fresh_var(v.kind)) for v in scheme.quantified}
    )
    return renaming.apply(scheme.body)


def generalize(session: InferSession, tau: Type) -> Scheme:
    """Quantify the variables of the resolved `tau` that live deeper than
    the session's current level, in first-occurrence order."""
    tau = session.resolve(tau)
    level, levels = session.fresh.level, session.fresh.levels
    quantified = tuple(v for v in free_vars_ordered(tau) if levels.get(v.id, 0) > level)
    return Scheme(quantified, tau)


def _open_rows(t: Type) -> list[TRow]:
    """The rows in `t` that have fields and a tail."""
    rows: list[TRow] = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, TApp):
            todo += (t.fun, t.arg)
        elif isinstance(t, TFun):
            todo += (t.dom, t.cod)
        elif isinstance(t, TRow):
            todo += t.fields.values()
            if t.fields and t.tail is not None:
                rows.append(t)
    return rows


def _require_record(session: InferSession, t: Type, span: SourceSpan | None) -> None:
    head = session.find(t)
    while isinstance(head, TApp):
        head = session.find(head.fun)
    if isinstance(head, (TCon, TFun)) and head != REC:
        raise NotARecord(session.resolve(t), span)


def infer_term(session: InferSession, gamma: TypeEnv, term: Term) -> Type:
    """Infer the type of `term` under `gamma`, fully resolved."""
    inferred = _infer(session, gamma, term)
    session.check_bindings()
    return session.resolve(inferred)


def _infer(session: InferSession, gamma: TypeEnv, term: Term) -> Type:
    """The type of `term` under `gamma`; bound variables in it are not yet resolved."""
    if isinstance(term, Var):
        scheme = gamma.lookup(term.name)
        if scheme is None:
            raise UnboundVariable(term.name, term.span)
        return instantiate(session, scheme)

    if isinstance(term, Lit):
        return INT if isinstance(term.value, int) else STRING

    if isinstance(term, Lam):
        param = TVar(session.fresh_var(STAR))
        inner = gamma.extend(term.param, Scheme((), param))
        return TFun(param, _infer(session, inner, term.body))

    if isinstance(term, App):
        fun = _infer(session, gamma, term.fun)
        arg = _infer(session, gamma, term.arg)
        result = TVar(session.fresh_var(STAR))
        session.unify(fun, TFun(arg, result), term.span)
        return result

    if isinstance(term, Let):
        session.fresh.level += 1
        bound = _infer(session, gamma, term.bound)
        session.fresh.level -= 1
        try:  # a tail bound late repeats a label
            session.check_let_rows()
            scheme = generalize(session, bound)
        except UnifyError as exc:
            raise UnifyFailure(exc, term.bound.span) from exc
        mark = len(session.let_rows)
        quantified = {v.id for v in scheme.quantified}
        session.let_rows += (
            row for row in _open_rows(scheme.body) if row.tail.id not in quantified
        )
        body = _infer(session, gamma.extend(term.name, scheme), term.body)
        del session.let_rows[mark:]
        return body

    if isinstance(term, RecordLit):
        fields = {label: _infer(session, gamma, value) for label, value in term.fields.items()}
        return TApp(REC, TRow(fields, None))

    if isinstance(term, Select):
        rec_type = _infer(session, gamma, term.record)
        _require_record(session, rec_type, term.span)
        value = TVar(session.fresh_var(STAR))
        rest = session.fresh_var(ROW)
        session.unify(rec_type, TApp(REC, TRow({term.label: value}, rest)), term.span)
        return value

    if isinstance(term, Extend):
        value = _infer(session, gamma, term.value)
        rec_type = _infer(session, gamma, term.record)
        _require_record(session, rec_type, term.span)
        rest = session.fresh_var(ROW)
        session.unify(rec_type, TApp(REC, TRow({}, rest)), term.span)
        extended = TRow({term.label: value}, rest)
        try:
            session.walk_row(extended)
        except UnifyError as exc:  # the tail already carries this label
            raise UnifyFailure(exc, term.span) from exc
        return TApp(REC, extended)

    if isinstance(term, Restrict):
        rec_type = _infer(session, gamma, term.record)
        _require_record(session, rec_type, term.span)
        value = TVar(session.fresh_var(STAR))
        rest = session.fresh_var(ROW)
        session.unify(rec_type, TApp(REC, TRow({term.label: value}, rest)), term.span)
        return TApp(REC, TRow({}, rest))

    raise AssertionError(f"unexpected term node: {term!r}")


def _id_ceiling(gamma: TypeEnv) -> int:
    highest = -1
    for _, scheme in gamma:
        for v in free_vars_ordered(scheme.body):
            highest = max(highest, v.id)
        for v in scheme.quantified:
            highest = max(highest, v.id)
    return highest + 1


def infer_program(
    src: str,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
) -> Scheme:
    """Parse, kind-check, infer, and generalize a whole program.

    Stage one kind-checks every scheme in the initial environment (the
    only type annotations a program has); stage two runs inference and
    generalizes at top level.  The returned scheme has canonically
    ordered rows.  Raises ParseError, KindFailure, or one of the
    inference errors; the first failing stage wins.
    """
    term = parse_term(src)
    kind_env = delta if delta is not None else base_kind_env()
    gamma = env if env is not None else TypeEnv()
    for _, scheme in gamma:
        try:
            check_scheme(kind_env, scheme)
        except (KindError, UnboundTypeName) as exc:
            raise KindFailure(exc) from exc
    ceiling = _id_ceiling(gamma)
    session = InferSession(fresh_start=ceiling)
    try:
        session.fresh.level += 1
        inferred = infer_term(session, gamma, term)
        session.fresh.level -= 1
        # A tail bound late may repeat a label of an environment row, but
        # only if a variable of the environment, below the ceiling, is bound.
        if any(vid < ceiling for vid in session.bindings):
            session.resolve_env(gamma)
        result = generalize(session, inferred)
    except UnifyError as exc:
        raise UnifyFailure(exc, None) from exc
    return Scheme(result.quantified, canonicalize(result.body))
