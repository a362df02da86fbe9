"""Type inference for the surface language.

Algorithm W over mutable session state.  The table `_RULES` holds one
rule function per term form, and each rule reaches its sub-terms' rules
through the table itself, so each level of nesting costs one Python
frame.  A program's own bindings live in one plain dict, the scope: a
`Lam` or `Let` sets its name there around its body and restores the
outer meaning afterwards.  A name with no entry means its innermost
binding in the initial `TypeEnv`, which the session keeps and reads in
place: it is never copied, extended or turned into a dict.

The session is its own fresh variable supply and owns the current
level; it keeps one triangular `Subst` of variable bindings, which
holds the level of every variable the session made.  Each unification
hands the unresolved types to
`rowml.unify.unify` with the session's store, which it extends in
place: the image of a bound variable may mention variables bound
before or after it, and `InferSession.resolve` follows the chains only
where a decision needs the whole type.  Inference stops at the first
failed step, and the store is not read again.  The record primitives are
typed by unification against a template ``Rec {l:a | r}``, so row
unification runs exactly where they and function application demand it.
One case skips the template: a selection ``e.l`` whose record row is
already known, closed and has ``l`` takes that field's type.  Against
such a row the template step cannot fail; it would only bind ``a`` to
the field and ``r`` to a copy of the other fields, which nothing reads.

Generalization is by level, after Rémy (INRIA RR-1766, 1992) and
Kiselyov, "How OCaml type checker works" (2013).  A `let` infers its
bound one level deeper than its body.  Binding a variable lowers every
variable its image reaches to the bound variable's level, in the walk of
the occurs check, so a variable still deeper than the session after the
bound is free nowhere in the environment and may be quantified.  Every
variable free in the environment is at the session's level or below; so
a bound that made no fresh variable, as a literal, a record literal of
monomorphic names or a selection from a known record does, reaches no
deeper variable, and its `let` binds its type with no `generalize` walk.

The store knows the labels each row variable lacks before a step
unifies it: those of the initial environment's rows are scanned first,
and the only other rows with fields and a tail, record templates, have
a fresh tail that lacks the template's label.  A repeated label is then
the error of the unification step that would make it; nothing is walked
again afterwards.  The store is the one record of the labels a row
variable lacks: `generalize` moves a quantified row variable's labels
from it into the scheme, and `instantiate` gives them to the variable's
fresh copy.  `generalize` resolves the bound type and collects its free
variables in one walk, `Subst.apply_collecting`, so the scheme is built
in normal form and not walked again.  At the top level too the inferred
type goes to `generalize` unresolved.

Inference is staged: `infer_program` first kind-checks every binding of
the initial environment, a shadowed one too, then runs inference;
constraint solving never consults the kind checker.
"""

from __future__ import annotations

from rowml.kindcheck import KindError, UnboundTypeName, check_scheme
from rowml.parser import SourceSpan, parse_term
from rowml.syntax import (
    App,
    Extend,
    FreshVars,
    INT,
    Kind,
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
    Type,
    TypeEnv,
    TypeVar,
    Var,
    canonicalize,
    free_vars_ordered,
    pretty_types_shared,
    scan_rows,
)
from rowml.unify import DuplicateLabel, Subst, UnifyError, unify


class InferError(Exception):
    """Base class for type errors; carries a source span when one is known.
    An error keeps its fields as attributes and as its `args`, so it
    copies and pickles; its message is rendered when it is read, by `str`."""

    span: SourceSpan | None = None


class UnboundVariable(InferError):
    def __init__(self, name: str, span: SourceSpan | None = None) -> None:
        super().__init__(name, span)
        self.name = name
        self.span = span

    def __str__(self) -> str:
        return f"unbound variable '{self.name}'"


class UnifyFailure(InferError):
    """A unification step failed; wraps the underlying UnifyError."""

    def __init__(self, cause: UnifyError, span: SourceSpan | None = None) -> None:
        super().__init__(cause, span)
        self.cause = cause
        self.span = span

    def __str__(self) -> str:
        return str(self.cause)


class KindFailure(InferError):
    """The kinding stage rejected a scheme before inference began; it has
    no span."""

    def __init__(self, cause: KindError | UnboundTypeName) -> None:
        super().__init__(cause)
        self.cause = cause

    def __str__(self) -> str:
        return f"kind error: {self.cause}"


class NotARecord(InferError):
    def __init__(self, actual: Type, span: SourceSpan | None = None) -> None:
        super().__init__(actual, span)
        self.actual = actual
        self.span = span

    def __str__(self) -> str:
        (actual_s,) = pretty_types_shared([self.actual])
        return f"not a record: {actual_s}"


class InferSession(FreshVars):
    """Mutable state for inferring one program; the session is also the
    supply of its fresh variables.

    `subst` maps a variable id to the type the variable was bound to.
    It is triangular: an image may mention variables that are bound
    themselves, so read types through `resolve`.  `level` is the
    let-depth being inferred, and `fresh` records it in `subst.levels`
    for every variable it makes, the shared row tails the unifier asks
    for included; `subst` lowers those levels as it binds.  The
    variables of the initial environment, whose ids lie below
    `fresh_start`, are not in it and are at level 0.  The store never
    points back at the session, so no reference cycle keeps a finished
    session alive.  `subst.lacks` holds the labels each unbound row
    variable must lack; `template_row` writes there the label its fresh
    tail lacks, so no step walks its inputs' rows.
    `env` is the initial environment, read in place, never copied, for
    each name the program does not bind; a name bound twice there means
    its innermost binding.
    """

    def __init__(self, fresh_start: int = 0, env: TypeEnv = TypeEnv()) -> None:
        super().__init__(fresh_start)
        self.level = 0
        self.subst = Subst()
        self.env = env

    def fresh(self, kind: Kind) -> TypeVar:
        v = super().fresh(kind)
        self.subst.levels[v.id] = self.level
        return v

    def resolve(self, t: Type) -> Type:
        """`t` with every bound variable replaced by what it stands for."""
        return self.subst.apply(t)

    def resolve_env(self, gamma: TypeEnv) -> TypeEnv:
        return TypeEnv(
            tuple(
                (name, Scheme(s.quantified, self.resolve(s.body), s.lacks)) for name, s in gamma
            )
        )

    def unify(self, t1: Type, t2: Type, span: SourceSpan | None) -> None:
        """Unify `t1` with `t2` in the session's store, as one step of
        `rowml.unify.unify`.  Its failure raises UnifyFailure at `span`."""
        try:
            unify(t1, t2, self, self.subst)
        except UnifyError as exc:
            raise UnifyFailure(exc, span) from exc

    def template_row(self, label: str, field: Type) -> TRow:
        """The row ``{label:field | rest}`` of a record template, over a
        fresh tail `rest`.  The store records that `rest` lacks `label`;
        being fresh, it lacks nothing else yet."""
        row = TRow({label: field}, self.fresh(ROW))
        self.subst.lacks[row.tail.id] = frozenset((label,))
        return row


def instantiate(session: InferSession, scheme: Scheme) -> Type:
    """The scheme's body with every quantified variable replaced by a
    fresh variable of the same kind, which lacks the labels the
    quantified one lacks."""
    if not scheme.quantified:
        return scheme.body
    renaming = Subst({v.id: session.fresh(v.kind) for v in scheme.quantified})
    for v, labels in scheme.lacks:
        session.subst.lacks[renaming.mapping[v.id].id] = frozenset(labels)
    return renaming.apply(scheme.body)


def generalize(session: InferSession, tau: Type) -> Scheme:
    """Quantify the variables of `tau`, read through the store, that live
    deeper than the session's current level, in first-occurrence order,
    and move the labels they lack from the store into the scheme.

    The store must know the labels of every row of `tau`, as it knows
    those of every row inference builds: the store's labels are then
    all a quantified row variable lacks, those of the rows it ends
    included.  `tau` need not be resolved: `Subst.apply_collecting`
    resolves it and collects its free variables in one walk, so the
    scheme is built in normal form and its body is not walked again.
    That walk recurses.  With an empty store there is nothing to
    resolve, and `free_vars_ordered` collects with a stack of its own, so
    a type built with no unification step generalizes however deep it
    is.

    A `let` whose bound made no fresh variable does not call this: the
    variables free in the environment are at the session's level or
    below, a variable made at a deeper level is lowered as soon as it is
    bound into one of them, and a bound that made none reaches only
    those.  So the walk would quantify nothing and pop no lacks, and the
    bound's type, resolved or not, is already its scheme."""
    subst = session.subst
    if subst.mapping:
        free: dict[int, TypeVar] = {}
        tau = subst.apply_collecting(tau, free)
    else:
        free = {v.id: v for v in free_vars_ordered(tau)}
    level, levels = session.level, subst.levels
    quantified = tuple([v for v in free.values() if levels.get(v.id, 0) > level])
    store = subst.lacks
    lacks = []
    for v in quantified:
        labels = store.pop(v.id, None)
        if labels:
            lacks.append((v, tuple(sorted(labels))))
    return Scheme._normal(quantified, tau, tuple(lacks))


def _require_record(session: InferSession, t: Type, span: SourceSpan | None) -> Type:
    """`t` read through the store's variable chains; raises NotARecord
    when its head is a constructor other than `Rec`."""
    find = session.subst.find
    found = head = find(t) if t.__class__ is TypeVar else t
    while head.__class__ is TApp:
        head = head.fun
        if head.__class__ is TypeVar:
            head = find(head)
    cls = head.__class__
    if cls is TFun or (cls is TCon and head is not REC and head != REC):
        raise NotARecord(session.resolve(t), span)
    return found


# A rule takes the session, the scope of the program's own bindings and
# a term of its class, and calls a sub-term's rule from `_RULES` itself.


def _infer_var(session: InferSession, scope: dict[str, Scheme], term: Var) -> Type:
    scheme = scope.get(term.name)
    if scheme is None:
        scheme = session.env.lookup(term.name)
        if scheme is None:
            raise UnboundVariable(term.name, term.span)
    return instantiate(session, scheme)


def _infer_lit(session: InferSession, scope: dict[str, Scheme], term: Lit) -> Type:
    return INT if isinstance(term.value, int) else STRING


def _infer_lam(session: InferSession, scope: dict[str, Scheme], term: Lam) -> Type:
    name, body, param = term.param, term.body, session.fresh(STAR)
    outer = scope.get(name)
    scope[name] = Scheme._normal((), param, ())
    result = _RULES[body.__class__](session, scope, body)
    if outer is None:
        del scope[name]
    else:
        scope[name] = outer
    return TFun(param, result)


def _infer_app(session: InferSession, scope: dict[str, Scheme], term: App) -> Type:
    fun = _RULES[term.fun.__class__](session, scope, term.fun)
    arg = _RULES[term.arg.__class__](session, scope, term.arg)
    result = session.fresh(STAR)
    session.unify(fun, TFun(arg, result), term.span)
    return result


def _infer_let(session: InferSession, scope: dict[str, Scheme], term: Let) -> Type:
    name, body, start = term.name, term.body, session._next
    session.level += 1
    bound = _RULES[term.bound.__class__](session, scope, term.bound)
    session.level -= 1
    # A bound that made no variable reaches none deeper than the session.
    scheme = Scheme._normal((), bound, ()) if session._next == start else generalize(session, bound)
    outer = scope.get(name)
    scope[name] = scheme
    result = _RULES[body.__class__](session, scope, body)
    if outer is None:
        del scope[name]
    else:
        scope[name] = outer
    return result


def _infer_record(session: InferSession, scope: dict[str, Scheme], term: RecordLit) -> Type:
    fields = {label: _RULES[v.__class__](session, scope, v) for label, v in term.fields.items()}
    return TApp(REC, TRow(fields, None))


def _infer_select(session: InferSession, scope: dict[str, Scheme], term: Select) -> Type:
    rec_type = _RULES[term.record.__class__](session, scope, term.record)
    rec_type = _require_record(session, rec_type, term.span)
    if isinstance(rec_type, TApp) and isinstance(rec_type.arg, TRow) and (
        rec_type.fun is REC or rec_type.fun == REC
    ):
        # A closed row that has the label: the template step would only
        # bind its value to the field and its tail to the other fields.
        try:
            row = session.subst.walk_row(rec_type.arg)
        except DuplicateLabel as exc:
            raise UnifyFailure(exc, term.span) from exc
        if row.tail is None and term.label in row.fields:
            return row.fields[term.label]
    value = session.fresh(STAR)
    session.unify(rec_type, TApp(REC, session.template_row(term.label, value)), term.span)
    return value


def _infer_extend(session: InferSession, scope: dict[str, Scheme], term: Extend) -> Type:
    value = _RULES[term.value.__class__](session, scope, term.value)
    rec_type = _RULES[term.record.__class__](session, scope, term.record)
    _require_record(session, rec_type, term.span)
    extended = session.template_row(term.label, value)
    session.unify(rec_type, TApp(REC, TRow({}, extended.tail)), term.span)
    return TApp(REC, extended)


def _infer_restrict(session: InferSession, scope: dict[str, Scheme], term: Restrict) -> Type:
    rec_type = _RULES[term.record.__class__](session, scope, term.record)
    _require_record(session, rec_type, term.span)
    row = session.template_row(term.label, session.fresh(STAR))
    session.unify(rec_type, TApp(REC, row), term.span)
    return TApp(REC, TRow({}, row.tail))


_RULES = {
    Var: _infer_var,
    Lit: _infer_lit,
    Lam: _infer_lam,
    App: _infer_app,
    Let: _infer_let,
    RecordLit: _infer_record,
    Select: _infer_select,
    Extend: _infer_extend,
    Restrict: _infer_restrict,
}


def infer_program(
    src: str,
    env: TypeEnv | None = None,
    delta: dict[int, Kind] = {},
) -> Scheme:
    """Parse, kind-check, infer, and generalize a whole program.

    Stage one kind-checks every scheme in the initial environment `env`
    (the only type annotations a program has) under `delta`, which maps
    the ids of the environment's free type variables to their kinds and
    is only read; constructors take their kinds from `BASE_CONSTRUCTORS`.
    Stage two runs inference and generalizes at top level.  The returned
    scheme has canonically ordered rows.  Raises ParseError, KindFailure,
    or one of the inference errors; the first failing stage wins.
    """
    term = parse_term(src)
    gamma = env if env is not None else TypeEnv()
    top = -1
    free_rows: dict[int, frozenset[str]] = {}  # the labels the environment's free row variables lack
    for _, scheme in gamma:
        try:
            check_scheme(delta, scheme)
        except (KindError, UnboundTypeName) as exc:
            raise KindFailure(exc) from exc
        rows: dict[int, frozenset[str]] = {}
        top = max(top, scan_rows(scheme.body, rows), *(v.id for v in scheme.quantified))
        for v in scheme.quantified:
            rows.pop(v.id, None)
        for vid, labels in rows.items():
            free_rows[vid] = free_rows.get(vid, frozenset()).union(labels)
    session = InferSession(fresh_start=top + 1, env=gamma)
    session.subst.lacks.update(free_rows)
    session.level += 1
    inferred = _RULES[term.__class__](session, {}, term)
    session.level -= 1
    result = generalize(session, inferred)
    return Scheme._normal(result.quantified, canonicalize(result.body), result.lacks)
