"""A semantic oracle for inference: well-typed programs do not get stuck
(Wright & Felleisen, "A syntactic approach to type soundness", 1994).

`evaluate` is a call-by-value interpreter for the term forms.  It gets
stuck where the typing rules promise that no program goes: on extending
a record with a label it already has, on selecting or restricting a
label a record lacks, on applying a value that is not a function, and
on an unbound variable.
"""

from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import example, given, settings

from rowml.infer import InferError, infer_program
from rowml.parser import parse_term
from rowml.syntax import (
    App,
    Extend,
    INT,
    Lam,
    Let,
    Lit,
    REC,
    RecordLit,
    Restrict,
    STRING,
    Select,
    TApp,
    TCon,
    TFun,
    TRow,
    Term,
    Type,
    Var,
)


class Stuck(Exception):
    """No evaluation rule applies."""


class OutOfFuel(Exception):
    """Evaluation took more steps than it was given."""


@dataclass(frozen=True, eq=False)
class Closure:
    param: str
    body: Term
    env: dict


def evaluate(term: Term, env: dict, fuel: list[int]):
    """The value of `term` under `env`, spending one unit of `fuel[0]`
    per step."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise OutOfFuel
    if isinstance(term, Var):
        if term.name not in env:
            raise Stuck(f"unbound variable {term.name}")
        return env[term.name]
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, Lam):
        return Closure(term.param, term.body, env)
    if isinstance(term, App):
        fun = evaluate(term.fun, env, fuel)
        arg = evaluate(term.arg, env, fuel)
        if not isinstance(fun, Closure):
            raise Stuck(f"applying {fun!r}")
        return evaluate(fun.body, {**fun.env, fun.param: arg}, fuel)
    if isinstance(term, Let):
        bound = evaluate(term.bound, env, fuel)
        return evaluate(term.body, {**env, term.name: bound}, fuel)
    if isinstance(term, RecordLit):
        return {label: evaluate(value, env, fuel) for label, value in term.fields.items()}
    if isinstance(term, Extend):
        value = evaluate(term.value, env, fuel)
        record = evaluate(term.record, env, fuel)
        if not isinstance(record, dict) or term.label in record:
            raise Stuck(f"extending {record!r} with {term.label}")
        return {**record, term.label: value}
    if isinstance(term, (Select, Restrict)):
        record = evaluate(term.record, env, fuel)
        if not isinstance(record, dict) or term.label not in record:
            raise Stuck(f"{record!r} has no {term.label}")
        if isinstance(term, Select):
            return record[term.label]
        return {label: v for label, v in record.items() if label != term.label}
    raise AssertionError(f"unexpected term node: {term!r}")


def has_shape(value, t: Type) -> bool:
    """Whether `value` is an Int, a String, a function or a record as `t`
    says; a type variable admits any value."""
    if t == INT:
        return isinstance(value, int)
    if t == STRING:
        return isinstance(value, str)
    if isinstance(t, TFun):
        return isinstance(value, Closure)
    if isinstance(t, TApp) and t.fun == REC and isinstance(t.arg, TRow):
        row = t.arg
        if not isinstance(value, dict) or not row.fields.keys() <= value.keys():
            return False
        if row.tail is None and value.keys() != row.fields.keys():
            return False
        return all(has_shape(value[label], f) for label, f in row.fields.items())
    return not isinstance(t, (TCon, TApp))


LABELS = st.sampled_from(("a", "b", "x"))


def expressions(names: tuple[str, ...]):
    """Terms over the variables `names` that build, extend, select from
    and restrict records; a `let` or lambda rebinds one of `names`."""
    leaves = st.one_of(st.sampled_from(names), st.sampled_from(("1", '"s"', "{}")))
    bound = st.sampled_from(names)

    def extend(inner):
        fields = st.dictionaries(LABELS, inner, min_size=1, max_size=2)
        return st.one_of(
            st.builds(lambda l, v, e: f"{{{l} = {v} | {e}}}", LABELS, inner, inner),
            st.builds(lambda e, l: f"({e}).{l}", inner, LABELS),
            st.builds(lambda e, l: f"({e}) - {l}", inner, LABELS),
            st.builds(lambda f, e: f"({f}) ({e})", inner, inner),
            st.builds(lambda n, v, e: f"(let {n} = {v} in {e})", bound, inner, inner),
            st.builds(lambda n, e: f"(\\{n}. {e})", bound, inner),
            fields.map(lambda fs: "{" + ", ".join(f"{l} = {v}" for l, v in fs.items()) + "}"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def record_literals():
    values = st.sampled_from(("1", '"s"', "{}", "{a = 1}"))
    return st.dictionaries(LABELS, values, min_size=1, max_size=3).map(
        lambda fs: "{" + ", ".join(f"{l} = {v}" for l, v in fs.items()) + "}"
    )


def applied_programs():
    """``(\\r. \\q. (\\s. \\t. \\u. e) e1 e2 e3) R Q`` for record literals
    R and Q.  Each argument e1, e2, e3 is a record literal, `r`, `q` or an
    expression over `r` and `q`, so that inference accepts about a fifth
    of the programs and they get evaluated."""
    outer = st.one_of(record_literals(), st.sampled_from(("r", "q")), expressions(("r", "q")))
    return st.builds(
        lambda e, e1, e2, e3, r, q: f"(\\r. \\q. (\\s. \\t. \\u. {e}) ({e1}) ({e2}) ({e3})) {r} {q}",
        expressions(("r", "q", "s", "t", "u")),
        outer,
        outer,
        outer,
        record_literals(),
        record_literals(),
    )


@settings(max_examples=500, deadline=None)
@given(applied_programs())
@example("(\\r. let s = {a = 1 | r} in 1) {a = 5}")
@example("(\\r. let s = {a = 1 | r} in r.a) {a = 5}")
@example("(\\r. let s = {a = 1 | r} in let t = 3 in r.a) {a = 5}")
@example("let f = \\r. (\\s. 1) {a = 1 | r} in f {a = 5}")
def test_well_typed_programs_do_not_get_stuck(src):
    try:
        scheme = infer_program(src)
    except InferError:
        return
    try:
        value = evaluate(parse_term(src), {}, [300])
    except OutOfFuel:
        return
    assert has_shape(value, scheme.body), (value, scheme)
