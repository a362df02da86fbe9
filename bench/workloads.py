"""Seeded inputs for the rowml benchmark, each with its expected verdict.

Every expected verdict here is written from the language's typing rules
and the README, never taken from the checker's own output.  A verdict is
either ``("ok", scheme)`` with the scheme as `rowml check` prints it, or
``("error", cls)`` with the name of the error class the checker must
report.

Input size, the x axis of the growth exponent, is a program's token
count (`token_count`) and an oracle problem's brute-force search space
(`problem_space`).
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

# Ladder sizes grow by a factor of about sqrt(2), so a log-log fit has
# evenly spaced points, and an odd point count keeps the median
# per-program time on one ladder point instead of between two.  Each top
# point checks in about 0.05-0.1 s: on a shared VM whose speed drops for
# seconds at a time, the best time of a 0.5 s input moved by up to a
# third between sets of runs and that of a 0.2 s input by a tenth, while
# inputs of tens of milliseconds moved by a few percent.
WIDE_RECORD_SIZES = (8, 11, 16, 23, 32, 45, 64)
LET_CHAIN_SIZES = (11, 16, 23, 32, 45, 64, 90)

# Corpus shape: every template at every size parameter, REPLICATES times
# with seeded labels and literals.  CLI_REPLICATES of the replicates of
# each template that needs no library go through `rowml check`; the rest,
# and every template that needs the library, go through `infer_program`
# with the prelude.
CORPUS_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
REPLICATES = 7
CLI_REPLICATES = 3

CLI, LIBRARY = "cli", "library"

# Schemes documented for samples/*.rml in the README.
SAMPLE_SCHEMES = {
    "records.rml": "∀a:*. (String -> String -> a) -> a",
    "twice.rml": "∀a:*. (a -> a) -> a -> a",
    "update.rml": "∀a:*. ∀b:row. Rec {x:a | b} -> Rec {x:String | b}",
}

# How `rowml check` words each error class, per the README and the
# messages of rowml.infer and rowml.unify.
ERROR_PHRASES = {
    "UnboundVariable": "unbound variable '",
    "Mismatch": "cannot unify ",
    "RowMissingLabel": " lacks label '",
    "DuplicateLabel": "duplicate record label '",
    "OccursCheck": "infinite type: ",
}

# The library prelude: row-polymorphic record helpers and List
# functions, as a user library would declare them.
PRELUDE = (
    ("nil", "List a"),
    ("cons", "a -> List a -> List a"),
    ("head", "List a -> a"),
    ("tail", "List a -> List a"),
    ("singleton", "a -> List a"),
    ("isEmpty", "List a -> Bool"),
    ("length", "List a -> Int"),
    ("append", "List a -> List a -> List a"),
    ("map", "(a -> b) -> List a -> List b"),
    ("filter", "(a -> Bool) -> List a -> List a"),
    ("foldr", "(a -> b -> b) -> b -> List a -> b"),
    ("foldl", "(b -> a -> b) -> b -> List a -> b"),
    ("concatMap", "(a -> List b) -> List a -> List b"),
    ("zip", "List a -> List b -> List (Rec {fst:a, snd:b})"),
    ("sum", "List Int -> Int"),
    ("true", "Bool"),
    ("false", "Bool"),
    ("not", "Bool -> Bool"),
    ("if", "Bool -> a -> a -> a"),
    ("eq", "a -> a -> Bool"),
    ("add", "Int -> Int -> Int"),
    ("sub", "Int -> Int -> Int"),
    ("mul", "Int -> Int -> Int"),
    ("concat", "String -> String -> String"),
    ("show", "Int -> String"),
    ("id", "a -> a"),
    ("const", "a -> b -> a"),
    ("compose", "(b -> c) -> (a -> b) -> a -> c"),
    ("flip", "(a -> b -> c) -> b -> a -> c"),
    ("fix", "(a -> a) -> a"),
    ("pair", "a -> b -> Rec {fst:a, snd:b}"),
    ("fst", "Rec {fst:a | r} -> a"),
    ("snd", "Rec {snd:a | r} -> a"),
    ("getName", "Rec {name:a | r} -> a"),
    ("setName", "a -> Rec {name:b | r} -> Rec {name:a | r}"),
    ("withId", "Rec {| r} -> Rec {id:Int | r}"),
    ("dropId", "Rec {id:a | r} -> Rec {| r}"),
    ("point", "Int -> Int -> Rec {x:Int, y:Int}"),
    ("moveX", "Int -> Rec {x:Int | r} -> Rec {x:Int | r}"),
    ("norm", "Rec {x:Int, y:Int | r} -> Int"),
)

# Record labels for generated programs; none is used by the prelude's
# record types, so templates can add them to any prelude record.
LABELS = (
    "age", "city", "cost", "flag", "kind", "mass", "note", "rank",
    "size", "tag", "title", "unit", "vol", "weight", "zone", "level",
)
WORDS = ("ana", "bo", "cy", "dee", "eli", "fay", "gus", "hal")

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*|\d+|\S')
_COMMENT = re.compile(r"--[^\n]*")


def token_count(src: str) -> int:
    """Lexical tokens in a program, comments excluded."""
    return len(_TOKEN.findall(_COMMENT.sub("", src)))


@dataclass(frozen=True)
class Program:
    """One program to check, how to check it, and its expected verdict."""

    name: str
    src: str
    path: str  # CLI or LIBRARY
    expected: tuple[str, str]
    size: int


def _letters():
    for suffix in itertools.count():
        for c in "abcdefghijklmnopqrstuvwxyz":
            yield c if suffix == 0 else f"{c}{suffix}"


def _row(fields: dict[str, str], tail: str | None = None) -> str:
    inner = ", ".join(f"{label}:{fields[label]}" for label in sorted(fields))
    if tail is not None:
        inner += f" | {tail}"
    return "{" + inner + "}"


def _value(rng: random.Random) -> tuple[str, str]:
    if rng.random() < 0.5:
        return str(rng.randrange(1000)), "Int"
    return f'"{rng.choice(WORDS)}"', "String"


def _fields(rng: random.Random, k: int) -> tuple[list[str], list[tuple[str, str]]]:
    labels = rng.sample(LABELS, k)
    return labels, [_value(rng) for _ in labels]


def _literal(labels, values) -> str:
    return "{" + ", ".join(f"{l} = {v}" for l, (v, _) in zip(labels, values)) + "}"


def _types(labels, values) -> dict[str, str]:
    return {l: t for l, (_, t) in zip(labels, values)}


def _ok(scheme: str) -> tuple[str, str]:
    return ("ok", scheme)


def _error(cls: str) -> tuple[str, str]:
    return ("error", cls)


# -- templates that need no library ------------------------------------------
# Each takes (rng, k) and returns (source, expected verdict).


def t_record_literal(rng, k):
    labels, values = _fields(rng, k)
    return _literal(labels, values), _ok("Rec " + _row(_types(labels, values)))


def t_select(rng, k):
    labels, values = _fields(rng, k)
    j = rng.randrange(k)
    return f"let r = {_literal(labels, values)} in r.{labels[j]}", _ok(values[j][1])


def t_select_apply(rng, k):
    # f's argument types name first (in application order), then f's
    # result, then r's tail: pretty_scheme names by first occurrence.
    labels = rng.sample(LABELS, k)
    names = _letters()
    field_names = [next(names) for _ in labels]
    result, tail = next(names), next(names)
    args = " ".join(f"r.{l}" for l in labels)
    quantifiers = "".join(f"∀{n}:*. " for n in field_names + [result]) + f"∀{tail}:row. "
    f_type = " -> ".join(field_names + [result])
    rec = "Rec " + _row(dict(zip(labels, field_names)), tail)
    return f"\\f. \\r. f {args}", _ok(f"{quantifiers}({f_type}) -> {rec} -> {result}")


def t_extend(rng, k):
    labels, values = _fields(rng, k)
    fields = ", ".join(f"{l} = {v}" for l, (v, _) in zip(labels, values))
    scheme = f"∀a:row. Rec {{ | a}} -> Rec {_row(_types(labels, values), 'a')}"
    return f"\\r. {{{fields} | r}}", _ok(scheme)


def t_restrict(rng, k):
    # The argument row lists the removed labels in label order, so its
    # field variables are named in label order, then the tail.
    labels = rng.sample(LABELS, k)
    names = _letters()
    field_names = {l: next(names) for l in sorted(labels)}
    tail = next(names)
    quantifiers = "".join(f"∀{n}:*. " for n in field_names.values()) + f"∀{tail}:row. "
    removed = "".join(f" - {l}" for l in labels)
    scheme = f"{quantifiers}Rec {_row(field_names, tail)} -> Rec {{ | {tail}}}"
    return f"\\r. r{removed}", _ok(scheme)


def t_update(rng, k):
    labels, values = _fields(rng, k)
    names = _letters()
    field_names = {l: next(names) for l in sorted(labels)}
    tail = next(names)
    quantifiers = "".join(f"∀{n}:*. " for n in field_names.values()) + f"∀{tail}:row. "
    fields = ", ".join(f"{l} = {v}" for l, (v, _) in zip(labels, values))
    removed = "".join(f" - {l}" for l in labels)
    scheme = (
        f"{quantifiers}Rec {_row(field_names, tail)} -> "
        f"Rec {_row(_types(labels, values), tail)}"
    )
    return f"\\r. {{{fields} | r{removed}}}", _ok(scheme)


def t_church(rng, k):
    body = "f (" * (k - 1) + "f x" + ")" * (k - 1)
    if k == 1:
        return f"\\f. \\x. {body}", _ok("∀a:*. ∀b:*. (a -> b) -> a -> b")
    return f"\\f. \\x. {body}", _ok("∀a:*. (a -> a) -> a -> a")


def t_let_poly(rng, k):
    labels, values = _fields(rng, k)
    fields = ", ".join(f"{l} = id {v}" for l, (v, _) in zip(labels, values))
    return f"let id = \\x. x in {{{fields}}}", _ok("Rec " + _row(_types(labels, values)))


def t_wrap(rng, k):
    label = rng.choice(LABELS)
    value, vtype = _value(rng)
    body = "w (" * (k - 1) + f"w {value}" + ")" * (k - 1)
    expected = f"Rec {{{label}:" * k + vtype + "}" * k
    return f"let w = \\x. {{{label} = x}} in {body}", _ok(expected)


def t_nested_select(rng, k):
    labels = [rng.choice(LABELS) for _ in range(k)]
    value, vtype = _value(rng)
    literal = value
    for label in reversed(labels):
        literal = f"{{{label} = {literal}}}"
    path = "".join(f".{l}" for l in labels)
    return f"let r = {literal} in r{path}", _ok(vtype)


def e_unbound(rng, k):
    value, _ = _value(rng)
    lets = "".join(f"let v{i} = {value} in " for i in range(k))
    return f"{lets}undefined{rng.randrange(100)}", _error("UnboundVariable")


def e_mismatch(rng, k):
    labels, values = _fields(rng, k)
    values[0] = (str(rng.randrange(1000)), "Int")
    return f'let r = {_literal(labels, values)} in r.{labels[0]} "x"', _error("Mismatch")


def e_missing_label(rng, k):
    labels = rng.sample(LABELS, k + 1)
    values = [_value(rng) for _ in range(k)]
    return f"{_literal(labels[:k], values)}.{labels[k]}", _error("RowMissingLabel")


def e_duplicate_label(rng, k):
    labels, values = _fields(rng, k)
    again = rng.choice(labels)
    value, _ = _value(rng)
    return f"{{{again} = {value} | {_literal(labels, values)}}}", _error("DuplicateLabel")


def e_occurs(rng, k):
    labels, values = _fields(rng, k)
    fields = [f"{l} = {v}" for l, (v, _) in zip(labels[:-1], values[:-1])]
    fields.append(f"{labels[-1]} = x x")
    return "\\x. {" + ", ".join(fields) + "}", _error("OccursCheck")


# -- templates that need the prelude ------------------------------------------


def _list(items: list[str]) -> str:
    return "".join(f"cons {x} (" for x in items) + "nil" + ")" * len(items)


def l_map_field(rng, k):
    label, other = rng.sample(LABELS, 2)
    items = [f'{{{label} = "{rng.choice(WORDS)}", {other} = {rng.randrange(9)}}}' for _ in range(k)]
    return f"map (\\r. r.{label}) ({_list(items)})", _ok("List String")


def l_fold_sum(rng, k):
    items = [str(rng.randrange(100)) for _ in range(k)]
    return f"foldr add 0 ({_list(items)})", _ok("Int")


def l_set_name(rng, k):
    labels, values = _fields(rng, k)
    literal = _literal(labels + ["name"], values + [("1", "Int")])
    word = rng.choice(WORDS)
    expected = {**_types(labels, values), "id": "Int", "name": "String"}
    return f'setName "{word}" (withId {literal})', _ok("Rec " + _row(expected))


def l_move(rng, k):
    inner = f"point {rng.randrange(9)} {rng.randrange(9)}"
    for _ in range(k):
        inner = f"moveX {rng.randrange(9)} ({inner})"
    return f"norm ({inner})", _ok("Int")


def l_append_length(rng, k):
    items = [_list([str(rng.randrange(9))]) for _ in range(k)]
    inner = "nil"
    for item in items:
        inner = f"append ({item}) ({inner})"
    return f"length ({inner})", _ok("Int")


def l_zip_map(rng, k):
    xs = _list([str(rng.randrange(9)) for _ in range(k)])
    ys = _list([f'"{rng.choice(WORDS)}"' for _ in range(k)])
    return f"map fst (zip ({xs}) ({ys}))", _ok("List Int")


def l_poly(rng, k):
    label = rng.choice(LABELS)
    fun = f"\\r. r.{label}"
    for _ in range(k - 1):
        fun = f"compose id ({fun})"
    return f"\\xs. map ({fun}) xs", _ok(f"∀a:*. ∀b:row. List (Rec {{{label}:a | b}}) -> List a")


CORE_TEMPLATES = (
    t_record_literal, t_select, t_select_apply, t_extend, t_restrict,
    t_update, t_church, t_let_poly, t_wrap, t_nested_select,
    e_unbound, e_mismatch, e_missing_label, e_duplicate_label, e_occurs,
)
LIBRARY_TEMPLATES = (
    l_map_field, l_fold_sum, l_set_name, l_move, l_append_length, l_zip_map, l_poly,
)


def _program(name: str, src: str, path: str, expected) -> Program:
    return Program(name, src, path, expected, token_count(src))


def small_programs(seed: int, samples_dir: Path) -> list[Program]:
    """The corpus: samples/*.rml plus every template at every size, with
    seeded labels and literals."""
    rng = random.Random(seed)
    sample_files = sorted(samples_dir.glob("*.rml"))
    if sorted(p.name for p in sample_files) != sorted(SAMPLE_SCHEMES):
        raise FileNotFoundError(f"expected samples {sorted(SAMPLE_SCHEMES)} in {samples_dir}")
    programs: list[Program] = []
    for sample in sample_files:
        src = sample.read_text(encoding="utf-8")
        for i in range(REPLICATES):
            path = CLI if i < CLI_REPLICATES else LIBRARY
            programs.append(_program(sample.stem, src, path, _ok(SAMPLE_SCHEMES[sample.name])))
    for template in CORE_TEMPLATES + LIBRARY_TEMPLATES:
        for k in CORPUS_SIZES:
            for i in range(REPLICATES):
                src, expected = template(rng, k)
                core = template in CORE_TEMPLATES
                path = CLI if core and i < CLI_REPLICATES else LIBRARY
                programs.append(_program(f"{template.__name__}.{k}", src, path, expected))
    rng.shuffle(programs)
    return programs


def wide_record(seed: int) -> list[Program]:
    """``let r = {l0 = .., ..} in let y0 = r.l0 in .. in y``: every
    selection unifies against the whole closed row; every field is an
    Int, so the program has type Int."""
    rng = random.Random(seed)
    programs = []
    for n in WIDE_RECORD_SIZES:
        labels = [f"l{i}" for i in range(n)]
        literal = ", ".join(f"{l} = {rng.randrange(1000)}" for l in rng.sample(labels, n))
        order = rng.sample(labels, n)
        lets = "".join(f"let y{i} = r.{l} in " for i, l in enumerate(order))
        src = f"let r = {{{literal}}} in {lets}y{rng.randrange(n)}"
        programs.append(_program(f"wide_record.{n}", src, LIBRARY, _ok("Int")))
    return programs


def let_chain(seed: int) -> list[Program]:
    """``let f0 = \\r. {x0 = 0 | r} in .. in fj {}``: n polymorphic
    extenders, one applied to the empty record, so the program has type
    ``Rec {xj:Int}``."""
    rng = random.Random(seed)
    programs = []
    for n in LET_CHAIN_SIZES:
        lets = "".join(f"let f{i} = \\r. {{x{i} = {i} | r}} in " for i in range(n))
        j = rng.randrange(n)
        src = f"{lets}f{j} {{}}"
        programs.append(_program(f"let_chain.{n}", src, LIBRARY, _ok(f"Rec {{x{j}:Int}}")))
    return programs


# -- oracle campaign --------------------------------------------------------------

ORACLE_LABELS, ORACLE_TYPES, ORACLE_MAX_SIZE, ORACLE_SAMPLES = 3, 3, 3, 10_000


def _ground_rows() -> int:
    """Closed rows of sizes 0..max over the oracle's label and type alphabets."""
    return sum(
        math.comb(ORACLE_LABELS, s) * ORACLE_TYPES**s
        for s in range(min(ORACLE_MAX_SIZE, ORACLE_LABELS) + 1)
    )


def oracle_problem_count() -> int:
    """Problems in the `rowml oracle` default campaign: both sides range
    over every ground field map; the left side has no tail or rho1, the
    right side none, rho1 or rho2; plus the random samples."""
    return _ground_rows() * 2 * _ground_rows() * 3 + ORACLE_SAMPLES


def problem_space(problem) -> int:
    """Candidate assignments the brute-force oracle ranges over for a
    problem: every ground row for each row variable, every base type for
    each field variable."""
    row_vars = {side.tail.id for side in problem if side.tail is not None}
    star_vars = {t.var.id for side in problem for t in side.fields.values() if hasattr(t, "var")}
    return _ground_rows() ** len(row_vars) * ORACLE_TYPES ** len(star_vars)
