"""Brute-force ground oracle for row unification.

`ground_solutions` enumerates, over a small finite space, every
assignment of ground rows and base types to a problem's variables under
which both rows become the same label-to-type map.  `oracle_agrees`
checks the unifier's answer against that set twice.  The answer must
make both rows equal, so that each of its ground instances within the
space that keeps both rows duplicate-free is a solution.  And every
solution must be an instance of it, which `_is_instance` finds by
matching the solution against the answer's images, so that no instance
is enumerated.  Together the two say that the answer's instances within
the space are exactly the solutions, as for a most general unifier;
a wrong or over-specific substitution fails one of them.

The solution side is computed here by enumeration and map merging only;
it shares nothing with the unifier beyond the syntax types.  Comparison
is always relative to the space: solutions only count assignments whose
rows fit inside it, by size, labels and field types.

A verdict runs the unifier once, in a new store that `scan_rows` seeds,
reaching it through the module attribute `rowml.unify.unify_rows` so
that a wrapper put there sees the call, and reads the triangular store
it returns through `Subst.apply`.  It sorts each side's fields once and
grounds them for every choice of field types.  Work that does not
depend on the problem is done once per campaign: `exhaustive_problems`
builds its right-hand sides once and pairs every left side with them,
and the tables below are built once per space.

Ground rows are sorted (label, type name) tuples, numbered once per
space by `_ground_row_keys`, and each has a bitmask of its labels,
`_row_masks`.  An assignment is a plain tuple of values, one per
problem variable in the order `_problem_vars` gives: the row tails,
then the star field variables, each by first appearance, left side
first and labels sorted.  Every assignment of a problem covers the same
variables, so the tuples stand one-to-one for the sets of (variable id,
value) pairs they spell.

Every table is a `functools` cache keyed by the space, whose hash is
computed once, and at most one fields row or mask; none is keyed by a
pair of ground rows.  `_absorption_index` holds, for fields F, at most
one entry per ground row, and merges F only with the rows that lack
all of F's labels, so the oracle's memory grows with the number of
ground rows, not its square.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from collections.abc import Iterable, Iterator

from rowml import unify
from rowml.syntax import (
    BOOL,
    FreshVars,
    INT,
    ROW,
    STAR,
    STRING,
    TCon,
    TRow,
    Type,
    TypeVar,
    _Node,
    _set,
    scan_rows,
)

Problem = tuple[TRow, TRow]
GroundRow = tuple[tuple[str, str], ...]  # sorted (label, type name) pairs
Assignment = tuple  # GroundRow | type name, by position in `_problem_vars`
ProblemVars = tuple[list[TypeVar], list[TypeVar]]  # row tails, star field variables


class GroundSpace(_Node):
    """The finite space ground solutions are drawn from: at least one
    label and one base type, none repeated, and rows of at most
    `max_row_size` fields.

    Every oracle table is cached per space, so the space's hash is taken
    once, here, rather than on each lookup; `type_names` is fixed too."""

    __slots__ = ("labels", "base_types", "max_row_size", "type_names", "_hash")
    __match_args__ = ("labels", "base_types", "max_row_size")
    labels: tuple[str, ...]
    base_types: tuple[TCon, ...]
    max_row_size: int

    def __init__(
        self,
        labels: tuple[str, ...] = ("a", "b", "c", "d"),
        base_types: tuple[TCon, ...] = (INT, BOOL, STRING),
        max_row_size: int = 3,
    ) -> None:
        if not labels or not base_types:
            raise ValueError("a ground space needs at least one label and one base type")
        type_names = tuple(t.name for t in base_types)
        if len(set(labels)) < len(labels) or len(set(type_names)) < len(type_names):
            raise ValueError("a ground space's labels and base types must not repeat")
        if max_row_size < 0:
            raise ValueError(f"max_row_size must not be negative, got {max_row_size}")
        _set(self, "labels", labels)
        _set(self, "base_types", base_types)
        _set(self, "max_row_size", max_row_size)
        _set(self, "type_names", type_names)
        _set(self, "_hash", hash((labels, base_types, max_row_size)))

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=None)
def _ground_row_keys(space: GroundSpace) -> tuple[GroundRow, ...]:
    labels = tuple(sorted(space.labels))
    names = space.type_names
    keys: list[GroundRow] = []
    for size in range(min(space.max_row_size, len(labels)) + 1):
        for combo in itertools.combinations(labels, size):
            for types in itertools.product(names, repeat=size):
                keys.append(tuple(zip(combo, types)))
    return tuple(keys)


@lru_cache(maxsize=None)
def _label_bits(space: GroundSpace) -> dict[str, int]:
    """A bit of its own for each label of the space, by sorted order."""
    return {label: 1 << i for i, label in enumerate(sorted(space.labels))}


@lru_cache(maxsize=None)
def _row_masks(space: GroundSpace) -> tuple[int, ...]:
    """By the index of each ground row of the space, its labels' bits."""
    return tuple(_labels_mask(dict(key), space) for key in _ground_row_keys(space))


@lru_cache(maxsize=None)
def _rows_lacking(lacks: int, space: GroundSpace) -> tuple[int, ...]:
    """The indices of the space's ground rows with none of the labels
    whose bits are set in `lacks`."""
    return tuple(i for i, mask in enumerate(_row_masks(space)) if not mask & lacks)


def _labels_mask(labels: Iterable[str], space: GroundSpace) -> int:
    """The bits of the given labels; a label outside the space has none."""
    bits = _label_bits(space)
    return sum(bits.get(label, 0) for label in labels)


def _merge(fields: GroundRow, extra: GroundRow) -> GroundRow:
    """Union of two ground rows with no label in common, sorted."""
    if not fields:
        return extra
    if not extra:
        return fields
    return tuple(sorted(fields + extra))


@lru_cache(maxsize=None)
def _absorption_index(fields: GroundRow, space: GroundSpace) -> dict[GroundRow, GroundRow]:
    """For an open side with the given fields: merged result -> the one
    ground row its tail takes to produce it, the merged row less the
    fields.  Only the rows lacking every label of the fields are
    merged; a row that clashes with them yields no entry."""
    keys = _ground_row_keys(space)
    lacking = _rows_lacking(_labels_mask(dict(fields), space), space)
    return {_merge(fields, keys[i]): keys[i] for i in lacking}


def _problem_vars(problem: Problem) -> ProblemVars:
    """Row tails and star-kinded field variables, in a fixed order: by
    first appearance, left side first, each side's fields by label.  Each
    list drops repeats by id, with an id set of its own, so a tail and a
    field variable that share an id are both kept."""
    row_vars: list[TypeVar] = []
    star_vars: list[TypeVar] = []
    row_ids: set[int] = set()
    star_ids: set[int] = set()
    for side in problem:
        for label in sorted(side.fields):
            t = side.fields[label]
            if isinstance(t, TCon):
                continue
            if isinstance(t, TypeVar) and t.kind is STAR:
                if t.id not in star_ids:
                    star_ids.add(t.id)
                    star_vars.append(t)
                continue
            raise ValueError(
                "oracle problems allow only base types and plain type variables in fields"
            )
        tail = side.tail
        if tail is not None and tail.id not in row_ids:
            row_ids.add(tail.id)
            row_vars.append(tail)
    return row_vars, star_vars


def _ground_fields(fields: list[tuple[str, Type]], star_env: dict[int, str]) -> GroundRow:
    """The ground row of a side's fields, given as `sorted(side.fields.items())`
    so that a problem sorts each side once, not once per star choice."""
    return tuple(
        [(label, t.name if isinstance(t, TCon) else star_env[t.id]) for label, t in fields]
    )


def ground_solutions(
    problem: Problem, space: GroundSpace, problem_vars: ProblemVars | None = None
) -> set[Assignment]:
    """Every assignment of ground rows/types (within the space) to the
    problem's variables making both sides the same label-to-type map,
    each a tuple of the tails' ground rows and then the field variables'
    type names, in `_problem_vars` order.  `problem_vars` is
    `_problem_vars(problem)`, when the caller has it."""
    r1, r2 = problem
    row_vars, star_vars = problem_vars or _problem_vars(problem)
    rows = _ground_row_keys(space)
    solutions: set[Assignment] = set()
    tail1, tail2 = r1.tail, r2.tail
    items1, items2 = sorted(r1.fields.items()), sorted(r2.fields.items())
    star_ids = [v.id for v in star_vars]
    for combo in itertools.product(space.type_names, repeat=len(star_vars)):
        star_env = dict(zip(star_ids, combo))
        fields1 = _ground_fields(items1, star_env)
        fields2 = _ground_fields(items2, star_env)
        if tail1 is None and tail2 is None:
            if fields1 == fields2:
                solutions.add(combo)
        elif tail1 is not None and tail2 is not None and tail1.id == tail2.id:
            # A tail row merged into both sides leaves them equal exactly
            # when their own fields are, the merges being disjoint unions.
            if fields1 == fields2:
                for i in _rows_lacking(_labels_mask(r1.fields, space), space):
                    solutions.add((rows[i],) + combo)
        elif tail1 is not None and tail2 is not None:
            index1 = _absorption_index(fields1, space)
            index2 = _absorption_index(fields2, space)
            for merged in index1.keys() & index2.keys():
                solutions.add((index1[merged], index2[merged]) + combo)
        else:
            if tail1 is not None:
                open_fields, closed_fields = fields1, fields2
            else:
                open_fields, closed_fields = fields2, fields1
            key = _absorption_index(open_fields, space).get(closed_fields)
            if key is not None:
                solutions.add((key,) + combo)
    return solutions


def _images(sigma, problem_vars: ProblemVars) -> list[Type]:
    """The answer's image of each problem variable, in `_problem_vars`
    order, read through `sigma.apply`; a row variable's is a row."""
    row_vars, star_vars = problem_vars
    rows = [sigma.apply(v) for v in row_vars]
    rows = [TRow({}, t) if t.__class__ is TypeVar else t for t in rows]
    return rows + [sigma.apply(v) for v in star_vars]


def _is_instance(values: Assignment, images: list[Type]) -> bool:
    """Whether the assignment is an instance of the answer whose
    `_images` are given: whether one binding of the images' variables to
    ground rows and type names gives each problem variable its value.  A
    row image's fields take their values by label, and the rest of the
    value goes to its tail, or must be empty when it is closed; each
    variable of the images takes one value across all of them."""
    env: dict[TypeVar, GroundRow | str] = {}
    for image, value in zip(images, values):
        if image.__class__ is TRow:
            fields = image.fields
            rest = []
            for label, name in value:
                t = fields.get(label)
                if t is None:
                    rest.append((label, name))
                elif t.__class__ is TCon:
                    if t.name != name:
                        return False
                elif t.__class__ is not TypeVar or env.setdefault(t, name) != name:
                    return False
            if len(rest) + len(fields) != len(value):
                return False  # a field of the image has no value
            if image.tail is not None:
                rest = tuple(rest)  # still sorted
                if env.setdefault(image.tail, rest) != rest:
                    return False
            elif rest:
                return False
        elif image.__class__ is TCon:
            if image.name != value:
                return False
        elif image.__class__ is not TypeVar or env.setdefault(image, value) != value:
            return False
    return True


def oracle_agrees(problem: Problem, space: GroundSpace, unifier=None) -> bool:
    """Run the unifier and the brute-force enumeration on one problem.

    True when both report no solution, or when the unifier's answer (a)
    makes the two rows equal and (b) has every brute-forced ground
    solution as an instance.  By (a), every instance of the answer that
    keeps both rows duplicate-free within the space is a solution; by
    (b), every solution is such an instance; so together they say that
    its instances are exactly the solutions.  `unifier`, if given,
    stands in for `unify.unify_rows` and takes the same arguments.
    """
    run = unifier if unifier is not None else unify.unify_rows
    r1, r2 = problem
    store = unify.Subst()
    scan_rows(r1, store.lacks)
    scan_rows(r2, store.lacks)
    try:
        sigma = run(r1, r2, FreshVars(1_000_000), store)
    except unify.UnifyError:
        sigma = None
    problem_vars = _problem_vars(problem)
    solutions = ground_solutions(problem, space, problem_vars)
    if sigma is None:
        return not solutions
    try:
        if sigma.apply(r1) != sigma.apply(r2):  # rows compare modulo field order
            return False
    except unify.UnifyError:
        return False
    images = _images(sigma, problem_vars)
    return all(_is_instance(values, images) for values in solutions)


# ---------------------------------------------------------------------------
# Problem generators and campaigns

_RHO1 = TypeVar(1, ROW)
_RHO2 = TypeVar(2, ROW)
_ALPHA = TypeVar(3, STAR)
_BETA = TypeVar(4, STAR)


def exhaustive_problems(space: GroundSpace) -> Iterator[Problem]:
    """Every problem whose sides use ground fields over the space's
    labels and at most one tail per side (two row variables total)."""
    field_maps = [dict(key) for key in _ground_row_keys(space)]
    by_name = {t.name: t for t in space.base_types}
    sides = [
        {label: by_name[name] for label, name in fm.items()} for fm in field_maps
    ]
    rights = [TRow(fields2, tail2) for fields2 in sides for tail2 in (None, _RHO1, _RHO2)]
    for fields1 in sides:
        for tail1 in (None, _RHO1):
            left = TRow(fields1, tail1)
            for right in rights:
                yield (left, right)


def sample_problems(
    count: int, space: GroundSpace, seed: int = 0
) -> Iterator[Problem]:
    """Randomized problems over the space; fields may also be the shared
    type variables so pointwise unification gets exercised."""
    rng = random.Random(seed)
    type_pool: list[Type] = list(space.base_types)
    var_pool: list[Type] = [_ALPHA, _BETA]
    max_fields = min(3, len(space.labels))
    alphabet = sorted(space.labels)

    def side(tails: tuple) -> TRow:
        size = rng.randint(0, max_fields)
        labels = rng.sample(alphabet, size)
        fields: dict[str, Type] = {}
        for label in labels:
            if rng.random() < 0.2:
                fields[label] = rng.choice(var_pool)
            else:
                fields[label] = rng.choice(type_pool)
        return TRow(fields, rng.choice(tails))

    for _ in range(count):
        yield (side((None, _RHO1)), side((None, _RHO1, _RHO2)))


class CampaignResult(_Node):
    __slots__ = __match_args__ = ("problems", "failures", "first_failure")
    problems: int
    failures: int
    first_failure: Problem | None

    def __init__(self, problems: int, failures: int, first_failure: Problem | None = None) -> None:
        _set(self, "problems", problems)
        _set(self, "failures", failures)
        _set(self, "first_failure", first_failure)


def run_campaign(
    problems: Iterable[Problem], space: GroundSpace, unifier=None
) -> CampaignResult:
    """oracle_agrees over a stream of problems, counting disagreements."""
    total = failures = 0
    first: Problem | None = None
    for problem in problems:
        total += 1
        if not oracle_agrees(problem, space, unifier):
            failures += 1
            if first is None:
                first = problem
    return CampaignResult(total, failures, first)
