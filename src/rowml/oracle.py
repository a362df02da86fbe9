"""Brute-force ground oracle for row unification.

`ground_solutions` enumerates, over a small finite space, every
assignment of ground rows and base types to a problem's variables under
which both rows become the same label-to-type map.  `oracle_agrees`
compares that set with the set of ground instances of the unifier's
answer, so a wrong or over-specific substitution shows up as a set
difference rather than a syntactic mismatch.

The solution side is computed here by enumeration and map merging only;
it shares nothing with the unifier beyond the syntax types.  Comparison
is always relative to the space: both sides only count assignments
whose rows fit inside it, by size, labels and field types.

Ground rows are sorted (label, type name) tuples, numbered once per
space by `_ground_row_keys`.  The instance side loops over the images'
residual variables: for each choice of residual star types it grounds
every image once, and an open image `{F | rho}` reads its value for
each ground row of rho, by number, from the fit table `_fits(F, space)`,
which holds the merged row where it is duplicate-free and fits the
space and None elsewhere.  Every table is a `functools` cache keyed by
ground rows and the space, whose hash is computed once.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterable, Iterator, Optional

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
    free_vars_ordered,
)

Problem = tuple[TRow, TRow]
GroundRow = tuple[tuple[str, str], ...]  # sorted (label, type name) pairs
Assignment = frozenset  # of (variable id, GroundRow | type name)


class GroundSpace(_Node):
    """The finite space ground solutions are drawn from: at least one
    label and one base type, and rows of at most `max_row_size` fields.

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
        if max_row_size < 0:
            raise ValueError(f"max_row_size must not be negative, got {max_row_size}")
        _set(self, "labels", labels)
        _set(self, "base_types", base_types)
        _set(self, "max_row_size", max_row_size)
        _set(self, "type_names", tuple(t.name for t in base_types))
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
def _merge(fields: GroundRow, extra: GroundRow) -> Optional[GroundRow]:
    """Union of two ground rows, or None when a label repeats."""
    if not fields:
        return extra
    if not extra:
        return fields
    merged = fields + extra
    if len({label for label, _ in merged}) < len(merged):
        return None
    return tuple(sorted(merged))


@lru_cache(maxsize=None)
def _absorption_index(fields: GroundRow, space: GroundSpace) -> dict[GroundRow, tuple[GroundRow, ...]]:
    """For an open side with the given fields: merged result -> the
    ground rows its tail can take to produce it."""
    index: dict[GroundRow, list[GroundRow]] = {}
    for key in _ground_row_keys(space):
        merged = _merge(fields, key)
        if merged is not None:
            index.setdefault(merged, []).append(key)
    return {merged: tuple(keys) for merged, keys in index.items()}


def _problem_vars(problem: Problem) -> tuple[list[TypeVar], list[TypeVar]]:
    """Row tails and star-kinded field variables, in a fixed order."""
    row_vars: list[TypeVar] = []
    star_vars: list[TypeVar] = []
    for side in problem:
        for label in sorted(side.fields):
            t = side.fields[label]
            if isinstance(t, TCon):
                continue
            if isinstance(t, TypeVar) and t.kind is STAR:
                if t not in star_vars:
                    star_vars.append(t)
                continue
            raise ValueError(
                "oracle problems allow only base types and plain type variables in fields"
            )
        if side.tail is not None and side.tail not in row_vars:
            row_vars.append(side.tail)
    if len(row_vars) > 2:
        raise ValueError("oracle problems allow at most two distinct row variables")
    return row_vars, star_vars


def _ground_fields(side: TRow, star_env: dict[int, str]) -> GroundRow:
    return tuple(
        sorted(
            [
                (label, t.name if isinstance(t, TCon) else star_env[t.id])
                for label, t in side.fields.items()
            ]
        )
    )


def ground_solutions(problem: Problem, space: GroundSpace) -> set[Assignment]:
    """Every assignment of ground rows/types (within the space) to the
    problem's variables making both sides the same label-to-type map."""
    r1, r2 = problem
    row_vars, star_vars = _problem_vars(problem)
    rows = _ground_row_keys(space)
    solutions: set[Assignment] = set()
    tail1, tail2 = r1.tail, r2.tail
    star_ids = [v.id for v in star_vars]
    for combo in itertools.product(space.type_names, repeat=len(star_vars)):
        star_items = tuple(zip(star_ids, combo))
        star_env = dict(star_items)
        fields1 = _ground_fields(r1, star_env)
        fields2 = _ground_fields(r2, star_env)
        if tail1 is None and tail2 is None:
            if fields1 == fields2:
                solutions.add(frozenset(star_items))
        elif tail1 is not None and tail2 is not None and tail1.id == tail2.id:
            # A tail row merged into both sides leaves them equal exactly
            # when their own fields are, the merges being disjoint unions.
            if fields1 == fields2:
                for key in rows:
                    if _merge(fields1, key) is not None:
                        solutions.add(frozenset(star_items + ((tail1.id, key),)))
        elif tail1 is not None and tail2 is not None:
            index1 = _absorption_index(fields1, space)
            index2 = _absorption_index(fields2, space)
            for merged in index1.keys() & index2.keys():
                for key1 in index1[merged]:
                    for key2 in index2[merged]:
                        solutions.add(
                            frozenset(star_items + ((tail1.id, key1), (tail2.id, key2)))
                        )
        else:
            if tail1 is not None:
                open_fields, open_tail, closed_fields = fields1, tail1, fields2
            else:
                open_fields, open_tail, closed_fields = fields2, tail2, fields1
            index = _absorption_index(open_fields, space)
            for key in index.get(closed_fields, ()):
                solutions.add(frozenset(star_items + ((open_tail.id, key),)))
    return solutions


def _within(row: GroundRow, space: GroundSpace) -> bool:
    """Whether the ground row fits the space's size, labels and types."""
    return len(row) <= space.max_row_size and all(
        label in space.labels and name in space.type_names for label, name in row
    )


@lru_cache(maxsize=None)
def _fits(fields: GroundRow, space: GroundSpace) -> tuple[Optional[GroundRow], ...]:
    """For an image `{fields | rho}`: by the index of each ground row of
    rho, the merged row when it is duplicate-free and within the space,
    else None."""
    table: list[Optional[GroundRow]] = []
    for key in _ground_row_keys(space):
        merged = _merge(fields, key)
        table.append(merged if merged is not None and _within(merged, space) else None)
    return tuple(table)


def _instances_within(sigma, problem: Problem, space: GroundSpace) -> set[Assignment]:
    """Ground instances of the substitution, restricted to assignments
    that fit in the space (size, labels and types) and are admissible
    for the problem: substituting them keeps both rows duplicate-free.

    The residual variables of the images range over the space.  For each
    choice of residual star types, every row variable's image and every
    open side of the problem are grounded once; an open image
    `{F | rho}` then reads its value for each ground row of rho, by index,
    from the table `_fits(F, space)`, so the loop over residual rows does
    one table read per row variable and one merge per open side."""
    row_vars, star_vars = _problem_vars(problem)
    images: dict[int, Type] = {}
    for v in row_vars:
        image = sigma.mapping.get(v.id, v)
        images[v.id] = TRow({}, image) if isinstance(image, TypeVar) else image
    for v in star_vars:
        images[v.id] = sigma.mapping.get(v.id, v)

    residual_rows: list[TypeVar] = []
    residual_stars: list[TypeVar] = []
    for v in row_vars + star_vars:
        for free in free_vars_ordered(images[v.id]):
            bucket = residual_rows if free.kind is ROW else residual_stars
            if free not in bucket:
                bucket.append(free)
    position = {v.id: i for i, v in enumerate(residual_rows)}
    indices = range(len(_ground_row_keys(space)))
    choices = list(itertools.product(indices, repeat=len(residual_rows)))

    out: set[Assignment] = set()
    for star_choice in itertools.product(space.type_names, repeat=len(residual_stars)):
        star_env = {v.id: name for v, name in zip(residual_stars, star_choice)}
        values: dict[int, str | GroundRow] = {}
        for v in star_vars:
            image = images[v.id]
            values[v.id] = image.name if isinstance(image, TCon) else star_env[image.id]
        open_sides = [
            (_ground_fields(side, values), side.tail.id)
            for side in problem
            if side.tail is not None
        ]
        tables: list[tuple[int, tuple[Optional[GroundRow], ...], int]] = []
        for v in row_vars:
            image = images[v.id]
            fields = _ground_fields(image, star_env)
            if image.tail is not None:
                tables.append((v.id, _fits(fields, space), position[image.tail.id]))
            elif _within(fields, space):
                values[v.id] = fields
            else:
                break
        else:
            for choice in choices:
                for vid, table, at in tables:
                    value = table[choice[at]]
                    if value is None:
                        break
                    values[vid] = value
                else:
                    if all(_merge(fields, values[tail]) is not None for fields, tail in open_sides):
                        out.add(frozenset(values.items()))
    return out


def oracle_agrees(problem: Problem, space: GroundSpace, unifier=None) -> bool:
    """Run the unifier and the brute-force enumeration on one problem.

    True when both report no solution, or when the unifier's answer (a)
    actually unifies the two rows and (b) has exactly the brute-forced
    ground solutions as its instances within the space.
    """
    from rowml.unify import UnifyError, unify_rows

    run = unifier if unifier is not None else unify_rows
    r1, r2 = problem
    try:
        sigma = run(r1, r2, FreshVars(1_000_000))
    except UnifyError:
        sigma = None
    solutions = ground_solutions(problem, space)
    if sigma is None:
        return not solutions
    try:
        if sigma.apply(r1) != sigma.apply(r2):  # rows compare modulo field order
            return False
    except UnifyError:
        return False
    return _instances_within(sigma, problem, space) == solutions


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
    for fields1 in sides:
        for tail1 in (None, _RHO1):
            left = TRow(fields1, tail1)
            for fields2 in sides:
                for tail2 in (None, _RHO1, _RHO2):
                    yield (left, TRow(fields2, tail2))


def sample_problems(
    count: int, space: GroundSpace, seed: int = 0
) -> Iterator[Problem]:
    """Randomized problems over the space; fields may also be the shared
    type variables so pointwise unification gets exercised."""
    rng = random.Random(seed)
    type_pool: list[Type] = list(space.base_types)
    var_pool: list[Type] = [_ALPHA, _BETA]
    max_fields = min(3, len(space.labels))

    def side(tails: tuple) -> TRow:
        size = rng.randint(0, max_fields)
        labels = rng.sample(sorted(space.labels), size)
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
