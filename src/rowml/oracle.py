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

A verdict runs the unifier once, in a new store that `scan_rows` seeds,
reaching it through the module attribute `rowml.unify.unify_rows` so
that a wrapper put there sees the call, and reads the triangular store
it returns through `Subst.apply`.  It sorts each side's fields once and
grounds them for every choice of field types, and grounds the unifier's
answer only when there is one.  Work that does not depend on the problem is done once per
campaign: `exhaustive_problems` builds its right-hand sides once and
pairs every left side with them, and the tables below are built once
per space.

Ground rows are sorted (label, type name) tuples, numbered once per
space by `_ground_row_keys`, and each has a bitmask of its labels,
`_row_masks`.  An assignment is a plain tuple of values, one per
problem variable in the order `_problem_vars` gives: the row tails,
then the star field variables, each by first appearance, left side
first and labels sorted.  Every assignment of a problem covers the same
variables, so the tuples stand one-to-one for the sets of (variable id,
value) pairs they spell.  The instance side loops over the images'
residual variables: for each choice of residual star types it grounds
every image once, and an open image `{F | rho}` reads its value for each
ground row of rho, by number, from the fit table `_fits(F, space)`,
which holds the merged row where it is duplicate-free and fits the
space and None elsewhere.  Whether a problem's side `{G | v}` stays
duplicate-free depends on labels alone, so it is settled before the
loop: rho ranges only over the ground rows whose mask shares no bit
with G's labels, which `_rows_lacking` lists once per mask.

Every table is a `functools` cache keyed by the space, whose hash is
computed once, and at most one fields row or mask; none is keyed by a
pair of ground rows.  `_fits` and `_absorption_index` hold, for fields
F, at most one entry per ground row, and merge F only with the rows
that lack all of F's labels, so the oracle's memory grows with the
number of ground rows, not its square.
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
    free_vars_ordered,
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


def _within(row: GroundRow, space: GroundSpace) -> bool:
    """Whether the ground row fits the space's size, labels and types."""
    return len(row) <= space.max_row_size and all(
        label in space.labels and name in space.type_names for label, name in row
    )


@lru_cache(maxsize=None)
def _fits(fields: GroundRow, space: GroundSpace) -> tuple[GroundRow | None, ...]:
    """For an image `{fields | rho}`: by the index of each ground row of
    rho, the merged row when it is duplicate-free and within the space,
    else None.  Only the rows lacking every label of the fields are
    merged; a clashing row stays None."""
    keys = _ground_row_keys(space)
    table: list[GroundRow | None] = [None] * len(keys)
    for i in _rows_lacking(_labels_mask(dict(fields), space), space):
        merged = _merge(fields, keys[i])
        if _within(merged, space):
            table[i] = merged
    return tuple(table)


def _instances_within(
    sigma, problem: Problem, space: GroundSpace, problem_vars: ProblemVars | None = None
) -> set[Assignment]:
    """Ground instances of the substitution, restricted to assignments
    that fit in the space (size, labels and types) and are admissible
    for the problem: substituting them keeps both rows duplicate-free.
    Each is a tuple of values in `_problem_vars` order, as in
    `ground_solutions`.  `problem_vars` is `_problem_vars(problem)`, when
    the caller has it.  Images are read through `sigma.apply`, so a
    triangular store gives what its resolved copy gives.

    The residual variables of the images range over the space.  An open
    side `{G | v}` of the problem stays duplicate-free when the value of
    `v` has none of G's labels.  Labels do not depend on the residual
    star types, so that is settled once: when the image of `v` has one of
    them in its own fields no instance is admissible, and when the image
    is open, `{F | rho}`, rho takes only the ground rows whose label mask
    (`_row_masks`) shares no bit with G's.  Then, for each choice of
    residual star types, every row variable's image is grounded once, and
    an open image reads its value for each ground row of its residual
    tail, by index, from the table `_fits(F, space)`; the loop over
    residual rows does one table read per row variable and no merge."""
    row_vars, star_vars = problem_vars or _problem_vars(problem)
    images: dict[int, TRow] = {}
    row_images: list[tuple[list[tuple[str, Type]], TypeVar | None]] = []
    for v in row_vars:
        image = sigma.apply(v)
        if isinstance(image, TypeVar):
            image = TRow({}, image)
        images[v.id] = image
        row_images.append((sorted(image.fields.items()), image.tail))
    star_images = [sigma.apply(v) for v in star_vars]

    # The residual variables by id, in order of first appearance.
    residual_rows: dict[int, TypeVar] = {}
    residual_stars: dict[int, TypeVar] = {}
    for image in [*images.values(), *star_images]:
        for free in free_vars_ordered(image):
            (residual_rows if free.kind is ROW else residual_stars).setdefault(free.id, free)
    position = {vid: i for i, vid in enumerate(residual_rows)}
    clashing = [0] * len(residual_rows)  # per residual row, the labels it must lack
    for side in problem:
        if side.tail is not None:
            image = images[side.tail.id]
            if side.fields.keys() & image.fields.keys():
                return set()
            if image.tail is not None:
                clashing[position[image.tail.id]] |= _labels_mask(side.fields, space)
    choices = list(itertools.product(*[_rows_lacking(lacks, space) for lacks in clashing]))

    out: set[Assignment] = set()
    for star_choice in itertools.product(space.type_names, repeat=len(residual_stars)):
        star_env = dict(zip(residual_stars, star_choice))
        # One slot per problem variable: the row tails', then the stars'.
        values: list[GroundRow | str | None] = [None] * len(row_images)
        for image in star_images:
            values.append(image.name if isinstance(image, TCon) else star_env[image.id])
        tables: list[tuple[int, tuple[GroundRow | None, ...], int]] = []
        for slot, (items, tail) in enumerate(row_images):
            fields = _ground_fields(items, star_env)
            if tail is not None:
                tables.append((slot, _fits(fields, space), position[tail.id]))
            elif _within(fields, space):
                values[slot] = fields
            else:
                break
        else:
            for choice in choices:
                for slot, table, at in tables:
                    value = table[choice[at]]
                    if value is None:
                        break
                    values[slot] = value
                else:
                    out.add(tuple(values))
    return out


def oracle_agrees(problem: Problem, space: GroundSpace, unifier=None) -> bool:
    """Run the unifier and the brute-force enumeration on one problem.

    True when both report no solution, or when the unifier's answer (a)
    actually unifies the two rows and (b) has exactly the brute-forced
    ground solutions as its instances within the space.  `unifier`, if
    given, stands in for `unify.unify_rows` and takes the same arguments.
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
    return _instances_within(sigma, problem, space, problem_vars) == solutions


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
