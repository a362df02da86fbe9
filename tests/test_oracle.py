"""Tests for the brute-force row-unification oracle."""

import itertools
import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from rowml.oracle import (
    CampaignResult,
    GroundSpace,
    _ground_row_keys,
    _instances_within,
    exhaustive_problems,
    ground_solutions,
    oracle_agrees,
    run_campaign,
    sample_problems,
)
from rowml.syntax import BOOL, INT, ROW, STAR, STRING, TCon, TRow, TypeVar, free_vars_ordered
from rowml.unify import Subst, UnifyError, unify_rows

RHO = TypeVar(1, ROW)
RHO2 = TypeVar(2, ROW)
ALPHA = TypeVar(3, STAR)
BETA = TypeVar(4, STAR)
# variables that only substitutions mention: the residuals
RHO3 = TypeVar(5, ROW)
RHO4 = TypeVar(6, ROW)
GAMMA = TypeVar(7, STAR)
DELTA = TypeVar(8, STAR)


def expected_row_count(space: GroundSpace) -> int:
    n, m = len(space.labels), len(space.base_types)
    return sum(
        math.comb(n, k) * m**k for k in range(min(space.max_row_size, n) + 1)
    )


class TestEnumerateGroundRows:
    def test_single_label_single_type(self):
        space = GroundSpace(labels=("a",), base_types=(INT,), max_row_size=1)
        assert _ground_row_keys(space) == ((), (("a", "Int"),))

    def test_two_labels_two_types(self):
        space = GroundSpace(labels=("a", "b"), base_types=(INT, BOOL), max_row_size=2)
        rows = _ground_row_keys(space)
        assert len(rows) == 9  # 1 + 2*2 + 1*4
        assert len(rows) == expected_row_count(space)

    def test_size_zero(self):
        space = GroundSpace(max_row_size=0)
        assert _ground_row_keys(space) == ((),)

    @pytest.mark.parametrize(
        "bounds", [{"labels": ()}, {"base_types": ()}, {"max_row_size": -1}]
    )
    def test_an_empty_alphabet_or_a_negative_size_is_rejected(self, bounds):
        with pytest.raises(ValueError):
            GroundSpace(**bounds)

    @pytest.mark.parametrize("labels,types,size", [(3, 2, 2), (4, 3, 3), (2, 3, 1)])
    def test_count_formula(self, labels, types, size):
        space = GroundSpace(
            labels=("a", "b", "c", "d")[:labels],
            base_types=(INT, BOOL, STRING)[:types],
            max_row_size=size,
        )
        assert len(_ground_row_keys(space)) == expected_row_count(space)

    def test_rows_are_distinct(self):
        space = GroundSpace(labels=("a", "b"), base_types=(INT, BOOL), max_row_size=2)
        rows = _ground_row_keys(space)
        assert all(list(row) == sorted(row) for row in rows)
        assert len(set(rows)) == len(rows)


class TestGroundSolutions:
    def test_single_instantiation(self):
        space = GroundSpace(labels=("age", "name"), max_row_size=2)
        problem = (TRow({"name": STRING}, RHO), TRow({"name": STRING, "age": INT}))
        sols = ground_solutions(problem, space)
        assert sols == {frozenset({(RHO.id, (("age", "Int"),))})}

    def test_unequal_closed_rows(self):
        space = GroundSpace(labels=("a",), max_row_size=1)
        assert ground_solutions((TRow({}), TRow({"a": INT})), space) == set()

    def test_two_open_rows_agree_on_remainders(self):
        space = GroundSpace(labels=("a", "b", "c"), base_types=(INT, BOOL), max_row_size=2)
        problem = (TRow({"a": INT}, RHO), TRow({"b": BOOL}, RHO2))
        sols = ground_solutions(problem, space)
        assert sols  # e.g. rho={b:Bool}, rho2={a:Int}
        for assignment in sols:
            values = dict(assignment)
            r1 = dict(values[RHO.id])
            r2 = dict(values[RHO2.id])
            assert r1.get("b") == "Bool" and "a" not in r1
            assert r2.get("a") == "Int" and "b" not in r2
            # remainders beyond the forced fields agree
            assert {k: v for k, v in r1.items() if k != "b"} == {
                k: v for k, v in r2.items() if k != "a"
            }

    def test_type_variables_range_over_base_types(self):
        space = GroundSpace(labels=("a",), max_row_size=1)
        problem = (TRow({"a": ALPHA}), TRow({"a": INT}))
        assert ground_solutions(problem, space) == {frozenset({(ALPHA.id, "Int")})}

    def test_rejects_rich_field_types(self):
        from rowml.syntax import TFun

        with pytest.raises(ValueError):
            ground_solutions((TRow({"a": TFun(INT, INT)}), TRow({})), GroundSpace())


class TestOracleAgrees:
    SPACE = GroundSpace(labels=("a", "b", "name", "age"), max_row_size=3)

    @pytest.mark.parametrize(
        "left,right",
        [
            (TRow({"name": STRING}, RHO), TRow({"name": STRING, "age": INT})),
            (TRow({}), TRow({"a": INT})),
            (TRow({"a": INT}, RHO), TRow({"b": BOOL}, RHO2)),
            (TRow({"a": INT}), TRow({"a": BOOL})),
            (TRow({"a": ALPHA}, RHO), TRow({"a": INT, "b": ALPHA}, RHO2)),
            (TRow({}, RHO), TRow({}, RHO)),
        ],
    )
    def test_agreement_on_known_cases(self, left, right):
        assert oracle_agrees((left, right), self.SPACE)

    def test_disagrees_with_a_lying_unifier(self):
        def liar(r1, r2, fresh=None):
            return Subst()

        problem = (TRow({"a": INT}, RHO), TRow({"b": BOOL}, RHO2))
        assert not oracle_agrees(problem, self.SPACE, unifier=liar)

    def test_disagrees_with_an_overly_eager_failure(self):
        from rowml.unify import Mismatch

        def naysayer(r1, r2, fresh=None):
            raise Mismatch(r1, r2)

        problem = (TRow({"name": STRING}, RHO), TRow({"name": STRING}))
        assert not oracle_agrees(problem, self.SPACE, unifier=naysayer)

    def test_instances_hold_only_the_space_types(self):
        # {ρ ↦ {a:Bool}} unifies the rows but is no assignment over a
        # space without Bool, where the problem has no solution.
        space = GroundSpace(labels=("a",), base_types=(INT,), max_row_size=1)
        assert oracle_agrees((TRow({}, RHO), TRow({"a": BOOL})), space)

    def test_mutated_unifier_is_caught_by_a_campaign(self):
        def swapped(r1, r2, fresh=None):
            sigma = unify_rows(r1, r2, fresh)
            tails = [t for t in (r1.tail, r2.tail) if t is not None]
            if (
                len(tails) == 2
                and tails[0].id != tails[1].id
                and all(t.id in sigma.mapping for t in tails)
            ):
                corrupted = dict(sigma.mapping)
                corrupted[tails[0].id], corrupted[tails[1].id] = (
                    corrupted[tails[1].id],
                    corrupted[tails[0].id],
                )
                return Subst(corrupted)
            return sigma

        space = GroundSpace(labels=("a", "b"), base_types=(INT, BOOL), max_row_size=2)
        result = run_campaign(exhaustive_problems(space), space, unifier=swapped)
        assert result.failures > 0
        assert result.first_failure is not None

    def test_campaign_on_a_small_space_is_clean(self):
        space = GroundSpace(labels=("a", "b"), base_types=(INT, BOOL), max_row_size=2)
        result = run_campaign(exhaustive_problems(space), space)
        assert result == CampaignResult(problems=486, failures=0, first_failure=None)

    def test_exhaustive_with_variable_fields(self):
        # exhaustive over a tiny space where fields may also be type
        # variables, so every pointwise-unification shape is covered
        import itertools

        alpha, beta = TypeVar(3, STAR), TypeVar(4, STAR)
        labels = ("a", "b")
        options = (INT, BOOL, alpha, beta)

        def field_maps():
            for k in range(len(labels) + 1):
                for combo in itertools.combinations(labels, k):
                    for values in itertools.product(options, repeat=k):
                        yield dict(zip(combo, values))

        maps = list(field_maps())
        problems = (
            (TRow(f1, t1), TRow(f2, t2))
            for f1 in maps
            for t1 in (None, RHO)
            for f2 in maps
            for t2 in (None, RHO, RHO2)
        )
        space = GroundSpace(labels=labels, base_types=(INT, BOOL), max_row_size=2)
        result = run_campaign(problems, space)
        assert result.problems == 3750
        assert result.failures == 0


class TestSampling:
    def test_sampling_is_deterministic(self):
        space = GroundSpace()
        a = list(sample_problems(25, space, seed=7))
        b = list(sample_problems(25, space, seed=7))
        assert a == b

    def test_sampled_problems_stay_in_bounds(self):
        space = GroundSpace()
        for left, right in sample_problems(200, space, seed=1):
            for side in (left, right):
                assert len(side.fields) <= 3
                assert set(side.fields) <= set(space.labels)

    def test_small_sampled_campaign(self):
        space = GroundSpace(labels=("a", "b", "c"), max_row_size=2)
        result = run_campaign(sample_problems(150, space, seed=3), space)
        assert result.failures == 0


def naive_instances(sigma: Subst, problem, space: GroundSpace) -> set:
    """The definition `_instances_within` implements: every assignment of
    ground rows and base types to the residual variables of the images,
    substituted into the images, then kept when each row variable's value
    is duplicate-free and fits the space's size, labels and types, and
    both sides of the problem stay duplicate-free under the values."""
    problem_vars = {v for side in problem for v in free_vars_ordered(side)}
    images = {
        v: sigma.mapping.get(v.id, TRow({}, v) if v.kind == ROW else v) for v in problem_vars
    }
    residuals = sorted(
        {r for image in images.values() for r in free_vars_ordered(image)}, key=lambda r: r.id
    )
    ground_rows = [dict(key) for key in _ground_row_keys(space)]
    names = [t.name for t in space.base_types]
    labels = set(space.labels)

    def ground(t, env):
        return t.name if isinstance(t, TCon) else env[t.id]

    def ground_row(t, env):
        """The label-to-name map of a row (or row variable), None when a
        label repeats."""
        if isinstance(t, TypeVar):
            return env[t.id]
        fields = {label: ground(f, env) for label, f in t.fields.items()}
        extra = env[t.tail.id] if t.tail is not None else {}
        if fields.keys() & extra.keys():
            return None
        return {**fields, **extra}

    out = set()
    choices = [ground_rows if r.kind == ROW else names for r in residuals]
    for choice in itertools.product(*choices):
        env = {r.id: value for r, value in zip(residuals, choice)}
        values = {}
        for v, image in images.items():
            if v.kind == ROW:
                row = ground_row(image, env)
                if (
                    row is None
                    or len(row) > space.max_row_size
                    or not set(row) <= labels
                    or not set(row.values()) <= set(names)
                ):
                    break
                values[v.id] = row
            else:
                values[v.id] = ground(image, env)
        else:
            if all(ground_row(side, values) is not None for side in problem):
                out.add(
                    frozenset(
                        (vid, tuple(sorted(value.items())) if isinstance(value, dict) else value)
                        for vid, value in values.items()
                    )
                )
    return out


# Each space lacks a label of the pool that problems and images draw
# from, all but one hold rows smaller than their label sets, and one
# lacks Bool, so the label, size and type filters all have work to do.
POOL_LABELS = ("a", "b", "c")
NAIVE_SPACES = [
    GroundSpace(labels=("a", "b"), base_types=(INT, BOOL), max_row_size=1),
    GroundSpace(labels=("b", "c"), base_types=(INT,), max_row_size=2),
    GroundSpace(labels=("a", "c"), base_types=(INT, BOOL), max_row_size=1),
]


def fields_over(types):
    return st.dictionaries(st.sampled_from(POOL_LABELS), st.sampled_from(types), max_size=2)


def problems():
    problem_types = (INT, BOOL, ALPHA, BETA)
    return st.tuples(
        st.builds(TRow, fields_over(problem_types), st.sampled_from((None, RHO))),
        st.builds(TRow, fields_over(problem_types), st.sampled_from((None, RHO, RHO2))),
    )


def hand_built_substitutions():
    """Images for the problem variables: closed or open rows over the
    label pool with residual tails and field types, bare residual row
    variables, residual star variables or base types."""
    image_types = (INT, BOOL, GAMMA, DELTA)
    row_image = st.one_of(
        st.builds(TRow, fields_over(image_types), st.sampled_from((None, RHO3, RHO4))),
        st.sampled_from((RHO3, RHO4)),
    )
    star_image = st.sampled_from((INT, BOOL, GAMMA, DELTA))
    return st.fixed_dictionaries(
        {},
        optional={
            RHO.id: row_image,
            RHO2.id: row_image,
            ALPHA.id: star_image,
            BETA.id: star_image,
        },
    )


class TestInstancesWithin:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(NAIVE_SPACES), problems(), hand_built_substitutions())
    @example(NAIVE_SPACES[1], (TRow({}, RHO), TRow({"b": BOOL})), {RHO.id: TRow({"b": BOOL})})
    def test_hand_built_substitutions_match_the_definition(self, space, problem, mapping):
        sigma = Subst(mapping)
        assert _instances_within(sigma, problem, space) == naive_instances(sigma, problem, space)

    @pytest.mark.parametrize(
        "mapping, residual_rows",
        [
            ({RHO.id: TRow({"b": BOOL}), RHO2.id: TRow({"a": INT})}, 0),
            ({RHO.id: TRow({"b": BOOL, "c": INT}), RHO2.id: TRow({})}, 0),  # outside the space
            ({RHO.id: TRow({"b": GAMMA}, RHO3), RHO2.id: TRow({"a": INT}, RHO3)}, 1),
            ({RHO.id: TRow({"c": INT}, RHO3), RHO2.id: TRow({}, RHO3)}, 1),  # c is outside
            ({RHO.id: RHO3, RHO2.id: TRow({"a": BOOL}, RHO4)}, 2),
            ({}, 2),
        ],
    )
    def test_residual_row_variables_match_the_definition(self, mapping, residual_rows):
        problem = (TRow({"a": INT}, RHO), TRow({"b": ALPHA}, RHO2))
        space = NAIVE_SPACES[0]
        sigma = Subst({**mapping, ALPHA.id: DELTA})
        images = [sigma.mapping.get(v.id, v) for v in (RHO, RHO2)]
        residuals = {v for t in images for v in free_vars_ordered(t) if v.kind == ROW}
        assert len(residuals) == residual_rows
        assert _instances_within(sigma, problem, space) == naive_instances(sigma, problem, space)

    def test_unifier_answers_match_the_definition(self):
        space = GroundSpace(labels=("a", "b"), base_types=(INT, BOOL), max_row_size=1)
        for problem in itertools.chain(
            exhaustive_problems(space), sample_problems(300, space, seed=5)
        ):
            try:
                sigma = unify_rows(*problem)
            except UnifyError:
                continue
            got = _instances_within(sigma, problem, space)
            assert got == naive_instances(sigma, problem, space)
