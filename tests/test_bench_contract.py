"""The benchmark in bench/ reaches into rowml by attribute name: its
tracer wraps module and class attributes and counts a parsed term's
nodes through their instance dicts, and its oracle workload tells a
field variable from a constructor by the variable's `var`.  These tests
fail when a change to src/ breaks one of those attributes, where before
only the traced benchmark runs would show it."""

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

from rowml.infer import infer_program
from rowml.parser import parse_term
from rowml.syntax import ROW, STAR, TRow, Term, TypeVar

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return SimpleNamespace(
        spans=importlib.import_module("spans"), workloads=importlib.import_module("workloads")
    )


def rowml_modules() -> SimpleNamespace:
    """The submodules by name, as `bench/run.py` hands them to the
    tracer: the package itself re-exports a function named `unify`."""
    return SimpleNamespace(**{
        module: importlib.import_module(f"rowml.{module}")
        for module in ("cli", "infer", "oracle", "parser", "syntax", "unify")
    })


def test_the_tracer_wraps_every_boundary_and_counts_through_them(bench):
    tracer = bench.spans.Tracer()
    tracer.install(rowml_modules())
    try:
        # r.b meets the row that r.a bound r to: a row case inside a step.
        infer_program(r"\r. let x = r.a in r.b")
    finally:
        tracer.uninstall()
    assert tracer.counts["infer.fresh_vars"] > 0  # InferSession.fresh reaches FreshVars.fresh
    assert tracer.counts["unify.calls"] > 0
    assert tracer.counts["unify.row_calls"] > 0


def test_the_problem_space_counts_a_field_variable(bench):
    wl = bench.workloads
    problem = (TRow({"a": TypeVar(3, STAR)}, TypeVar(1, ROW)), TRow({}))
    assert wl.problem_space(problem) == wl._ground_rows() * wl.ORACLE_TYPES


def test_the_parser_node_count_reads_each_term_s_fields(bench):
    # Let, RecordLit, Lit, Select and Var
    assert bench.spans.term_nodes(parse_term("let r = {a = 1} in r.a"), Term) == 5
