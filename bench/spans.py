"""Spans and counters recorded from outside the checker.

`Tracer.install` replaces the module and class attributes through which
rowml's own call sites reach each layer with wrappers that record a
span (name, start, end, parent) and the layer's counters, and
`Tracer.uninstall` puts the originals back.  Nothing inside rowml is
edited: a call site that looks a name up at run time (a module global or
a method) reaches the wrapper.  An attribute that rowml no longer has is
an error: a change that moves a layer boundary must move its wrapper too.

Spans stay in memory until `write` dumps them.  A span's self time is
its duration minus the time its direct children cover; spans nest
strictly because the benchmark is single-threaded.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns

class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.parsed: list = []  # terms returned by the parser, walked after the pass
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self.stack.pop()

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.names.clear()
        self.parents.clear()
        self.starts.clear()
        self.ends.clear()
        self.counts.clear()
        self.parsed.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[index]
        out: Counter[str] = Counter()
        for name, duration, covered in zip(self.names, durations, child):
            if duration < covered:
                raise AssertionError(f"span {name} is shorter than its children")
            out[name] += duration - covered
        return {name: ns / 1e9 for name, ns in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for index, row in enumerate(zip(self.parents, self.names, self.starts, self.ends)):
                out.write(f"{index}\t" + "\t".join(map(str, row)) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            raise AttributeError(f"{owner.__name__} has no attribute {attr!r} to trace")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, name: str, count: str | None = None, on_result=None, on_error=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if count is not None:
                    self.counts[count] += 1
                index = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                finally:
                    self.close(index)
                if on_result is not None:
                    on_result(args, result)
                return result

            return wrapper

        return make

    def _generator_span(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    index = self.open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    yield item

            return wrapper

        return make

    def _counter(self, count: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[count] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _note_subst(self, args, _result) -> None:
        mapping = getattr(getattr(args[0], "subst", None), "mapping", None)
        if mapping is not None and len(mapping) > self.counts["infer.subst_max"]:
            self.counts["infer.subst_max"] = len(mapping)

    def install(self, rowml) -> None:
        """Wrap the layer boundaries of an imported rowml package."""
        infer, unify, oracle, cli = rowml.infer, rowml.unify, rowml.oracle, rowml.cli
        unify_error = unify.UnifyError

        def unify_failed(exc):
            if isinstance(exc, unify_error):
                self.counts["unify.failed"] += 1

        def oracle_verdict(_args, agrees):
            self.counts["oracle.problems"] += 1
            self.counts["oracle.failures"] += not agrees

        self._patch(infer, "parse_term", self._span(
            "parser", on_result=lambda _a, term: self.parsed.append(term)))
        self._patch(infer, "check_scheme", self._span("kindcheck", "kindcheck.schemes"))
        self._patch(infer, "instantiate", self._span("infer.instantiate", "infer.instantiate_calls"))
        self._patch(infer, "generalize", self._span("infer.generalize", "infer.generalize_calls"))
        self._patch(infer, "canonicalize", self._span("syntax.canonicalize"))
        self._patch(infer, "unify", self._span("unify", "unify.calls", on_error=unify_failed))
        # The session method also composes the step into the session's
        # substitution; that composition is unification work too.
        self._patch(infer.InferSession, "unify", self._span("unify"))
        for method in ("resolve", "resolve_env"):
            self._patch(infer.InferSession, method, self._span(
                "infer.resolve", "infer.resolve_calls", on_result=self._note_subst))
        self._patch(unify, "unify_rows", self._span("unify.row", "unify.row_calls"))
        self._patch(rowml.syntax.FreshVars, "fresh", self._counter("infer.fresh_vars"))
        self._patch(cli, "infer_program", self._span("infer"))
        self._patch(cli, "pretty_scheme", self._span("syntax.print"))
        self._patch(cli, "cmd_check", self._span("cli"))
        self._patch(oracle, "ground_solutions", self._span("oracle.ground"))
        self._patch(oracle, "oracle_agrees", self._span("oracle.compare", on_result=oracle_verdict))
        for generator in ("exhaustive_problems", "sample_problems"):
            self._patch(oracle, generator, self._generator_span("oracle.gen"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def term_nodes(term, term_class) -> int:
    """Nodes of a parsed term: every `term_class` instance reachable
    through its fields, record fields included."""
    count, todo = 0, [term]
    while todo:
        node = todo.pop()
        count += 1
        for value in vars(node).values():
            if isinstance(value, term_class):
                todo.append(value)
            elif isinstance(value, dict):
                todo.extend(v for v in value.values() if isinstance(v, term_class))
    return count
