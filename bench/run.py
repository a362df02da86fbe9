"""The rowml benchmark: one workload per run, verdicts checked, metrics
printed as JSON on the last line of standard output.

Run from the root of a checkout (stdlib only, nothing to build):

    python3 bench/run.py --workload wide_record --seed 1 --seconds 25 --trace 0

``--trace 0`` times passes with the checker untouched and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
(see spans.py) and prints the per-layer metrics.  Generated input files and the span dump of the last traced
pass go to ``.bench_work/`` in the checkout.  See bench/README.md for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import itertools
import json
import math
import operator
import statistics
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from time import perf_counter

import workloads as wl
from spans import Tracer, term_nodes

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 3  # in an untraced run; a traced run makes at least 2 of each kind
# Harness time inside a traced pass that no rowml span covers, as a share
# of the pass; above it, a call into rowml escapes the tracer.
UNCLAIMED_MAX = 0.1


class SetupError(Exception):
    """The checkout cannot be benchmarked (no rowml sources, no samples)."""


def import_rowml():
    """Import rowml afresh from the checkout's src/, as a new process would,
    and return its submodules."""
    src = ROOT / "src"
    if not (src / "rowml" / "__init__.py").is_file():
        raise SetupError(f"no rowml package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "rowml" or n.startswith("rowml.")]:
        del sys.modules[name]
    package = importlib.import_module("rowml")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise SetupError(f"imported rowml from {package.__file__}, not from {src}")
    # A namespace of the submodules: the package re-exports a function
    # named `unify`, which hides the module of that name.
    return SimpleNamespace(**{
        module: importlib.import_module(f"rowml.{module}")
        for module in ("cli", "infer", "oracle", "parser", "syntax", "unify")
    })


def clear_caches() -> None:
    """Empty every functools cache in rowml, so each pass starts cold as a
    fresh `rowml` process does."""
    for name, module in list(sys.modules.items()):
        if name.startswith("rowml."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# -- workloads ------------------------------------------------------------------


class Programs:
    """Programs checked one at a time, through `rowml check` (CLI path) or
    through `infer_program` (library path, with `env` as the initial
    environment)."""

    # The checking paths whose inputs do the same work whatever the seed;
    # `largest_s` is taken among them.
    fixed_paths = (wl.CLI, wl.LIBRARY)

    def __init__(self, name, make, seed, with_prelude=False, warmup=1, memory_step=1):
        self.name, self.make, self.seed = name, make, seed
        self.with_prelude, self.warmup = with_prelude, warmup
        self.memory_step = memory_step

    def setup(self, rowml) -> None:
        self.rowml = rowml
        self.first_wrong = None
        self.programs = self.make(self.seed)
        self.files = {}
        directory = WORK / self.name
        directory.mkdir(parents=True, exist_ok=True)
        for index, program in enumerate(self.programs):
            if program.path == wl.CLI:
                file = directory / f"{index}.rml"
                file.write_text(program.src, encoding="utf-8")
                self.files[index] = str(file)
        self.env = build_prelude(rowml) if self.with_prelude else None
        self.classes = [(p.path, p.size) for p in self.programs]
        self.run_pass([], stop=self.warmup)

    def run_pass(self, times: list, stop=None, step=1) -> int:
        """Check programs[:stop:step], append each one's time to `times`,
        and return the number of wrong verdicts."""
        failed = 0
        for index in range(0, stop or len(self.programs), step):
            program = self.programs[index]
            start = perf_counter()
            try:
                if program.path == wl.CLI:
                    ok = self.check_cli(self.files[index], program.expected)
                else:
                    ok = self.check_library(program.src, program.expected)
            except Exception:  # an exception escaping the checker is a wrong verdict
                ok = False
            times.append(perf_counter() - start)
            if not ok:
                failed += 1
                self.first_wrong = self.first_wrong or program.name
        return failed

    def check_cli(self, file: str, expected) -> bool:
        out = io.StringIO()
        status = self.rowml.cli.cmd_check([file], out=out, err=out)
        line = out.getvalue()
        kind, value = expected
        if kind == "ok":
            return status == 0 and line == f"{file}: {value}\n"
        prefix, _, message = line.partition(" error: ")
        return (
            status == 1
            and prefix.startswith(f"{file}:")
            and wl.ERROR_PHRASES[value] in message
            and line.count("\n") == 1
        )

    def check_library(self, src: str, expected) -> bool:
        rowml = self.rowml
        try:
            scheme = rowml.cli.infer_program(src, env=self.env)
        except (rowml.infer.InferError, rowml.parser.ParseError) as exc:
            cause = exc.cause if isinstance(exc, rowml.infer.UnifyFailure) else exc
            return expected == ("error", type(cause).__name__)
        return expected == ("ok", rowml.cli.pretty_scheme(scheme))


def build_prelude(rowml):
    env = rowml.syntax.TypeEnv()
    for name, text in wl.PRELUDE:
        body = rowml.parser.parse_type(text)
        env = env.extend(name, rowml.syntax.Scheme(tuple(rowml.syntax.free_vars_ordered(body)), body))
    return env


class OracleCampaign:
    """The `rowml oracle` default campaign, one verdict per problem; the
    10,000 random problems are drawn with the benchmark's seed."""

    name = "oracle_campaign"
    memory_step = 10
    # The sampled problems change with the seed, and so does the cache
    # state each one meets; the exhaustive ones come first, in a fixed
    # order, from cold caches.
    fixed_paths = ("exhaustive",)

    def __init__(self, seed):
        self.seed = seed

    def setup(self, rowml) -> None:
        self.rowml = rowml
        self.first_wrong = None
        syntax = rowml.syntax
        self.space = rowml.oracle.GroundSpace(
            labels=("a", "b", "c")[: wl.ORACLE_LABELS],
            base_types=(syntax.INT, syntax.BOOL, syntax.STRING)[: wl.ORACLE_TYPES],
            max_row_size=wl.ORACLE_MAX_SIZE,
        )
        self.expected = wl.oracle_problem_count()
        exhaustive = sum(1 for _ in rowml.oracle.exhaustive_problems(self.space))
        self.classes = [
            ("exhaustive" if index < exhaustive else "sampled", wl.problem_space(p))
            for index, p in enumerate(self.problems())
        ]
        self.run_pass([], stop=200)

    def problems(self):
        oracle = self.rowml.oracle
        return itertools.chain(
            oracle.exhaustive_problems(self.space),
            oracle.sample_problems(wl.ORACLE_SAMPLES, self.space, self.seed),
        )

    def describe(self, problem) -> str:
        left, right = problem
        show = self.rowml.syntax.pretty_type
        return f"{show(left)} =row= {show(right)}"

    def run_pass(self, times: list, stop=None, step=1) -> int:
        agrees = self.rowml.oracle.oracle_agrees
        failed = checked = 0
        start = perf_counter()
        for problem in itertools.islice(self.problems(), 0, stop, step):
            try:
                ok = agrees(problem, self.space)
            except Exception:  # an exception escaping the checker is a wrong verdict
                ok = False
            times.append(perf_counter() - start)
            if not ok:
                failed += 1
                self.first_wrong = self.first_wrong or self.describe(problem)
            checked += 1
            start = perf_counter()  # the next problem's time includes drawing it
        if stop is None and step == 1 and checked != self.expected:
            failed += abs(checked - self.expected)
            self.first_wrong = self.first_wrong or f"{checked} problems, not {self.expected}"
        return failed


WORKLOADS = {
    "wide_record": lambda seed: Programs("wide_record", wl.wide_record, seed),
    "let_chain": lambda seed: Programs("let_chain", wl.let_chain, seed),
    "small_programs": lambda seed: Programs(
        "small_programs",
        lambda s: wl.small_programs(s, ROOT / "samples"),
        seed,
        with_prelude=True,
        warmup=20,
        memory_step=4,
    ),
    "oracle_campaign": OracleCampaign,
}


# -- measurement ------------------------------------------------------------------


def setup(workload_name: str, seed: int):
    """Set up once from a fresh import; return rowml, the workload and the
    seconds it took."""
    gc.collect()
    start = perf_counter()
    rowml = import_rowml()
    workload = WORKLOADS[workload_name](seed)
    workload.setup(rowml)
    return rowml, workload, perf_counter() - start


# A fixed piece of pure Python that tells how fast the host ran: it is
# timed after each set-up and at REFERENCE_SLOTS evenly spaced points of
# every untraced pass.  REFERENCE_NOMINAL_S is about its best time on the
# machine the baseline was measured on (see `host_factors`).
REFERENCE_SLOTS = 20
REFERENCE_NOMINAL_S = 1.75e-3


def _rename(term, mapping):
    if type(term) is int:
        return mapping.get(term, term)
    return (term[0], _rename(term[1], mapping), _rename(term[2], mapping))


def reference_s(repeats: int = 1) -> float:
    """Time the reference `repeats` times over: rename the variables of a
    127-node tuple term 200 times, the kind of tree walk with dict lookups
    a type checker makes.  It uses nothing from rowml, so no change to
    rowml moves it."""
    mapping = {i: i + 1 for i in range(0, 64, 2)}
    term = 0
    for i in range(63):
        term = ("f", term, i)
    start = perf_counter()
    for _ in range(200 * repeats):
        _rename(term, mapping)
    return perf_counter() - start


class ProbedTimes(list):
    """The per-input times of one pass, which also time the reference
    after every `every`-th input.  `slots` keeps, for each of these
    points, how many times over the reference runs there and the best
    time of those runs so far.

    The first pass fixes each slot's repeat count so that the slot takes
    about as long as the input before it: a long input's best time is
    its best stretch of that length, and a short reference would find a
    faster one.
    """

    def __init__(self, every: int, slots: list[list]):
        super().__init__()
        self.every, self.slots = every, slots
        self.spent = 0.0  # seconds spent on the reference in this pass

    def append(self, value: float) -> None:
        super().append(value)
        if len(self) % self.every == 0:
            slot = len(self) // self.every - 1
            if slot == len(self.slots):
                self.slots.append([max(1, round(value / REFERENCE_NOMINAL_S)), math.inf])
            repeats, best = self.slots[slot]
            start = perf_counter()
            self.slots[slot][1] = min(best, reference_s(repeats))
            self.spent += perf_counter() - start


class Phase:
    """The passes of one timed phase: their wall times, and each input's
    best time to verdict so far.

    Medians over passes moved from run to run: on a shared 2-vCPU Xeon
    VM the same code ran at two speeds about 1.5 times apart, switching
    every second or so and sometimes staying slow for tens of seconds.
    An input's best pass finds the fast speed unless every pass of the
    run missed it; a run that is slow throughout shows in the reference's
    best time as well (see `host_factors`).
    """

    def __init__(self):
        self.walls: list[float] = []
        self.best: list[float] = []
        self.failed = 0
        self.attempted = 0
        self.self_times: list[dict[str, float]] = []
        self.counts: list[dict[str, int]] = []
        self.unclaimed: list[float] = []  # bench self time / pass wall time, per traced pass
        self.first_wrong = None
        self.reference: list[list] = []  # per slot: repeats, best time
        self.every = 1  # inputs per slot


def measure(workload_name: str, seed: int, seconds: float, min_passes: int, tracers):
    """Time passes for `seconds`, and at least `min_passes` per phase.

    There is one phase per entry of `tracers` (None for an untraced
    phase).  The phases take turns pass by pass, so that a traced and an
    untraced phase see the machine at the same speeds.  Each round of
    passes starts from a fresh set-up, so set-ups too are timed across the
    whole run.  The reference runs right after each set-up, for about as
    long, and each set-up time is divided by the host factor that run
    gives.

    Returns the last set-up's rowml and workload, the phases and the
    set-up times.
    """
    phases = [Phase() for _ in tracers]
    setups: list[float] = []
    repeats = 0
    deadline = perf_counter() + seconds
    while len(phases[0].walls) < min_passes or perf_counter() < deadline:
        rowml, workload, setup_s = setup(workload_name, seed)
        repeats = repeats or max(1, round(setup_s / REFERENCE_NOMINAL_S))
        setups.append(setup_s * repeats * REFERENCE_NOMINAL_S / reference_s(repeats))
        for phase, tracer in zip(phases, tracers):
            run_pass(rowml, workload, phase, tracer)
    return rowml, workload, phases, setups


def host_factors(phase: Phase) -> list[float]:
    """Each input's host factor: how much slower the host ran than the
    baseline machine, as the reference timed at the slot after the input
    tells it (its best time per run, divided by its nominal time).

    Some runs are slow from start to end, so no input's best pass finds
    the fast speed.  The reference, timed at a fixed point of the same
    passes, about as long as the input and reduced the same way, best
    over passes, is slow by about as much; end-to-end times are divided
    by these factors.
    """
    factors = [best / repeats / REFERENCE_NOMINAL_S for repeats, best in phase.reference]
    return [factors[min(i // phase.every, len(factors) - 1)] for i in range(len(phase.best))]


def run_pass(rowml, workload, phase: Phase, tracer: Tracer | None) -> None:
    clear_caches()
    gc.collect()
    if tracer is None:
        phase.every = max(1, len(workload.classes) // REFERENCE_SLOTS)
        times = ProbedTimes(phase.every, phase.reference)
    else:
        times = []
        tracer.reset()
        tracer.install(rowml)
        root = tracer.open("bench")
    start = perf_counter()
    failed = workload.run_pass(times)
    wall = perf_counter() - start - (times.spent if tracer is None else 0.0)
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        record_trace(phase, tracer, rowml, wall)
    phase.walls.append(wall)
    if not phase.best:
        phase.best = list(times)
    elif len(times) == len(phase.best):  # else the pass lost inputs and failed
        phase.best = list(map(min, phase.best, times))
    phase.failed += failed
    phase.first_wrong = phase.first_wrong or workload.first_wrong
    phase.attempted += len(times)


def record_trace(phase: Phase, tracer: Tracer, rowml, wall: float) -> None:
    self_times = tracer.self_times()
    phase.unclaimed.append(self_times.get("bench", 0.0) / wall)
    counts = dict(tracer.counts)
    counts["parser.nodes"] = sum(term_nodes(t, rowml.syntax.Term) for t in tracer.parsed)
    phase.self_times.append(self_times)
    phase.counts.append(counts)


class Discard:
    """A list of per-input times that keeps none of them."""

    def append(self, _value) -> None:
        pass


def peak_alloc_mb(workload) -> float:
    """Peak memory allocated by Python objects during one extra, untimed
    pass from cold caches: rowml's own working set, without the
    interpreter, the inputs or the harness's per-input times.

    Tracing allocations makes a pass up to 9 times slower, so the pass
    checks every `workload.memory_step`-th input (a seeded sample: the
    corpus is shuffled, the oracle's random problems are drawn).
    """
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        workload.run_pass(Discard(), step=workload.memory_step)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def size_classes(classes, best: list[float]) -> dict[tuple, list[float]]:
    grouped: dict[tuple, list[float]] = {}
    for key, t in zip(classes, best):
        grouped.setdefault(key, []).append(t)
    return grouped


def growth_exponent(grouped: dict[tuple, list[float]]) -> float:
    """Least-squares slope of log(median time) on log(size) over the size
    classes, with one intercept per checking path."""
    by_path: dict[str, list[tuple[float, float]]] = {}
    for (path, size), times in grouped.items():
        by_path.setdefault(path, []).append((math.log(size), math.log(statistics.median(times))))
    sxy = sxx = 0.0
    for points in by_path.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx


def end_to_end(workload, phase: Phase, setup_s: float, alloc_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics.  Every per-input time is divided by its
    host factor, as every set-up time already is.  `largest_s` is taken
    over the inputs whose work does not depend on the seed."""
    best = list(map(operator.truediv, phase.best, host_factors(phase)))
    grouped = size_classes(workload.classes, best)
    largest = max((key for key in grouped if key[0] in workload.fixed_paths),
                  key=lambda key: (key[1], key[0]))
    pass_s = math.fsum(best)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "verdicts_per_s": (len(workload.classes) / pass_s, "1/s"),
        "check_ms.p50": (quantile(best, 50) * 1e3, "ms"),
        "check_ms.p99": (quantile(best, 99) * 1e3, "ms"),
        "largest_s": (statistics.median(grouped[largest]), "s"),
        "growth_exp": (growth_exponent(grouped), "1"),
        "peak_alloc_mb": (alloc_mb, "MB"),
    }


COUNTERS = (
    "unify.calls", "unify.row_calls", "unify.failed", "infer.resolve_calls",
    "infer.subst_max", "infer.generalize_calls", "infer.instantiate_calls",
    "infer.fresh_vars", "kindcheck.schemes", "parser.nodes", "oracle.problems",
    "oracle.failures",
)
SELF_TIMES = {  # metric -> the span name whose self time it reports
    "unify.self_s": "unify",
    "unify.row_s": "unify.row",
    "infer.self_s": "infer",
    "infer.resolve_s": "infer.resolve",
    "infer.generalize_s": "infer.generalize",
    "infer.instantiate_s": "infer.instantiate",
    "kindcheck.self_s": "kindcheck",
    "parser.self_s": "parser",
    "syntax.print_s": "syntax.print",
    "syntax.canonicalize_s": "syntax.canonicalize",
    "cli.self_s": "cli",
    "oracle.gen_s": "oracle.gen",
    "oracle.compare_s": "oracle.compare",
    "oracle.ground_s": "oracle.ground",
    "bench.self_s": "bench",
}


def per_layer(untraced: Phase, traced: Phase) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in SELF_TIMES.items():
        per_pass = [self_times.get(span, 0.0) for self_times in traced.self_times]
        metrics[metric] = (statistics.median(per_pass), "s")
    for counter in COUNTERS:
        metrics[counter] = (traced.counts[0].get(counter, 0), "count")
    overhead = math.fsum(traced.best) - math.fsum(untraced.best)
    metrics["trace.overhead_s"] = (overhead, "s")
    attempted = untraced.attempted + traced.attempted
    metrics["verdict_fail_ratio"] = ((untraced.failed + traced.failed) / attempted, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracers = (None, Tracer()) if args.trace else (None,)
    try:
        rowml, workload, phases, setups = measure(
            args.workload, args.seed, args.seconds, 2 if args.trace else MIN_PASSES, tracers)
    except (SetupError, OSError, ImportError) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = tracers[1]
        untraced, traced = phases
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}.tsv")
        counters_repeat = all(c == traced.counts[0] for c in traced.counts)
        unclaimed = max(traced.unclaimed)
        if unclaimed > UNCLAIMED_MAX:
            print(f"# {unclaimed:.1%} of a traced pass is in no rowml span", file=sys.stderr)
        correct_trace = counters_repeat and unclaimed <= UNCLAIMED_MAX
        metrics = per_layer(untraced, traced)
    else:
        correct_trace = True
        metrics = end_to_end(workload, phases[0], statistics.median(setups), peak_alloc_mb(workload))

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    passes = sum(len(p.walls) for p in phases)
    walls = ", ".join(f"{statistics.median(p.walls):.4g} s {kind}"
                      for p, kind in zip(phases, ("untraced", "traced")))
    print(f"# {args.workload} seed={args.seed}: {len(setups)} set-ups, {passes} passes over "
          f"{len(workload.classes)} inputs, {attempted} verdicts, {failed} wrong; median pass "
          f"wall time {walls}; per-input times are each input's best over the passes; "
          f"median host factor {statistics.median(host_factors(phases[0])):.4g}")
    first_wrong = next((p.first_wrong for p in phases if p.first_wrong), None)
    if first_wrong:
        print(f"# first wrong verdict: {first_wrong}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:24} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0 and correct_trace,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
