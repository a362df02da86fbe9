"""Command line driver: typecheck files, run a REPL, or exercise the
row unifier against the brute-force oracle.

Exit codes: 0 when every input typechecks (or the oracle found no
disagreement), 1 on a parse/kind/type error or oracle failure, 2 on
usage errors such as unreadable files.
"""

from __future__ import annotations

import argparse
import itertools
import string
import sys
from collections.abc import Sequence

from rowml.infer import InferError, infer_program
from rowml.parser import ParseError
from rowml.syntax import BOOL, INT, STRING, pretty_scheme, pretty_type


# The alphabets `rowml oracle` draws its labels and base types from.
ORACLE_LABELS = string.ascii_lowercase
ORACLE_TYPES = (INT, BOOL, STRING)


def _error_line(path: str, err: Exception) -> str:
    span = getattr(err, "span", None)
    line = span.line if span is not None else 1
    col = span.col if span is not None else 1
    return f"{path}:{line}:{col}: error: {err}"


def cmd_check(paths: Sequence[str], out=None, err=None) -> int:
    """Typecheck each file; print its principal scheme or a located error."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    status = 0
    for path in paths:
        try:
            # newline="" keeps a lone CR, which the lexer reads as
            # whitespace within a line, as `infer_program` on a string does;
            # utf-8-sig drops one leading byte-order mark.
            with open(path, encoding="utf-8-sig", newline="") as handle:
                src = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc})"
            print(f"rowml: cannot read {path}: {reason}", file=err)
            status = 2
            continue
        try:
            print(f"{path}: {pretty_scheme(infer_program(src))}", file=out)
            continue
        except (ParseError, InferError) as exc:
            print(_error_line(path, exc), file=out)
        except RecursionError:
            print(f"{path}:1:1: error: program nested too deeply", file=out)
        if status == 0:
            status = 1
    return status


def cmd_repl(stdin=None, out=None) -> int:
    """Read one term per line and print its scheme; :quit exits."""
    stdin = stdin if stdin is not None else sys.stdin
    out = out if out is not None else sys.stdout
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    if interactive:
        print("rowml repl; :quit to exit", file=out)
    for number, line in enumerate(stdin):
        if number == 0:
            line = line.removeprefix("\ufeff")  # a byte-order mark, which strip keeps
        line = line.strip(" \t\r\n")  # the whitespace of the lexer, and no other
        if not line:
            continue
        if line in (":quit", ":q"):
            break
        if line.startswith(":type "):
            line = line[len(":type "):]
        try:
            print(pretty_scheme(infer_program(line)), file=out)
        except (ParseError, InferError) as exc:
            print(f"error: {exc}", file=out)
        except RecursionError:
            print("error: program nested too deeply", file=out)
    return 0


def cmd_oracle(labels: int, types: int, max_size: int, samples: int, out=None) -> int:
    """Exhaustive plus sampled oracle campaign over the requested space."""
    # Imported here, so that `rowml check` does not load the oracle.
    from rowml.oracle import GroundSpace, exhaustive_problems, run_campaign, sample_problems

    out = out if out is not None else sys.stdout
    space = GroundSpace(
        labels=tuple(ORACLE_LABELS[:labels]),
        base_types=ORACLE_TYPES[:types],
        max_row_size=max_size,
    )
    result = run_campaign(
        itertools.chain(exhaustive_problems(space), sample_problems(samples, space)), space
    )
    print(f"{result.problems} problems, {result.failures} failures", file=out)
    if result.first_failure is not None:
        left, right = result.first_failure
        print(
            f"first counterexample: {pretty_type(left)} =row= {pretty_type(right)}",
            file=out,
        )
    return 0 if result.failures == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rowml",
        description="Typechecker for a small functional language with "
        "row-polymorphic extensible records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="typecheck source files")
    check.add_argument("files", nargs="+", metavar="file")

    sub.add_parser("repl", help="interactive type-at-a-time loop")

    oracle = sub.add_parser("oracle", help="compare the row unifier with brute force")
    oracle.add_argument(
        "--labels", type=int, default=3, help=f"label alphabet size, 1 to {len(ORACLE_LABELS)}"
    )
    oracle.add_argument(
        "--types", type=int, default=3, help=f"how many base types, 1 to {len(ORACLE_TYPES)}"
    )
    oracle.add_argument("--max-size", type=int, default=3, help="largest ground row")
    oracle.add_argument("--samples", type=int, default=10000, help="random problems")

    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check(args.files)
    if args.command == "repl":
        return cmd_repl()
    if args.command == "oracle":
        if min(args.labels, args.types) < 1 or args.max_size < 0 or args.samples < 0:
            parser.error("oracle bounds must be positive")
        if args.labels > len(ORACLE_LABELS) or args.types > len(ORACLE_TYPES):
            parser.error(
                f"oracle alphabets hold at most {len(ORACLE_LABELS)} labels"
                f" and {len(ORACLE_TYPES)} base types"
            )
        return cmd_oracle(args.labels, args.types, args.max_size, args.samples)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
