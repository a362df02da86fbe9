"""Tests for the command line driver."""

import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import rowml
from rowml.cli import cmd_check, cmd_oracle, cmd_repl, main
from rowml.infer import infer_program
from rowml.parser import ParseError, line_col
from rowml.syntax import TRow, pretty_scheme


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def deep_let_bound_records(result: str) -> str:
    """400 nested `let`s, after one unification step, where x_i is bound
    to a record that holds x_(i-1), so its type is i records deep."""
    return (
        "let z = (\\y. y) 1 in let x0 = {a = 1} in "
        + "".join(f"let x{i} = {{a = x{i - 1}}} in " for i in range(1, 400))
        + result
    )


class TestCheck:
    def test_identity_file(self, tmp_path, capsys):
        path = write(tmp_path, "id.rml", "\\x. x\n")
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert out == f"{path}: ∀a:*. a -> a\n"

    def test_a_new_process_checks_without_loading_what_check_never_runs(self):
        # Each `rowml check` starts a new interpreter, so it pays for every
        # module its import loads; dataclasses would load inspect and ast,
        # typing is needed for annotations only, and the oracle only by
        # `rowml oracle`.
        src = Path(rowml.__file__).resolve().parents[1]
        sample = Path(__file__).resolve().parents[1] / "samples" / "twice.rml"
        code = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from rowml.cli import main\n"
            "status = main(['check', sys.argv[2]])\n"
            "unused = {'dataclasses', 'inspect', 'typing', 'rowml.oracle'}\n"
            "print(sorted(unused & set(sys.modules)))\n"
            "sys.exit(status)\n"
        )
        run = subprocess.run(
            [sys.executable, "-S", "-c", code, str(src), str(sample)],
            capture_output=True, encoding="utf-8", timeout=60,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            f"{sample}: {pretty_scheme(infer_program(sample.read_text(encoding='utf-8')))}", "[]"
        ]

    def test_record_file(self, tmp_path, capsys):
        path = write(tmp_path, "rec.rml", '{name = "Ana", age = 7}')
        assert main(["check", path]) == 0
        assert capsys.readouterr().out == f"{path}: Rec {{age:Int, name:String}}\n"

    def test_scheme_shows_the_labels_a_row_variable_lacks(self, tmp_path, capsys):
        path = write(tmp_path, "lacks.rml", "\\r. (\\s. \\t. 1) {a = 1 | r} {b = 2 | {x = 3 | r}}")
        assert main(["check", path]) == 0
        assert capsys.readouterr().out == f"{path}: ∀a:row∖{{a, b, x}}. Rec {{ | a}} -> Int\n"

    @pytest.mark.parametrize(
        "src",
        [
            "(\\r. let s = {a = 1 | r} in 1) {a = 5}",
            "(\\r. let s = {a = 1 | r} in r.a) {a = 5}",
            "(\\r. let s = {a = 1 | r} in let t = 3 in r.a) {a = 5}",
            "let f = \\r. (\\s. 1) {a = 1 | r} in f {a = 5}",
        ],
    )
    def test_extending_a_record_with_a_label_it_has_is_an_error(self, tmp_path, capsys, src):
        path = write(tmp_path, "dup.rml", src)
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{path}:1:") and "duplicate record label 'a'" in out

    def test_missing_label_reports_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.rml", "(\\r. r.name) {age = 7}")
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"{path}:1:")
        assert "error" in out and "name" in out

    @pytest.mark.parametrize(
        "src, line",
        [
            ("1 2", "1:1: error: cannot unify Int with Int -> a"),
            ("\\f. f f", "1:5: error: infinite type: a occurs in a -> b"),
            ("(\\r. r.name) {age = 7}", "1:1: error: record row {age:Int} lacks label 'name'"),
            (
                "\\r. (\\f. f r (f {x = 1 | r} 1)) (\\a. \\b. b)",
                "1:15: error: row variable a would have to contain itself to match {x:Int | a}",
            ),
            ("{a = 1 | {a = 2}}", "1:1: error: duplicate record label 'a'"),
            # A row's variables are named by letter, as in every message.
            ("\\y. {a = y}.b", "1:5: error: record row {a:a} lacks label 'b'"),
        ],
        ids=[
            "Mismatch",
            "OccursCheck",
            "RowMissingLabel",
            "RowTailEscape",
            "DuplicateLabel",
            "RowMissingLabel-variable",
        ],
    )
    def test_each_unifier_failure_prints_its_exact_message(self, tmp_path, capsys, src, line):
        path = write(tmp_path, "bad.rml", src + "\n")
        assert main(["check", path]) == 1
        assert capsys.readouterr().out == f"{path}:{line}\n"

    def test_parse_error_location(self, tmp_path, capsys):
        path = write(tmp_path, "syn.rml", "let x = in x")
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1:9: error:" in out

    def test_error_location_counts_lines_and_characters(self, tmp_path, capsys):
        # CRLF line ends, a comment and a non-ASCII identifier: 'naïve'
        # is on line 3 after two spaces and "café ", so at column 8.
        path = tmp_path / "located.rml"
        path.write_bytes("-- grüße\r\nlet café = \\x. x in\r\n  café naïve\r\n".encode("utf-8"))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == f"{path}:3:8: error: unbound variable 'naïve'\n"

    def test_a_lone_carriage_return_does_not_end_a_line(self, tmp_path, capsys):
        # Lines end at LF only: the CLI reports the library's span.
        path = tmp_path / "cr.rml"
        path.write_bytes(b"1\r)")
        with pytest.raises(ParseError) as info:
            infer_program("1\r)")
        span = info.value.span
        assert line_col("1\r)", span.start) == (1, 3)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == f"{path}:1:3: error: {info.value}\n"

    @pytest.mark.parametrize(
        "text, status, expected",
        [
            ("\ufeff\\x. x", 0, ": ∀a:*. a -> a"),
            ("1\ufeff", 1, ":1:2: error: expected a token, found '\\ufeff'"),
            ("\ufeff\ufeff1", 1, ":1:1: error: expected a token, found '\\ufeff'"),
        ],
        ids=["leading", "after_a_token", "two_leading"],
    )
    def test_one_leading_byte_order_mark_is_skipped(self, tmp_path, capsys, text, status, expected):
        path = write(tmp_path, "bom.rml", text)
        assert main(["check", path]) == status
        assert capsys.readouterr().out == f"{path}{expected}\n"

    def test_processes_every_file(self, tmp_path, capsys):
        good = write(tmp_path, "good.rml", "42")
        bad = write(tmp_path, "bad.rml", "7 8")
        assert main(["check", good, bad]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0] == f"{good}: Int"
        assert "error" in lines[1]

    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys):
        good = write(tmp_path, "good.rml", "42")
        missing = str(tmp_path / "nope.rml")
        assert main(["check", missing, good]) == 2
        captured = capsys.readouterr()
        assert "cannot read" in captured.err
        assert f"{good}: Int" in captured.out  # still processed

    def test_non_utf8_file_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.rml"
        bad.write_bytes(b'"caf\xe9"')
        good = write(tmp_path, "good.rml", "42")
        assert main(["check", str(bad), good]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"rowml: cannot read {bad}: ")
        assert "Traceback" not in captured.err
        assert f"{good}: Int" in captured.out

    def test_output_is_deterministic(self, tmp_path, capsys):
        paths = [
            write(tmp_path, "a.rml", "let f = \\r. r.x in \\y. f {x = y, z = y}"),
            write(tmp_path, "b.rml", '{b = 1, a = "s", c = {}}'),
            write(tmp_path, "c.rml", "\\r. {n = 1 | r - n}"),
        ]
        assert cmd_check(paths) == 0
        first = capsys.readouterr().out
        assert cmd_check(paths) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    @pytest.mark.parametrize(
        "src",
        [
            "(" * 2000 + "1" + ")" * 2000,
            "".join(f"\\x{i}. " for i in range(1500)) + "1",
            "(\\f. f) " + " ".join(["1"] * 5000),
            "\\r. " + "".join(f"{{a{i} = {i} | " for i in range(400)) + "r" + "}" * 400,
            "\\r. r" + ".a" * 3000,
            "{a = " * 800 + "1" + "}" * 800,
            "".join(f"let x{i} = {i} in " for i in range(1500)) + "x0",
            # The term nests 400 deep, but x_i's type is i records deep,
            # and the result resolves and prints x399's type.
            deep_let_bound_records("x399"),
        ],
        ids=[
            "parens",
            "lambdas",
            "application",
            "extensions",
            "selections",
            "records",
            "lets",
            "let_bound_records_used",
        ],
    )
    def test_deep_nesting_is_a_located_error(self, tmp_path, capsys, src):
        path = write(tmp_path, "deep.rml", src)
        assert main(["check", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"{path}:1:1: error: program nested too deeply\n"
        assert captured.err == ""

    def test_deep_let_bound_records_check_where_their_types_are_unused(self, tmp_path, capsys):
        # No bound after z's makes a type variable, so no later `let`
        # generalizes and no walk of a type meets the 400 nested records.
        path = write(tmp_path, "deep.rml", deep_let_bound_records("1"))
        assert main(["check", path]) == 0
        assert capsys.readouterr().out == f"{path}: Int\n"

    @settings(deadline=None)
    @given(st.data())
    def test_an_unbound_name_is_located_where_it_was_placed(self, data):
        # Lines joined by LF or CRLF, indented by tabs and spaces, with
        # comments, non-ASCII names and a lone CR between tokens; the
        # line and column of the one unbound name are counted here.
        draw = data.draw
        indent = st.text(alphabet=" \t", max_size=3)
        blank = st.sampled_from((" ", "\t", "\r", " \r\t"))
        comment = st.text(alphabet="aé名 \t\r-", max_size=6).map(lambda text: "--" + text)
        name = draw(st.sampled_from(("naïve", "ghost", "名前", "ü_1")))
        lets = draw(st.integers(min_value=0, max_value=4))
        target = draw(st.integers(min_value=0, max_value=lets))  # `lets` is the body
        lines = []
        for i in range(lets + 1):
            if draw(st.booleans()):
                lines.append(draw(indent) + draw(comment))
            line = draw(indent)
            if i < lets:
                var = draw(st.sampled_from(("x", "é", "名", "_y"))) + str(i)
                line += f"let{draw(blank)}{var}{draw(blank)}={draw(blank)}"
            if i == target:
                line += f"{{a{draw(blank)}={draw(blank)}1,{draw(blank)}b ={draw(blank)}"
                location = (len(lines) + 1, len(line) + 1)
                line += name + "}"
            else:
                line += draw(st.sampled_from(("1", "٣", '"é"', '"名\\t"')))
            if i < lets:
                line += draw(blank) + "in"
            if draw(st.booleans()):
                line += " " + draw(comment)
            lines.append(line)
        ends = [draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
        src = "".join(line + end for line, end in zip(lines, ends))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "located.rml")
            with open(path, "wb") as handle:
                handle.write(src.encode("utf-8"))
            out = io.StringIO()
            assert cmd_check([path], out=out) == 1
        line, col = location
        assert out.getvalue() == f"{path}:{line}:{col}: error: unbound variable '{name}'\n"

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=40))
    def test_any_bytes_end_with_an_exit_status(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "any.rml")
            with open(path, "wb") as handle:
                handle.write(data)
            out, err = io.StringIO(), io.StringIO()
            assert cmd_check([path], out=out, err=err) in (0, 1, 2)

    def test_usage_error_without_files(self):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2


class TestRepl:
    def run(self, script: str) -> str:
        out = io.StringIO()
        assert cmd_repl(stdin=io.StringIO(script), out=out) == 0
        return out.getvalue()

    def test_schemes_and_quit(self):
        output = self.run("\\x. x\n:quit\nnever seen\n")
        assert output == "∀a:*. a -> a\n"

    def test_type_prefix_is_optional(self):
        output = self.run(":type 42\n42\n")
        assert output == "Int\nInt\n"

    def test_row_polymorphic_call(self):
        output = self.run('let f = \\r. r.name in f {name = "a", age = 1}\n')
        assert output == "String\n"

    def test_errors_do_not_stop_the_loop(self):
        output = self.run("7 8\n1\n")
        lines = output.splitlines()
        assert lines[0].startswith("error:")
        assert lines[1] == "Int"

    def test_deep_nesting_does_not_stop_the_loop(self):
        output = self.run("(" * 2000 + "1" + ")" * 2000 + "\n1\n")
        assert output == "error: program nested too deeply\nInt\n"

    def test_blank_lines_are_skipped(self):
        assert self.run("\n  \n1\n") == "Int\n"

    def test_a_byte_order_mark_is_skipped_on_the_first_line(self):
        assert self.run("\ufeff\\x. x\n") == "∀a:*. a -> a\n"

    @pytest.mark.parametrize(
        "line, found", [("1\f\n", "'\\x0c'"), ("\u00a01\n", "'\\xa0'"), ("1\u2003\n", "'\\u2003'")]
    )
    def test_only_the_lexer_s_whitespace_is_stripped(self, line, found):
        # Form feed and Unicode spaces are no whitespace to the lexer, so
        # the REPL reports them as `rowml check` does.
        assert self.run(line + "1\n") == f"error: expected a token, found {found}\nInt\n"

    def test_a_byte_order_mark_on_a_later_line_is_an_error(self):
        output = self.run("1\n\ufeff\\x. x\n")
        assert output == "Int\nerror: expected a token, found '\\ufeff'\n"


class TestOracleCommand:
    def test_small_campaign_reports_counts(self, capsys):
        assert cmd_oracle(labels=2, types=2, max_size=2, samples=40) == 0
        out = capsys.readouterr().out
        assert out == "526 problems, 0 failures\n"  # 486 exhaustive + 40 sampled

    def test_max_size_zero_is_trivial(self, capsys):
        assert cmd_oracle(labels=1, types=1, max_size=0, samples=0) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_flags_are_validated(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--labels", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--types", "4"], ["--types", "9"], ["--labels", "27"], ["--labels", "99", "--types", "4"]],
    )
    def test_alphabets_beyond_their_range_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "at most 26 labels and 3 base types" in err

    def test_largest_alphabets_are_accepted(self, capsys):
        flags = ["--labels", "26", "--types", "3", "--max-size", "0", "--samples", "20"]
        assert main(["oracle", *flags]) == 0
        assert capsys.readouterr().out == "26 problems, 0 failures\n"  # 6 exhaustive

    def test_main_dispatches(self, capsys):
        assert main(["oracle", "--labels", "1", "--types", "1", "--max-size", "1", "--samples", "5"]) == 0
        assert "failures" in capsys.readouterr().out


class TestPackage:
    def test_the_package_exports_the_library_example_and_no_other_name(self):
        exported = {
            name for name, value in vars(rowml).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)
        }
        assert exported == {"infer_program", "pretty_scheme"}
        src = 'let f = \\r. r.name in f {name = "a", age = 1}'
        assert rowml.pretty_scheme(rowml.infer_program(src)) == "String"

    def test_a_submodule_is_reached_by_its_dotted_name(self, monkeypatch):
        # A package name that shadows `rowml.unify` would bind here instead.
        import rowml.unify as unify_module

        assert unify_module.Subst.__module__ == "rowml.unify"
        monkeypatch.setattr("rowml.unify.pretty_types_shared", lambda types: ["ROW" for _ in types])
        assert str(unify_module.RowMissingLabel("a", TRow({}))) == "record row ROW lacks label 'a'"
