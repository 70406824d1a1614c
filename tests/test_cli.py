import hashlib
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from aspkit import cli, encodings
from aspkit.orchestration import Handler, InputProgram
from aspkit.syntax import parse_program
from aspkit.systems import reference_solver

BASE = [sys.executable, "-m", "aspkit"]


def run_cli(*args, cwd=None, env=None):
    proc = subprocess.run(
        BASE + list(args),
        capture_output=True,
        text=True,
        cwd=cwd,
        env=None if env is None else {**os.environ, **env},
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    dest = tmp_path_factory.mktemp("bundles")
    for name in ("3col", "ramsey", "sudoku-toy", "dlvfit"):
        code, _, _ = run_cli("examples", name, "--dest", str(dest))
        assert code == 0
    return dest


class TestSolve:
    def test_k3_six_sets_exit_zero(self, bundle_dir):
        code, out, _ = run_cli("solve", "--system", "ref", str(bundle_dir / "3col-k3.lp"))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("{") and line.endswith("}") for line in lines)
        assert lines == sorted(lines)

    def test_k4_no_sets_exit_ten(self, bundle_dir):
        code, out, _ = run_cli("solve", "--system", "ref", str(bundle_dir / "3col-k4.lp"))
        assert code == 10
        assert out == ""

    def test_model_count_flag_truncates(self, bundle_dir):
        code, out, _ = run_cli(
            "solve", "-n", "2", "--system", "ref", str(bundle_dir / "3col-k3.lp")
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_model_count_flag_prints_a_prefix_of_the_full_order(self, bundle_dir):
        path = str(bundle_dir / "3col-k3-isolated.lp")
        _, full, _ = run_cli("solve", "--system", "ref", path)
        lines = full.splitlines()
        assert len(lines) == 18
        assert lines == sorted(lines)
        for k in (1, 5, 17):
            code, out, _ = run_cli("solve", "-n", str(k), "--system", "ref", path)
            assert code == 0
            assert out.splitlines() == lines[:k]

    def test_filter_projects_predicates(self, bundle_dir):
        code, out, _ = run_cli(
            "solve", "--filter", "color", "--system", "ref", str(bundle_dir / "3col-k3.lp")
        )
        assert code == 0
        assert "node(" not in out and "color(" in out

    def test_optimize_prints_cost_lines(self, bundle_dir):
        code, out, _ = run_cli(
            "solve", "--system", "ref", "--optimize", str(bundle_dir / "dlvfit-fragment.lp")
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert 'activity_to_do("RUNNING",20)' in lines[0]
        assert lines[1] == "Cost: [1:3, 20:2]"

    def test_multiple_input_files(self, bundle_dir, tmp_path):
        encoding = tmp_path / "enc.lp"
        encoding.write_text("p(X) :- q(X).\n")
        facts = tmp_path / "facts.lp"
        facts.write_text("q(1).\n")
        code, out, _ = run_cli("solve", str(encoding), str(facts))
        assert code == 0
        assert out == "{p(1), q(1)}\n"

    def test_parse_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.lp"
        bad.write_text("p(.\n")
        assert run_cli("solve", str(bad)) == (1, "", "error: 1:3: expected a term, found '.'\n")

    def test_integer_too_long_exits_one(self, tmp_path):
        bad = tmp_path / "long.lp"
        bad.write_text(f"p({'1' * 5000}).\n")  # more digits than int() reads from text
        assert run_cli("solve", str(bad)) == (1, "", "error: 1:3: integer too long (5000 digits)\n")

    def test_unsafe_program_exits_one(self, tmp_path):
        bad = tmp_path / "unsafe.lp"
        bad.write_text("p(X) :- not q(X).\n")
        assert run_cli("solve", str(bad)) == (
            1, "", "error: statement 0: unsafe variables X in `p(X) :- not q(X).`\n"
        )

    def test_limit_exceeded_exits_one(self, bundle_dir):
        assert run_cli("solve", "--limit-atoms", "3", str(bundle_dir / "3col-k3.lp")) == (
            1, "", "error: candidate atoms: 9 exceeds limit 3\n"
        )

    def test_limit_flag_can_raise_the_bound(self, tmp_path):
        # 24 candidate atoms, kept quick by pinning half the pairs
        text = "".join(f"a{i} | b{i}. " for i in range(12))
        text += "".join(f":- a{i}. " for i in range(6))
        source = tmp_path / "wide.lp"
        source.write_text(text)
        code, out, _ = run_cli("solve", "--limit-atoms", "24", "-n", "1", str(source))
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_missing_file_exits_one(self):
        assert run_cli("solve", "/no/such/file.lp") == (
            1, "", "error: [Errno 2] No such file or directory: '/no/such/file.lp'\n"
        )

    def test_quoted_strings_with_spaces(self, tmp_path):
        source = tmp_path / "q.lp"
        source.write_text('p("x y").\n')
        assert run_cli("solve", str(source)) == (0, '{p("x y")}\n', "")

    def test_optimize_with_model_count_cuts_the_optimal_sets(self, tmp_path):
        source = tmp_path / "opt.lp"
        source.write_text("a | b | c. :~ c. [1:1]\n")
        assert run_cli("solve", "--optimize", "-n", "1", str(source)) == (
            0, "{a}\nCost: []\n", ""
        )

    def test_filter_without_matching_predicate_prints_empty_sets(self, bundle_dir):
        code, out, _ = run_cli("solve", "--filter", "colour", str(bundle_dir / "3col-k3.lp"))
        assert (code, out) == (0, "{}\n" * 6)

    @pytest.mark.parametrize("system", ["ref", "clingo", "dlv"])
    @pytest.mark.parametrize(
        "names, bad",
        [("Color", "Color"), ("color,Bad Name", "Bad Name"), ("", ""), ("not", "not")],
    )
    def test_filter_names_are_checked_for_every_system(self, bundle_dir, system, names, bad):
        assert run_cli(
            "solve", "--system", system, "--filter", names, str(bundle_dir / "3col-k3.lp")
        ) == (1, "", f"error: invalid predicate name {bad!r}\n")

    def test_determinism_two_runs(self, bundle_dir):
        results = [
            run_cli("solve", "--system", "ref", str(bundle_dir / "3col-k3.lp"))
            for _ in range(2)
        ]
        assert results[0] == results[1]


def fake_solver(tmp_path, name: str, output: str, code: int = 0) -> str:
    """Executable that records its arguments in `<name>.args` and prints ``output``."""
    (tmp_path / f"{name}.txt").write_text(output)
    path = tmp_path / name
    path.write_text(
        f'#!/bin/sh\nprintf "%s\\n" "$@" > "{tmp_path}/{name}.args"\n'
        f'cat "{tmp_path}/{name}.txt"\necho "solver failed" >&2\nexit {code}\n'
    )
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def recorded_args(tmp_path, name: str) -> list[str]:
    """Arguments before the one naming stdin as the input, which comes last."""
    return (tmp_path / f"{name}.args").read_text().splitlines()[:-1]


CLINGO_IMPROVING = """Solving...
Answer: 1
c
Optimization: 5
Answer: 2
b
Optimization: 2
Answer: 3
a
Optimization: 2
OPTIMUM FOUND
"""


class TestExternalSystems:
    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "p.lp"
        path.write_text("a | b | c.\n")
        return str(path)

    def test_clingo_models_are_sorted(self, tmp_path, program):
        clingo = fake_solver(tmp_path, "clingo", "Answer: 1\nb\nAnswer: 2\na\nSATISFIABLE\n", 10)
        result = run_cli("solve", "--system", "clingo", program, env={"ASP_EMBED_CLINGO": clingo})
        assert result == (0, "{a}\n{b}\n", "")
        assert recorded_args(tmp_path, "clingo") == ["0"]

    def test_clingo_optimize_keeps_the_lowest_cost_models(self, tmp_path, program):
        clingo = fake_solver(tmp_path, "clingo", CLINGO_IMPROVING, 30)
        env = {"ASP_EMBED_CLINGO": clingo}
        result = run_cli("solve", "--system", "clingo", "--optimize", program, env=env)
        assert result == (0, "{a}\nCost: [2:0]\n{b}\nCost: [2:0]\n", "")
        result = run_cli("solve", "--system", "clingo", "--optimize", "-n", "1", program, env=env)
        assert result == (0, "{a}\nCost: [2:0]\n", "")

    def test_optimize_asks_the_solver_for_all_models(self, tmp_path, program):
        clingo = fake_solver(tmp_path, "clingo", CLINGO_IMPROVING, 30)
        run_cli("solve", "--system", "clingo", "--optimize", "-n", "2", program,
                env={"ASP_EMBED_CLINGO": clingo})
        assert recorded_args(tmp_path, "clingo") == ["0"]

    def test_clingo_output_is_projected_by_the_filter(self, tmp_path, program):
        clingo = fake_solver(
            tmp_path, "clingo", "Answer: 1\ncolor(1,r) node(1)\nAnswer: 2\ncolor(1,g) node(1)\n", 10
        )
        result = run_cli("solve", "--system", "clingo", "--filter", "color", program,
                         env={"ASP_EMBED_CLINGO": clingo})
        assert result == (0, "{color(1,g)}\n{color(1,r)}\n", "")
        assert recorded_args(tmp_path, "clingo") == ["0"]

    def test_dlv_gets_the_model_count_and_filter(self, tmp_path, program):
        # the filter projects the parsed sets; DLV itself gets only the model count
        dlv = fake_solver(tmp_path, "dlv", "{color(1,r), node(1)}\n{color(1,g), node(1)}\n")
        result = run_cli("solve", "--system", "dlv", "-n", "2", "--filter", "color", program,
                         env={"ASP_EMBED_DLV": dlv})
        assert result == (0, "{color(1,g)}\n{color(1,r)}\n", "")
        assert recorded_args(tmp_path, "dlv") == ["-n=2"]

    @pytest.mark.parametrize("system, code", [("clingo", 1), ("dlv", 10)])
    def test_nonzero_exit_is_an_error(self, tmp_path, program, system, code):
        solver = fake_solver(tmp_path, system, "", code)
        env = {"ASP_EMBED_CLINGO": solver, "ASP_EMBED_DLV": solver}
        assert run_cli("solve", "--system", system, program, env=env) == (
            1, "", f"error: solver exited with code {code}: solver failed\n"
        )


class TestCheck:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_yes(self, tmp_path):
        prog = self.write(tmp_path, "p.lp", "a :- not b.\n")
        interp = self.write(tmp_path, "i.lp", "a.\n")
        code, out, _ = run_cli("check", prog, "-I", interp)
        assert (code, out) == (0, "yes\n")

    def test_not_minimal(self, tmp_path):
        prog = self.write(tmp_path, "p.lp", "a :- a.\n")
        interp = self.write(tmp_path, "i.lp", "a.\n")
        code, out, _ = run_cli("check", prog, "-I", interp)
        assert (code, out) == (10, "not_minimal\n")

    def test_not_a_model(self, tmp_path):
        prog = self.write(tmp_path, "p.lp", "a.\n")
        interp = self.write(tmp_path, "i.lp", "")
        code, out, _ = run_cli("check", prog, "-I", interp)
        assert (code, out) == (10, "not_a_model\n")

    def test_interpretation_must_be_facts(self, tmp_path):
        prog = self.write(tmp_path, "p.lp", "a.\n")
        interp = self.write(tmp_path, "i.lp", "a :- b.\n")
        code, _, err = run_cli("check", prog, "-I", interp)
        assert code == 1
        assert "ground facts" in err

    def test_variable_in_interpretation_is_an_error(self, tmp_path):
        prog = self.write(tmp_path, "p.lp", "a.\n")
        interp = self.write(tmp_path, "i.lp", "p(X).\n")
        code, _, err = run_cli("check", prog, "-I", interp)
        assert code == 1


class TestMultipleFiles:
    """The command line joins its files as `Handler` joins file parts."""

    @pytest.fixture
    def paths(self, tmp_path):
        (tmp_path / "t3.lp").write_text("a.\n")
        (tmp_path / "t2.lp").write_text("b.\nc(.\n")
        (tmp_path / "i.lp").write_text("a.\n")
        return [str(tmp_path / "t3.lp"), str(tmp_path / "t2.lp")]

    @pytest.mark.parametrize("command", ["solve", "check", "ground"])
    def test_parse_error_placed_as_by_handler(self, paths, command, capsys):
        program = InputProgram()
        for path in paths:
            program.add_file(path)
        handler = Handler(reference_solver())
        handler.add_program(program)
        message = handler.start_sync().error.message
        assert message == "3:3: expected a term, found '.'"
        interpretation = ["-I", str(Path(paths[0]).parent / "i.lp")] if command == "check" else []
        assert cli.main([command, *paths, *interpretation]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"


class TestGround:
    def test_two_statements(self, tmp_path):
        source = tmp_path / "g.lp"
        source.write_text("p(X) :- q(X).\nq(1).\n")
        code, out, _ = run_cli("ground", str(source))
        assert code == 0
        assert out == "p(1) :- q(1).\nq(1).\n"

    def test_limit_exceeded(self, tmp_path):
        source = tmp_path / "g.lp"
        source.write_text("p(1). p(2). p(3). q(X,Y,Z) :- p(X), p(Y), p(Z).\n")
        code, _, err = run_cli("ground", "--limit-rules", "10", str(source))
        assert code == 1
        assert "exceeds limit" in err

    def test_ground_output_re_solves_identically(self, bundle_dir, tmp_path):
        original = str(bundle_dir / "3col-k3.lp")
        code, grounded, _ = run_cli("ground", original)
        assert code == 0
        reground = tmp_path / "grounded.lp"
        reground.write_text(grounded)
        first = run_cli("solve", original)
        second = run_cli("solve", str(reground))
        assert first == second


class TestExamples:
    def test_writes_files(self, tmp_path):
        code, out, _ = run_cli("examples", "3col", "--dest", str(tmp_path))
        assert code == 0
        written = [line.split(" ", 1)[1] for line in out.splitlines()]
        assert all(Path(p).exists() for p in written)
        assert any(p.endswith("3col-k3.lp") for p in written)

    def test_unknown_name_is_usage_error(self, tmp_path):
        code, _, err = run_cli("examples", "mystery", "--dest", str(tmp_path))
        assert code == 2

    def test_all_bundles(self, tmp_path):
        for name in ("3col", "ramsey", "sudoku", "sudoku-toy", "dlvfit"):
            code, _, _ = run_cli("examples", name, "--dest", str(tmp_path))
            assert code == 0


class TestUsage:
    def test_no_command(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_negative_model_count(self, bundle_dir):
        code, _, _ = run_cli("solve", "-n", "-2", str(bundle_dir / "3col-k3.lp"))
        assert code == 2

    @pytest.mark.parametrize("command", ["solve", "ground", "check"])
    @pytest.mark.parametrize("flag,value", [("--limit-atoms", "0"), ("--limit-rules", "-1")])
    def test_non_positive_limit_is_a_usage_error(self, bundle_dir, command, flag, value):
        source = str(bundle_dir / "3col-k3.lp")
        extra = ["-I", source] if command == "check" else []
        code, out, err = run_cli(command, flag, value, *extra, source)
        assert (code, out) == (2, "")
        assert f"argument {flag}: must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value", [("--limit-atoms", "١"), ("--limit-rules", " 1_0 "), ("-n", "١"), ("-n", "+3")]
    )
    def test_numbers_are_ascii_digits_only(self, bundle_dir, flag, value):
        code, out, err = run_cli("solve", flag, value, str(bundle_dir / "3col-k3.lp"))
        assert (code, out) == (2, "")
        assert f"integer, got {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,kind",
        [("--models", "non-negative"), ("--limit-atoms", "positive"), ("--limit-rules", "positive")],
    )
    def test_number_too_long_to_read(self, bundle_dir, flag, kind):
        value = "1" * 5000  # more digits than int() reads from text
        code, out, err = run_cli("solve", flag, value, str(bundle_dir / "3col-k3.lp"))
        assert (code, out) == (2, "")
        assert f"{flag}: must be a {kind} integer, got '{value}'" in err


# ---------------------------------------------------------------------------
# `aspkit solve` output, pinned
# ---------------------------------------------------------------------------

# Every bundled file but the 9x9 sudoku, whose grounding alone takes seconds.
SOLVE_FILES = {
    name: text
    for files in encodings.BUNDLES.values()
    for name, text in files
    if name != "sudoku.lp"
}

SOLVE_FLAGS = {"plain": (), "n1": ("-n", "1"), "optimize": ("--optimize",), "filter": None}

OVER_LIMIT = "error: candidate atoms: 72 exceeds limit 22\n"

# (exit code, first 16 hex digits of the SHA-256 of stdout, stderr) of
# `aspkit solve [FLAGS] FILE`, recorded before the model search was shared with
# the minimality checks; the filter keeps the file's first head predicate.
SOLVE_DIGESTS = {
    ("3col-k3-isolated.lp", "filter"): (0, "9e1479c10e1560cb", ""),
    ("3col-k3-isolated.lp", "n1"): (0, "f02ca8451e27cdac", ""),
    ("3col-k3-isolated.lp", "optimize"): (0, "c9fca690b557cfdb", ""),
    ("3col-k3-isolated.lp", "plain"): (0, "8a3fb84bba1803c5", ""),
    ("3col-k3.lp", "filter"): (0, "8077960563498733", ""),
    ("3col-k3.lp", "n1"): (0, "1f587cc29cfb515b", ""),
    ("3col-k3.lp", "optimize"): (0, "56fee51becfc2ed0", ""),
    ("3col-k3.lp", "plain"): (0, "b5e75991e33632c4", ""),
    ("3col-k4.lp", "filter"): (10, "e3b0c44298fc1c14", ""),
    ("3col-k4.lp", "n1"): (10, "e3b0c44298fc1c14", ""),
    ("3col-k4.lp", "optimize"): (10, "e3b0c44298fc1c14", ""),
    ("3col-k4.lp", "plain"): (10, "e3b0c44298fc1c14", ""),
    ("dlvfit-fragment.lp", "filter"): (0, "d3c23c14d5abc8d2", ""),
    ("dlvfit-fragment.lp", "n1"): (0, "a7f33e532108fd71", ""),
    ("dlvfit-fragment.lp", "optimize"): (0, "e69f2c5a7cba5731", ""),
    ("dlvfit-fragment.lp", "plain"): (0, "a7f33e532108fd71", ""),
    ("ramsey-n3.lp", "filter"): (0, "b931e9653d0d2ce5", ""),
    ("ramsey-n3.lp", "n1"): (0, "fd1827c83cece8de", ""),
    ("ramsey-n3.lp", "optimize"): (0, "52947cff4684d916", ""),
    ("ramsey-n3.lp", "plain"): (0, "b34febced404e172", ""),
    ("ramsey-n9.lp", "filter"): (1, "e3b0c44298fc1c14", OVER_LIMIT),
    ("ramsey-n9.lp", "n1"): (1, "e3b0c44298fc1c14", OVER_LIMIT),
    ("ramsey-n9.lp", "optimize"): (1, "e3b0c44298fc1c14", OVER_LIMIT),
    ("ramsey-n9.lp", "plain"): (1, "e3b0c44298fc1c14", OVER_LIMIT),
    ("sudoku-toy-given.lp", "filter"): (0, "2fb7ba82c5e9cdc1", ""),
    ("sudoku-toy-given.lp", "n1"): (0, "8b6f77d178d6da31", ""),
    ("sudoku-toy-given.lp", "optimize"): (0, "0386d352dd3231a7", ""),
    ("sudoku-toy-given.lp", "plain"): (0, "8b6f77d178d6da31", ""),
    ("sudoku-toy.lp", "filter"): (0, "d972b545b848a509", ""),
    ("sudoku-toy.lp", "n1"): (0, "8b6f77d178d6da31", ""),
    ("sudoku-toy.lp", "optimize"): (0, "e46534dd91652a36", ""),
    ("sudoku-toy.lp", "plain"): (0, "46c55633ee303ec8", ""),
}


def first_head_predicate(text: str) -> str:
    return next(a.predicate for r in parse_program(text).rules for a in r.head)


class TestSolveOutputPinned:
    @pytest.mark.parametrize("name,flags", sorted(SOLVE_DIGESTS))
    def test_solve_output_unchanged(self, name, flags, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(SOLVE_FILES[name])
        extra = SOLVE_FLAGS[flags]
        if extra is None:
            extra = ("--filter", first_head_predicate(SOLVE_FILES[name]))
        code = cli.main(["solve", *extra, str(path)])
        captured = capsys.readouterr()
        digest = hashlib.sha256(captured.out.encode()).hexdigest()[:16]
        assert (code, digest, captured.err) == SOLVE_DIGESTS[name, flags]

    def test_every_file_and_flag_set_is_pinned(self):
        assert set(SOLVE_DIGESTS) == {(n, f) for n in SOLVE_FILES for f in SOLVE_FLAGS}


class TestInProcessCalls:
    def test_calls_share_one_parser_and_print_the_same(self, tmp_path, capsys):
        path = tmp_path / "3col-k3.lp"
        path.write_text(SOLVE_FILES["3col-k3.lp"])

        def solve(*flags):
            code = cli.main(["solve", *flags, str(path)])
            return code, capsys.readouterr().out

        cli.build_parser.cache_clear()
        first = solve()
        prefix = solve("-n", "1")
        with pytest.raises(SystemExit) as caught:  # a usage error leaves the parser as it was
            cli.main(["solve", "-n", "-1", str(path)])
        assert caught.value.code == 2
        capsys.readouterr()
        assert solve() == first
        assert first[0] == prefix[0] == 0
        assert first[1].splitlines()[:1] == prefix[1].splitlines()
        assert cli.build_parser.cache_info().misses == 1
