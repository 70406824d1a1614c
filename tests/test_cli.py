import subprocess
import sys
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "aspkit"]


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        BASE + list(args), capture_output=True, text=True, cwd=cwd, timeout=120
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

    def test_filter_invalid_with_clingo(self, bundle_dir):
        code, _, err = run_cli(
            "solve", "--system", "clingo", "--filter", "color", str(bundle_dir / "3col-k3.lp")
        )
        assert code == 2
        assert "--filter" in err

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
        code, _, err = run_cli("solve", str(bad))
        assert code == 1
        assert "error:" in err

    def test_unsafe_program_exits_one(self, tmp_path):
        bad = tmp_path / "unsafe.lp"
        bad.write_text("p(X) :- not q(X).\n")
        code, _, err = run_cli("solve", str(bad))
        assert code == 1
        assert "unsafe" in err

    def test_limit_exceeded_exits_one(self, bundle_dir):
        code, _, err = run_cli(
            "solve", "--limit-atoms", "3", str(bundle_dir / "3col-k3.lp")
        )
        assert code == 1
        assert "exceeds limit" in err

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
        code, _, err = run_cli("solve", "/no/such/file.lp")
        assert code == 1

    def test_determinism_two_runs(self, bundle_dir):
        results = [
            run_cli("solve", "--system", "ref", str(bundle_dir / "3col-k3.lp"))
            for _ in range(2)
        ]
        assert results[0] == results[1]


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
