import stat
from pathlib import Path

import pytest

from aspkit.errors import (
    EmptyFilter,
    MalformedOutput,
    NonzeroExit,
    SolverNotFound,
    SolverTimeout,
)
from aspkit.refeval import AnswerSet, answer_sets
from aspkit.syntax import parse_program
from aspkit.systems import (
    AnswerSets,
    SolverSpec,
    clingo_solver,
    dlv_solver,
    filter_option,
    invoke_solver,
    models_option,
    parse_clingo_output,
    parse_dlv_output,
    reference_solver,
    render_reference_output,
    resolve_executable,
)

FIXTURES = Path(__file__).parent / "fixtures"


def atoms_of(*texts: str) -> frozenset:
    out = set()
    for text in texts:
        out.add(parse_program(text + ".").rules[0].head[0])
    return frozenset(out)


def answer(*texts: str, cost: dict | None = None) -> AnswerSet:
    return AnswerSet(atoms=atoms_of(*texts), cost=cost or {})


@pytest.fixture(autouse=True)
def no_env_overrides(monkeypatch):
    monkeypatch.delenv("ASP_EMBED_CLINGO", raising=False)
    monkeypatch.delenv("ASP_EMBED_DLV", raising=False)


def make_script(tmp_path, name: str, body: str) -> str:
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


class TestOptionBuilders:
    def test_filter_single(self):
        assert filter_option(["cell"]).as_args() == ["-filter=cell"]

    def test_filter_join(self):
        assert filter_option(["a", "b"]).as_args() == ["-filter=a,b"]

    def test_filter_empty(self):
        with pytest.raises(EmptyFilter):
            filter_option([])

    def test_filter_bad_name(self):
        with pytest.raises(EmptyFilter):
            filter_option(["Bad Name"])

    def test_models_clingo_all(self):
        assert models_option(0, "clingo").as_args() == ["0"]

    def test_models_clingo_one(self):
        assert models_option(1, "clingo").as_args() == ["1"]

    def test_models_dlv(self):
        assert models_option(5, "dlv").as_args() == ["-n=5"]


CLINGO_EXPECTED = {
    "sat_simple": AnswerSets(sets=(answer("a", "b(1)"),), satisfiable="sat"),
    "unsat": AnswerSets(sets=(), satisfiable="unsat"),
    "empty_model": AnswerSets(sets=(AnswerSet(atoms=frozenset(), cost={}),), satisfiable="sat"),
    "two_models": AnswerSets(sets=(answer("a"), answer("b")), satisfiable="sat"),
    "optimum": AnswerSets(
        sets=(answer("a", cost={1: 1, 0: 20}), answer("b", cost={0: 20})),
        satisfiable="sat",
        optimum_found=True,
    ),
    "opt_intermediate": AnswerSets(sets=(answer("a", cost={0: 7}),), satisfiable="sat"),
    "quoted": AnswerSets(
        sets=(answer('activity_to_do("RUNNING",20)', 'mood("HAPPY")'),),
        satisfiable="sat",
    ),
    "negative_int": AnswerSets(sets=(answer("delta(0)", "level(-3)"),), satisfiable="sat"),
    "unknown": AnswerSets(sets=(), satisfiable="unknown"),
    "noisy": AnswerSets(sets=(answer("p(1)", "q(1)"),), satisfiable="sat"),
    "zero_cost": AnswerSets(sets=(answer("a"),), satisfiable="sat", optimum_found=True),
}

DLV_EXPECTED = {
    "simple": AnswerSets(sets=(answer("a", "b(1)"),), satisfiable="sat"),
    "empty": AnswerSets(sets=(AnswerSet(atoms=frozenset(), cost={}),), satisfiable="sat"),
    "multi": AnswerSets(sets=(answer("color(1,r)"), answer("color(1,g)")), satisfiable="sat"),
    "best_model": AnswerSets(
        sets=(answer("a", cost={1: 1}),), satisfiable="sat", optimum_found=True
    ),
    "incoherent": AnswerSets(sets=(), satisfiable="unsat"),
    "quoted": AnswerSets(sets=(answer('activity_to_do("RUNNING",20)'),), satisfiable="sat"),
    "noise_banner": AnswerSets(sets=(answer("a"),), satisfiable="sat"),
    "filtered": AnswerSets(
        sets=(
            answer("color(1,r)", "color(2,g)", "color(3,y)"),
            answer("color(1,r)", "color(2,y)", "color(3,g)"),
        ),
        satisfiable="sat",
    ),
    "cost_multilevel": AnswerSets(
        sets=(answer("a", "c", cost={1: 1, 2: 20}),), satisfiable="sat", optimum_found=True
    ),
    "best_improving": AnswerSets(
        sets=(answer("a", cost={1: 3}), answer("b")),
        satisfiable="sat",
        optimum_found=True,
    ),
    "zero_arity": AnswerSets(sets=(answer("a", "b", "c"),), satisfiable="sat"),
}


class TestClingoOutputParsing:
    @pytest.mark.parametrize("case", sorted(CLINGO_EXPECTED))
    def test_fixture(self, case):
        raw = (FIXTURES / "clingo" / f"{case}.out").read_text()
        assert parse_clingo_output(raw) == CLINGO_EXPECTED[case]

    def test_corpus_is_complete(self):
        on_disk = {p.stem for p in (FIXTURES / "clingo").glob("*.out")}
        assert on_disk == set(CLINGO_EXPECTED)
        assert len(on_disk) >= 10

    def test_malformed_witness_atom(self):
        with pytest.raises(MalformedOutput):
            parse_clingo_output("Answer: 1\na(\nSATISFIABLE")

    def test_malformed_answer_number(self):
        with pytest.raises(MalformedOutput):
            parse_clingo_output("Answer: x\na\nSATISFIABLE")

    def test_cost_before_any_answer(self):
        with pytest.raises(MalformedOutput):
            parse_clingo_output("Optimization: 1\nSATISFIABLE")

    def test_negative_cost_rejected(self):
        with pytest.raises(MalformedOutput):
            parse_clingo_output("Answer: 1\na\nOptimization: -1\nSATISFIABLE")

    def test_inconsistent_unsat_with_witness(self):
        with pytest.raises(MalformedOutput):
            parse_clingo_output("Answer: 1\na\nUNSATISFIABLE")


class TestDlvOutputParsing:
    @pytest.mark.parametrize("case", sorted(DLV_EXPECTED))
    def test_fixture(self, case):
        raw = (FIXTURES / "dlv" / f"{case}.out").read_text()
        assert parse_dlv_output(raw) == DLV_EXPECTED[case]

    def test_corpus_is_complete(self):
        on_disk = {p.stem for p in (FIXTURES / "dlv").glob("*.out")}
        assert on_disk == set(DLV_EXPECTED)
        assert len(on_disk) >= 10

    def test_unterminated_model_line(self):
        with pytest.raises(MalformedOutput):
            parse_dlv_output("{a, b")

    def test_malformed_atom(self):
        with pytest.raises(MalformedOutput):
            parse_dlv_output("{a,,b}")

    def test_cost_before_model(self):
        with pytest.raises(MalformedOutput):
            parse_dlv_output("Cost ([Weight:Level]): <[1:1]>")

    def test_parentheses_and_commas_inside_quotes(self):
        parsed = parse_dlv_output('{p("a)"), q(1), r("x,(y", 2)}')
        [answer] = parsed.sets
        assert sorted(map(str, answer.atoms)) == ['p("a)")', "q(1)", 'r("x,(y",2)']

    @pytest.mark.parametrize(
        "line", ['{p("a), q(1)}', "{p(a)), q(1)}", "{p(a, q(1)}", "{p(a)), (q(1)}"]
    )
    def test_unbalanced_model_line(self, line):
        with pytest.raises(MalformedOutput):
            parse_dlv_output(line)


class TestReferenceSolver:
    def test_disjunction_enumerated(self):
        raw = invoke_solver(reference_solver(), "a | b.")
        assert "Answer: 1" in raw and "Answer: 2" in raw
        assert "SATISFIABLE" in raw

    def test_unsat_text(self):
        raw = invoke_solver(reference_solver(), "a. :- a.")
        assert "UNSATISFIABLE" in raw

    def test_model_cap_option(self):
        raw = invoke_solver(reference_solver(), "a | b.", [models_option(1, "clingo")])
        assert "Answer: 1" in raw and "Answer: 2" not in raw

    def test_timeout(self):
        with pytest.raises(SolverTimeout):
            invoke_solver(
                reference_solver(),
                "".join(f"a{i} | b{i}. " for i in range(11)),
                timeout=0.001,
            )

    @pytest.mark.parametrize(
        "text",
        [
            "a.",
            "a | b.",
            "a :- not b.",
            "p(1). p(2). q(X) :- p(X).",
            "a | b. :~ a. [2:3]",
            "a | b. c | d. :~ a. [1:2] :~ c. [4:0]",
            "a. :- a.",
        ],
    )
    def test_rendered_output_round_trips(self, text):
        program = parse_program(text)
        sets = answer_sets(program)
        raw = render_reference_output(
            sets, has_weak_constraints=bool(program.weak_constraints)
        )
        parsed = parse_clingo_output(raw)
        expected = AnswerSets(
            sets=tuple(sets),
            satisfiable="sat" if sets else "unsat",
            optimum_found=bool(sets and program.weak_constraints),
        )
        assert parsed == expected


import shutil

_CLINGO = shutil.which("clingo")


@pytest.mark.skipif(_CLINGO is None, reason="no clingo executable available")
class TestExternalAgreement:
    @pytest.mark.parametrize(
        "text",
        [
            "a. b(1).",
            "a | b.",
            "color(X,r) | color(X,y) | color(X,g) :- node(X)."
            ":- arc(X,Y), color(X,C), color(Y,C)."
            "node(1). node(2). node(3). arc(1,2). arc(2,3). arc(1,3).",
            "p(1). p(2). q(X) :- p(X), not r(X).",
        ],
    )
    def test_atom_sets_agree(self, text):
        reference_sets = {s.atoms for s in answer_sets(parse_program(text))}
        raw = invoke_solver(
            clingo_solver(_CLINGO), text, [models_option(0, "clingo")], timeout=60
        )
        external = parse_clingo_output(raw)
        assert {s.atoms for s in external.sets} == reference_sets


class TestInvocation:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SolverSpec(kind="reference", executable="/bin/true")
        with pytest.raises(ValueError):
            SolverSpec(kind="mystery")

    def test_solver_not_found(self):
        with pytest.raises(SolverNotFound):
            invoke_solver(clingo_solver("/no/such/binary"), "a.")

    def test_no_executable_configured(self):
        with pytest.raises(SolverNotFound):
            invoke_solver(dlv_solver(), "a.")

    def test_env_override_wins(self, tmp_path, monkeypatch):
        script = make_script(tmp_path, "fromenv", 'echo "Answer: 1"\necho "a"\necho "SATISFIABLE"\nexit 10\n')
        monkeypatch.setenv("ASP_EMBED_CLINGO", script)
        spec = clingo_solver("/no/such/binary")
        assert resolve_executable(spec) == script
        raw = invoke_solver(spec, "a.")
        assert "Answer: 1" in raw

    @pytest.mark.parametrize("code", [10, 20, 30, 0])
    def test_clingo_family_success_codes(self, tmp_path, code):
        script = make_script(tmp_path, f"exit{code}", f'echo "UNKNOWN"\nexit {code}\n')
        raw = invoke_solver(clingo_solver(script), "a.")
        assert "UNKNOWN" in raw

    @pytest.mark.parametrize("code", [1, 11, 65])
    def test_clingo_family_failure_codes(self, tmp_path, code):
        script = make_script(tmp_path, f"exit{code}", f'echo "oops" >&2\nexit {code}\n')
        with pytest.raises(NonzeroExit) as err:
            invoke_solver(clingo_solver(script), "a.")
        assert err.value.code == code
        assert "oops" in err.value.stderr

    def test_dlv_only_zero_is_success(self, tmp_path):
        ok = make_script(tmp_path, "dlv0", 'echo "{a}"\nexit 0\n')
        assert "{a}" in invoke_solver(dlv_solver(ok), "a.")
        bad = make_script(tmp_path, "dlv10", 'exit 10\n')
        with pytest.raises(NonzeroExit):
            invoke_solver(dlv_solver(bad), "a.")

    def test_external_timeout(self, tmp_path):
        script = make_script(tmp_path, "sleeper", "sleep 5\n")
        with pytest.raises(SolverTimeout):
            invoke_solver(clingo_solver(script), "a.", timeout=0.2)

    def test_input_reaches_solver_through_temp_file(self, tmp_path):
        script = make_script(tmp_path, "catter", 'echo "Answer: 1"\ntr "\\n" " " < "$1"\necho ""\necho "SATISFIABLE"\nexit 10\n')
        raw = invoke_solver(clingo_solver(script), "a. b(1).")
        assert "a. b(1)." in raw
