import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_script
from corpus import CLINGO_EXPECTED, DLV_EXPECTED, SEPARATORS, answer, atoms_of
from oracles import random_programs, random_propositional_text

from aspkit import encodings, systems
from aspkit.errors import (
    EmptyFilter,
    LimitExceeded,
    MalformedOutput,
    NonzeroExit,
    SolverNotFound,
    SolverTimeout,
)
from aspkit.mapper import SchemaRegistry, answer_set_to_records, record, schema
from aspkit.orchestration import Handler, InputProgram
from aspkit.refeval import AnswerSet, answer_sets, render_interpretation
from aspkit.syntax import Atom, Constant, Integer, parse_program
from aspkit.systems import (
    AnswerSets,
    ClingoSystem,
    OptionDescriptor,
    ReferenceSystem,
    SolverSpec,
    clingo_solver,
    dlv_solver,
    filter_option,
    invoke_solver,
    parse_clingo_output,
    parse_dlv_output,
    reference_solver,
    render_reference_output,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def no_env_overrides(monkeypatch):
    monkeypatch.delenv("ASP_EMBED_CLINGO", raising=False)
    monkeypatch.delenv("ASP_EMBED_DLV", raising=False)


class TestOptionBuilders:
    def test_filter_single(self):
        assert filter_option(["cell"]).option_text == "-filter=cell"

    def test_filter_join(self):
        assert filter_option(["a", "b"]).option_text == "-filter=a,b"

    def test_filter_empty(self):
        with pytest.raises(EmptyFilter):
            filter_option([])

    def test_filter_bad_name(self):
        with pytest.raises(EmptyFilter):
            filter_option(["Bad Name"])

    @pytest.mark.parametrize("name", ["not", "color\n"])
    def test_filter_name_must_read_as_one_identifier(self, name):
        with pytest.raises(EmptyFilter):
            filter_option([name])

    def test_models_clingo_all(self):
        assert clingo_solver().models_option(0).option_text == "0"

    def test_models_clingo_one(self):
        assert clingo_solver().models_option(1).option_text == "1"

    def test_models_dlv(self):
        assert dlv_solver().models_option(5).option_text == "-n=5"

    @pytest.mark.parametrize(
        "system, args",
        [(reference_solver, ["3"]), (clingo_solver, ["3"]), (dlv_solver, ["-n=3"])],
    )
    def test_each_system_writes_its_own_model_count(self, system, args):
        assert [system().models_option(3).option_text] == args

    @pytest.mark.parametrize("system", [reference_solver, clingo_solver, dlv_solver])
    def test_negative_model_count(self, system):
        with pytest.raises(ValueError):
            system().models_option(-1)


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

    def test_answer_header_without_a_witness_line(self):
        with pytest.raises(MalformedOutput) as err:
            parse_clingo_output("Solving...\nAnswer: 1")
        assert err.value.line == "Answer: 1"

    def test_empty_witness_line_is_the_empty_model(self):
        assert parse_clingo_output("Answer: 1\n\nSATISFIABLE") == AnswerSets(
            sets=(AnswerSet(atoms=frozenset()),), satisfiable="sat"
        )

    def test_malformed_answer_number(self):
        for number in ("x", "\u00b2", "\u0661"):
            with pytest.raises(MalformedOutput):
                parse_clingo_output(f"Answer: {number}\na\nSATISFIABLE")

    def test_cost_before_any_answer(self):
        with pytest.raises(MalformedOutput):
            parse_clingo_output("Optimization: 1\nSATISFIABLE")

    def test_negative_cost_rejected(self):
        for value in ("-1", "\u0661", "\u00b2"):
            with pytest.raises(MalformedOutput):
                parse_clingo_output(f"Answer: 1\na\nOptimization: {value}\nSATISFIABLE")

    def test_inconsistent_unsat_with_witness(self):
        with pytest.raises(MalformedOutput):
            parse_clingo_output("Answer: 1\na\nUNSATISFIABLE")

    def test_optimum_without_a_witness(self):
        with pytest.raises(MalformedOutput, match="optimum claimed without any witness"):
            parse_clingo_output("Solving...\nOPTIMUM FOUND\n")

    def test_cost_value_too_long_to_read(self):
        with pytest.raises(MalformedOutput) as err:
            parse_clingo_output(f"Answer: 1\na\nOptimization: 0 {'7' * 5000}\nSATISFIABLE")
        assert str(err.value).endswith("(cost value too long)")

    def test_an_atom_in_two_answer_sets_is_one_object(self):
        parsed = parse_clingo_output(
            'Answer: 1\np(a,1,"x") q\nAnswer: 2\nr p(a,1,"x")\nAnswer: 3\nq\nSATISFIABLE\n'
        )
        first, second, third = ({str(a): a for a in s.atoms} for s in parsed.sets)
        assert first['p(a,1,"x")'] is second['p(a,1,"x")']
        assert first["q"] is third["q"]

    @pytest.mark.parametrize(
        "witness", ["p(a)q(b)", "p(a), q(b)", "p(X)", "p(_)", "a % b", "a.%q(1)", "p(a) :- q"]
    )
    def test_witness_holds_only_whitespace_separated_ground_atoms(self, witness):
        with pytest.raises(MalformedOutput) as err:
            parse_clingo_output(f"Answer: 1\n{witness}\nSATISFIABLE")
        assert err.value.line == witness


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

    @pytest.mark.parametrize(
        "body", ["[\u0661:\u0662]", "[1:\u00b2]", "", "junk", "[1:1] [2:2]", "[1:1],", "[-1:1]"]
    )
    def test_cost_that_is_not_weight_level_pairs(self, body):
        with pytest.raises(MalformedOutput):
            parse_dlv_output(f"{{a}}\nCost ([Weight:Level]): <{body}>")

    def test_cost_value_too_long_to_read(self):
        with pytest.raises(MalformedOutput) as err:
            parse_dlv_output(f"{{a}}\nCost ([Weight:Level]): <[{'7' * 5000}:1]>")
        assert str(err.value).endswith("(cost value too long)")

    def test_an_atom_in_two_models_is_one_object(self):
        parsed = parse_dlv_output('{p(a,1,"x"), q}\n{r,p(a,1,"x")}\n')
        first, second = ({str(a): a for a in s.atoms} for s in parsed.sets)
        assert first['p(a,1,"x")'] is second['p(a,1,"x")']

    def test_parentheses_and_commas_inside_quotes(self):
        parsed = parse_dlv_output('{p("a)"), q(1), r("x,(y", 2)}')
        [answer] = parsed.sets
        assert sorted(map(str, answer.atoms)) == ['p("a)")', "q(1)", 'r("x,(y",2)']

    @pytest.mark.parametrize(
        "line",
        ['{p("a), q(1)}', "{p(a)), q(1)}", "{p(a, q(1)}", "{p(a)), (q(1)}", "{a, b % c}",
         "{a.%q(1)}", "{a b}"],
    )
    def test_unbalanced_model_line(self, line):
        with pytest.raises(MalformedOutput):
            parse_dlv_output(line)


class TestLineSeparatorsInStrings:
    @pytest.mark.parametrize("sep", SEPARATORS, ids=lambda c: f"U+{ord(c):04X}")
    def test_record_round_trips_through_handler(self, sep):
        note = schema("note", text=(1, "quoted_string"))
        registry = SchemaRegistry([note])
        handler = Handler(reference_solver(), registry=registry)
        values = [f"a{sep}b", f"{sep}lead", f"trail{sep}"]
        handler.add_program(InputProgram().add_records(record(note, text=v) for v in values))
        output = handler.start_sync()
        assert output.ok, output.error
        [only] = output.answer_sets.sets
        records, skipped = answer_set_to_records(registry, only.atoms)
        assert sorted(r.values["text"] for r in records) == sorted(values)
        assert skipped == 0

    def test_clingo_output_ending_at_a_header_stays_malformed(self):
        with pytest.raises(MalformedOutput) as err:
            parse_clingo_output("Solving...\nAnswer: 1\n")
        assert err.value.line == "Answer: 1"

    def test_dlv_model_line_holding_a_form_feed(self):
        parsed = parse_dlv_output('{p("a\x0cb"), q}\n')
        assert [s.atoms for s in parsed.sets] == [atoms_of('p("a\x0cb")', "q")]


class TestReferenceSolver:
    def test_disjunction_enumerated(self):
        raw = invoke_solver(reference_solver(), "a | b.")
        assert "Answer: 1" in raw and "Answer: 2" in raw
        assert "SATISFIABLE" in raw

    def test_unsat_text(self):
        raw = invoke_solver(reference_solver(), "a. :- a.")
        assert "UNSATISFIABLE" in raw

    def test_quoted_strings_with_spaces_through_handler(self):
        handler = Handler(reference_solver())
        handler.add_program('p("x y"). q("50% done").')
        output = handler.start_sync()
        assert output.ok
        assert [render_interpretation(s.atoms) for s in output.answer_sets.sets] == [
            '{p("x y"), q("50% done")}'
        ]

    def test_model_cap_option(self):
        raw = invoke_solver(reference_solver(), "a | b.", [reference_solver().models_option(1)])
        assert "Answer: 1" in raw and "Answer: 2" not in raw

    def test_the_last_model_count_wins(self):
        # a Handler passes the system's default options before the caller's
        spec = reference_solver()
        raw = invoke_solver(spec, "a | b | c.", [spec.models_option(1), spec.models_option(2)])
        assert "Answer: 2" in raw and "Answer: 3" not in raw

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


def reference_outputs():
    """Rendered reference output of the oracle programs at model caps 0, 1 and 2;
    programs the default limits refuse are left out."""
    rng = random.Random(5150)
    programs = [program for _, program in random_programs(4242, 600)]
    programs += [parse_program(random_propositional_text(rng)) for _ in range(1500)]
    for program in programs:
        try:
            sets = answer_sets(program)
        except LimitExceeded:
            continue
        for cap in (0, 1, 2):
            yield render_reference_output(sets, bool(program.weak_constraints), cap)


class TestCarriedAnswerSets:
    """Reference output carries the sets its text shows; the parser reads the text alike."""

    def test_carried_sets_equal_the_parsed_text(self):
        compared = 0
        mismatches = []
        for raw in reference_outputs():
            compared += 1
            if parse_clingo_output(raw) != parse_clingo_output(str(raw)):
                mismatches.append(str(raw))
        assert mismatches == []
        assert compared >= 6000

    def test_handler_output_carries_what_its_text_shows(self):
        note = schema("note", text=(1, "quoted_string"))
        records = InputProgram().add_records(record(note, text=f"a{sep}b") for sep in SEPARATORS)
        programs = [text for files in encodings.BUNDLES.values() for _, text in files]
        solved = 0
        for program in [*programs, records]:
            handler = Handler(reference_solver())
            handler.add_program(program)
            output = handler.start_sync()
            if not output.ok and " exceeds limit " in output.error.message:
                continue
            assert output.ok, output.error
            assert output.raw == str(output.raw)
            assert output.answer_sets == parse_clingo_output(str(output.raw))
            solved += 1
        assert solved >= 8

    def test_only_the_rendered_output_skips_the_parse(self, monkeypatch):
        witnesses = []

        def counting(*args, _original=systems.parse_witness):
            witnesses.append(args[0])
            return _original(*args)

        monkeypatch.setattr(systems, "parse_witness", counting)
        raw = render_reference_output(answer_sets(parse_program("a | b.")))
        assert parse_clingo_output(raw) is parse_clingo_output(raw)
        assert witnesses == []
        for derived in (str(raw), raw + "", "".join([raw]), raw[:], f"{raw}"):
            assert type(derived) is str
            assert parse_clingo_output(derived) == parse_clingo_output(raw)
        assert witnesses == ["a", "b"] * 5


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
            clingo_solver(_CLINGO), text, [clingo_solver().models_option(0)], timeout=60
        )
        external = parse_clingo_output(raw)
        assert {s.atoms for s in external.sets} == reference_sets


class TestInvocation:
    def test_spec_validation(self):
        with pytest.raises(TypeError):
            ReferenceSystem(executable="/bin/true")  # only external systems have one
        with pytest.raises(TypeError):
            SolverSpec()  # abstract: each system is a subclass
        with pytest.raises(TypeError):
            ClingoSystem(kind="clingo")

    def test_the_reference_has_no_external_system_facts(self):
        spec = reference_solver()
        assert not hasattr(spec, "env_executable")
        assert not hasattr(spec, "ok_exit_codes")

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
        assert spec.resolve_executable() == script
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

    def test_input_reaches_solver_on_stdin(self, tmp_path):
        # the fake solver records its arguments, one per line, and its stdin
        script = make_script(
            tmp_path, "recorder", f'printf "%s\\n" "$@" > "{tmp_path}/argv"\ncat > "{tmp_path}/stdin"\n'
        )
        for system, argv in (
            (clingo_solver, ["--stats", "level", "3", "-"]),
            (dlv_solver, ["--stats", "level", "-n=3", "--"]),
        ):
            handler = Handler(system(script))
            handler.add_option("--stats")
            handler.add_program("a. b(1).")
            handler.add_option(OptionDescriptor("level"))
            handler.add_program("c :- a.")
            handler.add_option(system().models_option(3))
            assert handler.start_sync().ok
            assert (tmp_path / "argv").read_text().splitlines() == argv
            assert (tmp_path / "stdin").read_bytes() == handler.assemble_input().encode()


# --- witness atoms rendered as solver output parse back unchanged ---

_witness_terms = st.one_of(
    st.integers(min_value=-99, max_value=99).map(Integer),
    st.sampled_from(["a", "b", "zero", "x_1", "notx"]).map(Constant),
    st.text(alphabet="aZ_09,() %.", max_size=6).map(lambda s: Constant(f'"{s}"')),
)
_witness_atoms = st.builds(
    Atom,
    predicate=st.sampled_from(["p", "q", "cell", "edge_1", "nota"]),
    terms=st.lists(_witness_terms, max_size=3).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(st.frozensets(_witness_atoms, max_size=6))
def test_rendered_witness_atoms_parse_back(atoms):
    rendered = [str(a) for a in atoms]
    clingo = parse_clingo_output(f"Answer: 1\n{' '.join(rendered)}\nSATISFIABLE\n")
    dlv = parse_dlv_output("{" + ", ".join(rendered) + "}\n")
    assert [s.atoms for s in clingo.sets] == [atoms]
    assert [s.atoms for s in dlv.sets] == [atoms]
