import queue
import random
import re
import stat
import threading
from dataclasses import fields

import pytest

from conftest import make_script

from aspkit import cli, systems
from aspkit.errors import FileReadError, MappingError, ParseError
from aspkit.mapper import SchemaRegistry, record, record_to_fact, schema
from aspkit.orchestration import Handler, InputProgram, OptionDescriptor, Output
from aspkit.refeval import EvaluationLimits
from aspkit.syntax import parse_program
from aspkit.systems import clingo_solver, dlv_solver, reference_solver

CELL = schema("cell", row=(1, "integer"), column=(2, "integer"), value=(3, "integer"))


@pytest.fixture(autouse=True)
def no_env_overrides(monkeypatch):
    monkeypatch.delenv("ASP_EMBED_CLINGO", raising=False)
    monkeypatch.delenv("ASP_EMBED_DLV", raising=False)


class TestOptionDescriptor:
    def test_single_argument_by_default(self):
        assert [f.name for f in fields(OptionDescriptor)] == ["option_text"]
        assert OptionDescriptor("-filter=a,b").option_text == "-filter=a,b"

    def test_options_reach_the_solver_command_line(self, tmp_path):
        # the fake clingo records its arguments, one per line
        script = make_script(
            tmp_path, "argecho", f'printf "%s\\n" "$@" > "{tmp_path}/argv"\necho SATISFIABLE\n'
        )
        for options in (["--stats level"], ["--stats", "level"]):
            handler = Handler(clingo_solver(script))
            handler.add_program("a.")
            for option in options:
                handler.add_option(option)
            assert handler.start_sync().ok
            # each option is one argument, spaces included; `-` is clingo's name for stdin
            assert (tmp_path / "argv").read_text().splitlines() == [*options, "-"]


class TestCollections:
    def test_add_then_remove_restores_state(self):
        handler = Handler(reference_solver())
        before = handler.assemble_input()
        ident = handler.add_program("a.")
        assert handler.remove(ident)
        assert handler.assemble_input() == before

    def test_distinct_ids(self):
        handler = Handler(reference_solver())
        first = handler.add_program("a.")
        second = handler.add_program("b.")
        assert first != second

    def test_remove_unknown_id(self):
        handler = Handler(reference_solver())
        assert handler.remove(12345) is False

    def test_remove_option(self):
        handler = Handler(reference_solver())
        ident = handler.add_option(OptionDescriptor("0"))
        assert handler.remove(ident)
        assert handler.remove(ident) is False


class TestAssembly:
    def test_records_then_text(self):
        handler = Handler(reference_solver(), registry=SchemaRegistry([CELL]))
        program = InputProgram()
        program.add_records([record(CELL, row=0, column=0, value=1)])
        program.add_text("encoding body\n")
        handler.add_program(program)
        assert handler.assemble_input() == "cell(0,0,1).\nencoding body\n"

    def test_empty_handler(self):
        assert Handler(reference_solver()).assemble_input() == ""

    def test_interleaved_order_preserved(self):
        handler = Handler(reference_solver())
        program = InputProgram("one.\n")
        program.add_records([record(CELL, row=1, column=1, value=1)])
        program.add_text("two.\n")
        handler.add_program(program)
        handler.add_program(InputProgram("three.\n"))
        assert handler.assemble_input() == "one.\ncell(1,1,1).\ntwo.\nthree.\n"

    def test_file_parts_inlined(self, tmp_path):
        source = tmp_path / "facts.lp"
        source.write_text("a.\n")
        program = InputProgram()
        program.add_file(source)
        handler = Handler(reference_solver())
        handler.add_program(program)
        assert handler.assemble_input() == "a.\n"

    @staticmethod
    def solved(handler) -> list[set[str]]:
        output = handler.start_sync()
        assert output.ok, output.error
        return [set(map(str, s.atoms)) for s in output.answer_sets.sets]

    def test_comment_ends_with_its_text_part(self):
        handler = Handler(reference_solver())
        handler.add_program("a. % note")
        handler.add_program("b.")
        assert handler.assemble_input() == "a. % note\nb.\n"
        assert self.solved(handler) == [{"a", "b"}]

    def test_comment_ends_with_its_file_part(self, tmp_path, capsys):
        first, second = tmp_path / "first.lp", tmp_path / "second.lp"
        first.write_text("a. % note")
        second.write_text("b.")
        handler = Handler(reference_solver())
        handler.add_program(InputProgram().add_file(first).add_file(second))
        assert self.solved(handler) == [{"a", "b"}]
        assert cli.main(["solve", str(first), str(second)]) == 0
        assert capsys.readouterr().out == "{a, b}\n"

    def test_parts_are_not_glued_into_one_word(self):
        handler = Handler(reference_solver())
        handler.add_program("a")
        handler.add_program("b.")
        assert handler.assemble_input() == "a\nb.\n"
        assert handler.start_sync().error.kind == "evaluation_error"

    def test_a_statement_left_open_goes_on_into_the_next_part(self):
        handler = Handler(reference_solver())
        handler.add_program("a :-")
        handler.add_program("b. b.")
        assert handler.assemble_input() == "a :-\nb. b.\n"
        assert self.solved(handler) == [{"a", "b"}]  # read as `a :- b.` and `b.`

    @pytest.mark.parametrize("system", ["reference", "clingo", "dlv"])
    @pytest.mark.parametrize("start", ["assemble_input", "start_sync", "start_async"])
    def test_a_statement_left_open_before_records_is_refused(self, system, start):
        # The reference evaluator would read `a :- b.`, clingo and DLV
        # `a :- cell(0,0,1). b.`: every system refuses it, before any run.
        handler = Handler({
            "reference": reference_solver(),
            "clingo": clingo_solver("/nonexistent/clingo"),
            "dlv": dlv_solver("/nonexistent/dlv"),
        }[system])
        handler.add_program(
            InputProgram("a :-").add_records([record(CELL, row=0, column=0, value=1)]).add_text("b.")
        )
        delivered: list[Output] = []
        run = {
            "assemble_input": handler.assemble_input,
            "start_sync": handler.start_sync,
            "start_async": lambda: handler.start_async(delivered.append),
        }[start]
        with pytest.raises(ParseError) as refused:
            run()
        assert str(refused.value) == "2:1: text part 1 ends inside a statement, before a records part"
        assert delivered == []

    @pytest.mark.parametrize("texts, message", [
        (["p :- q,", "r,"], "3:1: text part 2 ends inside a statement"),
        (["a.", "p :- q\n% note"], "4:1: text part 2 ends inside a statement"),
        (["a. b", ""], "2:1: text part 2 ends inside a statement"),
        ([":~ q."], "2:1: text part 1 ends inside a statement"),
        ([":~ q. [1:"], "2:1: text part 1 ends inside a statement"),
    ])
    def test_the_refusal_names_the_last_part_before_the_records(self, texts, message):
        handler = Handler(reference_solver())
        program = InputProgram()
        for text in texts:
            program.add_text(text)
        handler.add_program(program.add_records([record(CELL, row=0, column=0, value=1)]))
        with pytest.raises(ParseError, match=f"^{message}, before a records part$"):
            handler.assemble_input()

    def test_a_file_part_left_open_before_records_is_refused_across_programs(self, tmp_path):
        source = tmp_path / "open.lp"
        source.write_text("a :- b,\n")
        handler = Handler(reference_solver())
        handler.add_program(InputProgram("b.").add_file(source))
        handler.add_program(InputProgram().add_records([record(CELL, row=0, column=0, value=1)]))
        with pytest.raises(ParseError, match=rf"^3:1: file part 2 \({source}\) ends inside"):
            handler.start_sync()

    @pytest.mark.parametrize("before", [
        "", "a.", "a. % note", ":~ q. [1:1]", "a :-\nb.", "% only a comment",
    ])
    def test_statements_closed_before_records_are_read(self, before):
        handler = Handler(reference_solver())
        handler.add_program(
            InputProgram(before).add_records([record(CELL, row=0, column=0, value=1)]).add_text("c.")
        )
        assert handler.start_sync().ok

    @pytest.mark.parametrize("before", ["a :- .", ":~ q. [-1:0]", "a :- b. ]"])
    def test_text_malformed_before_records_gets_its_own_parse_error(self, before):
        handler = Handler(reference_solver())
        handler.add_program(
            InputProgram(before).add_records([record(CELL, row=0, column=0, value=1)]).add_text("c.")
        )
        with pytest.raises(ParseError) as expected:
            parse_program(before)
        assert handler.start_sync().error.message == str(expected.value)

    @pytest.mark.parametrize("after", ["b :- .", "p("])
    @pytest.mark.parametrize("before", ["", "a.\n", "a.", "a.\r", "a.\r\n", "a. % note"])
    def test_parse_errors_after_records_keep_their_places(self, before, after):
        records = [record(CELL, row=r, column=0, value=1) for r in range(3)]
        handler = Handler(reference_solver())
        handler.add_program(InputProgram(before).add_records(records).add_text(after))
        with pytest.raises(ParseError) as expected:
            parse_program(handler.assemble_input())
        assert handler.start_sync().error.message == str(expected.value)

    def test_safety_error_index_counts_text_statements_only(self):
        records = [record(CELL, row=0, column=0, value=1)] * 2
        handler = Handler(reference_solver())
        handler.add_program(InputProgram("a.").add_records(records).add_text("p(X) :- not q(X)."))
        message = handler.start_sync().error.message
        assert message.startswith("statement 1: unsafe variables")

    def test_missing_file(self):
        program = InputProgram()
        program.add_file("/nonexistent/input.lp")
        handler = Handler(reference_solver())
        handler.add_program(program)
        with pytest.raises(FileReadError):
            handler.assemble_input()

    def test_bad_record_raises_mapping_error(self):
        program = InputProgram()
        program.add_records([record(CELL, row="x", column=0, value=1)])
        handler = Handler(reference_solver())
        handler.add_program(program)
        with pytest.raises(MappingError):
            handler.assemble_input()

    @pytest.mark.parametrize("start", ["assemble_input", "start_sync", "start_async"])
    def test_records_part_of_other_objects_raises_mapping_error(self, start):
        handler = Handler(reference_solver())
        handler.add_program(InputProgram().add_records([{"row": 0, "column": 0, "value": 1}]))
        delivered: list[Output] = []
        run = {
            "assemble_input": handler.assemble_input,
            "start_sync": handler.start_sync,
            "start_async": lambda: handler.start_async(delivered.append),
        }[start]
        with pytest.raises(MappingError, match="not a mapped record: {'row': 0"):
            run()
        assert delivered == []  # assembly fails before any job starts

    def test_integer_too_long_to_write_raises_mapping_error(self):
        handler = Handler(reference_solver())
        handler.add_program(InputProgram().add_records([record(CELL, row=1, column=2, value=10**5000)]))
        with pytest.raises(MappingError, match="cell.value: integer too long to write as a fact"):
            handler.start_sync()

    def test_keyword_symbol_raises_mapping_error_before_solving(self):
        colored = schema("color", node=(1, "integer"), color=(2, "symbol"))
        handler = Handler(reference_solver())
        handler.add_program(InputProgram().add_records([record(colored, node=1, color="not")]))
        with pytest.raises(MappingError):
            handler.start_sync()


NOTE = schema("note", text=(1, "quoted_string"), rank=(2, "integer"))


class TestRecordsPath:
    """Records reach the reference evaluator as atoms, an external solver as text."""

    RECORDS = (
        *(record(CELL, row=r, column=c, value=r + c) for r in range(2) for c in range(2)),
        record(CELL, row=0, column=0, value=0),  # a duplicate
        *(record(NOTE, text=t, rank=-i) for i, t in enumerate(["a b", "50% done", "x\ry"])),
    )

    @classmethod
    def program(cls) -> InputProgram:
        return (
            InputProgram("value(V) :- cell(_, _, V).\nlow(V) | high(V) :- value(V).")
            .add_records(cls.RECORDS)
            .add_text(":- high(0). % last\n:~ high(V), note(_, R). [V:1]")
        )

    def test_reference_equals_a_run_over_the_assembled_text(self):
        handler = Handler(reference_solver())
        handler.add_program(self.program())
        from_text = Handler(reference_solver())
        from_text.add_program(handler.assemble_input())
        output, expected = handler.start_sync(), from_text.start_sync()
        assert output.ok, output.error
        assert len(output.answer_sets.sets) == 4
        assert output.raw == expected.raw
        assert output.answer_sets == expected.answer_sets

    def test_the_parser_reads_no_record(self, monkeypatch):
        texts = []
        original = systems.parse_program

        def spy(text, *args, **kwargs):
            texts.append(text)
            return original(text, *args, **kwargs)

        monkeypatch.setattr(systems, "parse_program", spy)
        handler = Handler(reference_solver())
        handler.add_program(self.program())
        assert handler.start_sync().ok
        [text] = texts
        assert "value(V)" in text and "% last" in text
        assert [r for r in self.RECORDS if str(record_to_fact(r.schema, r)) in text] == []

    def test_external_solver_reads_the_assembled_text_on_stdin(self, tmp_path):
        script = make_script(tmp_path, "recorder", f'cat > "{tmp_path}/stdin"\n')
        for system in (clingo_solver, dlv_solver):
            handler = Handler(system(script))
            handler.add_program(self.program())
            assert handler.start_sync().ok
            assert (tmp_path / "stdin").read_bytes() == handler.assemble_input().encode()


class TestOneReading:
    """The reference system reads the parts as it reads their assembled text."""

    TEXTS = [
        "", "a.", "a :-", "b :- a", ".", "c(1).", ":~ a. [1:0]", ":~ c(X). [X:1]", "% note",
        "p(", "b", "a :- not b.", "d :- cell(0,0,1).", "x(X) :- not y.", '"open', "e | f.",
    ]
    ENDINGS = ["", "\n", "\r", "\r\n", " % end", " % end\n"]
    RECORDS = [(), (record(CELL, row=0, column=0, value=1),),
               tuple(record(CELL, row=r, column=0, value=r % 2) for r in range(3))]

    @staticmethod
    def reading(handler) -> tuple:
        output = handler.start_sync()
        if output.ok:
            return ("sets", [sorted(map(str, s.atoms)) for s in output.answer_sets.sets])
        # A SafetyError's statement index counts text statements only (README).
        message = re.sub(r"^statement \d+: (?=unsafe variables)", "", output.error.message)
        return ("error", output.error.kind, message)

    def test_parts_read_as_their_assembled_text(self, tmp_path):
        rng = random.Random(20)
        compared = refused = 0
        for index in range(1_500):
            program = InputProgram()
            for _ in range(rng.randrange(1, 5)):
                kind = rng.random()
                if kind < 0.35:
                    program.add_records(rng.choice(self.RECORDS))
                    continue
                text = rng.choice(self.TEXTS) + rng.choice(self.ENDINGS)
                if kind < 0.85:
                    program.add_text(text)
                else:
                    path = tmp_path / f"part{index}-{len(program.parts)}.lp"
                    path.write_bytes(text.encode())
                    program.add_file(path)
            handler = Handler(reference_solver())
            handler.add_program(program)
            try:
                text = handler.assemble_input()
            except ParseError as exc:
                assert "ends inside a statement, before a records part" in str(exc)
                refused += 1
                continue
            from_text = Handler(reference_solver())
            from_text.add_program(text)
            assert self.reading(handler) == self.reading(from_text), program.parts
            compared += 1
        assert compared > 900 and refused > 100

    @pytest.mark.parametrize("ending", ENDINGS)
    @pytest.mark.parametrize("before", [":~ q. [-1:0]", ":~ q. [0: -2]", ":~ q. [-1"])
    def test_negative_weight_or_level_before_records_keeps_its_place(self, before, ending):
        handler = Handler(reference_solver())
        handler.add_program(
            InputProgram(before + ending).add_records([record(CELL, row=0, column=0, value=1)])
            .add_text("c.")
        )
        with pytest.raises(ParseError) as expected:
            parse_program(handler.assemble_input())
        assert "weight and level must be non-negative" in str(expected.value)
        assert handler.start_sync().error.message == str(expected.value)


class TestStartSync:
    def test_single_fact(self):
        handler = Handler(reference_solver())
        handler.add_program("a.")
        output = handler.start_sync()
        assert output.ok
        assert [set(map(str, s.atoms)) for s in output.answer_sets.sets] == [{"a"}]
        assert output.answer_sets.satisfiable == "sat"

    def test_forced_timeout_on_large_enumeration(self):
        handler = Handler(reference_solver())
        handler.add_program("".join(f"a{i} | b{i}. " for i in range(11)))
        output = handler.start_sync(timeout=0.001)
        assert not output.ok
        assert output.error.kind == "timeout"

    def test_missing_executable(self):
        handler = Handler(clingo_solver("/no/such/solver"))
        handler.add_program("a.")
        output = handler.start_sync()
        assert output.error.kind == "solver_not_found"

    def test_unparseable_program_reported(self):
        handler = Handler(reference_solver())
        handler.add_program("p(.")
        output = handler.start_sync()
        assert output.error.kind == "evaluation_error"

    @pytest.mark.parametrize(
        "option",
        [
            OptionDescriptor("-n=1"),
            OptionDescriptor("--stats level"),
            OptionDescriptor("1" * 5000),  # more digits than int() reads from text
        ],
    )
    def test_reference_refuses_options_it_cannot_read(self, option):
        handler = Handler(reference_solver())
        handler.add_program("a | b.")
        handler.add_option(option)
        output = handler.start_sync()
        assert output.error.kind == "evaluation_error"
        assert repr(option.option_text) in output.error.message

    def test_nonzero_exit_carries_stderr(self, tmp_path):
        script = make_script(tmp_path, "broken", 'echo "boom" >&2\nexit 3\n')
        handler = Handler(clingo_solver(script))
        handler.add_program("a.")
        output = handler.start_sync()
        assert output.error.kind == "nonzero_exit"
        assert output.error.exit_code == 3
        assert "boom" in output.error.stderr


class TestReferenceLimits:
    """The reference system carries its evaluation limits; the Handler only runs it."""

    EXPECTED = ("evaluation_error", "candidate atoms: 2 exceeds limit 1")

    @pytest.fixture
    def handler(self):
        handler = Handler(reference_solver(EvaluationLimits(max_candidate_atoms=1)))
        handler.add_program("a | b.")
        return handler

    def test_sync(self, handler):
        error = handler.start_sync().error
        assert (error.kind, error.message) == self.EXPECTED

    def test_async(self, handler):
        results: "queue.Queue[Output]" = queue.Queue()
        handler.start_async(results.put)
        error = results.get(timeout=10).error
        assert (error.kind, error.message) == self.EXPECTED


class TestUnrunnableExecutable:
    """An executable file the system cannot run is reported like a missing one."""

    @pytest.fixture
    def handler(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_bytes(b"\x01\x02")
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        handler = Handler(clingo_solver(str(path)))
        handler.add_program("a.")
        return handler

    def test_sync(self, handler):
        output = handler.start_sync()
        assert output.error.kind == "solver_not_found"
        assert "garbage" in output.error.message

    def test_async_delivers_exactly_once(self, handler):
        results: "queue.Queue[Output]" = queue.Queue()
        job_id = handler.start_async(results.put)
        assert results.get(timeout=10).error.kind == "solver_not_found"
        for thread in threading.enumerate():
            if thread.name == f"aspkit-job-{job_id[:8]}":
                thread.join(timeout=10)
        assert results.empty()


class TestStartAsync:
    def test_async_equals_sync(self):
        handler = Handler(reference_solver())
        handler.add_program("a | b. c :- a.")
        sync_output = handler.start_sync()
        results: "queue.Queue[Output]" = queue.Queue()
        handler.start_async(results.put)
        async_output = results.get(timeout=10)
        assert async_output == sync_output

    def test_snapshot_isolation_from_later_mutation(self):
        handler = Handler(reference_solver())
        handler.add_program("a.")
        expected = handler.start_sync()
        results: "queue.Queue[Output]" = queue.Queue()
        handler.start_async(results.put)
        handler.add_program("b.")  # must not affect the in-flight job
        assert results.get(timeout=10) == expected

    def test_snapshot_input_written_before_mutation(self, tmp_path, monkeypatch):
        # the fake solver copies its stdin aside while the test mutates
        copy_target = tmp_path / "seen-input.lp"
        monkeypatch.setenv("SNAPSHOT_COPY", str(copy_target))
        script = make_script(
            tmp_path,
            "snapshotting",
            'sleep 0.2\ncat > "$SNAPSHOT_COPY"\necho "Answer: 1"\necho "a"\necho "SATISFIABLE"\nexit 10\n',
        )
        handler = Handler(clingo_solver(script))
        handler.add_program("a.\n")
        results: "queue.Queue[Output]" = queue.Queue()
        handler.start_async(results.put)
        handler.add_program("mutated.\n")
        output = results.get(timeout=10)
        assert output.ok
        assert copy_target.read_text() == "a.\n"

    def test_eight_concurrent_jobs_exactly_once(self, tmp_path):
        script = make_script(
            tmp_path,
            "slowsat",
            'sleep 0.1\necho "Answer: 1"\necho "a"\necho "SATISFIABLE"\nexit 10\n',
        )
        handler = Handler(clingo_solver(script))
        handler.add_program("a.")
        results: "queue.Queue[Output]" = queue.Queue()
        job_ids = [handler.start_async(results.put) for _ in range(8)]
        assert len(set(job_ids)) == 8
        outputs = [results.get(timeout=30) for _ in range(8)]
        assert all(o.ok for o in outputs)
        assert results.empty()  # exactly eight callbacks, no extras

    def test_failures_delivered_through_callback(self):
        handler = Handler(clingo_solver("/no/such/solver"))
        handler.add_program("a.")
        results: "queue.Queue[Output]" = queue.Queue()
        handler.start_async(results.put)
        output = results.get(timeout=10)
        assert output.error.kind == "solver_not_found"

    def test_refused_option_delivered_exactly_once(self):
        handler = Handler(reference_solver())
        handler.add_program("a | b.")
        handler.add_option("-n=1")
        results: "queue.Queue[Output]" = queue.Queue()
        job_id = handler.start_async(results.put)
        output = results.get(timeout=10)
        assert output.error.kind == "evaluation_error"
        assert "'-n=1'" in output.error.message
        for thread in threading.enumerate():
            if thread.name == f"aspkit-job-{job_id[:8]}":
                thread.join(timeout=10)
                assert not thread.is_alive()
        assert results.empty()

    def test_callback_exception_does_not_break_delivery(self):
        handler = Handler(reference_solver())
        handler.add_program("a.")
        called = threading.Event()

        def explode(output: Output) -> None:
            called.set()
            raise RuntimeError("user callback bug")

        handler.start_async(explode)
        assert called.wait(timeout=10)


class TestEmbeddingWorkflow:
    def test_records_in_records_out(self):
        """Feed the initial grid as records, solve, read the solution back as records."""
        from aspkit.encodings import SUDOKU_TOY
        from aspkit.mapper import answer_set_to_records

        registry = SchemaRegistry([CELL])
        handler = Handler(reference_solver(), registry=registry)
        program = InputProgram()
        program.add_records([record(CELL, row=0, column=0, value=1)])
        program.add_text(SUDOKU_TOY)
        handler.add_program(program)

        results: "queue.Queue[Output]" = queue.Queue()
        handler.start_async(results.put)
        output = results.get(timeout=60)
        assert output.ok
        assert len(output.answer_sets.sets) == 1

        records, skipped = answer_set_to_records(
            handler.registry, output.answer_sets.sets[0].atoms
        )
        grid = {(r.values["row"], r.values["column"]): r.values["value"] for r in records}
        assert grid == {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
        assert skipped > 0  # the helper atoms stay in the raw interpretation

