"""Program files and solver output are read as written; only the tokenizer splits lines.

Outside quoted strings `\\r\\n`, `\\r` and `\\n` each end a line; a quoted
string may hold a `\\r`. The same text therefore reads the same from a file,
from `InputProgram.add_text` and from the command line.
"""

import random

import pytest

from conftest import needs_utf8

from aspkit import cli
from aspkit.errors import FileReadError, ParseError
from aspkit.orchestration import Handler, InputProgram
from aspkit.syntax import parse_program, parse_witness, read_program_file
from aspkit.systems import parse_clingo_output, reference_solver

LINE_ENDS = {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}


def answer_sets_of(program: InputProgram) -> list[list[str]]:
    handler = Handler(reference_solver())
    handler.add_program(program)
    output = handler.start_sync()
    assert output.ok, output.error
    return sorted(sorted(map(str, s.atoms)) for s in output.answer_sets.sets)


def write_lines(tmp_path, end: str, lines: list[str]):
    path = tmp_path / "program.lp"
    path.write_bytes((end.join(lines) + end).encode())
    return path


class TestCarriageReturnInAString:
    TEXT = 'p("a\rb").\n'

    def test_file_solves_like_text(self, tmp_path):
        path = tmp_path / "cr.lp"
        path.write_bytes(self.TEXT.encode())
        from_file = answer_sets_of(InputProgram().add_file(path))
        assert from_file == answer_sets_of(InputProgram(self.TEXT)) == [['p("a\rb")']]

    def test_aspkit_solve(self, tmp_path, capsys):
        path = tmp_path / "cr.lp"
        path.write_bytes(self.TEXT.encode())
        assert cli.main(["solve", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == '{p("a\rb")}\n'


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
class TestLineEnds:
    def test_comment_before_a_rule(self, tmp_path, end):
        lines = ["% guess one", "a | b.", "% derive c", "c :- a."]
        path = write_lines(tmp_path, end, lines)
        assert parse_program(read_program_file(path)) == parse_program("\n".join(lines))
        assert answer_sets_of(InputProgram().add_file(path)) == [["a", "c"], ["b"]]

    def test_parse_error_position(self, tmp_path, end):
        # a blank before a line end does not hide the line end
        path = write_lines(tmp_path, end, ["% facts", "a. ", "b :- (."])
        with pytest.raises(ParseError) as err:
            parse_program(read_program_file(path))
        assert (err.value.line, err.value.column) == (3, 6)

    def test_text_reads_like_the_file(self, tmp_path, end):
        lines = ["a. % a note", "b."]
        path = write_lines(tmp_path, end, lines)
        text = end.join(lines) + end
        assert answer_sets_of(InputProgram(text)) == [["a", "b"]]
        assert answer_sets_of(InputProgram().add_file(path)) == [["a", "b"]]

    def test_ground_prints_the_same_lines(self, tmp_path, end, capsys):
        path = write_lines(tmp_path, end, ["% nodes", "n(1).", "r(X) :- n(X)."])
        assert cli.main(["ground", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == "n(1).\nr(1) :- n(1).\n"


@needs_utf8
class TestUndecodableFile:
    def test_aspkit_solve_reports_it(self, tmp_path, capsys):
        path = tmp_path / "bad.lp"
        path.write_bytes(b"p(\xff).\n")
        assert cli.main(["solve", str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_add_file_raises_a_file_read_error(self, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_bytes(b"p(\xff).\n")
        handler = Handler(reference_solver())
        handler.add_program(InputProgram().add_file(path))
        with pytest.raises(FileReadError, match="cannot read"):
            handler.start_sync()


class TestSolverOutputLineEnds:
    def test_carriage_return_separates_witness_atoms(self):
        assert parse_witness("p\r q", "p\r q", commas=False) == parse_witness("p q", "p q", False)

    def test_crlf_clingo_output(self):
        parsed = parse_clingo_output("Answer: 1\r\np q\r\nSATISFIABLE\r\n")
        assert [sorted(map(str, s.atoms)) for s in parsed.sets] == [["p", "q"]]
        assert parsed.satisfiable == "sat"


def test_runs_of_line_ends_count_each_line():
    # A run of `\n` is one token; every line end in it still counts, and
    # `\r\n` counts once wherever it meets a run.
    rng = random.Random(5)
    for _ in range(500):
        ends = [rng.choice(["\n", "\n", "\r", "\r\n", " \n", "% c\n"]) for _ in range(rng.randrange(1, 12))]
        text = "a." + "".join(ends) + "b :- ."
        lines = 1 + sum(end != "\r" or not following.startswith("\n")
                        for end, following in zip(ends, ends[1:] + [""]))
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column) == (lines, 6), repr(text)
