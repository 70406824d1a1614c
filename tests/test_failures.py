"""Every failure of a run is reported inside exactly one Output, in both modes.

`start_sync` returns the Output and `start_async` hands the same Output to its
callback, once. Only `nonzero_exit` carries the exit code and stderr, and
`Output.raw` holds solver text only when the solver's output came back.
"""

import queue
import sys
import threading

import pytest

from conftest import make_script, needs_utf8

from aspkit.orchestration import Handler, Output
from aspkit.systems import SolverSpec, clingo_solver, reference_solver


@pytest.fixture(autouse=True)
def no_env_overrides(monkeypatch):
    monkeypatch.delenv("ASP_EMBED_CLINGO", raising=False)


def run_both(handler: Handler, timeout: float | None = None) -> tuple[Output, Output]:
    """The Output of start_sync and the only Output start_async delivered."""
    sync_output = handler.start_sync(timeout=timeout)
    results: "queue.Queue[Output]" = queue.Queue()
    job_id = handler.start_async(results.put, timeout=timeout)
    async_output = results.get(timeout=10)
    for thread in threading.enumerate():
        if thread.name == f"aspkit-job-{job_id[:8]}":
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert results.empty()
    return sync_output, async_output


# kind -> (solver, program, timeout); scripts are written under the test's tmp_path
FAILURES = {
    "solver_not_found": (lambda tmp: clingo_solver("/no/such/solver"), "a.", None),
    "timeout": (lambda tmp: reference_solver(), "a | b.", 0.0),
    "nonzero_exit": (
        lambda tmp: clingo_solver(make_script(tmp, "broken", 'echo "boom" >&2\nexit 3\n')),
        "a.",
        None,
    ),
    "malformed_output": (
        lambda tmp: clingo_solver(make_script(tmp, "garbled", 'echo "Answer: one"\nexit 10\n')),
        "a.",
        None,
    ),
    "evaluation_error": (lambda tmp: reference_solver(), "p(.", None),
}


@pytest.mark.parametrize("kind", FAILURES)
def test_each_failure_kind_in_both_modes(tmp_path, kind):
    solver, program, timeout = FAILURES[kind]
    handler = Handler(solver(tmp_path))
    handler.add_program(program)
    sync_output, async_output = run_both(handler, timeout)
    assert sync_output == async_output
    assert sync_output.error.kind == kind
    assert sync_output.answer_sets is None
    exited = kind == "nonzero_exit"
    assert (sync_output.error.exit_code, sync_output.error.stderr) == (
        (3, "boom\n") if exited else (None, None)
    )
    assert sync_output.raw == ("Answer: one\n" if kind == "malformed_output" else "")


class _Faulty(SolverSpec):
    """A solver object with a bug: its run raises an exception no solver reports."""

    name = "faulty"
    models_syntax = "{}"

    def invoke(self, input_text, options, timeout):
        raise RuntimeError("boom")

    def parse_output(self, raw):
        raise AssertionError("a failed run has no output to parse")


def test_any_exception_of_a_solver_object_is_an_evaluation_error(caplog):
    handler = Handler(_Faulty())
    handler.add_program("a.")
    sync_output, async_output = run_both(handler)
    assert sync_output == async_output
    error = sync_output.error
    assert error.kind == "evaluation_error"
    assert error.message.startswith("RuntimeError")
    assert (error.exit_code, error.stderr, sync_output.raw) == (None, None, "")
    assert sync_output.answer_sets is None
    # the traceback is logged once per run, for the sync and the async run
    assert [r.exc_info[0] for r in caplog.records] == [RuntimeError, RuntimeError]


LONG = "1" * 5000  # more digits than int() reads from text by default


def test_integer_too_long_in_a_program_is_an_evaluation_error():
    handler = Handler(reference_solver())
    handler.add_program(f"p({LONG}).")
    sync_output, async_output = run_both(handler)
    assert sync_output == async_output
    assert sync_output.error.kind == "evaluation_error"
    assert sync_output.error.message == "1:3: integer too long (5000 digits)"


class TestExternalOutputAsWritten:
    def test_integer_too_long_in_a_witness_is_malformed(self, tmp_path):
        script = make_script(tmp_path, "long", f"printf 'Answer: 1\\nq p({LONG})\\n'\nexit 10\n")
        handler = Handler(clingo_solver(script))
        handler.add_program("a.")
        sync_output, async_output = run_both(handler)
        assert sync_output == async_output
        assert sync_output.error.kind == "malformed_output"
        assert sync_output.error.message.endswith("(1:5: integer too long (5000 digits))")

    def test_carriage_return_in_a_witness_string(self, tmp_path):
        script = make_script(
            tmp_path, "crsolver", "printf 'Answer: 1\\np(\"a\\rb\")\\nSATISFIABLE\\n'\nexit 10\n"
        )
        handler = Handler(clingo_solver(script))
        handler.add_program("a.")
        sync_output, async_output = run_both(handler)
        assert sync_output == async_output
        assert sync_output.ok, sync_output.error
        assert [sorted(map(str, s.atoms)) for s in sync_output.answer_sets.sets] == [
            ['p("a\rb")']
        ]

    @needs_utf8
    def test_undecodable_output_is_malformed(self, tmp_path):
        script = make_script(
            tmp_path, "badbytes", "printf 'Answer: 1\\np(\\377)\\nSATISFIABLE\\n'\nexit 10\n"
        )
        handler = Handler(clingo_solver(script))
        handler.add_program("a.")
        sync_output, async_output = run_both(handler)
        assert sync_output == async_output
        assert sync_output.error.kind == "malformed_output"
        assert "`p(\\xff)`" in sync_output.error.message
        assert sync_output.raw == ""

    def test_unencodable_input_text_is_an_evaluation_error(self, tmp_path):
        script = make_script(tmp_path, "unused", 'echo "UNKNOWN"\nexit 0\n')
        handler = Handler(clingo_solver(script))
        handler.add_program('p("\ud800").')  # a lone surrogate: no strict encoder writes it
        sync_output, async_output = run_both(handler)
        assert sync_output.error.kind == async_output.error.kind == "evaluation_error"
        assert sync_output.error.message.startswith("cannot run clingo: ")
        assert "can't encode character '\\ud800'" in sync_output.error.message
        assert sync_output.raw == async_output.raw == ""

    def test_option_with_a_nul_byte_is_an_evaluation_error(self):
        handler = Handler(clingo_solver(sys.executable))
        handler.add_program("a.")
        handler.add_option("bad\x00opt")
        sync_output, async_output = run_both(handler)
        assert sync_output == async_output
        assert sync_output.error.kind == "evaluation_error"
        assert sync_output.error.message == "cannot run clingo: embedded null byte"
        assert sync_output.raw == ""
