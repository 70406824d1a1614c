"""Core orchestration: collect programs and options, run a solver, deliver output.

A :class:`Handler` owns input programs and solver options, keyed by stable
ids, plus the solver object, which holds all that is specific to one system.
Records are mapped to atoms and files read before a run, in the caller;
:func:`systems.program_text` renders the parts as one text. Execution is
synchronous (:meth:`Handler.start_sync`) or asynchronous
(:meth:`Handler.start_async`, which snapshots the handler state, runs on a
worker thread, and invokes the callback exactly once, also on failure).
Solver-side failures are reported inside :class:`Output`; bad input
(unmappable records, unreadable files, a statement left open just before
records) raises in the caller for both modes.
"""

from __future__ import annotations

import itertools
import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import systems
from .errors import (
    AspkitError,
    MalformedOutput,
    MappingError,
    NonzeroExit,
    ParseError,
    SolverNotFound,
    SolverTimeout,
)
from .mapper import MappedRecord, SchemaRegistry, records_to_facts
from .syntax import Atom, open_statement_end, read_program_file
from .systems import AnswerSets, OptionDescriptor, SolverSpec

log = logging.getLogger(__name__)
_job_ids = itertools.count(1)  # names async jobs; next() is one C call, atomic under the GIL


# ---------------------------------------------------------------------------
# Input programs
# ---------------------------------------------------------------------------

class InputProgram:
    """Ordered program parts; assembly order equals insertion order.

    A part is program text (a ``str``), mapped records (a ``tuple``, one fact
    per record) or a program file (a ``Path``, read at assembly).
    """

    def __init__(self, text: str | None = None):
        self.parts: list[str | tuple[MappedRecord, ...] | Path] = []
        if text is not None:
            self.add_text(text)

    def add_text(self, text: str) -> "InputProgram":
        self.parts.append(text)
        return self

    def add_records(self, records) -> "InputProgram":
        self.parts.append(tuple(records))
        return self

    def add_file(self, path: str | Path) -> "InputProgram":
        self.parts.append(Path(path))
        return self


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SolverFailure:
    kind: str  # solver_not_found | timeout | nonzero_exit | malformed_output | evaluation_error
    message: str
    exit_code: int | None = None
    stderr: str | None = None


@dataclass(frozen=True)
class Output:
    """Result of one solver execution: raw text plus either parsed sets or an error."""

    raw: str
    answer_sets: AnswerSets | None = None
    error: SolverFailure | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


# ---------------------------------------------------------------------------
# Handler
# ---------------------------------------------------------------------------

class Handler:
    """Mediates between the caller and a solver.

    Programs and options live in one table keyed by id. Ids only grow, so
    insertion order is id order, and assembly follows it. Mutation is
    single-owner; started jobs work on a snapshot and are unaffected by later
    changes.
    """

    def __init__(
        self,
        solver: SolverSpec,
        registry: SchemaRegistry | None = None,
    ):
        self.solver = solver
        self.registry = registry
        self._items: dict[int, InputProgram | OptionDescriptor] = {}
        self._next_id = 0

    def _add(self, item: InputProgram | OptionDescriptor) -> int:
        self._next_id += 1
        self._items[self._next_id] = item
        return self._next_id

    def add_program(self, program: InputProgram | str) -> int:
        return self._add(InputProgram(program) if isinstance(program, str) else program)

    def add_option(self, option: OptionDescriptor | str) -> int:
        return self._add(OptionDescriptor(option) if isinstance(option, str) else option)

    def remove(self, ident: int) -> bool:
        return self._items.pop(ident, None) is not None

    # --- assembly ---

    def _snapshot(self) -> tuple[list[str | tuple[Atom, ...]], list[OptionDescriptor]]:
        """The program parts as solvers take them and the options, in the order they were added."""
        items = self._items.values()
        sources = [part for item in items if isinstance(item, InputProgram) for part in item.parts]
        parts = [_solver_part(part) for part in sources]
        _refuse_statements_open_before_records(sources, parts)
        options = [item for item in items if isinstance(item, OptionDescriptor)]
        return parts, options

    def assemble_input(self) -> str:
        """The text an external solver reads on its standard input."""
        return systems.program_text(self._snapshot()[0])

    # --- execution ---

    def start_sync(self, timeout: float | None = None) -> Output:
        """Run the solver and block until it finishes (or times out)."""
        return self._execute(*self._snapshot(), timeout)

    def start_async(self, callback: Callable[[Output], None], timeout: float | None = None) -> str:
        """Run the solver on a worker thread; the callback fires exactly once.

        The handler state is snapshotted and assembled before this returns,
        so assembly problems raise here and later mutation cannot affect the
        job. Solver failures are delivered through the callback's Output.
        """
        parts, options = self._snapshot()
        job_id = str(next(_job_ids))

        def run() -> None:
            output = self._execute(parts, options, timeout)
            try:
                callback(output)
            except Exception:
                log.exception("callback for job %s raised", job_id)

        threading.Thread(target=run, name=f"aspkit-job-{job_id}", daemon=True).start()
        return job_id

    def _execute(self, parts, options, timeout: float | None) -> Output:
        raw = ""
        try:
            raw = systems.invoke_solver(self.solver, parts, options, timeout)
            return Output(raw=raw, answer_sets=self.solver.parse_output(raw))
        except AspkitError as exc:
            kind = _FAILURE_KINDS.get(type(exc), "evaluation_error")
            if isinstance(exc, NonzeroExit):
                return Output(raw=raw, error=SolverFailure(kind, str(exc), exc.code, exc.stderr))
            return Output(raw=raw, error=SolverFailure(kind, str(exc)))
        except Exception as exc:  # a fault of the solver object itself
            log.exception("solver run raised")
            message = f"{type(exc).__name__}: {exc}"
            return Output(raw=raw, error=SolverFailure("evaluation_error", message))


# Any other AspkitError (reference parse, safety, limit and option errors, an
# argument or program text no process can take) is an evaluation_error.
_FAILURE_KINDS = {
    SolverNotFound: "solver_not_found",
    SolverTimeout: "timeout",
    NonzeroExit: "nonzero_exit",
    MalformedOutput: "malformed_output",
}


def _solver_part(part: str | tuple | Path) -> str | tuple[Atom, ...]:
    """A part as solvers take it: text, or the atom of each mapped record; a file is read."""
    if isinstance(part, str):
        return part
    if isinstance(part, tuple):
        for r in part:
            if not isinstance(r, MappedRecord):
                raise MappingError(f"not a mapped record: {r!r}")
        try:
            return records_to_facts(part)
        except AspkitError as exc:
            raise MappingError(str(exc)) from exc
    return read_program_file(part)


def _refuse_statements_open_before_records(sources, parts) -> None:
    """Raise ParseError if the text before a records part ends inside a statement.

    A statement may run on from one text or file part into the next, as
    every system reads them. But the reference system reads a records part
    apart from the text, so a statement left open before one would read one
    way there and another on clingo or DLV. The error names the part (parts
    are counted from 1 over all input programs) and gives the line and
    column where the text since the previous records part ends.
    """
    start = 0
    for index, part in enumerate(parts):
        if not isinstance(part, tuple):
            continue
        end = open_statement_end(systems.program_text(parts[start:index]))
        if end is not None:
            source = sources[index - 1]
            name = f"file part {index} ({source})" if isinstance(source, Path) else f"text part {index}"
            raise ParseError(f"{name} ends inside a statement, before a records part", *end)
        start = index + 1
