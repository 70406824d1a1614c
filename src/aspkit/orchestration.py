"""Core orchestration: collect programs and options, run a solver, deliver output.

A :class:`Handler` owns input programs and solver options, keyed by stable
ids, plus the solver to run them on. Execution is synchronous
(:meth:`Handler.start_sync`) or asynchronous (:meth:`Handler.start_async`,
which snapshots the handler state, runs on a worker thread, and invokes the
callback exactly once, also on failure). Solver-side failures are reported
inside :class:`Output`; bad input (unmappable records, unreadable files)
raises in the caller for both modes.
"""

from __future__ import annotations

import logging
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import (
    AspkitError,
    FileReadError,
    MalformedOutput,
    MappingError,
    NonzeroExit,
    SolverNotFound,
    SolverTimeout,
)
from .mapper import MappedRecord, SchemaRegistry, record_to_fact
from .refeval import DEFAULT_LIMITS, EvaluationLimits
from .syntax import read_program_file

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Input programs and options
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


@dataclass(frozen=True, slots=True)
class OptionDescriptor:
    """One solver option, already rendered as text.

    ``separator`` splits the text into separate command-line arguments; with
    the empty separator the option is passed as a single argument, so values
    containing spaces never leak into neighbouring arguments.
    """

    option_text: str
    separator: str = ""

    def as_args(self) -> list[str]:
        if not self.separator:
            return [self.option_text]
        return [part for part in self.option_text.split(self.separator) if part]


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
    answer_sets: "AnswerSets | None" = None  # aspkit.systems.AnswerSets
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
        solver,  # an aspkit.systems.SolverSpec: runs the program, reads its output
        registry: SchemaRegistry | None = None,
        limits: EvaluationLimits = DEFAULT_LIMITS,
    ):
        self.solver = solver
        self.registry = registry
        self.limits = limits
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

    def _snapshot(self) -> tuple[str, tuple[OptionDescriptor, ...]]:
        """The assembled program text and the options, the solver's defaults first."""
        items = self._items.values()
        parts = [part for item in items if isinstance(item, InputProgram) for part in item.parts]
        own = [item for item in items if isinstance(item, OptionDescriptor)]
        return _assemble(parts), (*self.solver.default_options, *own)

    def assemble_input(self) -> str:
        return self._snapshot()[0]

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
        text, options = self._snapshot()
        job_id = uuid.uuid4().hex

        def run() -> None:
            output = self._execute(text, options, timeout)
            try:
                callback(output)
            except Exception:
                log.exception("callback for job %s raised", job_id)

        threading.Thread(target=run, name=f"aspkit-job-{job_id[:8]}", daemon=True).start()
        return job_id

    def _execute(self, text: str, options, timeout: float | None) -> Output:
        from . import systems  # deferred: systems imports OptionDescriptor from here

        raw = ""
        try:
            raw = systems.invoke_solver(self.solver, text, options, timeout, self.limits)
            return Output(raw=raw, answer_sets=self.solver.parse_output(raw))
        except AspkitError as exc:
            kind = _FAILURE_KINDS.get(type(exc), "evaluation_error")
            if isinstance(exc, NonzeroExit):
                return Output(raw=raw, error=SolverFailure(kind, str(exc), exc.code, exc.stderr))
            return Output(raw=raw, error=SolverFailure(kind, str(exc)))


# Any other AspkitError (reference parse, safety, limit and option errors, an
# input file that cannot be written, an argument no process can take) is an
# evaluation_error.
_FAILURE_KINDS = {
    SolverNotFound: "solver_not_found",
    SolverTimeout: "timeout",
    NonzeroExit: "nonzero_exit",
    MalformedOutput: "malformed_output",
}


def _assemble(parts) -> str:
    """Concatenate parts in order; mapped records become one fact per line."""
    chunks: list[str] = []
    for part in parts:
        if isinstance(part, str):
            chunks.append(part)
        elif isinstance(part, tuple):
            try:
                chunks.extend(f"{record_to_fact(r.schema, r)}.\n" for r in part)
            except AspkitError as exc:
                raise MappingError(str(exc)) from exc
        else:
            try:
                chunks.append(read_program_file(part))
            except OSError as exc:
                raise FileReadError(f"cannot read {part}: {exc}") from exc
    return "".join(chunks)
