"""One object per ASP system: its option syntax, invocation and output parser.

Each system is a subclass of :class:`SolverSpec`; an external system's
instance holds its executable. Options (:class:`OptionDescriptor`, one
command-line argument each) are added to the ``Handler``, not to the system.
A program reaches a system as parts: text, or a tuple of ground atoms, one
fact each. External systems are black boxes reached through a subprocess
that reads :func:`program_text` of the parts on its standard input. The
built-in reference evaluator runs in process within the evaluation limits it
holds, parses the text parts only, holds the records' atoms as facts beside
the parsed rules (``Program``), and prints clingo-style text, so the clingo
parser path is exercised with no binary installed. `aspkit solve` reaches
every system through these objects, via `Handler`. Witness atoms of both
output formats are read by `syntax.parse_witness`, one scan per line; each
parser shares one table of atoms and one of terms, by text, across the
witnesses of an output, so a recurring atom or term is built once. Lines
the scan cannot read go to the program tokenizer, which places the fault.
"""

from __future__ import annotations

import locale
import os
import re
import subprocess
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

from . import refeval
from .errors import (
    AspkitError,
    EmptyFilter,
    MalformedOutput,
    NonzeroExit,
    SolverNotFound,
    SolverTimeout,
    UnsupportedOption,
)
from .refeval import DEFAULT_LIMITS, AnswerSet, EvaluationLimits
from .syntax import SYMBOL_RE, Program, parse_program, parse_witness


@dataclass(frozen=True, slots=True)
class OptionDescriptor:
    """One solver option, already rendered as text: one command-line argument,
    so values containing spaces never leak into neighbouring arguments."""

    option_text: str


class SolverSpec(ABC):
    """An ASP system; each subclass is one system.

    A subclass is a dataclass only where it adds a field (the reference
    system's limits, an external system's executable). Methods
    reach this module's parsers and helpers through their global names at
    run time, never through values bound at import, so a wrapper patched
    onto the module sees every call.
    """

    name: ClassVar[str]
    models_syntax: ClassVar[str]  # the model-count option, formatted with the count

    def models_option(self, n: int) -> OptionDescriptor:
        """Enumeration count option; 0 asks for all models."""
        if n < 0:
            raise ValueError("model count must be >= 0")
        return OptionDescriptor(self.models_syntax.format(n))

    @abstractmethod
    def invoke(self, parts, options, timeout) -> str:
        """Run over program parts (see :func:`program_text`) and return the raw textual output."""

    @abstractmethod
    def parse_output(self, raw: str) -> AnswerSets:
        """Read the raw output into answer sets and a verdict."""


@dataclass(frozen=True)
class ReferenceSystem(SolverSpec):
    """The built-in evaluator, run in process, printing clingo-style text.

    Its only option is the positional model count; other option text is
    refused rather than ignored. ``limits`` bounds every run.
    """

    limits: EvaluationLimits = DEFAULT_LIMITS

    name = "reference"
    models_syntax = "{}"

    def invoke(self, parts, options, timeout) -> str:
        model_cap = self._model_cap(options)
        deadline = time.monotonic() + timeout if timeout is not None else None
        # Each fact of a records part is parsed as a line end, after a space (a bare `\n`
        # would join a part's closing `\r` into one line end): parse errors keep their places.
        text = program_text(
            [p if isinstance(p, str) else (" " + "\n" * len(p) if p else "") for p in parts]
        )
        program = parse_program(text)
        facts = [atom for part in parts if isinstance(part, tuple) for atom in part]
        program = Program._with_facts(program.rules, facts, program.weak_constraints)
        sets = refeval.answer_sets(program, self.limits, deadline=deadline)
        return render_reference_output(
            sets,
            has_weak_constraints=bool(program.weak_constraints),
            model_cap=model_cap,
        )

    def _model_cap(self, options) -> int:
        """The count of the last model-count option; 0 (all models) without one."""
        cap = 0
        for opt in options:
            text = opt.option_text
            if not (text.isascii() and text.isdigit()):
                raise UnsupportedOption(self.name, text)
            try:
                cap = int(text)
            except ValueError:  # more digits than int() reads from text
                raise UnsupportedOption(self.name, text) from None
        return cap

    def parse_output(self, raw: str) -> AnswerSets:
        return parse_clingo_output(raw)


@dataclass(frozen=True)
class _ExternalSystem(SolverSpec):
    """A solver binary run as a subprocess that reads the program on stdin."""

    executable: str | None = None

    env_executable: ClassVar[str]  # overrides the configured executable
    ok_exit_codes: ClassVar[frozenset[int]]  # exit codes of a completed run
    stdin_argument: ClassVar[str]  # the last argument, naming stdin as the input

    def resolve_executable(self) -> str:
        """The override, else the configured executable, else the system's name,
        which ``subprocess`` looks up on ``PATH``."""
        return os.environ.get(self.env_executable) or self.executable or self.name

    def invoke(self, parts, options, timeout) -> str:
        """Stdout of a completed run, decoded strictly and with its line ends as written."""
        executable = self.resolve_executable()
        args = [opt.option_text for opt in options]
        text = program_text(parts)
        text = text if text.endswith("\n") else text + "\n"
        encoding = locale.getpreferredencoding(False)  # what text-mode pipes use
        try:
            proc = subprocess.run(
                [executable, *args, self.stdin_argument],
                input=text.encode(encoding),
                capture_output=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise SolverTimeout(f"{self.name} exceeded {timeout}s") from exc
        except OSError as exc:
            raise SolverNotFound(
                f"{self.name} executable {executable!r} cannot be run"
                f" (set ${self.env_executable}): {exc}"
            ) from exc
        except ValueError as exc:  # program text the encoding cannot write, a NUL byte
            raise AspkitError(f"cannot run {self.name}: {exc}") from exc
        if proc.returncode not in self.ok_exit_codes:
            raise NonzeroExit(proc.returncode, proc.stderr.decode(encoding, "backslashreplace"))
        try:
            return proc.stdout.decode(encoding)
        except UnicodeDecodeError as exc:
            line = proc.stdout.split(b"\n")[proc.stdout.count(b"\n", 0, exc.start)]
            reason = f"not {encoding} text"
            raise MalformedOutput(line.decode(encoding, "backslashreplace"), reason) from exc


class ClingoSystem(_ExternalSystem):
    name = "clingo"
    env_executable = "ASP_EMBED_CLINGO"
    # The exit code encodes the solving outcome: 10 sat, 20 unsat, 30 sat +
    # search space exhausted.
    ok_exit_codes = frozenset({0, 10, 20, 30})
    stdin_argument = "-"  # clingo's name for standard input
    models_syntax = "{}"

    def parse_output(self, raw: str) -> AnswerSets:
        return parse_clingo_output(raw)


class DlvSystem(_ExternalSystem):
    name = "dlv"
    env_executable = "ASP_EMBED_DLV"
    ok_exit_codes = frozenset({0})
    stdin_argument = "--"  # DLV reads standard input after `--`
    models_syntax = "-n={}"

    def parse_output(self, raw: str) -> AnswerSets:
        return parse_dlv_output(raw)


def reference_solver(limits: EvaluationLimits = DEFAULT_LIMITS) -> SolverSpec:
    return ReferenceSystem(limits=limits)


def clingo_solver(executable: str | None = None) -> SolverSpec:
    return ClingoSystem(executable=executable)


def dlv_solver(executable: str | None = None) -> SolverSpec:
    return DlvSystem(executable=executable)


@dataclass(frozen=True)
class AnswerSets:
    """Parsed solver output: the witnesses plus the solver's verdict."""

    sets: tuple[AnswerSet, ...] = ()
    satisfiable: str = "unknown"  # sat | unsat | unknown
    optimum_found: bool = False

    def __post_init__(self):
        if self.satisfiable == "unsat" and self.sets:
            raise MalformedOutput("", "witnesses reported together with UNSATISFIABLE")
        if self.optimum_found and not self.sets:
            raise MalformedOutput("", "optimum claimed without any witness")


# ---------------------------------------------------------------------------
# Option builders
# ---------------------------------------------------------------------------

def filter_option(predicates: list[str]) -> OptionDescriptor:
    """DLV's output projection option; `aspkit solve --filter` checks its names with it."""
    if not predicates:
        raise EmptyFilter("at least one predicate name is required")
    for name in predicates:
        if not SYMBOL_RE.match(name):
            raise EmptyFilter(f"invalid predicate name {name!r}")
    return OptionDescriptor(f"-filter={','.join(predicates)}")


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def _output_lines(text: str) -> list[str]:
    """Lines of solver output, split at `\\n` only.

    A quoted string may hold any other line separator `str.splitlines` knows
    (`\\r`, `\\x0c`, `\\u2028`, ...), so those stay inside their line.
    """
    return text.removesuffix("\n").split("\n")


def parse_clingo_output(text: str) -> AnswerSets:
    """Parse clingo-style textual output.

    Recognizes `Answer: N` followed by a whitespace-separated witness line
    (empty for the empty model; output that ends at the header is
    malformed), `Optimization:` lines (values are per-level totals, highest
    level first, lowest level last), the SATISFIABLE/UNSATISFIABLE/UNKNOWN
    verdict, and `OPTIMUM FOUND`. Unrecognized lines are ignored.
    """
    lines = _output_lines(text)
    sets: list[AnswerSet] = []
    satisfiable = "unknown"
    optimum_found = False
    tables: tuple[dict, dict] = ({}, {})
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        if stripped.startswith("Answer:"):
            tail = stripped[len("Answer:"):].strip()
            if not (tail.isascii() and tail.isdigit()):
                raise MalformedOutput(line, "expected an answer number")
            if i + 1 == len(lines):
                raise MalformedOutput(line, "answer without a witness line")
            witness = lines[i + 1]
            atoms = parse_witness(witness, witness, False, tables)
            sets.append(AnswerSet(atoms=atoms, cost={}))
            i += 2
            continue
        if stripped.startswith("Optimization:"):
            if not sets:
                raise MalformedOutput(line, "cost line before any answer")
            values = stripped[len("Optimization:"):].split()
            if not values or not all(v.isascii() and v.isdigit() for v in values):
                raise MalformedOutput(line, "expected non-negative cost values")
            try:
                totals = [int(v) for v in values]
            except ValueError:  # more digits than int() reads from text
                raise MalformedOutput(line, "cost value too long") from None
            n = len(totals)
            cost = {n - 1 - idx: v for idx, v in enumerate(totals) if v != 0}
            sets[-1] = AnswerSet(atoms=sets[-1].atoms, cost=cost)
        elif stripped == "SATISFIABLE":
            satisfiable = "sat"
        elif stripped == "UNSATISFIABLE":
            satisfiable = "unsat"
        elif stripped == "UNKNOWN":
            satisfiable = "unknown"
        elif stripped == "OPTIMUM FOUND":
            satisfiable = "sat"
            optimum_found = True
        i += 1
    return AnswerSets(sets=tuple(sets), satisfiable=satisfiable, optimum_found=optimum_found)


_DLV_COST_RE = re.compile(r"Cost \(\[Weight:Level\]\):\s*<(.*)>")
_DLV_PAIR_RE = re.compile(r"\[([0-9]+):([0-9]+)\]")


def parse_dlv_output(text: str) -> AnswerSets:
    """Parse DLV-style textual output.

    Recognizes `{a, b, c}` model lines, the `Best model:` prefix (its
    presence marks an optimization run), `Cost ([Weight:Level]): <[w:l],...>`
    lines attached to the preceding model, and the no-model marker
    `INCOHERENT`. Weights and levels are ASCII digits; other lines are ignored.
    """
    sets: list[AnswerSet] = []
    satisfiable = "unknown"
    optimum_found = False
    tables: tuple[dict, dict] = ({}, {})
    for line in _output_lines(text):
        stripped = line.strip()
        body = stripped
        if body.startswith("Best model:"):
            optimum_found = True
            body = body[len("Best model:"):].strip()
        if body.startswith("{"):
            if not body.endswith("}"):
                raise MalformedOutput(line, "unterminated model line")
            atoms = parse_witness(body[1:-1], line, True, tables)
            sets.append(AnswerSet(atoms=atoms, cost={}))
            satisfiable = "sat"
            continue
        cost_match = _DLV_COST_RE.search(stripped)
        if cost_match:
            if not sets:
                raise MalformedOutput(line, "cost line before any model")
            cost: dict[int, int] = {}
            for pair in cost_match.group(1).split(","):
                pair_match = _DLV_PAIR_RE.fullmatch(pair)
                if not pair_match:
                    raise MalformedOutput(line, "expected [weight:level] pairs")
                try:
                    weight, level = int(pair_match[1]), int(pair_match[2])
                except ValueError:  # more digits than int() reads from text
                    raise MalformedOutput(line, "cost value too long") from None
                if weight != 0:
                    cost[level] = cost.get(level, 0) + weight
            sets[-1] = AnswerSet(atoms=sets[-1].atoms, cost=cost)
            continue
        if stripped == "INCOHERENT":
            satisfiable = "unsat"
    return AnswerSets(sets=tuple(sets), satisfiable=satisfiable, optimum_found=optimum_found)


# ---------------------------------------------------------------------------
# Invocation
# ---------------------------------------------------------------------------

def program_text(parts) -> str:
    """The text of program parts in order: a text part as written, a tuple of
    ground atoms as one fact per line. A part that does not end in `\n` or
    `\r` gets a `\n`, so a comment or a name ends with its part; a statement
    left unfinished goes on into the next part."""
    chunks: list[str] = []
    for part in parts:
        text = part if isinstance(part, str) else "".join([f"{atom}.\n" for atom in part])
        chunks.append(text)
        if text and not text.endswith(("\n", "\r")):
            chunks.append("\n")
    return "".join(chunks)


def invoke_solver(
    spec: SolverSpec,
    program,
    options=(),
    timeout: float | None = None,
) -> str:
    """Run a solver over program text, or over parts as :func:`program_text` takes
    them, and return its raw textual output."""
    return spec.invoke([program] if isinstance(program, str) else program, options, timeout)


def render_reference_output(
    sets: list[AnswerSet],
    has_weak_constraints: bool = False,
    model_cap: int = 0,
) -> str:
    """Clingo-style text for reference results; parse_clingo_output inverts it.

    Cost vectors print one total per level from the highest level down to
    level 0, matching the positional convention of the parser.
    """
    lines = ["aspkit reference evaluator", "Solving..."]
    shown = sets if model_cap == 0 else sets[:model_cap]
    text = {a: str(a) for a in frozenset().union(*(answer.atoms for answer in shown))}
    for index, answer in enumerate(shown, start=1):
        lines.append(f"Answer: {index}")
        lines.append(" ".join(sorted([text[a] for a in answer.atoms])))
        if answer.cost:
            top = max(answer.cost)
            values = [str(answer.cost.get(level, 0)) for level in range(top, -1, -1)]
            lines.append("Optimization: " + " ".join(values))
    lines.append("SATISFIABLE" if sets else "UNSATISFIABLE")
    if has_weak_constraints:
        optimal = refeval.lowest_cost(sets)
        if any(answer in optimal for answer in shown):
            lines.append("OPTIMUM FOUND")
    return "\n".join(lines) + "\n"
