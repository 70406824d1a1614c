"""One object per ASP system: its options, invocation and output parser.

Each system is a subclass of :class:`SolverSpec`; an instance holds only the
executable and the options every run gets first. External systems are black
boxes reached through a subprocess with the input program in a temporary
file. The built-in reference evaluator runs in process and renders its
results in the clingo textual style, so the clingo parser path is exercised
with no binary installed. `aspkit solve` reaches every system through these
objects, via `Handler`. Witness atoms of both output formats are read by
`syntax.parse_witness`, on the same tokenizer as programs.
"""

from __future__ import annotations

import locale
import os
import re
import shutil
import subprocess
import tempfile
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
from .orchestration import OptionDescriptor
from .refeval import DEFAULT_LIMITS, AnswerSet, EvaluationLimits
from .syntax import SYMBOL_RE, parse_program, parse_witness

ENV_KEEP_TEMP = "ASP_EMBED_KEEP_TEMP"


@dataclass(frozen=True)
class SolverSpec(ABC):
    """An ASP system; each subclass is one system and adds no fields.

    A subclass is a dataclass of its own only where it checks its fields
    in `__post_init__`. Methods reach this module's parsers and helpers
    through their global names at run time, never through values bound at
    import, so a wrapper patched onto the module sees every call.
    """

    executable: str | None = None
    default_options: tuple[OptionDescriptor, ...] = ()

    name: ClassVar[str]
    models_syntax: ClassVar[str]  # the model-count option, formatted with the count
    accepts_filter: ClassVar[bool]  # `aspkit solve --filter` may be used at all
    passes_filter: ClassVar[bool]  # `--filter` also reaches the solver as `-filter=`

    def models_option(self, n: int) -> OptionDescriptor:
        """Enumeration count option; 0 asks for all models."""
        if n < 0:
            raise ValueError("model count must be >= 0")
        return OptionDescriptor(self.models_syntax.format(n))

    @abstractmethod
    def invoke(self, input_text: str, options, timeout, limits) -> str:
        """Run over program text and return the raw textual output."""

    @abstractmethod
    def parse_output(self, raw: str) -> AnswerSets:
        """Read the raw output into answer sets and a verdict."""


@dataclass(frozen=True)
class ReferenceSystem(SolverSpec):
    """The built-in evaluator, run in process, printing clingo-style text.

    Its only option is the positional model count; other option text is
    refused rather than ignored.
    """

    name = "reference"
    models_syntax = "{}"
    accepts_filter = True
    passes_filter = False

    def __post_init__(self):
        if self.executable is not None:
            raise ValueError("the reference evaluator has no executable")

    def invoke(self, input_text, options, timeout, limits) -> str:
        model_cap = self._model_cap(options)
        deadline = time.monotonic() + timeout if timeout is not None else None
        program = parse_program(input_text)
        sets = refeval.answer_sets(program, limits, deadline=deadline)
        return render_reference_output(
            sets,
            has_weak_constraints=bool(program.weak_constraints),
            model_cap=model_cap,
        )

    def _model_cap(self, options) -> int:
        """The count of the last model-count option; 0 (all models) without one."""
        cap = 0
        for opt in options:
            for arg in opt.as_args():
                if not (arg.isascii() and arg.isdigit()):
                    raise UnsupportedOption(self.name, opt.option_text)
                cap = int(arg)
        return cap

    def parse_output(self, raw: str) -> AnswerSets:
        return parse_clingo_output(raw)


class _ExternalSystem(SolverSpec):
    """A solver binary run as a subprocess on a temporary input file."""

    env_executable: ClassVar[str]  # overrides the configured executable
    ok_exit_codes: ClassVar[frozenset[int]]  # exit codes of a completed run

    def resolve_executable(self) -> str:
        override = os.environ.get(self.env_executable)
        candidate = override or self.executable or shutil.which(self.name)
        if not candidate:
            raise SolverNotFound(
                f"no {self.name} executable configured (set ${self.env_executable})"
            )
        if not shutil.which(candidate):
            raise SolverNotFound(f"{self.name} executable {candidate!r} not found")
        return candidate

    def invoke(self, input_text, options, timeout, limits) -> str:
        # The temporary file is kept after the run when $ASP_EMBED_KEEP_TEMP is set.
        executable = self.resolve_executable()
        args = [arg for opt in options for arg in opt.as_args()]
        try:
            fd, path = tempfile.mkstemp(suffix=".lp", prefix="aspkit-")
        except OSError as exc:  # the message names the file it tried
            raise AspkitError(f"cannot create the input file: {exc}") from exc
        try:
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(input_text if input_text.endswith("\n") else input_text + "\n")
            except (OSError, UnicodeEncodeError) as exc:
                raise AspkitError(f"cannot write the input file {path}: {exc}") from exc
            return self._run([executable, *args, path], timeout)
        finally:
            if not os.environ.get(ENV_KEEP_TEMP):
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def _run(self, command, timeout) -> str:
        """Stdout of a completed run, decoded strictly and with its line ends as written."""
        try:
            proc = subprocess.run(command, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise SolverTimeout(f"{self.name} exceeded {timeout}s") from exc
        except OSError as exc:
            raise SolverNotFound(
                f"{self.name} executable {command[0]!r} cannot be run: {exc}"
            ) from exc
        except ValueError as exc:  # an argument no process can take, e.g. a NUL byte
            raise AspkitError(f"cannot run {self.name}: {exc}") from exc
        encoding = locale.getpreferredencoding(False)  # what text-mode pipes decode with
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
    models_syntax = "{}"
    accepts_filter = False
    passes_filter = False

    def parse_output(self, raw: str) -> AnswerSets:
        return parse_clingo_output(raw)


class DlvSystem(_ExternalSystem):
    name = "dlv"
    env_executable = "ASP_EMBED_DLV"
    ok_exit_codes = frozenset({0})
    models_syntax = "-n={}"
    accepts_filter = True
    passes_filter = True

    def parse_output(self, raw: str) -> AnswerSets:
        return parse_dlv_output(raw)


def reference_solver() -> SolverSpec:
    return ReferenceSystem()


def clingo_solver(executable: str | None = None, default_options=()) -> SolverSpec:
    return ClingoSystem(executable=executable, default_options=tuple(default_options))


def dlv_solver(executable: str | None = None, default_options=()) -> SolverSpec:
    return DlvSystem(executable=executable, default_options=tuple(default_options))


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
    """DLV-style output projection option."""
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
            sets.append(AnswerSet(atoms=parse_witness(witness, witness, commas=False), cost={}))
            i += 2
            continue
        if stripped.startswith("Optimization:"):
            if not sets:
                raise MalformedOutput(line, "cost line before any answer")
            values = stripped[len("Optimization:"):].split()
            if not values or not all(v.isascii() and v.isdigit() for v in values):
                raise MalformedOutput(line, "expected non-negative cost values")
            n = len(values)
            cost = {
                n - 1 - idx: int(v) for idx, v in enumerate(values) if int(v) != 0
            }
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
    for line in _output_lines(text):
        stripped = line.strip()
        body = stripped
        if body.startswith("Best model:"):
            optimum_found = True
            body = body[len("Best model:"):].strip()
        if body.startswith("{"):
            if not body.endswith("}"):
                raise MalformedOutput(line, "unterminated model line")
            sets.append(AnswerSet(atoms=parse_witness(body[1:-1], line, commas=True), cost={}))
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
                weight, level = int(pair_match[1]), int(pair_match[2])
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

def invoke_solver(
    spec: SolverSpec,
    input_text: str,
    options=(),
    timeout: float | None = None,
    limits: EvaluationLimits = DEFAULT_LIMITS,
) -> str:
    """Run a solver over program text and return its raw textual output."""
    return spec.invoke(input_text, options, timeout, limits)


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
    for index, answer in enumerate(shown, start=1):
        lines.append(f"Answer: {index}")
        lines.append(" ".join(sorted(str(a) for a in answer.atoms)))
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
