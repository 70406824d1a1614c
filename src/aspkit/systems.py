"""Per-solver adapters: invocation, option builders, and output parsing.

External solvers are black boxes reached through a subprocess with the input
program in a temporary file. The built-in reference evaluator is exposed
through the same interface and renders its results in the clingo textual
style, so the clingo parser path is exercised with no binary installed.
`aspkit solve` reaches every system through these adapters, via `Handler`.
Witness atoms of both output formats are read by `syntax.parse_witness`, on
the same tokenizer as programs.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass

from . import refeval
from .errors import (
    EmptyFilter,
    MalformedOutput,
    NonzeroExit,
    SolverNotFound,
    SolverTimeout,
)
from .orchestration import OptionDescriptor
from .refeval import DEFAULT_LIMITS, AnswerSet, EvaluationLimits
from .syntax import SYMBOL_RE, parse_program, parse_witness

ENV_EXECUTABLE = {"clingo": "ASP_EMBED_CLINGO", "dlv": "ASP_EMBED_DLV"}
ENV_KEEP_TEMP = "ASP_EMBED_KEEP_TEMP"

# Exit codes that signal a completed run rather than a failure. The clingo
# family encodes the solving outcome: 10 sat, 20 unsat, 30 sat + search space
# exhausted. DLV exits 0 on normal completion.
_OK_EXIT_CODES = {"clingo": {0, 10, 20, 30}, "dlv": {0}}


@dataclass(frozen=True)
class SolverSpec:
    kind: str  # reference | clingo | dlv
    executable: str | None = None
    default_options: tuple[OptionDescriptor, ...] = ()

    def __post_init__(self):
        if self.kind not in ("reference", "clingo", "dlv"):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.kind == "reference" and self.executable is not None:
            raise ValueError("the reference evaluator has no executable")


def reference_solver() -> SolverSpec:
    return SolverSpec(kind="reference")


def clingo_solver(executable: str | None = None, default_options=()) -> SolverSpec:
    return SolverSpec(kind="clingo", executable=executable, default_options=tuple(default_options))


def dlv_solver(executable: str | None = None, default_options=()) -> SolverSpec:
    return SolverSpec(kind="dlv", executable=executable, default_options=tuple(default_options))


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


def models_option(n: int, kind: str) -> OptionDescriptor:
    """Enumeration count flag; 0 asks for all models."""
    if n < 0:
        raise ValueError("model count must be >= 0")
    if kind == "dlv":
        return OptionDescriptor(f"-n={n}")
    return OptionDescriptor(str(n))  # clingo and the reference take it positionally


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

def parse_clingo_output(text: str) -> AnswerSets:
    """Parse clingo-style textual output.

    Recognizes `Answer: N` followed by a whitespace-separated witness line
    (empty for the empty model; output that ends at the header is
    malformed), `Optimization:` lines (values are per-level totals, highest
    level first, lowest level last), the SATISFIABLE/UNSATISFIABLE/UNKNOWN
    verdict, and `OPTIMUM FOUND`. Unrecognized lines are ignored.
    """
    lines = text.splitlines()
    sets: list[AnswerSet] = []
    satisfiable = "unknown"
    optimum_found = False
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        if stripped.startswith("Answer:"):
            tail = stripped[len("Answer:"):].strip()
            if not tail.isdigit():
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
            if not values or not all(re.fullmatch(r"\d+", v) for v in values):
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
_DLV_PAIR_RE = re.compile(r"\[(\d+):(\d+)\]")


def parse_dlv_output(text: str) -> AnswerSets:
    """Parse DLV-style textual output.

    Recognizes `{a, b, c}` model lines, the `Best model:` prefix (its
    presence marks an optimization run), `Cost ([Weight:Level]): <[w:l],...>`
    lines attached to the preceding model, and the no-model marker
    `INCOHERENT`. Unrecognized lines are ignored.
    """
    sets: list[AnswerSet] = []
    satisfiable = "unknown"
    optimum_found = False
    for line in text.splitlines():
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
            pairs = _DLV_PAIR_RE.findall(cost_match.group(1))
            cost: dict[int, int] = {}
            for weight, level in pairs:
                if int(weight) != 0:
                    cost[int(level)] = cost.get(int(level), 0) + int(weight)
            sets[-1] = AnswerSet(atoms=sets[-1].atoms, cost=cost)
            continue
        if stripped == "INCOHERENT":
            satisfiable = "unsat"
    return AnswerSets(sets=tuple(sets), satisfiable=satisfiable, optimum_found=optimum_found)


def parse_output(spec: SolverSpec, raw: str) -> AnswerSets:
    if spec.kind == "dlv":
        return parse_dlv_output(raw)
    return parse_clingo_output(raw)


# ---------------------------------------------------------------------------
# Invocation
# ---------------------------------------------------------------------------

def resolve_executable(spec: SolverSpec) -> str:
    env_name = ENV_EXECUTABLE.get(spec.kind, "")
    override = os.environ.get(env_name)
    candidate = override or spec.executable or shutil.which(spec.kind)
    if not candidate:
        raise SolverNotFound(f"no {spec.kind} executable configured (set ${env_name})")
    if not shutil.which(candidate):
        raise SolverNotFound(f"{spec.kind} executable {candidate!r} not found")
    return candidate


def invoke_solver(
    spec: SolverSpec,
    input_text: str,
    options=(),
    timeout: float | None = None,
    limits: EvaluationLimits = DEFAULT_LIMITS,
) -> str:
    """Run a solver over program text and return its raw textual output.

    External solvers get the input through a temporary file (removed after
    the run unless $ASP_EMBED_KEEP_TEMP is set). The reference evaluator runs
    in process and renders clingo-style text.
    """
    if spec.kind == "reference":
        return _run_reference(input_text, options, timeout, limits)

    executable = resolve_executable(spec)
    args = [arg for opt in options for arg in opt.as_args()]
    fd, path = tempfile.mkstemp(suffix=".lp", prefix="aspkit-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(input_text)
            if not input_text.endswith("\n"):
                handle.write("\n")
        try:
            proc = subprocess.run(
                [executable, *args, path],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise SolverTimeout(f"{spec.kind} exceeded {timeout}s") from exc
        if proc.returncode not in _OK_EXIT_CODES[spec.kind]:
            raise NonzeroExit(proc.returncode, proc.stderr)
        return proc.stdout
    finally:
        if not os.environ.get(ENV_KEEP_TEMP):
            try:
                os.unlink(path)
            except OSError:
                pass


def _model_cap(options) -> int:
    for opt in options:
        for arg in opt.as_args():
            if arg.isdigit():
                return int(arg)
    return 0


def _run_reference(
    input_text: str,
    options,
    timeout: float | None,
    limits: EvaluationLimits,
) -> str:
    deadline = time.monotonic() + timeout if timeout is not None else None
    program = parse_program(input_text)
    sets = refeval.answer_sets(program, limits, deadline=deadline)
    return render_reference_output(
        sets,
        has_weak_constraints=bool(program.weak_constraints),
        model_cap=_model_cap(options),
    )


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
