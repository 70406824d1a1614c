"""Batch command line: solve, check answer-set candidates, ground, write examples.

`solve` runs every `--system`, the reference evaluator included, through
`orchestration.Handler`, so the command line and library callers share one
pipeline: the solver's text output is parsed by `systems`, and a failed run
prints `error: <message>`. Sorting, `--optimize`, `-n` and `--filter` then
act on the parsed sets. Files are joined by `systems.program_text`.

Exit codes: 0 success (at least one answer set / verdict yes), 10 for "no
answer set" outcomes, 1 for errors, 2 for usage problems.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import encodings, refeval, systems
from .errors import AspkitError
from .orchestration import Handler
from .refeval import DEFAULT_LIMITS, AnswerSet, EvaluationLimits, Verdict
from .syntax import parse_program, read_program_file

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ANSWER_SET = 10

SOLVERS = {  # each takes the evaluation limits, which only the reference system reads
    "ref": systems.reference_solver,
    "clingo": lambda limits: systems.clingo_solver(),
    "dlv": lambda limits: systems.dlv_solver(),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="aspkit",
        description="Answer set programming toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="enumerate answer sets of program files")
    solve.add_argument("paths", nargs="+", metavar="FILE")
    _solver_flags(solve)

    check = sub.add_parser("check", help="test whether an interpretation is an answer set")
    check.add_argument("paths", nargs="+", metavar="FILE")
    check.add_argument(
        "--interpretation",
        "-I",
        required=True,
        metavar="FILE",
        help="file of ground facts, one per line",
    )
    _limit_flags(check)

    ground = sub.add_parser("ground", help="print the grounding of program files")
    ground.add_argument("paths", nargs="+", metavar="FILE")
    _limit_flags(ground)

    examples = sub.add_parser("examples", help="write a bundled example encoding")
    examples.add_argument("name", choices=sorted(encodings.BUNDLES))
    examples.add_argument("--dest", default=".", metavar="DIR")

    return parser


def _solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--system", choices=tuple(SOLVERS), default="ref")
    sub.add_argument("-n", "--models", type=_model_count, default=0, help="0 enumerates all")
    sub.add_argument("--filter", default=None, help="comma-separated predicate names")
    sub.add_argument("--optimize", action="store_true", help="keep only optimal answer sets")
    _limit_flags(sub)


def _ascii_int(text: str, least: int, kind: str) -> int:
    # ASCII digits only, as in program text; int() would also take `١`, `+3` and ` 1_0 `.
    if text.isascii() and text.isdigit():
        try:
            value = int(text)
        except ValueError:  # more digits than int() reads from text
            value = None
        if value is not None and value >= least:
            return value
    raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")


def _positive_int(text: str) -> int:
    return _ascii_int(text, 1, "positive")


def _model_count(text: str) -> int:
    return _ascii_int(text, 0, "non-negative")


def _limit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--limit-atoms", type=_positive_int, default=DEFAULT_LIMITS.max_candidate_atoms
    )
    sub.add_argument(
        "--limit-rules",
        type=_positive_int,
        default=DEFAULT_LIMITS.max_ground_rules,
        help="most ground instances kept; solve keeps only those with a derivable positive body",
    )


def _limits(args) -> EvaluationLimits:
    return EvaluationLimits(
        max_candidate_atoms=args.limit_atoms,
        max_ground_rules=args.limit_rules,
    )


def _program_text(paths) -> str:
    return systems.program_text([read_program_file(path) for path in paths])


def _print_sets(rendered: list[tuple[str, AnswerSet]], args) -> None:
    """Print each set's text, or with --filter the text of its projection."""
    filter_names = None if args.filter is None else set(args.filter.split(","))
    shown = rendered if args.models == 0 else rendered[: args.models]
    for text, answer in shown:
        if filter_names is not None:
            text = refeval.render_interpretation(
                [a for a in answer.atoms if a.predicate in filter_names]
            )
        sys.stdout.write(text + "\n")
        if args.optimize:
            pairs = ", ".join(
                f"{answer.cost[level]}:{level}" for level in sorted(answer.cost, reverse=True)
            )
            sys.stdout.write(f"Cost: [{pairs}]\n")


def cmd_solve(args) -> int:
    spec = SOLVERS[args.system](_limits(args))
    handler = Handler(spec)
    handler.add_program(_program_text(args.paths))
    # Optimal sets can come after the first k models, so --optimize asks for all.
    handler.add_option(spec.models_option(0 if args.optimize else args.models))
    if args.filter is not None:  # checked before solving; _print_sets projects the parsed sets
        systems.filter_option(args.filter.split(","))
    output = handler.start_sync()
    if not output.ok:
        sys.stderr.write(f"error: {output.error.message}\n")
        return EXIT_ERROR
    sets = output.answer_sets.sets
    if args.optimize:
        sets = refeval.lowest_cost(sets)
    # Each set's text is built once: the sort key, and the line printed without --filter.
    rendered = [(refeval.render_interpretation(s.atoms), s) for s in sets]
    rendered.sort(key=lambda pair: pair[0])
    _print_sets(rendered, args)
    return EXIT_OK if rendered else EXIT_NO_ANSWER_SET


def cmd_check(args) -> int:
    program = parse_program(_program_text(args.paths))
    given = parse_program(read_program_file(args.interpretation))
    if given.weak_constraints or any(not r.is_fact for r in given.rules):
        sys.stderr.write("error: the interpretation file must contain only ground facts\n")
        return EXIT_ERROR
    interpretation = frozenset(given.facts())
    verdict = refeval.is_answer_set(interpretation, program, _limits(args))
    sys.stdout.write(verdict.value + "\n")
    return EXIT_OK if verdict is Verdict.YES else EXIT_NO_ANSWER_SET


def cmd_ground(args) -> int:
    program = parse_program(_program_text(args.paths))
    gp = refeval.ground_program(program, _limits(args))
    lines = {r.render() for r in gp.rules} | {w.render() for w in gp.weak_constraints}
    for line in sorted(lines):
        sys.stdout.write(line + "\n")
    return EXIT_OK


def cmd_examples(args) -> int:
    for path in encodings.write_bundle(args.name, args.dest):
        sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "check": cmd_check,
        "ground": cmd_ground,
        "examples": cmd_examples,
    }[args.command]
    try:
        return handler(args)
    except (AspkitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
