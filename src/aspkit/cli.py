"""Batch command line: solve, check answer-set candidates, ground, write examples.

Exit codes: 0 success (at least one answer set / verdict yes), 10 for "no
answer set" outcomes, 1 for errors, 2 for usage problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import encodings, refeval, systems
from .errors import AspkitError
from .refeval import DEFAULT_LIMITS, AnswerSet, EvaluationLimits, Verdict
from .syntax import Program, parse_program

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NO_ANSWER_SET = 10


def build_parser() -> argparse.ArgumentParser:
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
    sub.add_argument("--system", choices=("ref", "clingo", "dlv"), default="ref")
    sub.add_argument("-n", "--models", type=int, default=0, help="0 enumerates all")
    sub.add_argument("--filter", default=None, help="comma-separated predicate names")
    sub.add_argument("--optimize", action="store_true", help="keep only optimal answer sets")
    _limit_flags(sub)


def _limit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--limit-atoms", type=int, default=DEFAULT_LIMITS.max_candidate_atoms)
    sub.add_argument(
        "--limit-rules",
        type=int,
        default=DEFAULT_LIMITS.max_ground_rules,
        help="most ground instances kept; solve keeps only those with a derivable positive body",
    )


def _limits(args) -> EvaluationLimits:
    return EvaluationLimits(
        max_candidate_atoms=args.limit_atoms,
        max_ground_rules=args.limit_rules,
    )


def _read_program(paths) -> Program:
    text = "\n".join(Path(p).read_text() for p in paths)
    return parse_program(text)


def _print_sets(sets: list[AnswerSet], args) -> None:
    filter_names = set(args.filter.split(",")) if args.filter else None
    shown = sets if args.models == 0 else sets[: args.models]
    for answer in shown:
        atoms = answer.atoms
        if filter_names is not None:
            atoms = frozenset(a for a in atoms if a.predicate in filter_names)
        sys.stdout.write(refeval.render_interpretation(atoms) + "\n")
        if args.optimize:
            pairs = ", ".join(
                f"{answer.cost[level]}:{level}" for level in sorted(answer.cost, reverse=True)
            )
            sys.stdout.write(f"Cost: [{pairs}]\n")


def cmd_solve(args) -> int:
    if args.filter and args.system == "clingo":
        sys.stderr.write("error: --filter is only supported with --system ref or dlv\n")
        return EXIT_USAGE
    if args.models < 0:
        sys.stderr.write("error: --models must be >= 0\n")
        return EXIT_USAGE

    if args.system == "ref":
        program = _read_program(args.paths)
        limits = _limits(args)
        if args.optimize:
            sets = refeval.optimal_answer_sets(program, limits)
        else:
            sets = refeval.answer_sets(program, limits)
    else:
        spec = (
            systems.clingo_solver() if args.system == "clingo" else systems.dlv_solver()
        )
        options = [systems.models_option(args.models, args.system)]
        if args.filter:
            options.append(systems.filter_option(args.filter.split(",")))
        text = "\n".join(Path(p).read_text() for p in args.paths)
        raw = systems.invoke_solver(spec, text, options)
        parsed = systems.parse_output(spec, raw)
        sets = sorted(parsed.sets, key=lambda s: refeval.render_interpretation(s.atoms))
        if args.optimize and sets:
            best = sets[0].cost
            for s in sets[1:]:
                if refeval.compare_costs(s.cost, best) < 0:
                    best = s.cost
            sets = [s for s in sets if refeval.compare_costs(s.cost, best) == 0]

    _print_sets(sets, args)
    return EXIT_OK if sets else EXIT_NO_ANSWER_SET


def cmd_check(args) -> int:
    program = _read_program(args.paths)
    given = parse_program(Path(args.interpretation).read_text())
    if given.weak_constraints or any(not r.is_fact for r in given.rules):
        sys.stderr.write("error: the interpretation file must contain only ground facts\n")
        return EXIT_ERROR
    interpretation = frozenset(given.facts())
    verdict = refeval.is_answer_set(interpretation, program, _limits(args))
    sys.stdout.write(verdict.value + "\n")
    return EXIT_OK if verdict is Verdict.YES else EXIT_NO_ANSWER_SET


def cmd_ground(args) -> int:
    program = _read_program(args.paths)
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
    except AspkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
