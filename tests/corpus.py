"""Expected parses of the solver-output fixture corpus (``fixtures/clingo``,
``fixtures/dlv``) and the line separators a quoted string may hold, shared
by the tests of the output parsers, the mapper and the acceptance criteria."""

from aspkit.refeval import AnswerSet
from aspkit.syntax import parse_program
from aspkit.systems import AnswerSets


def atoms_of(*texts: str) -> frozenset:
    out = set()
    for text in texts:
        out.add(parse_program(text + ".").rules[0].head[0])
    return frozenset(out)


def answer(*texts: str, cost: dict | None = None) -> AnswerSet:
    return AnswerSet(atoms=atoms_of(*texts), cost=cost or {})


CLINGO_EXPECTED = {
    "sat_simple": AnswerSets(sets=(answer("a", "b(1)"),), satisfiable="sat"),
    "unsat": AnswerSets(sets=(), satisfiable="unsat"),
    "empty_model": AnswerSets(sets=(AnswerSet(atoms=frozenset(), cost={}),), satisfiable="sat"),
    "two_models": AnswerSets(sets=(answer("a"), answer("b")), satisfiable="sat"),
    "optimum": AnswerSets(
        sets=(answer("a", cost={1: 1, 0: 20}), answer("b", cost={0: 20})),
        satisfiable="sat",
        optimum_found=True,
    ),
    "opt_intermediate": AnswerSets(sets=(answer("a", cost={0: 7}),), satisfiable="sat"),
    "quoted": AnswerSets(
        sets=(answer('activity_to_do("RUNNING",20)', 'mood("HAPPY")'),),
        satisfiable="sat",
    ),
    "quoted_space": AnswerSets(
        sets=(answer('note("x y",1)', 'share("50% done")', "p(a)"),),
        satisfiable="sat",
    ),
    "negative_int": AnswerSets(sets=(answer("delta(0)", "level(-3)"),), satisfiable="sat"),
    "unknown": AnswerSets(sets=(), satisfiable="unknown"),
    "noisy": AnswerSets(sets=(answer("p(1)", "q(1)"),), satisfiable="sat"),
    "zero_cost": AnswerSets(sets=(answer("a"),), satisfiable="sat", optimum_found=True),
}

DLV_EXPECTED = {
    "simple": AnswerSets(sets=(answer("a", "b(1)"),), satisfiable="sat"),
    "empty": AnswerSets(sets=(AnswerSet(atoms=frozenset(), cost={}),), satisfiable="sat"),
    "multi": AnswerSets(sets=(answer("color(1,r)"), answer("color(1,g)")), satisfiable="sat"),
    "best_model": AnswerSets(
        sets=(answer("a", cost={1: 1}),), satisfiable="sat", optimum_found=True
    ),
    "incoherent": AnswerSets(sets=(), satisfiable="unsat"),
    "quoted": AnswerSets(sets=(answer('activity_to_do("RUNNING",20)'),), satisfiable="sat"),
    "noise_banner": AnswerSets(sets=(answer("a"),), satisfiable="sat"),
    "filtered": AnswerSets(
        sets=(
            answer("color(1,r)", "color(2,g)", "color(3,y)"),
            answer("color(1,r)", "color(2,y)", "color(3,g)"),
        ),
        satisfiable="sat",
    ),
    "cost_multilevel": AnswerSets(
        sets=(answer("a", "c", cost={1: 1, 2: 20}),), satisfiable="sat", optimum_found=True
    ),
    "best_improving": AnswerSets(
        sets=(answer("a", cost={1: 3}), answer("b")),
        satisfiable="sat",
        optimum_found=True,
    ),
    "zero_arity": AnswerSets(sets=(answer("a", "b", "c"),), satisfiable="sat"),
}


# Every line separator of str.splitlines except "\n", which a quoted string cannot hold.
SEPARATORS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
