"""Relevance-driven grounding on the solve path, checked against the naive grounder.

The naive grounder (``ground_program`` without ``relevant``) stays the oracle:
relevance mode must keep exactly its instances whose positive body is
derivable, and every solve must return the same answer sets, costs and order
as enumeration over the naive grounding.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter

import pytest

from aspkit import cli, encodings, refeval
from aspkit.errors import LimitExceeded, SafetyError, SolverTimeout
from aspkit.refeval import (
    DEFAULT_LIMITS,
    EvaluationLimits,
    GroundProgram,
    _answer_sets_of_ground,
    answer_sets,
    ground_program,
    herbrand_universe,
    optimal_answer_sets,
)
from aspkit.syntax import Atom, Integer, Variable, parse_program

# ---------------------------------------------------------------------------
# Random non-ground programs
# ---------------------------------------------------------------------------

CONSTANTS = ("0", "1", "2", "a", "b")
PREDICATES = (("p", 1), ("q", 1), ("r", 2), ("s", 2), ("t", 0))
VARIABLES = ("X", "Y", "Z")


def _term(rng: random.Random, pool, p_var: float) -> str:
    return rng.choice(pool) if pool and rng.random() < p_var else rng.choice(CONSTANTS)


def _atom(rng: random.Random, pool=VARIABLES, p_var: float = 0.7) -> str:
    name, arity = rng.choice(PREDICATES)
    if arity == 0:
        return name
    return f"{name}({','.join(_term(rng, pool, p_var) for _ in range(arity))})"


def _body(rng: random.Random, safe: bool, bound: list[str], min_positive: int = 1) -> list[str]:
    """Body literals; with ``safe`` every other variable comes from the positive atoms.

    ``bound`` receives the variables a safe body binds, for heads and weights.
    """
    positive = [_atom(rng) for _ in range(rng.randint(min_positive, 2))]
    bound[:] = [v for v in VARIABLES if any(v in a for a in positive)] if safe else VARIABLES
    elems = list(positive)
    if rng.random() < 0.5:
        elems.append("not " + _atom(rng, bound))
    if rng.random() < 0.4 and bound:
        b = rng.choice(bound)
        free = [v for v in VARIABLES if v not in bound] if safe else VARIABLES
        kind = rng.choice(("!=", "<", "plus"))
        if kind == "plus" and free:
            a = rng.choice([v for v in free if v != b] or free)
            elems.append(f"{a} = {b}+1")
            bound.append(a)
        elif kind != "plus":
            others = [v for v in bound if v != b]
            elems.append(f"{_term(rng, others, 0.6)} {kind} {b}")
    rng.shuffle(elems)
    return elems


def random_program_text(rng: random.Random, safe: bool) -> str:
    """Facts, disjunctive rules, constraints and weak constraints.

    Unsafe programs also get rules with no positive body atom and variables
    that only a head, a negative literal or a builtin mentions, so those range
    over the whole universe.
    """
    lines = [f"{_atom(rng, p_var=0)}." for _ in range(rng.randint(2, 7))]
    bound: list[str] = []
    for _ in range(rng.randint(1, 4)):
        body = _body(rng, safe, bound, min_positive=1 if safe else 0)
        head = " | ".join(_atom(rng, bound) for _ in range(rng.choice((1, 2))))
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    for _ in range(rng.randint(0, 2)):
        lines.append(f":- {', '.join(_body(rng, safe, bound))}.")
    for _ in range(rng.randint(0, 2)):
        body = _body(rng, safe, bound)
        weight = _term(rng, bound, 0.6)
        level = _term(rng, bound, 0.4)
        lines.append(f":~ {', '.join(body)}. [{weight}:{level}]")
    return "\n".join(lines)


def random_programs(seed: int, count: int):
    """``count`` parsed programs; about a quarter parsed with check_safety=False."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        safe = rng.random() >= 0.25
        text = random_program_text(rng, safe)
        out.append((text, parse_program(text, check_safety=safe)))
    return out


def _is_unsafe(text: str) -> bool:
    try:
        parse_program(text)
    except SafetyError:
        return True
    return False


def derivable_atoms(rules) -> set[Atom]:
    """Least set closed under the heads of rules whose positive body it contains."""
    derivable: set[Atom] = set()
    grown = True
    while grown:
        grown = False
        for r in rules:
            if r.pos <= derivable and not r.head <= derivable:
                derivable |= r.head
                grown = True
    return derivable


def relevant_instances(program, limits=DEFAULT_LIMITS) -> GroundProgram:
    """The naive instances whose positive body is derivable, in naive order."""
    naive = ground_program(program, limits)
    derivable = derivable_atoms(naive.rules)
    return GroundProgram(
        rules=tuple(r for r in naive.rules if r.pos <= derivable),
        weak_constraints=tuple(w for w in naive.weak_constraints if w.pos <= derivable),
    )


BUNDLED = ("THREE_COL_K3", "THREE_COL_K4", "RAMSEY_N3", "RAMSEY_N9", "SUDOKU_TOY", "DLVFIT_FRAGMENT")


class TestDifferential:
    LIMITS = EvaluationLimits(max_candidate_atoms=12)

    def test_generator_covers_the_language(self):
        programs = random_programs(1, 200)
        texts = "\n".join(text for text, _ in programs)
        for token in ("not ", "!=", " < ", "+1", " | ", ":- ", ":~"):
            assert token in texts
        weaks = [w for _, p in programs for w in p.weak_constraints]
        assert any(isinstance(w.weight, Variable) for w in weaks)
        assert any(isinstance(w.level, Variable) for w in weaks)
        assert any(_is_unsafe(text) for text, _ in programs)

    def test_random_programs_match_the_naive_grounding(self):
        compared = skipped = 0
        mismatches = []
        for seed in range(11, 16):
            for text, program in random_programs(seed, 300):
                restricted = relevant_instances(program, self.LIMITS)
                try:
                    expected = _answer_sets_of_ground(restricted, self.LIMITS)
                except LimitExceeded:
                    skipped += 1
                    continue
                got = answer_sets(program, self.LIMITS)
                relevant = ground_program(program, self.LIMITS, relevant=True)
                compared += 1
                if (
                    got != expected
                    or Counter(relevant.rules) != Counter(restricted.rules)
                    or Counter(relevant.weak_constraints) != Counter(restricted.weak_constraints)
                ):
                    mismatches.append(text)
        assert mismatches == []
        assert compared >= 1350, (compared, skipped)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_examples_keep_the_relevant_instances(self, name):
        program = parse_program(getattr(encodings, name))
        restricted = relevant_instances(program)
        gp = ground_program(program, relevant=True)
        assert Counter(gp.rules) == Counter(restricted.rules)
        assert Counter(gp.weak_constraints) == Counter(restricted.weak_constraints)

    def test_relevant_heads_are_the_derivable_atoms(self):
        # The search takes its candidates from these heads.
        programs = [p for seed in range(11, 16) for _, p in random_programs(seed, 300)]
        programs += [parse_program(getattr(encodings, name)) for name in BUNDLED]
        for program in programs:
            naive = ground_program(program, self.LIMITS)
            relevant = ground_program(program, self.LIMITS, relevant=True)
            heads = {a for r in relevant.rules for a in r.head}
            assert heads == derivable_atoms(naive.rules)


# ---------------------------------------------------------------------------
# Semantics pins
# ---------------------------------------------------------------------------


class TestRelevanceSemantics:
    def test_plus_stays_bounded_by_the_universe(self):
        program = parse_program("p(1). q(Y) :- p(X), Y = X+1.")
        [only] = answer_sets(program)
        assert only.atoms == frozenset({Atom("p", (Integer(1),))})
        assert [r.render() for r in ground_program(program, relevant=True).rules] == ["p(1)."]

    def test_assignment_binds_inside_the_universe(self):
        program = parse_program("a(1). a(2). r(X) :- a(Y), X = Y + Y.")
        gp = ground_program(program, relevant=True)
        assert sorted(r.render() for r in gp.rules) == ["a(1).", "a(2).", "r(2) :- a(1)."]

    def test_unsafe_rule_grounds_over_the_universe(self):
        program = parse_program("p(X) :- not q(X). q(1). r(2).", check_safety=False)
        gp = ground_program(program, relevant=True)
        rendered = sorted(r.render() for r in gp.rules)
        assert rendered == ["p(1) :- not q(1).", "p(2) :- not q(2).", "q(1).", "r(2)."]
        assert len(herbrand_universe(program)) == 2
        [only] = answer_sets(program)
        assert sorted(map(str, only.atoms)) == ["p(2)", "q(1)", "r(2)"]

    def test_duplicate_weak_instances_are_charged_once(self):
        # X=1,Y=2 and X=2,Y=1 give the same instance `:~ d(1), d(2). [5:0]`
        program = parse_program("d(1). d(2). :~ d(X), d(Y), X != Y. [5:0]")
        assert len(ground_program(program, relevant=True).weak_constraints) == 1
        [only] = answer_sets(program)
        assert only.cost == {0: 5}
        # X=1 and X=2 both give `:~ a. [3:1]`
        program = parse_program("a. b(1). b(2). :~ a, X != 0. [3:1]", check_safety=False)
        assert len(ground_program(program, relevant=True).weak_constraints) == 1
        [only] = answer_sets(program)
        assert only.cost == {1: 3}
        # distinct instances still charge separately
        [only] = answer_sets(parse_program("d(1). d(2). :~ d(X). [2:0]"))
        assert only.cost == {0: 4}

    def test_past_deadline_times_out(self):
        program = parse_program("p(1). q(X) :- p(X).")
        with pytest.raises(SolverTimeout):
            ground_program(program, deadline=time.monotonic() - 1, relevant=True)
        with pytest.raises(SolverTimeout):
            answer_sets(program, deadline=time.monotonic() - 1)

    def test_over_budget_program_is_refused_on_the_solve_path(self):
        facts = " ".join(f"p({i})." for i in range(40))
        program = parse_program(facts + " q(A,B,C,D,E) :- p(A), p(B), p(C), p(D), p(E).")
        for solve in (answer_sets, optimal_answer_sets):
            with pytest.raises(LimitExceeded) as caught:
                solve(program)
            assert caught.value.what == "grounding substitutions"
            assert caught.value.count == 40 + 40**5

    def test_rule_limit_counts_kept_instances(self):
        # 9 naive instances of the rule, only 1 with a derivable body
        program = parse_program("p(1). e(1,2). e(2,3). q(X,Y) :- p(X), e(X,Y).")
        limits = EvaluationLimits(max_ground_rules=5)
        with pytest.raises(LimitExceeded):
            ground_program(program, limits)
        assert len(ground_program(program, limits, relevant=True).rules) == 4
        assert len(answer_sets(program, limits)) == 1


# ---------------------------------------------------------------------------
# `aspkit ground` and `aspkit check` keep the naive grounding
# ---------------------------------------------------------------------------

# First 16 hex digits of the SHA-256 of `aspkit ground FILE` stdout, recorded with the naive grounder
# before solving switched to relevance mode. The 9x9 sudoku is left out: its
# naive grounding alone takes seconds.
GROUND_DIGESTS = {
    "3col-k3.lp": "e486b53fddbf8444",
    "3col-k3-isolated.lp": "5fa33b8621b7d5fd",
    "3col-k4.lp": "6238f23a2e8ed04b",
    "ramsey-n3.lp": "1d3f9fbf8832d808",
    "ramsey-n9.lp": "370e3c350f6c608d",
    "sudoku-toy.lp": "ac9025cd770b0ac8",
    "sudoku-toy-given.lp": "2d88df3e946d1eac",
    "dlvfit-fragment.lp": "a8f10b3b0a63c53d",
}

# `aspkit check FILE -I INTERP` stdout for the program's facts, its first
# answer set and the union of its answer sets.
CHECK_VERDICTS = {
    ("3col-k3.lp", "facts"): "not_a_model",
    ("3col-k3.lp", "first"): "yes",
    ("3col-k3.lp", "union"): "not_a_model",
    ("3col-k3-isolated.lp", "first"): "yes",
    ("3col-k4.lp", "facts"): "not_a_model",
    ("ramsey-n3.lp", "first"): "yes",
    ("ramsey-n3.lp", "union"): "not_a_model",
    ("ramsey-n9.lp", "facts"): "not_a_model",
    ("sudoku-toy.lp", "first"): "yes",
    ("sudoku-toy.lp", "union"): "not_a_model",
    ("sudoku-toy-given.lp", "union"): "yes",
    ("dlvfit-fragment.lp", "first"): "yes",
}

BUNDLED_FILES = {name: text for files in encodings.BUNDLES.values() for name, text in files}


def run_main(capsys, *args) -> tuple[int, str]:
    code = cli.main(list(args))
    return code, capsys.readouterr().out


class TestCommandsKeepNaiveGrounding:
    @pytest.mark.parametrize("name", sorted(GROUND_DIGESTS))
    def test_ground_stdout_unchanged(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(BUNDLED_FILES[name])
        code, out = run_main(capsys, "ground", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == GROUND_DIGESTS[name]

    @pytest.mark.parametrize("name,kind", sorted(CHECK_VERDICTS))
    def test_check_stdout_unchanged(self, name, kind, tmp_path, capsys):
        program = parse_program(BUNDLED_FILES[name])
        if kind == "facts":
            atoms = set(program.facts())
        else:
            sets = answer_sets(program)
            atoms = set(sets[0].atoms) if kind == "first" else set().union(
                *(s.atoms for s in sets)
            )
        path = tmp_path / name
        path.write_text(BUNDLED_FILES[name])
        interp = tmp_path / "interp.lp"
        interp.write_text("".join(f"{a}.\n" for a in sorted(map(str, atoms))))
        code, out = run_main(capsys, "check", str(path), "-I", str(interp))
        assert out == CHECK_VERDICTS[name, kind] + "\n"
        assert code == (0 if out == "yes\n" else 10)

    def test_ground_command_calls_the_naive_grounder(self, tmp_path, capsys, monkeypatch):
        seen = []
        original = refeval.ground_program

        def spy(*args, **kwargs):
            seen.append(kwargs.get("relevant", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(refeval, "ground_program", spy)
        path = tmp_path / "g.lp"
        path.write_text("p(X) :- q(X). q(1).\n")
        run_main(capsys, "ground", str(path))
        run_main(capsys, "solve", str(path))
        assert seen == [False, True]
