"""Relevance-driven grounding on the solve path, checked against the naive grounder.

The naive grounder (``ground_program`` without ``relevant``) stays the oracle:
relevance mode must keep exactly its instances whose positive body is
derivable, and every solve must return the same answer sets, costs and order
as enumeration over the naive grounding.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter

import pytest

from oracles import derivable_atoms, random_programs, relevant_instances

from aspkit import cli, encodings, refeval, syntax
from aspkit.errors import LimitExceeded, SafetyError, SolverTimeout
from aspkit.mapper import record, schema
from aspkit.orchestration import Handler, InputProgram
from aspkit.refeval import (
    DEFAULT_LIMITS,
    EvaluationLimits,
    _answer_sets_of_ground,
    answer_sets,
    ground_program,
    herbrand_universe,
    optimal_answer_sets,
)
from aspkit.syntax import Atom, Integer, Program, Rule, Variable, parse_program
from aspkit.systems import reference_solver


def _is_unsafe(text: str) -> bool:
    try:
        parse_program(text)
    except SafetyError:
        return True
    return False


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

    def test_mapped_records_over_a_large_universe_solve(self):
        # naive count 2,500 + 2,517**3; a join tries each reading fact once per rule
        reading = schema(
            "reading", id=(1, "integer"), sensor=(2, "symbol"), value=(3, "integer")
        )
        records = [record(reading, id=i, sensor=f"s{i % 17}", value=i % 100) for i in range(2500)]
        handler = Handler(reference_solver())
        handler.add_program(InputProgram().add_records(records))
        handler.add_program("seen(S) :- reading(I,S,V).")
        output = handler.start_sync()
        assert output.ok, output.error
        [only] = output.answer_sets.sets
        assert sum(a.predicate == "seen" for a in only.atoms) == 17

    def test_join_bound_over_the_budget_is_refused_with_the_bound(self):
        program = parse_program(
            "".join(f"r({i},{i + 1})." for i in range(2500)) + "q(X,Y,Z) :- r(X,Y), r(Y,Z)."
        )
        with pytest.raises(LimitExceeded) as caught:
            answer_sets(program)
        assert caught.value.count == 2500 + 2500 * 2500

    def test_join_bound_counts_the_universe_for_a_derived_signature(self):
        # s has no facts, but a rule derives it: its atoms count 2,501**2, not 0
        program = parse_program(
            "".join(f"r({i},{i + 1})." for i in range(2500))
            + "s(X,Y) :- r(X,Y). q(X,Y,Z) :- s(X,Y), r(Y,Z)."
        )
        with pytest.raises(LimitExceeded) as caught:
            answer_sets(program)
        assert caught.value.count == 2500 + 2500 + 2501**2 * 2500

    @pytest.mark.parametrize("relevant", [False, True])
    def test_builtins_tell_integers_strings_and_symbols_apart(self, relevant):
        # `1`, `"1"`, `a` and `"a"` are four different terms; `2` and `5` are
        # in the universe, so `X + 1` can bind `Y` and `X + 5` cannot.
        program = parse_program(
            'p(1). p("1"). p(a). p("a").\n'
            "eq(X) :- p(X), X = 1.\n"
            "ne(X) :- p(X), X != 1.\n"
            "lt(X) :- p(X), X < 2.\n"
            "s(Y) :- p(X), Y = X + 1.\n"
            "t(Y) :- p(X), Y = X + 5.\n"
            "same(X) :- p(X), p(Y), X = Y, Y != a.\n"
        )
        gp = ground_program(program, relevant=relevant)
        [only] = _answer_sets_of_ground(gp, DEFAULT_LIMITS)
        derived = sorted(str(a) for a in only.atoms if a.predicate != "p")
        assert derived == [
            "eq(1)", "lt(1)", 'ne("1")', 'ne("a")', "ne(a)", "s(2)",
            'same("1")', 'same("a")', "same(1)",
        ]

    def test_rule_limit_counts_kept_instances(self):
        # 9 naive instances of the rule, only 1 with a derivable body
        program = parse_program("p(1). e(1,2). e(2,3). q(X,Y) :- p(X), e(X,Y).")
        limits = EvaluationLimits(max_ground_rules=5)
        with pytest.raises(LimitExceeded):
            ground_program(program, limits)
        assert len(ground_program(program, limits, relevant=True).rules) == 4
        assert len(answer_sets(program, limits)) == 1

    @pytest.mark.parametrize(
        "facts",
        [
            ["p(1).", "p(2).", "p(3).", "p(4).", "p(5)."],
            ["p(1).", "p(1).", "p(2).", "p(2).", "p(3)."],  # a duplicate counts again
        ],
    )
    def test_rule_limit_counts_each_fact(self, facts):
        limits = EvaluationLimits(max_ground_rules=5)
        kept = parse_program(" ".join(facts))
        assert len(ground_program(kept, limits).rules) == 5
        assert len(ground_program(kept, limits, relevant=True).rules) == 5
        [only] = answer_sets(kept, limits)
        assert only.atoms == set(kept.facts())
        one_more = parse_program(" ".join(facts) + " q.")
        for solve in (
            lambda: ground_program(one_more, limits),
            lambda: ground_program(one_more, limits, relevant=True),
            lambda: answer_sets(one_more, limits),
        ):
            with pytest.raises(LimitExceeded) as caught:
                solve()
            assert (caught.value.what, caught.value.count, caught.value.limit) == (
                "ground rule instances", 6, 5
            )

    def test_solving_builds_no_rule_for_a_fact(self, monkeypatch):
        built = []
        ground_rule = refeval.GroundRule

        def spy(*args, **kwargs):
            built.append(ground_rule(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(refeval, "GroundRule", spy)
        facts = "".join(f"p({i}). " for i in range(2000))
        program = parse_program(facts + "q(X) :- p(X), X < 2.")
        [only] = answer_sets(program)
        assert len(only.atoms) == 2002
        assert len(built) == 2 and not any(r.is_fact for r in built)  # q(0) and q(1)
        # the facts are still listed as rules, built when first read
        assert len(ground_program(program, relevant=True).rules) == 2002
        assert sum(r.is_fact for r in built) == 2000


class TestHeldFacts:
    """A program may hold facts as atoms; it reads as one with those fact rules last."""

    @staticmethod
    def split(program: Program) -> tuple[Program, Program]:
        """(the program with its facts held as atoms, the same with them as rules at the end)."""
        rules = [r for r in program.rules if not r.is_fact]
        facts = [r.head[0] for r in program.rules if r.is_fact]
        held = Program._with_facts(rules, facts, program.weak_constraints)
        written = Program(rules + [Rule((a,)) for a in facts], program.weak_constraints)
        return held, written

    def test_held_facts_ground_and_solve_as_fact_rules(self):
        limits = TestDifferential.LIMITS
        compared = 0
        for seed in (21, 22):
            for _, program in random_programs(seed, 200):
                held, written = self.split(program)
                assert held == written and hash(held) == hash(written)
                assert held.rules == written.rules and held.facts() == written.facts()
                assert herbrand_universe(held) == herbrand_universe(written)
                outcomes = []
                for p in (held, written):
                    try:
                        outcomes.append((
                            [r.render() for r in ground_program(p, limits).rules],
                            Counter(ground_program(p, limits, relevant=True).rules),
                            answer_sets(p, limits),
                        ))
                    except LimitExceeded as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
                compared += isinstance(outcomes[0], tuple)
        assert compared >= 250

    def test_solving_builds_no_rule_for_a_held_fact(self, monkeypatch):
        built, tested = [], []

        def spy(*args, **kwargs):
            built.append(Rule(*args, **kwargs))
            return built[-1]

        facts = [Atom("p", (Integer(i),)) for i in range(2000)]
        program = Program._with_facts(parse_program("q(X) :- p(X), X < 2.").rules, facts, ())
        monkeypatch.setattr(syntax, "Rule", spy)
        is_fact = Rule.is_fact.fget
        monkeypatch.setattr(Rule, "is_fact", property(lambda r: tested.append(r) or is_fact(r)))
        [only] = answer_sets(program)
        assert len(only.atoms) == 2002
        assert built == [] and len(tested) == 1  # the written rule alone is tested
        assert len(program.rules) == 2001 and len(built) == 2000  # listed when first read

    @pytest.mark.parametrize("text, sorts", [
        ("p(X) :- q(X). q(b). q(a).", False),
        ("p(X) :- not q(X). q(b). r(a).", True),
    ])
    def test_the_solve_path_sorts_the_universe_only_for_a_product(self, text, sorts, monkeypatch):
        calls = []
        key = refeval._term_sort_key
        monkeypatch.setattr(refeval, "_term_sort_key", lambda t: calls.append(t) or key(t))
        program = parse_program(text, check_safety=False)
        answer_sets(program)
        assert bool(calls) == sorts
        calls.clear()
        ground_program(program)
        assert len(calls) == len(herbrand_universe(program))  # naive grounding sorts it


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
