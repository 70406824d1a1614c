"""The backtracking model search and the least-model minimality check.

The oracle below calls no enumeration or minimality code of ``refeval``: it
tries every interpretation with ``itertools.product`` over the atoms of the
naive grounding, checks each against the rules itself, and checks minimality
by trying every proper subset against the reduct. ``answer_sets`` must return
exactly its sets, costs and order.
"""

from __future__ import annotations

import itertools
import random
import types

import pytest

from test_grounding import derivable_atoms, random_programs

from aspkit import refeval
from aspkit.errors import LimitExceeded, SolverTimeout
from aspkit.refeval import (
    AnswerSet,
    EvaluationLimits,
    GroundProgram,
    GroundRule,
    _answer_sets_of_ground,
    _has_smaller_model,
    _models,
    _MaskSpace,
    _Run,
    answer_sets,
    ground_program,
    is_answer_set,
    minimal_models,
    optimal_answer_sets,
)
from aspkit.syntax import Atom, Integer, parse_program

# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def _satisfied(rule, interpretation) -> bool:
    body = rule.pos <= interpretation and not (rule.neg & interpretation)
    return bool(rule.head & interpretation) or not body


def oracle_answer_sets(program) -> list[AnswerSet]:
    gp = ground_program(program)
    facts = frozenset(next(iter(r.head)) for r in gp.rules if r.is_fact)
    # Answer-set atoms are derivable ignoring negation; a rule with an
    # underivable positive body atom is satisfied by every such candidate.
    derivable = derivable_atoms(gp.rules)
    rules = [r for r in gp.rules if r.pos <= derivable]
    free = sorted(derivable - facts, key=str)

    found = []
    for picks in itertools.product((False, True), repeat=len(free)):
        interpretation = facts | {a for a, keep in zip(free, picks) if keep}
        if not all(_satisfied(r, interpretation) for r in rules):
            continue
        reduct = [r for r in rules if r.pos <= interpretation and not (r.neg & interpretation)]
        # A subset without some fact violates that fact, which is in the reduct.
        extra = sorted(interpretation - facts, key=str)
        subsets = (
            facts | set(sub) for k in range(len(extra)) for sub in itertools.combinations(extra, k)
        )
        if any(all(r.head & s or not r.pos <= s for r in reduct) for s in subsets):
            continue
        totals: dict[int, int] = {}
        for w in set(gp.weak_constraints):
            if w.pos <= interpretation and not (w.neg & interpretation):
                totals[w.level] = totals.get(w.level, 0) + w.weight
        cost = {level: weight for level, weight in totals.items() if weight}
        found.append(AnswerSet(atoms=frozenset(interpretation), cost=cost))
    found.sort(key=lambda s: "{" + ", ".join(sorted(map(str, s.atoms))) + "}")
    return found


# ---------------------------------------------------------------------------
# Seeded propositional programs
# ---------------------------------------------------------------------------


def _literals(rng: random.Random, names: str, count: int) -> list[str]:
    return [("not " if rng.random() < 0.35 else "") + rng.choice(names) for _ in range(count)]


def random_propositional_text(rng: random.Random) -> str:
    """Disjunctive rules, `not`, constraints, positive head cycles, weak constraints."""
    names = "abcdefg"[: rng.randint(3, 7)]
    lines = []
    for _ in range(rng.randint(1, 7)):
        head = " | ".join(rng.sample(names, rng.choice((0, 1, 1, 2, 2, 3))))
        body = ", ".join(_literals(rng, names, rng.randint(0, 3)))
        if head and body:
            lines.append(f"{head} :- {body}.")
        elif head or body:
            lines.append(f"{head}." if head else f":- {body}.")
    if rng.random() < 0.4:
        # a | b. a :- b. b :- a.  (or a three-atom loop), sometimes guarded
        cycle = rng.sample(names, rng.choice((2, 3)))
        guard = f" :- {rng.choice(names)}" if rng.random() < 0.3 else ""
        lines.append(f"{cycle[0]} | {cycle[1]}{guard}.")
        lines += [f"{cycle[(i + 1) % len(cycle)]} :- {cycle[i]}." for i in range(len(cycle))]
    for _ in range(rng.randint(0, 3)):
        body = ", ".join(_literals(rng, names, rng.randint(1, 2)))
        lines.append(f":~ {body}. [{rng.randint(0, 3)}:{rng.randint(0, 2)}]")
    return "\n".join(lines)


class TestDifferentialSearch:
    def test_propositional_programs_match_the_oracle(self, monkeypatch):
        must_atoms = refeval._must_atoms
        has_smaller_model = refeval._has_smaller_model
        last = []
        fallback = {"taken": 0, "accepted": 0}

        def spy_must(m, reduct):
            must = must_atoms(m, reduct)
            last[:] = [must != m]
            return must

        def spy_smaller(m, folded, deadline=None):
            smaller = has_smaller_model(m, folded, deadline)
            if last[0]:
                fallback["taken"] += 1
                fallback["accepted"] += not smaller
            return smaller

        monkeypatch.setattr(refeval, "_must_atoms", spy_must)
        monkeypatch.setattr(refeval, "_has_smaller_model", spy_smaller)
        rng = random.Random(3003)
        mismatches = []
        for _ in range(3000):
            text = random_propositional_text(rng)
            program = parse_program(text)
            if answer_sets(program) != oracle_answer_sets(program):
                mismatches.append(text)
        assert mismatches == []
        # head cycles: the least-model check is not enough and the submask
        # search both rejects models and accepts answer sets
        assert fallback["accepted"] > 0
        assert fallback["taken"] > fallback["accepted"]

    def test_non_ground_programs_match_the_oracle(self):
        limits = EvaluationLimits(max_candidate_atoms=10)
        compared = 0
        mismatches = []
        for text, program in random_programs(31, 300):
            try:
                got = answer_sets(program, limits)
                expected = oracle_answer_sets(program)
            except LimitExceeded:
                continue
            compared += 1
            if got != expected:
                mismatches.append(text)
        assert mismatches == []
        assert compared >= 250

    def test_head_cycle_answer_set_needs_the_submask_search(self):
        program = parse_program("a | b. a :- b. b :- a.")
        [only] = answer_sets(program)
        assert sorted(map(str, only.atoms)) == ["a", "b"]
        gp = ground_program(program)
        reduct = _MaskSpace(gp, only.atoms, _Run()).rules
        assert refeval._must_atoms(0b11, reduct) == 0
        assert not _has_smaller_model(0b11, reduct, _Run())


# ---------------------------------------------------------------------------
# Deadlines and limits
# ---------------------------------------------------------------------------


def _pairs(count: int) -> str:
    return "".join(f"a{i} | b{i}. " for i in range(count))


def _clock(readings: list[float]):
    """A stand-in for the time module: ``monotonic`` returns ``readings`` in turn, then the last."""
    def monotonic():
        return readings.pop(0) if len(readings) > 1 else readings[0]

    return types.SimpleNamespace(monotonic=monotonic)


class TestDeadlines:
    @pytest.mark.parametrize(
        "entry, phase",
        [
            ("ground_program", "grounding"),
            ("ground_program relevant", "grounding"),
            ("answer_sets", "grounding"),
            ("optimal_answer_sets", "grounding"),
            ("minimal_models", "folding"),
        ],
    )
    def test_past_deadline_stops_every_entry_in_its_first_phase(self, entry, phase):
        program = parse_program("a | b. c :- a. :~ c. [1:0]")
        gp = ground_program(program)
        call = {
            "ground_program": lambda: ground_program(program, deadline=0.0),
            "ground_program relevant": lambda: ground_program(program, deadline=0.0, relevant=True),
            "answer_sets": lambda: answer_sets(program, deadline=0.0),
            "optimal_answer_sets": lambda: optimal_answer_sets(program, deadline=0.0),
            "minimal_models": lambda: minimal_models(gp, deadline=0.0),
        }[entry]
        with pytest.raises(SolverTimeout, match=f"^{phase} deadline exceeded$"):
            call()

    def test_past_deadline_stops_the_search(self, monkeypatch):
        gp = ground_program(parse_program(_pairs(11)), relevant=True)  # 22 candidates
        # folding's only read gives 0.0; the search's first gives 2.0
        monkeypatch.setattr(refeval, "time", _clock([0.0, 2.0]))
        with pytest.raises(SolverTimeout, match="^enumeration deadline exceeded$") as caught:
            _answer_sets_of_ground(gp, refeval.DEFAULT_LIMITS, deadline=1.0)
        assert [entry.name for entry in caught.traceback[-3:]] == ["_models", "start", "tick"]

    def test_deadline_is_checked_during_the_search(self, monkeypatch):
        gp = ground_program(parse_program(_pairs(11)), relevant=True)
        heads = {a for r in gp.rules for a in r.head}
        folded = _MaskSpace(gp, heads, _Run()).rules
        # the clock passes the deadline at the third read, 2048 nodes in
        monkeypatch.setattr(refeval, "time", _clock([0.0, 0.0, 2.0]))
        models = _models((1 << 22) - 1, folded, _Run(deadline=1.0))
        yielded = 0
        with pytest.raises(SolverTimeout, match="^enumeration deadline exceeded$") as caught:
            for _ in models:
                yielded += 1
        assert yielded > 0
        assert [entry.name for entry in caught.traceback[-2:]] == ["_models", "tick"]

    def test_past_deadline_stops_the_submask_fallback(self, monkeypatch):
        # {a, b} is the only model, and the least-model check derives neither atom
        gp = ground_program(parse_program("a | b. a :- b. b :- a."), relevant=True)
        # folding's and the search's only reads give 0.0; the fallback's first gives 2.0
        monkeypatch.setattr(refeval, "time", _clock([0.0, 0.0, 2.0]))
        with pytest.raises(SolverTimeout, match="^enumeration deadline exceeded$") as caught:
            _answer_sets_of_ground(gp, refeval.DEFAULT_LIMITS, deadline=1.0)
        assert [entry.name for entry in caught.traceback[-4:]] == [
            "_has_smaller_model", "_models", "start", "tick"
        ]

    def test_past_deadline_stops_the_folding(self, monkeypatch):
        # 3,000 constraints fold to one rule over the two candidates a and b
        a, b = Atom("a", ()), Atom("b", ())
        rules = [GroundRule(head=frozenset({a, b}), pos=frozenset(), neg=frozenset())]
        for i in range(3000):
            q = Atom("q", (Integer(i),))
            rules.append(GroundRule(head=frozenset(), pos=frozenset({a}), neg=frozenset({q})))
        gp = GroundProgram(rules=tuple(rules))
        # folding's first read gives 0.0; its second, 1024 rules in, gives 2.0
        monkeypatch.setattr(refeval, "time", _clock([0.0, 2.0]))
        with pytest.raises(SolverTimeout, match="^folding deadline exceeded$") as caught:
            _answer_sets_of_ground(gp, refeval.DEFAULT_LIMITS, deadline=1.0)
        assert [entry.name for entry in caught.traceback[-2:]] == ["fold_rules", "tick"]
        monkeypatch.undo()
        assert [s.atoms for s in _answer_sets_of_ground(gp, refeval.DEFAULT_LIMITS)] == [
            frozenset({b})
        ]

    def test_past_deadline_stops_the_join(self, monkeypatch):
        # the constraint's join makes 10,100 matches and yields no instance
        facts = "".join(f"a({i}). b({i}). " for i in range(100))
        program = parse_program(facts + ":- a(X), b(Y), X > Y + 100.")
        # grounding's first read gives 0.0; its second, at the 824th join match
        # after the 200 facts, gives 2.0
        monkeypatch.setattr(refeval, "time", _clock([0.0, 2.0]))
        with pytest.raises(SolverTimeout, match="^grounding deadline exceeded$") as caught:
            ground_program(program, deadline=1.0, relevant=True)
        assert [entry.name for entry in caught.traceback[-2:]] == ["join", "tick"]
        monkeypatch.undo()
        assert len(ground_program(program, relevant=True).rules) == 200

    def test_default_candidate_limit_is_unchanged(self):
        program = parse_program(_pairs(11) + "c :- a0.")  # 23 candidates
        with pytest.raises(LimitExceeded) as caught:
            answer_sets(program)
        assert (caught.value.what, caught.value.count, caught.value.limit) == (
            "candidate atoms",
            23,
            22,
        )

    @pytest.mark.parametrize("entry", ["answer_sets", "minimal_models", "is_answer_set"])
    def test_candidate_limit_counts_the_atoms_besides_the_facts(self, entry):
        # two facts and four other atoms; is_answer_set checks all six
        program = parse_program("f. g. a | b. c | d.")
        everything = frozenset(a for r in ground_program(program).rules for a in r.head)
        call = {
            "answer_sets": lambda limits: answer_sets(program, limits),
            "minimal_models": lambda limits: minimal_models(ground_program(program), limits),
            "is_answer_set": lambda limits: is_answer_set(everything, program, limits),
        }[entry]
        call(EvaluationLimits(max_candidate_atoms=4))
        with pytest.raises(LimitExceeded) as caught:
            call(EvaluationLimits(max_candidate_atoms=3))
        assert (caught.value.what, caught.value.count, caught.value.limit) == (
            "candidate atoms",
            4,
            3,
        )
