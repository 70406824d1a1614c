"""The backtracking model search and the least-model minimality check.

The oracle (``oracles.oracle_answer_sets``) calls no enumeration or
minimality code of ``refeval``: it tries every interpretation with
``itertools.product`` over the atoms of the naive grounding, checks each
against the rules itself, and checks minimality by trying every proper subset
against the reduct. ``answer_sets`` must return exactly its sets, costs and
order.
"""

from __future__ import annotations

import random
import types
from collections import Counter

import pytest

from oracles import (
    oracle_answer_sets,
    oracle_minimal_models,
    random_programs,
    random_propositional_text,
    relevant_instances,
)

from aspkit import cli, encodings, refeval
from aspkit.errors import LimitExceeded, SolverTimeout
from aspkit.refeval import (
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
    lowest_cost,
    minimal_models,
    optimal_answer_sets,
    render_interpretation,
)
from aspkit.syntax import Atom, Integer, parse_program


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
        # The oracle picks its programs by its own size, so an evaluator that
        # reaches further does not hand it larger ones; the evaluator has no
        # more candidates than the oracle has free atoms, or this raises.
        limits = EvaluationLimits(max_candidate_atoms=10)
        compared = 0
        mismatches = []
        for text, program in random_programs(31, 300):
            expected = oracle_answer_sets(program, max_free_atoms=10)
            if expected is None:
                continue
            compared += 1
            if answer_sets(program, limits) != expected:
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


class TestSupportAndTightness:
    @pytest.fixture
    def checked(self, monkeypatch):
        """The models handed to ``_has_smaller_model``, in call order."""
        has_smaller_model = refeval._has_smaller_model
        calls = []

        def spy(m, folded, run):
            calls.append(m)
            return has_smaller_model(m, folded, run)

        monkeypatch.setattr(refeval, "_has_smaller_model", spy)
        return calls

    def test_tight_bundled_encodings_skip_the_minimality_check(self, checked):
        solved = []
        for files in encodings.BUNDLES.values():
            for name, text in files:
                try:
                    answer_sets(parse_program(text))
                except LimitExceeded:
                    continue
                solved.append(name)
        assert len(solved) >= 7, solved
        assert checked == []

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a | b. a :- b. b :- a.", [["a", "b"]]),
            ("a :- b. b :- a. a | c.", [["a", "b"], ["c"]]),
            # a self-loop is a cycle: {a, d} is supported, but not minimal
            ("c | d. a :- c. a :- a.", [["a", "c"], ["d"]]),
        ],
    )
    def test_positive_cycles_keep_the_minimality_check(self, checked, text, expected):
        sets = answer_sets(parse_program(text))
        assert [sorted(map(str, s.atoms)) for s in sets] == expected
        assert len(checked) >= 1

    def test_the_search_drops_unsupported_atoms(self):
        gp = ground_program(parse_program("a | b."))
        space = _MaskSpace(gp, {a for r in gp.rules for a in r.head}, _Run())
        models = [space.atoms_of(m) for m in _models(0b11, space.rules, _Run())]
        # {a, b} models the rule, but neither atom is its only true head atom
        assert sorted(render_interpretation(m) for m in models) == ["{a}", "{b}"]


# ---------------------------------------------------------------------------
# Facts, which the grounder keeps as atoms apart from the other instances
# ---------------------------------------------------------------------------

FACT_SHAPES = {
    "duplicate facts": "a. a. p(1). p(1). p(2). q(X) :- p(X), not r(X). r(2) | s.",
    "a fact that is also a rule head": "p(1). p(1) :- p(2). p(2) :- not q. q | t. r(X) :- p(X).",
    "a fact only in a negative body": "f. a :- not f. b :- not a. c | d :- b.",
    "a fact only in a weak-constraint body": "w(1). w(2). a | b. :~ a, w(X). [X:0] :~ b, w(2). [4:0]",
    "facts no body joins on": "r(1,2). r(2,3). s(a). t. a | b. c :- a.",
    "rules that ground to facts": "p(1) :- 1 = 1. p(2) :- 1 = 2. p(X) :- X = 3. q(X) :- p(X). a | b :- q(3).",
}


class TestFactShapes:
    @pytest.mark.parametrize("shape", sorted(FACT_SHAPES))
    def test_solving_matches_the_oracle(self, shape):
        program = parse_program(FACT_SHAPES[shape])
        expected = oracle_answer_sets(program)
        assert expected
        assert answer_sets(program) == expected
        assert optimal_answer_sets(program) == lowest_cost(expected)

    @pytest.mark.parametrize("shape", sorted(FACT_SHAPES))
    def test_relevant_rules_list_every_fact(self, shape):
        program = parse_program(FACT_SHAPES[shape])
        gp = ground_program(program, relevant=True)
        restricted = relevant_instances(program)
        assert Counter(gp.rules) == Counter(restricted.rules)
        assert Counter(gp.weak_constraints) == Counter(restricted.weak_constraints)
        # The same instances handed over as rules solve alike. Every fact-shaped
        # instance is forced, so the candidates are the other derivable atoms.
        as_rules = GroundProgram(rules=gp.rules, weak_constraints=gp.weak_constraints)
        facts = {a for r in gp.rules if r.is_fact for a in r.head}
        candidates = {a for r in gp.rules for a in r.head} - facts
        limits = EvaluationLimits(max_candidate_atoms=max(1, len(candidates)))
        assert _answer_sets_of_ground(as_rules, limits) == answer_sets(program, limits)

    @pytest.mark.parametrize("shape", sorted(FACT_SHAPES))
    @pytest.mark.parametrize("relevant", [False, True])
    def test_minimal_models_of_a_grounding_with_facts(self, shape, relevant):
        gp = ground_program(parse_program(FACT_SHAPES[shape]), relevant=relevant)
        expected = oracle_minimal_models(gp.rules)
        assert minimal_models(gp) == expected
        assert minimal_models(GroundProgram(rules=gp.rules)) == expected


# {ab} sorts before {a}: the key is the whole rendered text, braces included.
SHARED_PREFIXES = [
    ("a | ab.", ["{ab}", "{a}"]),
    ("p(1) | p(1,2).", ["{p(1)}", "{p(1,2)}"]),
    ("a | ab | b. c | cd :- a.", ["{a, cd}", "{a, c}", "{ab}", "{b}"]),
]


@pytest.mark.parametrize("text, rendered", SHARED_PREFIXES)
def test_answer_sets_sort_by_their_rendered_text(text, rendered):
    assert [render_interpretation(s.atoms) for s in answer_sets(parse_program(text))] == rendered


@pytest.mark.parametrize("text, rendered", SHARED_PREFIXES)
def test_solve_prints_sets_by_their_rendered_text(text, rendered, tmp_path, capsys):
    path = tmp_path / "prog.lp"
    path.write_text(text)
    assert cli.main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == rendered


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
