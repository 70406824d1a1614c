import itertools
import random

import pytest

from oracles import oracle_minimal_models

from aspkit.encodings import DLVFIT_FRAGMENT
from aspkit.errors import LimitExceeded
from aspkit.refeval import (
    EvaluationLimits,
    GroundProgram,
    GroundRule,
    GroundWeakConstraint,
    Verdict,
    answer_sets,
    body_true,
    cost,
    eval_builtin,
    ground_program,
    herbrand_base,
    herbrand_universe,
    is_answer_set,
    is_model,
    minimal_models,
    optimal_answer_sets,
    reduct,
)
from aspkit.syntax import Atom, Constant, Integer, parse_program


def atoms(*names: str) -> frozenset[Atom]:
    return frozenset(Atom(n) for n in names)


def atom_names(interpretation) -> frozenset[str]:
    return frozenset(str(a) for a in interpretation)


# The facts-only part of the workout-planner listing, for universe checks.
DLVFIT_FACTS = """
calories_burnt_per_activity("ON_BICYCLE", 5).
calories_burnt_per_activity("WALKING", 2).
calories_burnt_per_activity("RUNNING", 11).
remaining_calories_to_burn(200).
how_long("ON_BICYCLE", 10).
how_long("ON_BICYCLE", 20).
how_long("WALKING", 10).
how_long("WALKING", 20).
how_long("RUNNING", 10).
how_long("RUNNING", 20).
max_time(20).
surplus(100).
"""


class TestHerbrandUniverse:
    def test_constants_of_facts(self):
        program = parse_program("node(1). node(2). arc(1,2).")
        assert herbrand_universe(program) == frozenset({Integer(1), Integer(2)})

    def test_no_constants(self):
        program = parse_program("p(X) :- q(X).", check_safety=False)
        assert herbrand_universe(program) == frozenset()

    def test_workout_facts_universe(self):
        universe = herbrand_universe(parse_program(DLVFIT_FACTS))
        expected = {
            Constant('"ON_BICYCLE"'),
            Constant('"WALKING"'),
            Constant('"RUNNING"'),
            Integer(5),
            Integer(2),
            Integer(11),
            Integer(200),
            Integer(10),
            Integer(20),
            Integer(100),
        }
        assert expected <= universe
        assert universe == frozenset(expected)


class TestHerbrandBase:
    def test_zero_arity_predicate_over_empty_universe(self):
        program = parse_program("a.")
        assert herbrand_base(program) == atoms("a")

    def test_unary_predicate(self):
        program = parse_program("p(1). p(2).")
        assert herbrand_base(program) == frozenset(
            {Atom("p", (Integer(1),)), Atom("p", (Integer(2),))}
        )

    def test_three_coloring_base_matches_enumeration(self):
        program = parse_program(
            "color(X,r) | color(X,y) | color(X,g) :- node(X)."
            ":- arc(X,Y), color(X,C), color(Y,C)."
            "node(1). node(2). node(3). arc(1,2). arc(2,3). arc(1,3)."
        )
        universe = sorted(herbrand_universe(program), key=str)
        assert len(universe) == 6
        # independent combinatorial count: every predicate over universe^arity
        expected = set()
        for name, arity in [("color", 2), ("node", 1), ("arc", 2)]:
            for combo in itertools.product(universe, repeat=arity):
                expected.add(Atom(name, combo))
        base = herbrand_base(program)
        assert base == frozenset(expected)
        assert len(base) == 36 + 6 + 36

    def test_limit_refusal(self):
        facts = "".join(f"p({i}). " for i in range(18))
        program = parse_program(facts + "q(X,Y,Z) :- p(X), p(Y), p(Z).")
        with pytest.raises(LimitExceeded) as info:
            herbrand_base(program)  # 18 p/1 atoms and 18**3 q/3 atoms
        assert (info.value.count, info.value.limit) == (5850, 5000)


class TestGrounding:
    def test_all_substitutions_applied(self):
        program = parse_program("p(X) :- q(X). q(1). q(2).")
        gp = ground_program(program)
        rendered = sorted(r.render() for r in gp.rules)
        assert rendered == ["p(1) :- q(1).", "p(2) :- q(2).", "q(1).", "q(2)."]

    def test_inequality_filters_instances(self):
        program = parse_program(
            ":- cell(1,1,N), cell(1,1,N1), N1 <> N. cell(1,1,1). cell(1,1,2)."
        )
        gp = ground_program(program)
        constraints = [r for r in gp.rules if not r.head]
        assert len(constraints) == 2  # of the four substitutions only N1 != N survive
        for c in constraints:
            assert c.pos == frozenset(
                {Atom("cell", (Integer(1),) * 3), Atom("cell", (Integer(1), Integer(1), Integer(2)))}
            )

    def test_false_builtin_deletes_instance(self):
        program = parse_program("p(1). q :- p(X), 1 > 2.", check_safety=False)
        gp = ground_program(program)
        assert sorted(r.render() for r in gp.rules) == ["p(1)."]

    def test_true_builtin_removed_from_body(self):
        program = parse_program("p(1). q :- p(X), 2 > 1.", check_safety=False)
        gp = ground_program(program)
        assert "q :- p(1)." in [r.render() for r in gp.rules]

    def test_assignment_binds_within_universe(self):
        # X must take a universe constant equal to the sum
        program = parse_program("a(1). a(2). r(X) :- a(Y), X = Y + Y.")
        gp = ground_program(program)
        derived = [r.render() for r in gp.rules if r.pos]
        assert derived == ["r(2) :- a(1)."]  # 2+2=4 is not in the universe

    def test_order_comparison_on_symbols_is_false(self):
        program = parse_program("p(a). p(b). q :- p(X), p(Y), X < Y.", check_safety=False)
        gp = ground_program(program)
        assert all(not r.head or r.is_fact for r in gp.rules) or not any(
            "q" in r.render() for r in gp.rules if not r.is_fact
        )

    def test_ground_rule_limit(self):
        program = parse_program("p(1). p(2). p(3). q(X,Y) :- p(X), p(Y).")
        with pytest.raises(LimitExceeded):
            ground_program(program, EvaluationLimits(max_ground_rules=5))

    def test_weak_constraints_ground_and_bind_annotations(self):
        program = parse_program("opt(a, 3, 1). opt(b, 5, 2). :~ opt(A, W, P). [W:P]")
        gp = ground_program(program)
        # every retained instance has integer annotations, and the two
        # fact-supported instances charge their bound weight at their level
        assert all(w.weight >= 0 and w.level >= 0 for w in gp.weak_constraints)
        [only] = answer_sets(program)
        assert only.cost == {1: 3, 2: 5}

    def test_weak_instances_with_symbolic_weights_never_fire(self):
        program = parse_program("opt(a, z, 1). :~ opt(A, W, P). [W:P]")
        gp = ground_program(program)
        assert all(isinstance(w.weight, int) for w in gp.weak_constraints)
        [only] = answer_sets(program)
        assert only.cost == {}

    def test_weak_instances_with_negative_weights_are_dropped(self):
        program = parse_program("w(-1). a. :~ a, w(W). [W:1]")
        gp = ground_program(program)
        assert all(Atom("w", (Integer(-1),)) not in w.pos for w in gp.weak_constraints)
        [only] = answer_sets(program)
        assert only.cost == {}


class TestBuiltins:
    @pytest.mark.parametrize(
        "text, holds",
        [
            ("1 < 2", True), ("2 < 2", False), ("2 <= 2", True), ("3 <= 2", False),
            ("2 > 1", True), ("2 > 2", False), ("2 >= 2", True), ("1 >= 2", False),
            ("-3 < 1", True), ("a < b", False), ('"1" < 2', False), ("a >= a", False),
            ("1 + 1 = 2", True), ("1 + 1 != 2", False), ("a + 1 = 2", False), ("a + 1 != 2", False),
            ("1 = 1", True), ("a = a", True), ('a = "a"', False), ('1 = "1"', False), ("1 != a", True),
        ],
    )
    def test_ground_builtin(self, text, holds):
        [builtin] = parse_program(f":- p, {text}.").rules[0].builtins()
        assert eval_builtin(builtin, {}) is holds


class TestBodyTruth:
    rule = GroundRule(head=frozenset(), pos=atoms("a"), neg=atoms("b"))

    def test_positive_in_negative_out(self):
        assert body_true(self.rule, atoms("a"))

    def test_negative_member_falsifies(self):
        assert not body_true(self.rule, atoms("a", "b"))

    def test_empty_body_is_vacuously_true(self):
        empty = GroundRule(head=atoms("h"), pos=frozenset(), neg=frozenset())
        assert body_true(empty, frozenset())
        assert body_true(empty, atoms("a", "b"))


class TestIsModel:
    def test_rule_with_false_body_is_satisfied(self):
        gp = ground_program(parse_program("a :- b.", check_safety=False))
        assert is_model(frozenset(), gp)

    def test_unsatisfied_head(self):
        gp = ground_program(parse_program("a :- b.", check_safety=False))
        assert not is_model(atoms("b"), gp)

    def test_violated_constraint(self):
        gp = ground_program(parse_program(":- a.", check_safety=False))
        assert not is_model(atoms("a"), gp)


class TestReduct:
    def test_body_true_rule_kept_intact(self):
        gp = ground_program(parse_program("a :- not b.", check_safety=False))
        reduced = reduct(gp, atoms("a"))
        assert reduced.rules == gp.rules  # kept, body untouched

    def test_body_false_rule_deleted(self):
        gp = ground_program(parse_program("a :- not b.", check_safety=False))
        assert reduct(gp, atoms("b")).rules == ()

    def test_reduct_is_deletion_only_on_random_programs(self):
        rng = random.Random(7)
        universe = [Atom(n) for n in "abcdef"]
        for _ in range(50):
            rules = []
            for _ in range(rng.randint(1, 6)):
                rules.append(
                    GroundRule(
                        head=frozenset(rng.sample(universe, rng.randint(0, 2))),
                        pos=frozenset(rng.sample(universe, rng.randint(0, 2))),
                        neg=frozenset(rng.sample(universe, rng.randint(0, 2))),
                    )
                )
            gp = GroundProgram(rules=tuple(rules))
            interpretation = frozenset(rng.sample(universe, rng.randint(0, 6)))
            reduced = reduct(gp, interpretation)
            assert set(reduced.rules) <= set(gp.rules)
            for rule in reduced.rules:
                assert body_true(rule, interpretation)
            assert reduced.weak_constraints == ()


class TestMinimalModels:
    def test_disjunction_splits(self):
        gp = ground_program(parse_program("a | b."))
        assert {atom_names(m) for m in minimal_models(gp)} == {
            frozenset({"a"}),
            frozenset({"b"}),
        }

    def test_forward_closure(self):
        gp = ground_program(parse_program("a. b :- a."))
        assert [atom_names(m) for m in minimal_models(gp)] == [frozenset({"a", "b"})]

    def test_negation_needs_the_full_candidate_space(self):
        gp = ground_program(parse_program("b :- not a.", check_safety=False))
        assert {atom_names(m) for m in minimal_models(gp)} == {
            frozenset({"a"}),
            frozenset({"b"}),
        }

    def test_random_programs_match_full_space_oracle(self):
        rng = random.Random(20240)
        names = [f"m{i}" for i in range(8)]
        for _ in range(60):
            lines = []
            for _ in range(rng.randint(1, 7)):
                head = rng.sample(names, rng.randint(0, 2))
                body = [
                    ("not " if rng.random() < 0.35 else "") + rng.choice(names)
                    for _ in range(rng.randint(0, 3))
                ]
                if not head and not body:
                    continue
                head_text = " | ".join(head)
                body_text = ", ".join(body)
                if head and body:
                    lines.append(f"{head_text} :- {body_text}.")
                elif head:
                    lines.append(f"{head_text}.")
                else:
                    lines.append(f":- {body_text}.")
            if not lines:
                continue
            gp = ground_program(parse_program("\n".join(lines)))
            assert minimal_models(gp) == oracle_minimal_models(gp.rules)

    def test_limit_refusal(self):
        gp = ground_program(parse_program("a | b. c | d."))
        with pytest.raises(LimitExceeded):
            minimal_models(gp, EvaluationLimits(max_candidate_atoms=3))

    def test_candidates_are_the_head_atoms_of_the_classical_reading(self):
        # An atom in no head is false in every minimal model, and `:- not a.`
        # reads classically as the fact `a.`: neither counts as a candidate.
        limits = EvaluationLimits(max_candidate_atoms=1)
        gp = ground_program(parse_program("a :- b, c.", check_safety=False))
        assert minimal_models(gp, limits) == [frozenset()]
        gp = ground_program(parse_program(":- not a. b :- a, c.", check_safety=False))
        assert [atom_names(m) for m in minimal_models(gp, limits)] == [frozenset({"a"})]

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            EvaluationLimits(max_candidate_atoms=0)
        with pytest.raises(ValueError):
            EvaluationLimits(max_ground_rules=-1)


class TestIsAnswerSet:
    def test_supported_atom(self):
        program = parse_program("a :- not b.", check_safety=False)
        assert is_answer_set(atoms("a"), program) is Verdict.YES

    def test_superset_is_not_minimal(self):
        # the reduct w.r.t. {a,b} is empty, whose minimal model is {}
        program = parse_program("a :- not b.", check_safety=False)
        assert is_answer_set(atoms("a", "b"), program) is Verdict.NOT_MINIMAL

    def test_unfounded_loop(self):
        program = parse_program("a :- a.")
        assert is_answer_set(atoms("a"), program) is Verdict.NOT_MINIMAL

    def test_unsatisfied_fact(self):
        program = parse_program("a.")
        assert is_answer_set(frozenset(), program) is Verdict.NOT_A_MODEL

    def test_atom_outside_program_is_removable(self):
        program = parse_program("a.")
        assert is_answer_set(atoms("a", "zzz"), program) is Verdict.NOT_MINIMAL

    def test_classic_even_loop(self):
        program = parse_program("a :- not b. b :- not a.", check_safety=False)
        assert is_answer_set(atoms("a"), program) is Verdict.YES
        assert is_answer_set(atoms("b"), program) is Verdict.YES
        # {a,b} satisfies both rules (their bodies are false), but its reduct
        # is empty, so the empty set is a smaller model
        assert is_answer_set(atoms("a", "b"), program) is Verdict.NOT_MINIMAL


def coloring_oracle(nodes: list[int], arcs: list[tuple[int, int]]) -> int:
    colors = "ryg"
    count = 0
    for assignment in itertools.product(colors, repeat=len(nodes)):
        by_node = dict(zip(nodes, assignment))
        if all(by_node[a] != by_node[b] for a, b in arcs):
            count += 1
    return count


class TestAnswerSets:
    THREE_COL = (
        "color(X,r) | color(X,y) | color(X,g) :- node(X)."
        ":- arc(X,Y), color(X,C), color(Y,C)."
    )

    def _solve_graph(self, nodes, arcs):
        facts = "".join(f"node({n})." for n in nodes) + "".join(
            f"arc({a},{b})." for a, b in arcs
        )
        return answer_sets(parse_program(self.THREE_COL + facts))

    def test_triangle_has_six_colorings(self):
        nodes, arcs = [1, 2, 3], [(1, 2), (2, 3), (1, 3)]
        sets = self._solve_graph(nodes, arcs)
        assert len(sets) == coloring_oracle(nodes, arcs) == 6

    def test_k4_has_none(self):
        nodes = [1, 2, 3, 4]
        arcs = [(a, b) for a in nodes for b in nodes if a < b]
        sets = self._solve_graph(nodes, arcs)
        assert len(sets) == coloring_oracle(nodes, arcs) == 0

    def test_isolated_node_multiplies_solutions(self):
        nodes, arcs = [1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)]
        sets = self._solve_graph(nodes, arcs)
        assert len(sets) == coloring_oracle(nodes, arcs) == 18

    def test_colorings_match_oracle_exactly(self):
        nodes, arcs = [1, 2, 3], [(1, 2), (2, 3), (1, 3)]
        sets = self._solve_graph(nodes, arcs)
        got = {
            tuple(sorted(str(a) for a in s.atoms if a.predicate == "color")) for s in sets
        }
        expected = set()
        for assignment in itertools.product("ryg", repeat=3):
            if all(assignment[a - 1] != assignment[b - 1] for a, b in arcs):
                expected.add(
                    tuple(sorted(f"color({n},{c})" for n, c in zip(nodes, assignment)))
                )
        assert got == expected

    def test_ramsey_n3(self):
        program = parse_program(
            "blue(X,Y) | red(X,Y) :- edge(X,Y)."
            ":- red(X,Y), red(X,Z), red(Y,Z)."
            ":- blue(X,Y), blue(X,Z), blue(Y,Z), blue(X,W), blue(Y,W), blue(Z,W)."
            "node(1). node(2). node(3). edge(1,2). edge(1,3). edge(2,3)."
        )
        sets = answer_sets(program)
        # oracle: 2^3 edge colorings minus the all-red triangle
        edges = [(1, 2), (1, 3), (2, 3)]
        admissible = [
            c for c in itertools.product("rb", repeat=3) if set(c) != {"r"}
        ]
        assert len(sets) == len(admissible) == 7

    def test_candidate_limit_refusal(self):
        text = "".join(f"a{i} | b{i}. " for i in range(12))  # 24 candidate atoms
        with pytest.raises(LimitExceeded):
            answer_sets(parse_program(text))

    def test_duplicate_free_and_sorted(self):
        sets = answer_sets(parse_program("a | b. c :- a. c :- b."))
        keys = [tuple(sorted(map(str, s.atoms))) for s in sets]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)


class TestCost:
    def test_single_violation(self):
        gp = ground_program(parse_program("a. :~ a. [1:2]"))
        assert cost(atoms("a"), gp.weak_constraints) == {2: 1}

    def test_no_violation_is_all_zero(self):
        gp = ground_program(parse_program("a. :~ a. [1:2]"))
        assert cost(frozenset(), gp.weak_constraints) == {}

    def test_additive_within_level(self):
        gp = ground_program(parse_program("a. b. :~ a. [1:1] :~ b. [3:1]"))
        assert cost(atoms("a", "b"), gp.weak_constraints) == {1: 4}

    def test_additivity_over_disjoint_sets(self):
        gp = ground_program(
            parse_program("a. b. c. :~ a. [1:1] :~ b. [3:1] :~ c. [2:4]")
        )
        first, rest = gp.weak_constraints[:1], gp.weak_constraints[1:]
        i = atoms("a", "b", "c")
        combined = cost(i, gp.weak_constraints)
        partial = cost(i, first), cost(i, rest)
        merged: dict[int, int] = {}
        for part in partial:
            for level, weight in part.items():
                merged[level] = merged.get(level, 0) + weight
        assert combined == merged

    def test_exact_duplicates_charge_once(self):
        wc = GroundWeakConstraint(pos=atoms("a"), neg=frozenset(), weight=2, level=1)
        assert cost(atoms("a"), [wc, wc]) == {1: 2}


class TestOptimalAnswerSets:
    def test_without_weak_constraints_equals_answer_sets(self):
        program = parse_program("a | b. c :- a.")
        assert optimal_answer_sets(program) == answer_sets(program)

    def test_penalized_branch_dropped(self):
        program = parse_program("a | b. :~ a. [1:1]")
        best = optimal_answer_sets(program)
        assert [atom_names(s.atoms) for s in best] == [frozenset({"b"})]
        assert best[0].cost == {}

    def test_higher_level_dominates(self):
        # choosing a is cheap at the high level but expensive at the low one
        program = parse_program("a | b. :~ a. [1:1] :~ b. [5:2]")
        best = optimal_answer_sets(program)
        assert [atom_names(s.atoms) for s in best] == [frozenset({"a"})]

    def test_ties_keep_all_optima(self):
        program = parse_program("a | b. :~ a. [1:1] :~ b. [1:1]")
        assert len(optimal_answer_sets(program)) == 2

    def test_workout_plan_optimum(self):
        program = parse_program(DLVFIT_FRAGMENT)
        best = optimal_answer_sets(program)
        assert len(best) == 1
        plan = {str(a) for a in best[0].atoms if a.predicate == "activity_to_do"}
        assert plan == {'activity_to_do("RUNNING",20)'}
