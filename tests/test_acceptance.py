"""Acceptance suite: one test per criterion, timed where the criterion says so.

Every expected count is confirmed by an independent brute-force oracle inside
the test before being asserted against the library. The terminal summary
prints one PASS/FAIL line per criterion (see conftest).
"""

import itertools
import queue
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import criterion, external_clingo
from corpus import CLINGO_EXPECTED, DLV_EXPECTED

from aspkit import encodings
from aspkit.errors import InvalidSchema
from aspkit.mapper import (
    PredicateSchema,
    SchemaField,
    SchemaRegistry,
    Skipped,
    fact_to_record,
    record,
    record_to_fact,
    schema,
)
from aspkit.orchestration import Handler
from aspkit.refeval import (
    Verdict,
    answer_sets,
    body_true,
    ground_program,
    herbrand_base,
    is_answer_set,
    is_model,
    minimal_models,
    optimal_answer_sets,
)
from aspkit.syntax import parse_program
from aspkit.systems import (
    AnswerSets,
    clingo_solver,
    invoke_solver,
    parse_clingo_output,
    parse_dlv_output,
    reference_solver,
    render_reference_output,
)

FIXTURES = Path(__file__).parent / "fixtures"
CLI = [sys.executable, "-m", "aspkit"]


def names(interpretation) -> frozenset[str]:
    return frozenset(str(a) for a in interpretation)


# --------------------------------------------------------------------------
# 1. three-coloring counts
# --------------------------------------------------------------------------

def coloring_count(nodes, arcs) -> int:
    count = 0
    for assignment in itertools.product("ryg", repeat=len(nodes)):
        colors = dict(zip(nodes, assignment))
        if all(colors[a] != colors[b] for a, b in arcs):
            count += 1
    return count


def test_criterion_1_three_coloring():
    with criterion(1, "3-coloring: K3 -> 6, K3+isolated -> 18, K4 -> 0, each < 1 s"):
        cases = [
            (encodings.THREE_COL_K3, [1, 2, 3], [(1, 2), (2, 3), (1, 3)], 6),
            (
                encodings.THREE_COL_K3_ISOLATED,
                [1, 2, 3, 4],
                [(1, 2), (2, 3), (1, 3)],
                18,
            ),
            (
                encodings.THREE_COL_K4,
                [1, 2, 3, 4],
                [(a, b) for a in range(1, 5) for b in range(a + 1, 5)],
                0,
            ),
        ]
        for text, nodes, arcs, expected in cases:
            assert coloring_count(nodes, arcs) == expected  # oracle first
            start = time.monotonic()
            sets = answer_sets(parse_program(text))
            elapsed = time.monotonic() - start
            assert len(sets) == expected
            assert elapsed < 1.0


# --------------------------------------------------------------------------
# 2. Ramsey-style edge coloring
# --------------------------------------------------------------------------

def test_criterion_2_ramsey_n3():
    with criterion(2, "edge 2-coloring on n=3 -> 7 answer sets < 1 s"):
        edges = [(1, 2), (1, 3), (2, 3)]
        oracle = 0
        for colors in itertools.product("rb", repeat=3):
            red = {e for e, c in zip(edges, colors) if c == "r"}
            # a red triangle needs all three edges red; no blue 4-clique fits in 3 nodes
            if len(red) < 3:
                oracle += 1
        assert oracle == 7
        start = time.monotonic()
        sets = answer_sets(parse_program(encodings.RAMSEY_N3))
        elapsed = time.monotonic() - start
        assert len(sets) == 7
        assert elapsed < 1.0


@pytest.mark.skipif(external_clingo() is None, reason="no clingo executable available")
def test_criterion_2_ramsey_n9_external():
    raw = invoke_solver(
        clingo_solver(external_clingo()), encodings.RAMSEY_N9,
        [clingo_solver().models_option(1)], timeout=300,
    )
    assert parse_clingo_output(raw).satisfiable == "unsat"


# --------------------------------------------------------------------------
# 3. toy sudoku
# --------------------------------------------------------------------------

def latin_squares_oracle(given: dict | None = None) -> list[dict]:
    squares = []
    for values in itertools.product((1, 2), repeat=4):
        grid = {
            (0, 0): values[0],
            (0, 1): values[1],
            (1, 0): values[2],
            (1, 1): values[3],
        }
        rows_ok = grid[(0, 0)] != grid[(0, 1)] and grid[(1, 0)] != grid[(1, 1)]
        cols_ok = grid[(0, 0)] != grid[(1, 0)] and grid[(0, 1)] != grid[(1, 1)]
        if rows_ok and cols_ok and all(grid[k] == v for k, v in (given or {}).items()):
            squares.append(grid)
    return squares


def test_criterion_3_toy_sudoku():
    with criterion(3, "toy sudoku: 2 answer sets empty, 1 with a given, < 10 s"):
        assert len(latin_squares_oracle()) == 2
        assert len(latin_squares_oracle({(0, 0): 1})) == 1

        start = time.monotonic()
        empty_sets = answer_sets(parse_program(encodings.SUDOKU_TOY))
        given_sets = answer_sets(parse_program(encodings.SUDOKU_TOY_GIVEN))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0

        def grids(sets):
            out = []
            for s in sets:
                grid = {}
                for atom in s.atoms:
                    if atom.predicate == "cell":
                        x, y, n = (t.value for t in atom.terms)
                        grid[(x, y)] = n
                out.append(grid)
            return out

        assert len(empty_sets) == 2
        assert sorted(map(sorted, (g.items() for g in grids(empty_sets)))) == sorted(
            map(sorted, (g.items() for g in latin_squares_oracle()))
        )
        assert grids(given_sets) == latin_squares_oracle({(0, 0): 1})


# --------------------------------------------------------------------------
# 4. workout planner optimum
# --------------------------------------------------------------------------

RATES = {"ON_BICYCLE": 5, "WALKING": 2, "RUNNING": 11}
DURATIONS = (0, 10, 20)


def admissible_plans() -> list[tuple[int, int, int]]:
    """All of the 27 duration assignments passing the calorie and time checks."""
    plans = []
    for db, dw, dr in itertools.product(DURATIONS, repeat=3):
        calories = RATES["ON_BICYCLE"] * db + RATES["WALKING"] * dw + RATES["RUNNING"] * dr
        if 200 <= calories <= 300 and db + dw + dr <= 20:
            plans.append((db, dw, dr))
    return plans


def test_criterion_4_workout_planner():
    with criterion(4, "planner: unique optimum is RUNNING for 20 minutes"):
        plans = admissible_plans()
        assert plans == [(0, 0, 20)]  # nothing else is admissible

        program = parse_program(encodings.DLVFIT_FRAGMENT)

        # the encoding's violation tables must match the arithmetic they stand for
        tables = {"burns_too_few": set(), "burns_too_many": set(), "takes_too_long": set()}
        for atom in program.facts():
            if atom.predicate in tables:
                tables[atom.predicate].add(tuple(t.value for t in atom.terms))
        expected_tables = {"burns_too_few": set(), "burns_too_many": set(), "takes_too_long": set()}
        for db, dw, dr in itertools.product(DURATIONS, repeat=3):
            calories = 5 * db + 2 * dw + 11 * dr
            if calories < 200:
                expected_tables["burns_too_few"].add((db, dw, dr))
            if calories > 300:
                expected_tables["burns_too_many"].add((db, dw, dr))
            if db + dw + dr > 20:
                expected_tables["takes_too_long"].add((db, dw, dr))
        assert tables == expected_tables

        all_sets = answer_sets(program)
        assert len(all_sets) == len(plans) == 1  # one admissible plan, one answer set
        optima = optimal_answer_sets(program)
        assert len(optima) == 1
        plan_atoms = {str(a) for a in optima[0].atoms if a.predicate == "activity_to_do"}
        assert plan_atoms == {'activity_to_do("RUNNING",20)'}
        assert optima[0].cost == {3: 1, 2: 20}


# --------------------------------------------------------------------------
# 5. oracle equivalence on random programs
# --------------------------------------------------------------------------

def random_program(rng: random.Random, atom_count: int, allow_negation: bool) -> str:
    atom_pool = [f"x{i}" for i in range(atom_count)]
    lines = []
    for _ in range(rng.randint(1, 8)):
        head = rng.sample(atom_pool, rng.choice([0, 1, 1, 1, 2]))
        body = []
        for _ in range(rng.randint(0, 3)):
            negated = allow_negation and rng.random() < 0.4
            body.append(("not " if negated else "") + rng.choice(atom_pool))
        if not head and not body:
            continue
        if head and body:
            lines.append(f"{' | '.join(head)} :- {', '.join(body)}.")
        elif head:
            lines.append(f"{' | '.join(head)}.")
        else:
            lines.append(f":- {', '.join(body)}.")
    return "\n".join(lines) or "x0."


def exhaustive_answer_sets(program) -> set[frozenset]:
    base = sorted(herbrand_base(program), key=str)
    found = set()
    for picks in itertools.product([False, True], repeat=len(base)):
        candidate = frozenset(a for a, keep in zip(base, picks) if keep)
        if is_answer_set(candidate, program) is Verdict.YES:
            found.add(candidate)
    return found


def test_criterion_5_oracle_equivalence():
    with criterion(5, "pruned enumeration equals exhaustive 2^|HB| filter on 120 programs"):
        rng = random.Random(51423)
        start = time.monotonic()
        for index in range(120):
            text = random_program(rng, atom_count=rng.randint(3, 10), allow_negation=True)
            program = parse_program(text)
            pruned = {s.atoms for s in answer_sets(program)}
            assert pruned == exhaustive_answer_sets(program), text
        assert time.monotonic() - start < 60.0


# --------------------------------------------------------------------------
# 6. positive programs: answer sets are the minimal models
# --------------------------------------------------------------------------

def test_criterion_6_positive_program_property():
    with criterion(6, "negation-free: answer sets equal minimal models on 120 programs"):
        rng = random.Random(77001)
        for index in range(120):
            text = random_program(rng, atom_count=rng.randint(2, 8), allow_negation=False)
            program = parse_program(text)
            from_answer_sets = [s.atoms for s in answer_sets(program)]
            from_minimal_models = minimal_models(ground_program(program))
            assert from_answer_sets == from_minimal_models, text


# --------------------------------------------------------------------------
# 7. semantic invariants over the bundled corpus
# --------------------------------------------------------------------------

def test_criterion_7_semantic_invariants(solved_corpus):
    with criterion(7, "model/antichain/constraint/EDB invariants: zero violations"):
        checked_sets = 0
        for name, (program, gp, sets) in solved_corpus.items():
            edb_facts = frozenset(program.facts())
            for answer in sets:
                assert is_model(answer.atoms, gp), name
                for rule in gp.rules:
                    if not rule.head:
                        assert not body_true(rule, answer.atoms), name
                assert edb_facts <= answer.atoms, name
                checked_sets += 1
            for a, b in itertools.combinations(sets, 2):
                assert not a.atoms < b.atoms and not b.atoms < a.atoms, name
        assert checked_sets >= 35  # 6+18+0+7+2+1+1


# --------------------------------------------------------------------------
# 8. mapper behavior
# --------------------------------------------------------------------------

def test_criterion_8_mapper():
    with criterion(8, "mapper: 1000-record round trip, skip-with-warning, invalid schema"):
        cell = schema(
            "cell", row=(1, "integer"), column=(2, "integer"), value=(3, "integer")
        )
        registry = SchemaRegistry([cell])
        rng = random.Random(4242)
        for _ in range(1000):
            original = record(
                cell,
                row=rng.randint(0, 8),
                column=rng.randint(0, 8),
                value=rng.randint(1, 9),
            )
            assert fact_to_record(registry, record_to_fact(cell, original)) == original

        unknown = parse_program("mystery(1,2).").facts()[0]
        before = registry.warning_count
        outcome = fact_to_record(registry, unknown)
        assert isinstance(outcome, Skipped)
        assert outcome.atom == unknown  # raw atom preserved
        assert registry.warning_count == before + 1

        with pytest.raises(InvalidSchema):
            SchemaRegistry().register(
                PredicateSchema(
                    "cell",
                    (SchemaField("row", 1, "integer"), SchemaField("col", 1, "integer")),
                )
            )


# --------------------------------------------------------------------------
# 9. orchestration
# --------------------------------------------------------------------------

def test_criterion_9_orchestration():
    with criterion(9, "async: 8 jobs exactly once, sync equality, snapshot isolation"):
        handler = Handler(reference_solver())
        handler.add_program("a | b. c :- a.")
        sync_output = handler.start_sync()

        results: "queue.Queue" = queue.Queue()
        job_ids = [handler.start_async(results.put) for _ in range(8)]
        assert len(set(job_ids)) == 8
        outputs = [results.get(timeout=30) for _ in range(8)]
        assert results.empty()
        assert all(o == sync_output for o in outputs)

        # mutation after start does not leak into the in-flight snapshot
        handler2 = Handler(reference_solver())
        handler2.add_program("a.")
        expected = handler2.start_sync()
        handler2.start_async(results.put)
        handler2.add_program("b.")
        assert results.get(timeout=30) == expected


# --------------------------------------------------------------------------
# 10. output parsers
# --------------------------------------------------------------------------

def test_criterion_10_output_parsers():
    with criterion(10, "fixture corpus parses exactly; reference render round-trips"):
        assert len(CLINGO_EXPECTED) >= 10 and len(DLV_EXPECTED) >= 10
        for case, expected in CLINGO_EXPECTED.items():
            raw = (FIXTURES / "clingo" / f"{case}.out").read_text()
            assert parse_clingo_output(raw) == expected, case
        for case, expected in DLV_EXPECTED.items():
            raw = (FIXTURES / "dlv" / f"{case}.out").read_text()
            assert parse_dlv_output(raw) == expected, case

        for text in ("a.", "a | b.", "a | b. :~ a. [2:3]", "a. :- a.", "p(1). q(X) :- p(X)."):
            program = parse_program(text)
            sets = answer_sets(program)
            rendered = render_reference_output(
                sets, has_weak_constraints=bool(program.weak_constraints)
            )
            assert parse_clingo_output(rendered) == AnswerSets(
                sets=tuple(sets),
                satisfiable="sat" if sets else "unsat",
                optimum_found=bool(sets and program.weak_constraints),
            )


# --------------------------------------------------------------------------
# 11. CLI determinism and exit codes
# --------------------------------------------------------------------------

def run_cli(*args):
    proc = subprocess.run(CLI + list(args), capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "CLI: byte-identical stdout on repeated runs, exits 0/10/1/2"):
        dest = tmp_path / "bundles"
        for name in sorted(encodings.BUNDLES):
            code, _, _ = run_cli("examples", name, "--dest", str(dest))
            assert code == 0

        runs = [
            (["solve", str(dest / "3col-k3.lp")], 0),
            (["solve", str(dest / "3col-k3-isolated.lp")], 0),
            (["solve", str(dest / "3col-k4.lp")], 10),
            (["solve", str(dest / "ramsey-n3.lp")], 0),
            (["solve", str(dest / "sudoku-toy.lp")], 0),
            (["solve", str(dest / "sudoku-toy-given.lp")], 0),
            (["solve", "--optimize", str(dest / "dlvfit-fragment.lp")], 0),
            # beyond desk scale: the deterministic refusal path
            (["solve", str(dest / "ramsey-n9.lp")], 1),
            (["ground", str(dest / "3col-k3.lp")], 0),
            (["examples", "nonsense", "--dest", str(dest)], 2),
        ]
        for args, expected_code in runs:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first == second, args  # byte-identical stdout and stderr
            assert first[0] == expected_code, args

        code, out, _ = run_cli("solve", str(dest / "3col-k3.lp"))
        assert code == 0 and len(out.splitlines()) == 6
