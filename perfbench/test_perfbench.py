"""Tests of the benchmark itself: inputs, oracle, checker, spans and counters.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_pass(name, items, workdir, traced=True):
    """One pass of a workload over ``items``; returns (workload, samples, rows)."""
    tracer = spans.Tracer(derive=layers.ground_counters)
    workload = workloads.WORKLOADS[name](items, tracer, workdir)
    workload.prepare()
    loop = workloads.Loop(workload, seed=0)
    loop.probing = traced
    if traced:
        tracer.install()
    try:
        loop.run_items(items, traced)
    finally:
        if traced:
            tracer.uninstall()
    rows = layers.per_request(tracer.spans, [s.rid for s in loop.samples])
    return workload, loop.samples, rows


def small_deck(name):
    items = inputs.build(name, 11)
    if name == "enumerate":
        return [i for i in items if i.name.startswith("three_col")] + items[-1:]
    if name == "ground":
        return items[1:2]
    if name == "embed":
        return [i for i in items if len(i.records) < 1100][:2]
    return [i for i in items if i.name in ("solve_k4", "solve_graph_0", "check_yes_0",
                                           "check_not_minimal_0", "optimize_0")]


# --- inputs and oracle -----------------------------------------------------

@pytest.mark.parametrize("name", sorted(inputs.DECKS))
def test_inputs_are_deterministic_per_seed(name):
    first = inputs.digest(inputs.build(name, 5))
    assert first == inputs.digest(inputs.build(name, 5))
    assert first != inputs.digest(inputs.build(name, 6))


def test_oracle_reproduces_the_bundled_examples():
    graphs = inputs.BUNDLED_GRAPHS
    assert len(oracle.three_col_sets(*graphs["THREE_COL_K3"])) == 6
    assert len(oracle.three_col_sets(*graphs["THREE_COL_K3_ISOLATED"])) == 18
    assert len(oracle.three_col_sets(*graphs["THREE_COL_K4"])) == 0
    assert len(oracle.ramsey_sets(3)) == 7
    assert len(oracle.latin_sets(())) == 2
    assert len(oracle.latin_sets(((0, 0, 1),))) == 1
    (atoms, cost), = inputs.BUNDLED_PLANNER.answer_sets().items()
    assert {a for a in atoms if a.startswith("activity_to_do")} == {
        'activity_to_do("RUNNING",20)'}
    assert cost == {3: 1, 2: 20}


def test_check_verdicts_follow_the_construction():
    nodes, arcs = (1, 2), ((1, 2),)
    assert oracle.check_verdict(nodes, arcs, {1: {"r"}, 2: {"g"}}) == "yes"
    assert oracle.check_verdict(nodes, arcs, {1: {"r", "y"}, 2: {"g"}}) == "not_minimal"
    assert oracle.check_verdict(nodes, arcs, {1: {"r"}, 2: {"r"}}) == "not_a_model"
    assert oracle.check_verdict(nodes, arcs, {1: {"r"}, 2: set()}) == "not_a_model"


# --- the checker counts wrong outputs ----------------------------------------

def drop_one_atom(parse):
    def corrupted(text):
        parsed = parse(text)
        sets = tuple(type(s)(atoms=frozenset(list(s.atoms)[1:]), cost=s.cost)
                     for s in parsed.sets)
        return type(parsed)(sets=sets, satisfiable=parsed.satisfiable,
                            optimum_found=parsed.optimum_found)
    return corrupted


@pytest.mark.parametrize("name", ["enumerate", "ground", "embed"])
def test_corrupted_output_is_counted_as_failed(name, monkeypatch, tmp_path):
    from aspkit import systems

    items = small_deck(name)[:2]
    _, good, _ = run_pass(name, items, tmp_path, traced=False)
    assert all(s.ok for s in good)
    monkeypatch.setattr(systems, "parse_clingo_output",
                        drop_one_atom(systems.parse_clingo_output))
    _, bad, _ = run_pass(name, items, tmp_path, traced=False)
    assert all(not s.ok for s in bad)


def test_corrupted_cli_output_is_counted_as_failed(tmp_path):
    items = small_deck("batch")
    workload, good, _ = run_pass("batch", items, tmp_path, traced=False)
    assert all(s.ok for s in good)
    # An emptied program: `solve` prints `{}`, and `check` finds no interpretation minimal.
    (workload.files / "graph-0.lp").write_text("")
    loop = workloads.Loop(workload, seed=0)
    loop.run_items(items, False)
    failed = {s.item for s in loop.samples if not s.ok}
    assert failed == {"solve_graph_0", "check_yes_0"}


# --- spans and counters ------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    parent = ["p", 0.0, 10.0, None, 1, None]
    children = [["a", 1.0, 3.0, parent, 1, None], ["b", 2.0, 5.0, parent, 1, None],
                ["c", 8.0, 12.0, parent, 1, None]]
    own = spans.self_times([parent] + children)
    assert own[id(parent)] == pytest.approx(4.0)
    assert own[id(children[0])] == pytest.approx(2.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(100))[0] == 90
    assert run.tail(range(45))[0:3:2] == (75, 11)
    assert run.tail(range(15))[0] == 50


@pytest.mark.parametrize("name", sorted(inputs.DECKS))
def test_counters_are_consistent(name, tmp_path):
    workload, samples, rows = run_pass(name, small_deck(name), tmp_path)
    assert samples and all(s.ok for s in samples)
    grounded = 0
    for row in rows.values():
        count = row["count"]
        ground = count.get("refeval.ground_program")
        if ground is None:
            continue
        grounded += 1
        assert ground["rules"] + ground["weaks"] <= ground["substitutions"]
        assert ground["masks"] == 2 ** ground["candidates"]
        assert ground["relevant"] <= ground["kept"] == ground["rules"] + ground["weaks"]
        if "refeval.answer_sets" in count:
            assert count["refeval.answer_sets"]["sets"] <= ground["masks"]
        if "mapper.answer_set_to_records" in count:
            mapped = count["mapper.answer_set_to_records"]
            assert mapped["records"] + mapped["skipped"] == mapped["atoms"]
            assert mapped["skipped"] > 0
    assert grounded == len(rows)
    if name == "embed":
        assert workload.jobs == workload.callbacks == len(samples)
    values = layers.metrics(workload.tracer.spans, list(rows),
                            [1.0], [1.0], getattr(workload, "jobs", 0),
                            getattr(workload, "callbacks", 0))
    assert sorted(values) == layers.METRICS


def test_shared_counters_survive_thread_switches(tmp_path):
    items = [i for i in inputs.build("embed", 3) if len(i.records) < 1100][:4]
    tracer = spans.Tracer(derive=layers.ground_counters)
    workload = workloads.WORKLOADS["embed"](items, tracer, tmp_path)
    workload.clients = 4  # more clients than cores
    workload.prepare()
    loop = workloads.Loop(workload, seed=0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        loop.run_items(items, False)
    finally:
        sys.setswitchinterval(interval)
    assert len(loop.samples) == len(loop.calibration) == len(items)
    assert all(s.ok for s in loop.samples)
    assert workload.jobs == workload.callbacks == len(items)


# --- BENCHMARK.json and the command line ------------------------------------

def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(inputs.DECKS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
