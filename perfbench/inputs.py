"""Seeded input generation for every workload.

``build(workload, seed)`` returns the deck of items one pass of the closed
loop runs: the program text or records the toolkit receives, plus what the
oracle expects back. The same seed always gives the same deck, and
``digest`` fingerprints it so two runs can be shown to share inputs.
Bundled example programs come from ``aspkit.encodings``; their expected
results come from the instance structure written out below, not from aspkit.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from aspkit import encodings

import oracle

# Deck shape per workload. One pass over a deck takes 15-20 s here, longer
# than a run's --seconds, so a run is one pass and the sample count is the
# deck size: fixed, and large enough for a tail percentile (README).
GRAPHS_PER_PASS = 56
GRAPH_NODES, GRAPH_EDGES = 6, 7  # 18 candidate atoms
LATIN_GIVENS = (0, 1, 2) * 8
PLANNERS_PER_PASS = 44
EMBED_SIZES = tuple(1000 + i * 1500 // 47 for i in range(48))  # evenly 1000..2500
EMBED_SENSORS = 16
BATCH_BUNDLED_COPIES = 2
BATCH_GRAPHS = 14


@dataclass(frozen=True)
class Item:
    name: str
    text: str = ""  # program text, or the encoding for embed
    expect: object = None  # workload-specific, see the build_* functions
    records: tuple = ()  # embed: (predicate, values) pairs
    argv: tuple = ()  # batch: arguments after `aspkit`
    files: tuple = ()  # batch: (file name, text) written before the run

    def fingerprint(self):
        return [self.name, self.text, [list(r) for r in self.records], list(self.argv),
                [list(f) for f in self.files]]


def digest(items) -> str:
    blob = json.dumps([item.fingerprint() for item in items], sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Graph colouring programs
# ---------------------------------------------------------------------------

THREE_COL_RULES = """\
color(X,r) | color(X,y) | color(X,g) :- node(X).
:- arc(X,Y), color(X,C), color(Y,C).
"""

BUNDLED_GRAPHS = {
    # name in aspkit.encodings -> (nodes, arcs) of its instance
    "THREE_COL_K3": ((1, 2, 3), ((1, 2), (2, 3), (1, 3))),
    "THREE_COL_K3_ISOLATED": ((1, 2, 3, 4), ((1, 2), (2, 3), (1, 3))),
    "THREE_COL_K4": ((1, 2, 3, 4), ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
}


def random_graph(rng: random.Random, n: int, m: int) -> tuple[tuple, tuple]:
    """Connected graph on nodes 1..n with m arcs: a random spanning tree plus extras."""
    nodes = list(range(1, n + 1))
    order = nodes[:]
    rng.shuffle(order)
    arcs = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        arcs.add((min(a, b), max(a, b)))
    spare = [(a, b) for a in nodes for b in nodes if a < b and (a, b) not in arcs]
    arcs.update(rng.sample(spare, m - len(arcs)))
    return tuple(nodes), tuple(sorted(arcs))


def graph_text(nodes, arcs, prices=None) -> str:
    lines = [THREE_COL_RULES]
    lines += [f"node({n})." for n in nodes]
    lines += [f"arc({a},{b})." for a, b in arcs]
    for colour, (weight, level) in sorted((prices or {}).items()):
        lines.append(f":~ color(X,{colour}). [{weight}:{level}]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# enumerate: guess/check programs where the 2^n candidate loop is the work
# ---------------------------------------------------------------------------

def build_enumerate(seed: int) -> list[Item]:
    rng = random.Random(f"enumerate/{seed}")
    items = []
    for const, (nodes, arcs) in BUNDLED_GRAPHS.items():
        items.append(Item(const.lower(), getattr(encodings, const),
                          oracle.three_col_sets(nodes, arcs)))
    items.append(Item("ramsey_n3", encodings.RAMSEY_N3, oracle.ramsey_sets(3)))
    items.append(Item("sudoku_toy", encodings.SUDOKU_TOY, oracle.latin_sets(())))
    items.append(Item("sudoku_toy_given", encodings.SUDOKU_TOY_GIVEN,
                      oracle.latin_sets(((0, 0, 1),))))
    for index, count in enumerate(LATIN_GIVENS):
        cells = rng.sample([(x, y) for x in range(2) for y in range(2)], count)
        givens = tuple(sorted((x, y, rng.choice((1, 2))) for x, y in cells))
        facts = "".join(f"cell({x},{y},{v}).\n" for x, y, v in givens)
        text = encodings.SUDOKU_TOY + facts
        items.append(Item(f"latin_{index}", text, oracle.latin_sets(givens)))
    for index in range(GRAPHS_PER_PASS):
        nodes, arcs = random_graph(rng, GRAPH_NODES, GRAPH_EDGES)
        items.append(Item(f"graph_{index}", graph_text(nodes, arcs),
                          oracle.three_col_sets(nodes, arcs)))
    return items


# ---------------------------------------------------------------------------
# ground: planner instances whose naive grounding is the work
# ---------------------------------------------------------------------------

PLANNER_RULES = """\
activity_to_do(A, HL) | not_activity_to_do(A, HL) :- how_long(A, HL).
:- activity_to_do(A, HL1), activity_to_do(A, HL2), HL1 != HL2.
daily_duration(A, HL) :- activity_to_do(A, HL).
"""

PLANNER_PREFERENCES = """\
:~ optimize(A, W, P), activity_to_do(A, _). [W:P]
:~ optimize(time, _, P), activity_to_do(_, HL). [HL:P]
"""

ACTIVITY_NAMES = ("ON_BICYCLE", "WALKING", "RUNNING", "SWIMMING", "ROWING", "CLIMBING")

# The bundled instance, as its comments and facts state it.
BUNDLED_PLANNER = oracle.Planner(
    activities=("ON_BICYCLE", "WALKING", "RUNNING"),
    durations=((10, 20), (10, 20), (10, 20)),
    rates=(5, 2, 11),
    low=200,
    high=300,
    cap=20,
    weights=(3, 2, 1),
    pref_level=3,
    time_level=2,
    activities_level=1,
    extra_facts=(
        'calories_burnt_per_activity("ON_BICYCLE",5)',
        'calories_burnt_per_activity("WALKING",2)',
        'calories_burnt_per_activity("RUNNING",11)',
        "remaining_calories_to_burn(200)",
        "max_time(20)",
        "surplus(100)",
    ),
)


def planner_text(p: oracle.Planner) -> str:
    """Planner encoding with admissibility tables computed from the instance."""
    names = [f'"{a}"' for a in p.activities]
    variables = [f"D{i}" for i in range(len(names))]
    lines = [PLANNER_RULES]
    for name, durations in zip(names, p.durations):
        body = ", ".join(f"not_activity_to_do({name}, {d})" for d in durations)
        lines.append(f"daily_duration({name}, 0) :- {body}.")
    daily = ", ".join(f"daily_duration({n}, {v})" for n, v in zip(names, variables))
    for table in ("burns_too_few", "burns_too_many", "takes_too_long"):
        lines.append(f":- {daily}, {table}({', '.join(variables)}).")
    lines.append(PLANNER_PREFERENCES)
    for plan in p.plans():
        args = ",".join(str(d) for d in plan)
        lines += [f"{table}({args})." for table in sorted(p.violations(plan))]
    for name, durations in zip(names, p.durations):
        lines += [f"how_long({name}, {d})." for d in durations]
    for name, weight in zip(names, p.weights):
        lines.append(f"optimize({name}, {weight}, {p.pref_level}).")
    lines.append(f"optimize(time, 0, {p.time_level}).")
    lines.append(f"optimize(activities, 0, {p.activities_level}).")
    return "\n".join(lines) + "\n"


def random_planner(rng: random.Random) -> oracle.Planner:
    """Three activities, one duration each, at least two admissible plans.

    Weights lie in 1..3 and the three levels are a permutation of 1..3, so
    every instance has the same 12-constant universe and the same grounding
    size; only the tables and the optimum change with the seed.
    """
    while True:
        levels = rng.sample((1, 2, 3), 3)
        low = rng.randint(60, 200)
        p = oracle.Planner(
            activities=tuple(rng.sample(ACTIVITY_NAMES, 3)),
            durations=tuple((d,) for d in rng.sample(range(10, 45, 5), 3)),
            rates=tuple(rng.randint(2, 12) for _ in range(3)),
            low=low,
            high=low + rng.randint(50, 150),
            cap=rng.randint(30, 70),
            weights=tuple(rng.randint(1, 3) for _ in range(3)),
            pref_level=levels[0],
            time_level=levels[1],
            activities_level=levels[2],
        )
        if len(p.answer_sets()) >= 2:
            return p


def build_ground(seed: int) -> list[Item]:
    rng = random.Random(f"ground/{seed}")
    items = [Item("dlvfit", encodings.DLVFIT_FRAGMENT, BUNDLED_PLANNER.answer_sets())]
    for index in range(PLANNERS_PER_PASS):
        planner = random_planner(rng)
        items.append(Item(f"planner_{index}", planner_text(planner), planner.answer_sets()))
    return items


# ---------------------------------------------------------------------------
# embed: records in, records out, through a light encoding
# ---------------------------------------------------------------------------

EMBED_ENCODING = """\
alert(S) :- watch(S), offline(S).
healthy(S) :- watch(S), not offline(S).
"""

# Registered schemas, as (predicate, ((field, position, kind), ...)).
# `healthy` is derived but deliberately unregistered: those atoms are skipped.
EMBED_SCHEMAS = (
    ("reading", (("id", 1, "integer"), ("sensor", 2, "symbol"), ("value", 3, "integer"))),
    ("sensor", (("name", 1, "symbol"), ("zone", 2, "quoted_string"))),
    ("watch", (("sensor", 1, "symbol"),)),
    ("offline", (("sensor", 1, "symbol"),)),
    ("alert", (("sensor", 1, "symbol"),)),
)

ZONES = ("Hall", "Roof", "Lab", "Cellar", "Yard", "Annex")


def random_records(rng: random.Random, readings: int):
    """Readings plus sensor metadata; returns (records, expected records, skipped)."""
    sensors = [f"s{rng.randrange(10_000)}x{i}" for i in range(EMBED_SENSORS)]
    records = [("sensor", (s, rng.choice(ZONES))) for s in sensors]
    records += [("reading", (i, rng.choice(sensors), rng.randrange(100)))
                for i in range(1, readings + 1)]
    watched = rng.sample(sensors, 6)
    offline = rng.sample(watched, 2) + rng.sample(sensors, 3)
    offline = list(dict.fromkeys(offline))
    records += [("watch", (s,)) for s in watched]
    records += [("offline", (s,)) for s in offline]
    alerts = [("alert", (s,)) for s in watched if s in offline]
    skipped = sum(1 for s in watched if s not in offline)
    rng.shuffle(records)
    return tuple(records), oracle.record_counter(records + alerts), skipped


def build_embed(seed: int) -> list[Item]:
    rng = random.Random(f"embed/{seed}")
    items = []
    for index, size in enumerate(EMBED_SIZES):
        records, expected, skipped = random_records(rng, size)
        items.append(Item(f"records_{size}_{index}", EMBED_ENCODING, (expected, skipped),
                          records=records))
    return items


# ---------------------------------------------------------------------------
# batch: `aspkit solve` and `aspkit check` processes
# ---------------------------------------------------------------------------

# Bundles `aspkit examples` writes during set-up, and the instances in them.
BATCH_BUNDLES = ("3col", "ramsey", "sudoku-toy")


def free_colours(arcs, colour: dict, node: int) -> list[str]:
    """Colours other than its own that no neighbour of ``node`` has."""
    taken = {colour[b] for a, b in arcs if a == node} | {colour[a] for a, b in arcs if b == node}
    return [c for c in oracle.COLORS if c != colour[node] and c not in taken]


def build_batch(seed: int) -> list[Item]:
    rng = random.Random(f"batch/{seed}")
    k3 = BUNDLED_GRAPHS["THREE_COL_K3"]
    k3i = BUNDLED_GRAPHS["THREE_COL_K3_ISOLATED"]

    def solve(name, argv, sets, **kw):
        stdout = oracle.solve_stdout(sets, **kw)
        return Item(name, argv=tuple(argv), expect=(0 if sets else 10, stdout))

    items = [
        solve("solve_k3", ["solve", "3col-k3.lp"], oracle.three_col_sets(*k3)),
        solve("solve_k3i_n2", ["solve", "-n", "2", "3col-k3-isolated.lp"],
              oracle.three_col_sets(*k3i), models=2),
        solve("solve_k3i_filter", ["solve", "--filter", "color", "3col-k3-isolated.lp"],
              oracle.three_col_sets(*k3i), only={"color"}),
        solve("solve_k4", ["solve", "3col-k4.lp"],
              oracle.three_col_sets(*BUNDLED_GRAPHS["THREE_COL_K4"])),
        solve("solve_ramsey_filter", ["solve", "--filter", "red", "ramsey-n3.lp"],
              oracle.ramsey_sets(3), only={"red"}),
        solve("solve_sudoku_given", ["solve", "sudoku-toy-given.lp"],
              oracle.latin_sets(((0, 0, 1),))),
    ]

    items *= BATCH_BUNDLED_COPIES
    for index in range(BATCH_GRAPHS):
        items += graph_commands(rng, index)
    return items


def graph_commands(rng: random.Random, index: int) -> list[Item]:
    """Solve a seeded graph, check one interpretation per verdict, optimize a weighted one.

    The superset interpretation adds a colour no neighbour has, so it stays a
    model and only minimality fails.
    """
    while True:
        nodes, arcs = random_graph(rng, 5, 6)
        options = [(c, n, extra) for c in oracle.colourings(nodes, arcs) for n in nodes
                   for extra in free_colours(arcs, c, n)]
        if options:
            break
    colour, node, extra = rng.choice(options)
    graph = (f"graph-{index}.lp", graph_text(nodes, arcs))
    sets = oracle.three_col_sets(nodes, arcs)
    items = [Item(f"solve_graph_{index}", argv=("solve", graph[0]),
                  expect=(0 if sets else 10, oracle.solve_stdout(sets)), files=(graph,))]
    interpretations = {
        "yes": {n: {c} for n, c in colour.items()},
        "not_minimal": {n: {c, extra} if n == node else {c} for n, c in colour.items()},
        "not_a_model": {n: set() if n == node else {c} for n, c in colour.items()},
    }
    for verdict, colour_sets in interpretations.items():
        if oracle.check_verdict(nodes, arcs, colour_sets) != verdict:
            raise RuntimeError(f"constructed {verdict} interpretation judged otherwise")
        facts = sorted(oracle.graph_facts(nodes, arcs)
                       | {f"color({n},{c})" for n, cs in colour_sets.items() for c in cs})
        name = f"{verdict}-{index}.lp"
        items.append(Item(f"check_{verdict}_{index}", argv=("check", graph[0], "-I", name),
                          expect=(0 if verdict == "yes" else 10, verdict + "\n"),
                          files=(graph, (name, "".join(f + ".\n" for f in facts)))))

    nodes, arcs = random_graph(rng, 5, 5)
    prices = {c: (rng.randint(1, 3), rng.randint(1, 2)) for c in oracle.COLORS}
    costs = {oracle.colouring_atoms(nodes, arcs, c): oracle.colouring_cost(c, prices)
             for c in oracle.colourings(nodes, arcs)}
    best = oracle.optimal(costs)
    name = f"weighted-{index}.lp"
    items.append(Item(f"optimize_{index}", argv=("solve", "--optimize", name),
                      expect=(0, oracle.solve_stdout(best, costs=costs)),
                      files=((name, graph_text(nodes, arcs, prices)),)))
    return items


DECKS = {
    "enumerate": build_enumerate,
    "ground": build_ground,
    "embed": build_embed,
    "batch": build_batch,
}


def build(workload: str, seed: int) -> list[Item]:
    return DECKS[workload](seed)
