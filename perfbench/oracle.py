"""Expected results, computed without aspkit.

Every function here works from the structure of an instance (nodes and
arcs, givens, burn rates) by brute force with ``itertools``; none parses or
evaluates ASP. Answer sets are frozensets of atom strings in the form the
toolkit prints them (``color(1,r)``, ``how_long("RUNNING",20)``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

COLORS = ("r", "y", "g")


def render_set(atoms) -> str:
    """Canonical rendering of an interpretation: sorted atoms in braces."""
    return "{" + ", ".join(sorted(atoms)) + "}"


# ---------------------------------------------------------------------------
# Graph colouring
# ---------------------------------------------------------------------------

def colourings(nodes, arcs) -> list[dict[int, str]]:
    """Every proper 3-colouring, one colour per node."""
    found = []
    for choice in itertools.product(COLORS, repeat=len(nodes)):
        colour = dict(zip(nodes, choice))
        if all(colour[a] != colour[b] for a, b in arcs):
            found.append(colour)
    return found


def graph_facts(nodes, arcs) -> set[str]:
    return {f"node({n})" for n in nodes} | {f"arc({a},{b})" for a, b in arcs}


def colouring_atoms(nodes, arcs, colour: dict[int, str]) -> frozenset[str]:
    return frozenset(graph_facts(nodes, arcs) | {f"color({n},{c})" for n, c in colour.items()})


def three_col_sets(nodes, arcs) -> frozenset[frozenset[str]]:
    return frozenset(colouring_atoms(nodes, arcs, c) for c in colourings(nodes, arcs))


def colouring_cost(colour: dict[int, str], prices: dict[str, tuple[int, int]]) -> dict[int, int]:
    """Cost per level when every node pays its colour's (weight, level)."""
    totals: dict[int, int] = {}
    for c in colour.values():
        weight, level = prices[c]
        totals[level] = totals.get(level, 0) + weight
    return {lvl: w for lvl, w in totals.items() if w}


def optimal(costs: dict) -> set:
    """Keys of ``costs`` whose cost is lexicographically least, higher levels first."""
    top = max((lvl for cost in costs.values() for lvl in cost), default=0)

    def key(cost):
        return tuple(cost.get(lvl, 0) for lvl in range(top, -1, -1))

    least = min((key(c) for c in costs.values()), default=None)
    return {k for k, c in costs.items() if key(c) == least}


def check_verdict(nodes, arcs, colour_sets: dict[int, set[str]]) -> str:
    """Verdict of ``aspkit check`` for an interpretation of a 3col program.

    Facts are assumed present. The interpretation is a model when every node
    has a colour and no arc joins two nodes sharing one; the reduct then keeps
    only the disjunctive rules, so it is minimal exactly when every node has
    one colour.
    """
    if any(not colour_sets.get(n) for n in nodes):
        return "not_a_model"
    if any(colour_sets[a] & colour_sets[b] for a, b in arcs):
        return "not_a_model"
    if any(len(colour_sets[n]) > 1 for n in nodes):
        return "not_minimal"
    return "yes"


# ---------------------------------------------------------------------------
# Latin squares (the bundled sudoku encoding on a 2x2 grid)
# ---------------------------------------------------------------------------

def latin_sets(givens, size: int = 2, symbols=(1, 2)) -> frozenset[frozenset[str]]:
    """Answer sets of the sudoku encoding with ``pos(0..size-1)`` and no blocks."""
    cells = [(x, y) for x in range(size) for y in range(size)]
    base = {f"pos({i})" for i in range(size)} | {f"symbol({n})" for n in symbols}
    found = set()
    for choice in itertools.product(symbols, repeat=len(cells)):
        grid = dict(zip(cells, choice))
        if any(grid[(x, y)] != v for x, y, v in givens):
            continue
        rows_ok = all(len({grid[(x, y)] for y in range(size)}) == size for x in range(size))
        cols_ok = all(len({grid[(x, y)] for x in range(size)}) == size for y in range(size))
        if not (rows_ok and cols_ok):
            continue
        atoms = set(base)
        for (x, y), v in grid.items():
            atoms.add(f"cell({x},{y},{v})")
            atoms.add(f"assigned({x},{y})")
            atoms.update(f"nocell({x},{y},{n})" for n in symbols if n != v)
        found.add(frozenset(atoms))
    return frozenset(found)


# ---------------------------------------------------------------------------
# Ramsey: two-colour the edges of K_n, no red triangle, no blue 4-clique
# ---------------------------------------------------------------------------

def ramsey_sets(n: int) -> frozenset[frozenset[str]]:
    nodes = range(1, n + 1)
    edges = [(i, j) for i in nodes for j in nodes if i < j]
    facts = {f"node({i})" for i in nodes} | {f"edge({i},{j})" for i, j in edges}
    found = set()
    for choice in itertools.product(("blue", "red"), repeat=len(edges)):
        colour = dict(zip(edges, choice))

        def has(c, x, y):
            return colour.get((x, y)) == c

        red_triangle = any(
            has("red", x, y) and has("red", x, z) and has("red", y, z)
            for x, y, z in itertools.product(nodes, repeat=3)
        )
        blue_clique = any(
            has("blue", x, y) and has("blue", x, z) and has("blue", y, z)
            and has("blue", x, w) and has("blue", y, w) and has("blue", z, w)
            for x, y, z, w in itertools.product(nodes, repeat=4)
        )
        if not red_triangle and not blue_clique:
            found.add(frozenset(facts | {f"{c}({i},{j})" for (i, j), c in colour.items()}))
    return frozenset(found)


# ---------------------------------------------------------------------------
# Workout planner (dlvfit shape)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Planner:
    """One planner instance: what the generator fixed and the encoding encodes."""

    activities: tuple[str, ...]
    durations: tuple[tuple[int, ...], ...]  # choices per activity, 0 excluded
    rates: tuple[int, ...]  # calories per minute
    low: int
    high: int
    cap: int
    weights: tuple[int, ...]  # preference weight per activity
    pref_level: int
    time_level: int
    activities_level: int
    extra_facts: tuple[str, ...] = ()  # instance facts no rule reads

    def plans(self):
        """Every duration vector with at most one duration per activity."""
        return itertools.product(*[(0,) + d for d in self.durations])

    def violations(self, plan) -> set[str]:
        calories = sum(r * d for r, d in zip(self.rates, plan))
        out = set()
        if calories < self.low:
            out.add("burns_too_few")
        if calories > self.high:
            out.add("burns_too_many")
        if sum(plan) > self.cap:
            out.add("takes_too_long")
        return out

    def cost(self, plan) -> dict[int, int]:
        totals: dict[int, int] = {}
        for weight, minutes in zip(self.weights, plan):
            if minutes:
                totals[self.pref_level] = totals.get(self.pref_level, 0) + weight
                totals[self.time_level] = totals.get(self.time_level, 0) + minutes
        return {lvl: w for lvl, w in totals.items() if w}

    def facts(self) -> set[str]:
        """The instance's facts: tables, durations, preferences."""
        out = set(self.extra_facts)
        for plan in self.plans():
            args = ",".join(str(d) for d in plan)
            out.update(f"{table}({args})" for table in self.violations(plan))
        for a, durations, weight in zip(self.activities, self.durations, self.weights):
            out.update(f'how_long("{a}",{d})' for d in durations)
            out.add(f'optimize("{a}",{weight},{self.pref_level})')
        out.add(f"optimize(time,0,{self.time_level})")
        out.add(f"optimize(activities,0,{self.activities_level})")
        return out

    def answer_sets(self) -> dict[frozenset[str], dict[int, int]]:
        """Answer sets of the planner encoding, one per admissible plan, with costs."""
        facts = self.facts()
        out = {}
        for plan in self.plans():
            if self.violations(plan):
                continue
            atoms = set(facts)
            for a, durations, chosen in zip(self.activities, self.durations, plan):
                atoms.add(f'daily_duration("{a}",{chosen})')
                for d in durations:
                    atoms.add(f'{"" if d == chosen else "not_"}activity_to_do("{a}",{d})')
            out[frozenset(atoms)] = self.cost(plan)
        return out


# ---------------------------------------------------------------------------
# CLI stdout
# ---------------------------------------------------------------------------

def solve_stdout(sets, models: int = 0, only=None, costs=None) -> str:
    """Exact stdout of ``aspkit solve`` for the given answer sets.

    ``sets`` are all answer sets (already reduced to the optimal ones for
    ``--optimize``); ``costs`` maps each set to its cost and switches on the
    ``Cost:`` lines; ``only`` is the ``--filter`` predicate set.
    """
    lines = []
    ordered = sorted(sets, key=render_set)
    shown = ordered if models == 0 else ordered[:models]
    for atoms in shown:
        kept = atoms if only is None else [a for a in atoms if a.split("(")[0] in only]
        lines.append(render_set(kept))
        if costs is not None:
            cost = costs[atoms]
            pairs = ", ".join(f"{cost[lvl]}:{lvl}" for lvl in sorted(cost, reverse=True))
            lines.append(f"Cost: [{pairs}]")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def record_counter(records) -> Counter:
    """Multiset of (predicate, values) pairs."""
    return Counter((pred, tuple(values)) for pred, values in records)
