"""Brute-force oracles and seeded program generators shared by the differential tests.

The oracles call no enumeration, minimality or model-checking code of
``refeval``: they take the naive grounding (``ground_program`` without
``relevant``), try every interpretation with ``itertools.product``, and check
each rule themselves. The generators are seeded, so a differential test runs
the same programs on every run.
"""

from __future__ import annotations

import itertools
import random

from aspkit.refeval import DEFAULT_LIMITS, AnswerSet, GroundProgram, ground_program
from aspkit.syntax import Atom, parse_program

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _satisfied(rule, interpretation) -> bool:
    body = rule.pos <= interpretation and not (rule.neg & interpretation)
    return bool(rule.head & interpretation) or not body


def _rendered(interpretation) -> str:
    return "{" + ", ".join(sorted(map(str, interpretation))) + "}"


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


def oracle_answer_sets(program, max_free_atoms: int | None = None) -> list[AnswerSet] | None:
    """Every answer set with its cost, in rendered-text order.

    The oracle tries every subset of its free atoms: the derivable atoms of the
    naive grounding besides its facts. With ``max_free_atoms`` it refuses, by
    returning None, a program with more free atoms than that.
    """
    gp = ground_program(program)
    facts = frozenset(next(iter(r.head)) for r in gp.rules if r.is_fact)
    # Answer-set atoms are derivable ignoring negation; a rule with an
    # underivable positive body atom is satisfied by every such candidate.
    derivable = derivable_atoms(gp.rules)
    rules = [r for r in gp.rules if r.pos <= derivable]
    free = sorted(derivable - facts, key=str)
    if max_free_atoms is not None and len(free) > max_free_atoms:
        return None

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
    found.sort(key=lambda s: _rendered(s.atoms))
    return found


def oracle_minimal_models(rules) -> list[frozenset]:
    """Every subset-minimal classical model of ``rules``, by trying each interpretation."""
    atoms = sorted({a for r in rules for a in r.head | r.pos | r.neg}, key=str)
    models = []
    for picks in itertools.product((False, True), repeat=len(atoms)):
        interpretation = frozenset(a for a, keep in zip(atoms, picks) if keep)
        if all(_satisfied(r, interpretation) for r in rules):
            models.append(interpretation)
    return sorted((m for m in models if not any(o < m for o in models)), key=_rendered)


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


# ---------------------------------------------------------------------------
# Seeded non-ground programs
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
