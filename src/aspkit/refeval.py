"""Reference evaluator: grounding and bounded answer-set enumeration.

Semantics implemented here, over ground programs:

* an interpretation is a set of ground atoms;
* a rule is satisfied when its head intersects the interpretation or its body
  is false;
* the reduct w.r.t. I keeps exactly the rules whose whole body is true
  w.r.t. I, bodies untouched;
* I is an answer set when it is a model of the reduct of the grounding and no
  proper subset of it is;
* weak constraints charge their weight at their level when their body holds,
  and answer sets are ranked lexicographically by level, higher levels first.

Everything is computed over an explicitly bounded candidate space: the facts
plus any of the ``2^n`` subsets of ``n`` candidate atoms, with
``max_candidate_atoms`` capping ``n``. One class, ``_MaskSpace``, builds it
from a ground program and the atoms it may contain, in two ways: the head
atoms of the grounding for answer sets (for the relevance grounding exactly
its derivable atoms), and the checked interpretation for ``is_answer_set``.
``minimal_models`` are the answer sets of the rules read classically. The
facts are forced into every interpretation and only the other rules are
folded into bit masks; each answer set is charged by ``cost`` on its atoms.
One backtracking search, ``_models``, drops a partial assignment as soon as
it violates a rule or holds an unsupported atom. It enumerates
the supported models of the space and also serves the one minimality check,
``_has_smaller_model``, which searches the submasks of a model with that
model forbidden after a least-model check of the reduct, only when head
cycles leave it undecided. The check runs only on programs that are not
tight: on a tight one the supported models are the answer sets (Fages 1994;
Lee & Lifschitz 2003). This module trades speed for being small enough to
audit, and doubles as the test oracle for the rest of the package.

Grounding has two modes. The naive one tries every substitution over the
universe; ``aspkit ground`` prints it and ``aspkit check`` uses it. Solving
(``answer_sets`` and everything built on it) grounds in relevance mode: only
the instances whose positive body is derivable, found by a semi-naive join
against the derivable atoms. The other instances can never fire, so the
answer sets and costs are the same; the naive mode stays the oracle.
In both modes the grounder keeps each fact as its atom, apart from the other
instances (``GroundProgram``): a fact is one unit of work and one kept
instance, but no rule is built for it unless ``GroundProgram.rules`` is
read, it enters the join index only when some positive body joins on its
signature, and it is never folded. Facts a ``Program`` holds as atoms (the
records the reference system is handed) come in the same way, with no rule
built and no fact test run for them. Naive grounding sorts the universe;
relevance grounding sorts it only for a statement whose variables range
over it.
Limits and the deadline reach every phase through ``_Run``, the only clock reader.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass, field
from enum import Enum

from .errors import LimitExceeded, SolverTimeout
from .syntax import (
    Atom, Builtin, Integer, Program, Rule, Sum, Term, Variable, classify_predicates,
    operand_terms, render_rule, render_weak,
)


@dataclass(frozen=True)
class EvaluationLimits:
    """Hard bounds on one evaluation: the substitution budget derived from
    ``max_ground_rules`` is checked before grounding, ``max_ground_rules`` as
    each instance is kept, ``max_candidate_atoms`` when the search space is built."""

    max_candidate_atoms: int = 22
    max_ground_rules: int = 200_000

    def __post_init__(self):
        for name in ("max_candidate_atoms", "max_ground_rules"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_LIMITS = EvaluationLimits()
_HERBRAND_BASE_CAP = 5000  # the most atoms herbrand_base builds


class _Run:
    """One evaluation's limits and deadline, and the only reader of the clock.

    Each phase (grounding, folding, every ``_models`` search) calls ``start``,
    which reads the clock at once; then every 1,024th ``tick`` reads it again.
    A tick is one fact, one substitution or join match, one folded rule (facts
    are not folded) or one search node. Past the deadline a read raises ``SolverTimeout`` naming the phase.
    """

    def __init__(self, limits: EvaluationLimits = DEFAULT_LIMITS, deadline: float | None = None):
        self.limits = limits
        self.deadline = deadline
        self._phase = ""
        self._left = 1024

    def start(self, phase: str) -> None:
        self._phase = phase
        self._left = 1
        self.tick()

    def tick(self) -> None:
        self._left -= 1
        if not self._left:
            self._left = 1024
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise SolverTimeout(f"{self._phase} deadline exceeded")


# Upper bound on raw substitutions tried while grounding; grounding a rule is
# |universe| ** #variables even when most instances are deleted again.
_SUBSTITUTION_FACTOR = 25


@dataclass(frozen=True, slots=True)
class GroundRule:
    head: frozenset[Atom]
    pos: frozenset[Atom]
    neg: frozenset[Atom]

    @property
    def is_fact(self) -> bool:
        return len(self.head) == 1 and not self.pos and not self.neg

    def render(self) -> str:
        return render_rule(sorted(str(a) for a in self.head), _render_body(self.pos, self.neg))


@dataclass(frozen=True, slots=True)
class GroundWeakConstraint:
    pos: frozenset[Atom]
    neg: frozenset[Atom]
    weight: int
    level: int

    def render(self) -> str:
        return render_weak(_render_body(self.pos, self.neg), self.weight, self.level)


def _render_body(pos: frozenset[Atom], neg: frozenset[Atom]) -> list[str]:
    return sorted(str(a) for a in pos) + sorted(f"not {a}" for a in neg)


_NO_ATOMS: frozenset[Atom] = frozenset()


class GroundProgram:
    """Ground rules and ground weak constraints.

    The grounder keeps each fact as its atom, apart from the other rule
    instances, so solving never builds or folds a rule for a fact.
    ``rules`` still lists every rule instance, each fact as a ``GroundRule``
    ahead of the others; those are built when ``rules`` is first read. A
    program constructed from ``rules`` keeps them all as instances.
    """

    def __init__(
        self,
        rules: tuple[GroundRule, ...] = (),
        weak_constraints: tuple[GroundWeakConstraint, ...] = (),
    ):
        self._facts: tuple[Atom, ...] = ()
        self._instances = tuple(rules)
        self.weak_constraints = tuple(weak_constraints)

    @classmethod
    def _with_facts(cls, facts, instances, weak_constraints) -> GroundProgram:
        gp = cls(instances, weak_constraints)
        gp._facts = tuple(facts)
        return gp

    @functools.cached_property
    def rules(self) -> tuple[GroundRule, ...]:
        facts = tuple(GroundRule(frozenset((a,)), _NO_ATOMS, _NO_ATOMS) for a in self._facts)
        return facts + self._instances


@dataclass(frozen=True, eq=True)
class AnswerSet:
    atoms: frozenset[Atom]
    cost: dict[int, int] = field(default_factory=dict)


class Verdict(Enum):
    YES = "yes"
    NOT_A_MODEL = "not_a_model"
    NOT_MINIMAL = "not_minimal"


def render_interpretation(atoms) -> str:
    return "{" + ", ".join(sorted(str(a) for a in atoms)) + "}"


# ---------------------------------------------------------------------------
# Herbrand universe and base
# ---------------------------------------------------------------------------

def herbrand_universe(program: Program) -> frozenset[Term]:
    """All constants appearing in the program.

    Integers produced by evaluating `+` do not extend the universe; only
    constants written in the program text count. The terms of the facts a
    program holds as atoms are read from the atoms, with no rule built.
    """
    terms: set[Term] = set()
    for rule in program._rules:
        for atom in rule.head:
            terms.update(atom.terms)
    for stmt in (*program._rules, *program.weak_constraints):
        for elem in stmt.body:
            if isinstance(elem, Builtin):
                terms.update(operand_terms(elem.lhs) + operand_terms(elem.rhs))
            else:
                terms.update(elem.atom.terms)
    for weak in program.weak_constraints:
        terms.update((weak.weight, weak.level))
    ground = frozenset(t for t in terms if not isinstance(t, Variable))
    return ground.union(*[atom.terms for atom in program._facts])


def herbrand_base(program: Program) -> frozenset[Atom]:
    """Every atom formable from the program's predicates over its universe."""
    universe = sorted(herbrand_universe(program), key=_term_sort_key)
    partition = classify_predicates(program)
    sigs = partition.edb | partition.idb
    count = sum(len(universe) ** arity for _, arity in sigs)
    if count > _HERBRAND_BASE_CAP:
        raise LimitExceeded("herbrand base atoms", count, _HERBRAND_BASE_CAP)
    base: set[Atom] = set()
    for name, arity in sigs:
        for combo in itertools.product(universe, repeat=arity):
            base.add(Atom(name, combo))
    return frozenset(base)


def _term_sort_key(t: Term):
    if isinstance(t, Integer):
        return (0, "", t.value)
    return (1, t.name, 0)


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def _ground_value(term: Term, sub: dict[str, Term]) -> Term:
    return sub[term.name] if isinstance(term, Variable) else term


def _operand_value(operand: Term | Sum, sub: dict[str, Term]) -> Term | None:
    """The ground term of an operand, or None for a sum that has no value.

    A sum only has a value, an ``Integer``, when both sides are integers.
    """
    if isinstance(operand, Sum):
        lhs = _ground_value(operand.lhs, sub)
        rhs = _ground_value(operand.rhs, sub)
        if isinstance(lhs, Integer) and isinstance(rhs, Integer):
            return Integer(lhs.value + rhs.value)
        return None
    return _ground_value(operand, sub)


_ORDER = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def eval_builtin(builtin: Builtin, sub: dict[str, Term]) -> bool:
    """Truth of a builtin under a grounding substitution.

    `=`/`!=` compare ground terms, so `1`, `"1"` and a symbol are all
    different; the order comparisons are only defined between integers and
    are false otherwise, as is any comparison against a sum that does not
    evaluate to an integer.
    """
    lhs = _operand_value(builtin.lhs, sub)
    rhs = _operand_value(builtin.rhs, sub)
    if lhs is None or rhs is None:
        return False
    if builtin.op == "=":
        return lhs == rhs
    if builtin.op == "!=":
        return lhs != rhs
    if not (isinstance(lhs, Integer) and isinstance(rhs, Integer)):
        return False
    return _ORDER[builtin.op](lhs.value, rhs.value)


def _instantiate(atom: Atom, sub: dict[str, Term], cache: dict) -> Atom:
    """The ground instance of ``atom``, one object per distinct atom in ``cache``."""
    atom = Atom(atom.predicate, tuple(_ground_value(t, sub) for t in atom.terms))
    return cache.setdefault(atom, atom)


def ground_program(
    program: Program,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    deadline: float | None = None,
    *,
    relevant: bool = False,
) -> GroundProgram:
    """Instantiate every statement over the universe.

    Builtins are then evaluated away: a false builtin deletes the instance, a
    true one is dropped from the body. Ground weak constraints additionally
    require weight and level to come out as non-negative integers; other
    instances are discarded. Exact duplicate weak-constraint instances are
    kept once (they are a set; duplicates would double-charge costs).

    By default every substitution over the universe is tried (the naive
    grounding, printed by ``aspkit ground`` and used by ``check``). With
    ``relevant`` only the instances whose positive body lies inside the
    derivable set are returned, in no particular order: the least set of atoms
    closed under the heads of such instances, ignoring negation. Instances
    outside it can never fire, so answer sets and costs do not change.
    ``max_ground_rules`` counts the instances actually kept in either mode.

    Each fact statement, duplicates included, is kept as its atom: one
    substitution, one tick of the deadline and one kept instance, read once.
    The facts a program holds as atoms are taken as they are, after the fact
    statements. ``rules`` of the result lists each fact as a fact rule ahead
    of the other instances, built on first read.

    Naive grounding tries the universe in ``_term_sort_key`` order; relevance
    grounding sorts it only when a statement has variables that range over
    it, the one step whose instances come in that order.
    """
    universe = herbrand_universe(program)
    nconst = len(universe)
    fact_atoms: list[Atom] = []
    rules: list[Rule] = []
    for rule in program._rules:
        if rule.is_fact:
            fact_atoms.append(rule.head[0])
        else:
            rules.append(rule)
    fact_atoms += program._facts
    statements = (*rules, *program.weak_constraints)

    # Each fact is one substitution.
    substitution_budget = max(2_000_000, _SUBSTITUTION_FACTOR * limits.max_ground_rules)
    total_subs = len(fact_atoms)
    for stmt in statements:
        total_subs += nconst ** len(stmt.variables())
        if total_subs > substitution_budget:
            break
    if relevant and total_subs > substitution_budget:
        # Per statement a join tries at most the facts of each positive body atom's signature
        # (nconst**arity if a non-fact rule derives it), times nconst per variable left unbound.
        idb = {atom.signature for rule in rules for atom in rule.head}
        facts, total_subs = {}, len(fact_atoms)
        for atom in fact_atoms:
            facts[atom.signature] = facts.get(atom.signature, 0) + 1
        for stmt in statements:
            free, joins = set(stmt.variables()), 1
            for a in stmt.positive_body_atoms():
                joins *= nconst**a.arity if a.signature in idb else facts.get(a.signature, 0)
                free.difference_update(t.name for t in a.terms if isinstance(t, Variable))
            total_subs += min(nconst ** len(stmt.variables()), joins * nconst ** len(free))
    if total_subs > substitution_budget:
        raise LimitExceeded("grounding substitutions", total_subs, substitution_budget)

    run = _Run(limits, deadline)
    out = _Instances(run)
    run.start("grounding")
    out.add_facts(fact_atoms)
    if relevant:
        _ground_relevant(rules, program.weak_constraints, universe, out)
    else:
        universe = sorted(universe, key=_term_sort_key)
        for rule in rules:
            out.add_rules(rule, _all_substitutions(rule, universe), rule.builtins())
        for weak in program.weak_constraints:
            out.add_weaks(weak, _all_substitutions(weak, universe), weak.builtins())
    return GroundProgram._with_facts(out.facts, out.rules, out.weaks)


def _all_substitutions(stmt, universe):
    names = stmt.variables()
    for combo in itertools.product(universe, repeat=len(names)):
        yield dict(zip(names, combo))


class _Instances:
    """Ground instances built from substitutions, for both grounding modes.

    Substitutions are read once and not kept, so a producer may hand out the
    same dict object again after changing it.
    """

    def __init__(self, run: _Run):
        self.run = run
        self.facts: list[Atom] = []
        self.rules: list[GroundRule] = []
        self.weaks: list[GroundWeakConstraint] = []
        self._seen_weaks: set[GroundWeakConstraint] = set()
        self._cache: dict = {}
        self._kept = 0

    def _keep(self, instances: list, instance) -> None:
        instances.append(instance)
        self._kept += 1
        limit = self.run.limits.max_ground_rules
        if self._kept > limit:
            raise LimitExceeded("ground rule instances", self._kept, limit)

    def add_facts(self, atoms) -> None:
        """Keep each fact as its atom: one tick and one kept instance apiece."""
        for atom in atoms:
            self.run.tick()
            self._keep(self.facts, atom)

    def add_rules(self, rule, subs, builtins) -> None:
        pos_atoms = rule.positive_body_atoms()
        neg_atoms = rule.negative_body_atoms()
        cache = self._cache
        for sub in subs:
            self.run.tick()
            if any(not eval_builtin(b, sub) for b in builtins):
                continue
            self._keep(
                self.rules,
                GroundRule(
                    head=frozenset(_instantiate(a, sub, cache) for a in rule.head),
                    pos=frozenset(_instantiate(a, sub, cache) for a in pos_atoms),
                    neg=frozenset(_instantiate(a, sub, cache) for a in neg_atoms),
                ),
            )

    def add_weaks(self, weak, subs, builtins) -> None:
        pos_atoms = weak.positive_body_atoms()
        neg_atoms = weak.negative_body_atoms()
        cache = self._cache
        for sub in subs:
            self.run.tick()
            weight = _ground_value(weak.weight, sub)
            level = _ground_value(weak.level, sub)
            if not isinstance(weight, Integer) or not isinstance(level, Integer):
                continue
            if weight.value < 0 or level.value < 0:
                continue
            if any(not eval_builtin(b, sub) for b in builtins):
                continue
            instance = GroundWeakConstraint(
                pos=frozenset(_instantiate(a, sub, cache) for a in pos_atoms),
                neg=frozenset(_instantiate(a, sub, cache) for a in neg_atoms),
                weight=weight.value,
                level=level.value,
            )
            if instance in self._seen_weaks:
                continue
            self._seen_weaks.add(instance)
            self._keep(self.weaks, instance)


# Where a positive body atom of a join finds its matches, in semi-naive
# evaluation: the atoms new in the last round, the ones derived before it, or
# both.
_DELTA, _OLD, _ALL = range(3)


class _AtomIndex:
    """Derivable atoms by signature, hashed on the argument positions a join binds."""

    def __init__(self):
        self._atoms: set[Atom] = set()
        # signature -> bound positions -> their values -> atoms; () -> () -> all
        self._indexes: dict[tuple[str, int], dict[tuple, dict[tuple, list[Atom]]]] = {}

    def add(self, atoms) -> list[Atom]:
        """Add ``atoms``; returns the ones that were not there yet."""
        new = []
        for atom in atoms:
            if atom in self._atoms:
                continue
            self._atoms.add(atom)
            new.append(atom)
            by_positions = self._indexes.get(atom.signature)
            if by_positions is None:
                by_positions = self._indexes[atom.signature] = {(): {}}
            for positions, index in by_positions.items():
                index.setdefault(tuple(atom.terms[p] for p in positions), []).append(atom)
        return new

    def lookup(self, sig: tuple[str, int], positions: tuple[int, ...], key: tuple) -> list[Atom]:
        by_positions = self._indexes.get(sig)
        if by_positions is None:
            return []
        index = by_positions.get(positions)
        if index is None:
            index = by_positions[positions] = {}
            for atom in by_positions[()].get((), ()):
                index.setdefault(tuple(atom.terms[p] for p in positions), []).append(atom)
        return index.get(key, [])


def _operand_vars(operand: Term | Sum) -> set[str]:
    return {t.name for t in operand_terms(operand) if isinstance(t, Variable)}


def _join_plan(stmt, sources: list[int]) -> list[tuple]:
    """Steps that enumerate the substitutions of ``stmt`` against derivable atoms.

    ``sources[i]`` says where the i-th positive body atom finds its matches;
    a ``_DELTA`` atom is matched first. The others follow greedily, most bound
    argument positions first. Each builtin runs as soon as its variables are
    bound; ``X = t`` with ``t`` bound binds X instead of testing. Variables no
    positive atom or assignment binds (unsafe statements only) range over the
    universe at the end.
    """
    atoms = list(zip(stmt.positive_body_atoms(), sources))
    pending = list(stmt.builtins())
    bound: set[str] = set()
    steps: list[tuple] = []

    def settle():
        progress = True
        while progress:
            progress = False
            for b in pending:
                if _operand_vars(b.lhs) | _operand_vars(b.rhs) <= bound:
                    steps.append(("test", b))
                else:
                    target = _assignment(b, bound)
                    if target is None:
                        continue
                    steps.append(("assign", *target))
                    bound.add(target[0])
                pending.remove(b)
                progress = True
                break

    def rank(item):
        atom, source = item
        unbound = {t.name for t in atom.terms if isinstance(t, Variable)} - bound
        fixed = sum(not isinstance(t, Variable) or t.name in bound for t in atom.terms)
        return (source != _DELTA, bool(unbound), -fixed)

    settle()
    while atoms:
        atom, source = min(atoms, key=rank)
        atoms.remove((atom, source))
        checks, binds = [], []
        for pos, t in enumerate(atom.terms):
            if isinstance(t, Variable) and t.name not in bound:
                binds.append((pos, t.name))
            else:
                checks.append((pos, t))
        steps.append(("atom", atom.signature, source, tuple(checks), tuple(binds)))
        bound.update(name for _, name in binds)
        settle()
    free = [name for name in stmt.variables() if name not in bound]
    if free:
        steps.append(("free", free))
        bound.update(free)
        settle()
    return steps


def _assignment(b: Builtin, bound: set[str]):
    """(variable, operand) when ``b`` is ``X = t`` or ``t = X``, X unbound, t bound."""
    if b.op != "=":
        return None
    for side, other in ((b.lhs, b.rhs), (b.rhs, b.lhs)):
        if isinstance(side, Variable) and side.name not in bound and _operand_vars(other) <= bound:
            return side.name, other
    return None


def _ground_relevant(rules, weaks, universe: frozenset[Term], out: _Instances) -> None:
    """Ground only instances whose positive body is derivable (semi-naive).

    ``out`` already holds the facts; ``rules`` are the other rules. Rules
    with an empty positive body are instantiated once. Rules with heads then
    run to a fixpoint: in each round a rule joins its positive body against
    the derivable atoms, with at least one atom new in the last round, so
    each instance is produced exactly once. Constraints and weak constraints
    are joined once against the final derivable set. Only atoms of a
    signature that some positive body joins on are indexed: no join looks
    up any other. Variables no join binds range over the universe in
    ``_term_sort_key`` order, sorted when first needed.
    """
    ordered: list[Term] = []
    joined = {a.signature for stmt in (*rules, *weaks) for a in stmt.positive_body_atoms()}
    derivable = _AtomIndex()
    delta_by_sig: dict[tuple[str, int], list[Atom]] = {}
    delta: set[Atom] = set()
    tick = out.run.tick

    def join(steps, k, sub):
        if k == len(steps):
            yield sub
            return
        step = steps[k]
        kind = step[0]
        if kind == "atom":
            _, sig, source, checks, binds = step
            key = tuple(sub[t.name] if isinstance(t, Variable) else t for _, t in checks)
            if source == _DELTA:
                matches = [
                    a for a in delta_by_sig.get(sig, ())
                    if all(a.terms[p] == v for (p, _), v in zip(checks, key))
                ]
            else:
                matches = derivable.lookup(sig, tuple(p for p, _ in checks), key)
            for atom in matches:
                tick()
                if source == _OLD and atom in delta:
                    continue
                added = []
                for pos, name in binds:
                    value = sub.get(name)
                    if value is None:
                        sub[name] = atom.terms[pos]
                        added.append(name)
                    elif value != atom.terms[pos]:
                        break
                else:
                    yield from join(steps, k + 1, sub)
                for name in added:
                    del sub[name]
        elif kind == "test":
            if eval_builtin(step[1], sub):
                yield from join(steps, k + 1, sub)
        elif kind == "assign":
            _, name, operand = step
            term = _operand_value(operand, sub)
            if term in universe:
                sub[name] = term
                yield from join(steps, k + 1, sub)
                del sub[name]
        else:
            names = step[1]
            if not ordered:
                ordered.extend(sorted(universe, key=_term_sort_key))
            for combo in itertools.product(ordered, repeat=len(names)):
                sub.update(zip(names, combo))
                yield from join(steps, k + 1, sub)
            for name in names:
                sub.pop(name, None)

    def against_all(stmt):
        return join(_join_plan(stmt, [_ALL] * len(stmt.positive_body_atoms())), 0, {})

    def add_derived(atoms) -> list[Atom]:
        return derivable.add(a for a in atoms if a.signature in joined)

    recursive = []
    for rule in rules:
        n = len(rule.positive_body_atoms())
        if rule.head and not n:
            out.add_rules(rule, against_all(rule), ())
        elif rule.head:
            plans = [
                _join_plan(rule, [_OLD] * i + [_DELTA] + [_ALL] * (n - i - 1))
                for i in range(n)
            ]
            recursive.append((rule, plans))
    new = add_derived(itertools.chain(out.facts, *(r.head for r in out.rules)))

    while new:
        delta = set(new)
        delta_by_sig = {}
        for atom in new:
            delta_by_sig.setdefault(atom.signature, []).append(atom)
        start = len(out.rules)
        for rule, plans in recursive:
            for atom, steps in zip(rule.positive_body_atoms(), plans):
                if atom.signature in delta_by_sig:
                    out.add_rules(rule, join(steps, 0, {}), ())
        new = add_derived(a for r in out.rules[start:] for a in r.head)

    for rule in rules:
        if not rule.head:
            out.add_rules(rule, against_all(rule), ())
    for weak in weaks:
        out.add_weaks(weak, against_all(weak), ())


# ---------------------------------------------------------------------------
# Models and reducts
# ---------------------------------------------------------------------------

def body_true(rule: GroundRule, interpretation: frozenset[Atom]) -> bool:
    return rule.pos <= interpretation and not (rule.neg & interpretation)


def _rule_satisfied(rule: GroundRule, interpretation: frozenset[Atom]) -> bool:
    return bool(rule.head & interpretation) or not body_true(rule, interpretation)


def is_model(interpretation: frozenset[Atom], gp: GroundProgram) -> bool:
    return all(_rule_satisfied(r, interpretation) for r in gp.rules)


def reduct(gp: GroundProgram, interpretation: frozenset[Atom]) -> GroundProgram:
    """Rules of ``gp`` whose body is true w.r.t. the interpretation.

    Bodies are kept intact; weak constraints never take part in reducts.
    """
    kept = tuple(r for r in gp.rules if body_true(r, interpretation))
    return GroundProgram(rules=kept, weak_constraints=())


def cost(interpretation: frozenset[Atom], gwcs) -> dict[int, int]:
    """Total violated weight per level; levels with zero total are absent."""
    totals: dict[int, int] = {}
    for wc in dict.fromkeys(gwcs):  # set semantics: exact duplicates count once
        if wc.pos <= interpretation and not (wc.neg & interpretation):
            totals[wc.level] = totals.get(wc.level, 0) + wc.weight
    return {lvl: w for lvl, w in totals.items() if w != 0}


# ---------------------------------------------------------------------------
# Enumeration machinery
# ---------------------------------------------------------------------------

class _MaskSpace:
    """The interpretations between the facts of ``gp`` and ``atoms``, as bit masks.

    The facts are forced in: the grounder's fact atoms and the head of any
    other fact-shaped instance. Every other atom of ``atoms`` is a candidate:
    bit ``i`` is the ``i``-th in rendering order, and more than
    ``max_candidate_atoms`` of them raise :class:`LimitExceeded`. For answer
    sets ``atoms`` are the heads of the relevance grounding's instances, its
    derivable atoms besides the facts. ``possible`` is the facts plus the
    candidates; ``rules`` are the instances of ``gp`` folded into the space
    (``fold_rules``), in ground order; the fact atoms are never folded.
    Weak constraints are not folded: ``cost`` charges them on each answer set.
    """

    def __init__(self, gp: GroundProgram, atoms, run: _Run):
        instances = gp._instances
        self.forced = frozenset(gp._facts).union(*(r.head for r in instances if r.is_fact))
        self.candidates = sorted(set(atoms) - self.forced, key=str)
        limit = run.limits.max_candidate_atoms
        if len(self.candidates) > limit:
            raise LimitExceeded("candidate atoms", len(self.candidates), limit)
        self.possible = self.forced.union(self.candidates)
        self.bit = {atom: 1 << i for i, atom in enumerate(self.candidates)}
        self.rules = self.fold_rules(instances, run)

    def mask_of(self, atoms) -> int:
        m = 0
        for a in atoms:
            m |= self.bit[a]
        return m

    def atoms_of(self, mask: int) -> frozenset[Atom]:
        return frozenset(a for a in self.candidates if mask & self.bit[a]) | self.forced

    def fold_rules(self, rules, run: _Run) -> list[tuple[int, int, int]]:
        """(head, pos, neg) masks for rules that can distinguish candidates.

        Rules whose positive body mentions an impossible atom can never fire;
        rules with a forced head atom or a forced negative literal are
        satisfied by every candidate. Duplicates are collapsed.
        """
        run.start("folding")
        folded: list[tuple[int, int, int]] = []
        seen: set[tuple[int, int, int]] = set()
        for r in rules:
            run.tick()
            if not r.pos <= self.possible:
                continue
            if r.neg & self.forced:
                continue
            if r.head & self.forced:
                continue
            triple = (
                self.mask_of(a for a in r.head if a in self.bit),
                self.mask_of(a for a in r.pos if a not in self.forced),
                self.mask_of(a for a in r.neg if a in self.bit),
            )
            if triple in seen:
                continue
            seen.add(triple)
            folded.append(triple)
        return folded


def _bits(mask: int):
    """The one-bit masks of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _models(bits: int, folded, run: _Run, base: int = 0):
    """Every supported ``base | sub``, ``sub`` a submask of ``bits``, that models the rules.

    A bit of ``bits`` is supported when a folded rule with it in the head has
    a true body and no other head atom true. Answer sets and the minimal
    models of a reduct are supported: drop an unsupported atom and the rest
    is still a model of the reduct.

    A depth-first search that assigns the bits of ``bits`` from the lowest up.
    A check ``(pos, out, alternatives)`` fails when ``pos`` is true, ``out``
    false and no alternative ``(pos, out)`` holds: a rule is a check with no
    alternatives, a bit's support a check on the bit with one alternative per
    supporting rule. Each check sits in the bucket of its highest bit inside
    ``bits`` and runs as soon as that bit is assigned, so a partial mask that
    fails it is dropped with every extension. A rule with no bit inside
    ``bits`` is checked once against ``base``. Full enumeration is ``bits``
    all candidates and ``base`` 0; the minimality check searches the submasks
    of a model.
    """
    run.start("enumeration")
    buckets: dict[int, list[tuple]] = {}  # bit -> (pos, out, alternatives) checks
    support: dict[int, list[tuple[int, int]]] = {bit: [] for bit in _bits(bits)}
    for head, pos, neg in folded:
        inside = (head | pos | neg) & bits
        if inside:
            buckets.setdefault(1 << inside.bit_length() - 1, []).append((pos, head | neg, ()))
        elif (base & pos) == pos and not (base & (head | neg)):
            return
        for bit in _bits(head & bits):
            support[bit].append((pos, (head ^ bit) | neg))
    for bit, alternatives in support.items():
        inside = bit
        for pos, out in alternatives:
            inside |= (pos | out) & bits
        buckets.setdefault(1 << inside.bit_length() - 1, []).append((bit, 0, alternatives))
    stack = [(bits, base)]
    tick = run.tick
    while stack:
        tick()
        rest, m = stack.pop()
        if not rest:
            yield m
            continue
        bit = rest & -rest
        checks = buckets.get(bit, ())
        for ext in (m | bit, m):
            for pos, out, alternatives in checks:
                if (ext & pos) == pos and not (ext & out):
                    for alt_pos, alt_out in alternatives:
                        if (ext & alt_pos) == alt_pos and not (ext & alt_out):
                            break
                    else:
                        break
            else:
                stack.append((rest ^ bit, ext))


def _must_atoms(m: int, reduct) -> int:
    """Least mask closed under reduct rules whose positive body it contains and
    whose head meets ``m`` in a single atom: that atom is added.

    Every model of the reduct inside ``m`` contains it.
    """
    units = [(head & m, pos) for head, pos, _ in reduct if (head & m).bit_count() == 1]
    must = 0
    while True:
        grown = must
        for head, pos in units:
            if (grown & pos) == pos:
                grown |= head
        if grown == must:
            return must
        must = grown


def _has_smaller_model(m: int, folded, run: _Run) -> bool:
    """Any proper submask of ``m`` that models the reduct w.r.t. ``m``?

    When ``_must_atoms`` is all of ``m`` there is none; for normal and
    head-cycle-free programs this is the least-model check (Ben-Eliyahu &
    Dechter 1994) and decides every answer set. Otherwise ``_models`` searches
    the submasks of ``m`` that contain it, with one more rule that forbids
    ``m`` itself; only head cycles can leave one. Searching only supported
    submasks loses nothing: a smaller model exists exactly when a minimal
    one does, and that one is supported.
    """
    reduct = [
        (head, pos, neg)
        for head, pos, neg in folded
        if (m & pos) == pos and not (m & neg)
    ]
    must = _must_atoms(m, reduct)
    if must == m:
        return False
    free = m & ~must
    return next(_models(free, reduct + [(0, free, 0)], run, must), None) is not None


# ---------------------------------------------------------------------------
# Minimal models, answer sets
# ---------------------------------------------------------------------------

def minimal_models(
    gp: GroundProgram,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    deadline: float | None = None,
) -> list[frozenset[Atom]]:
    """All subset-minimal models of the ground rules, in canonical rendering order.

    Read classically, ``not a`` in a body is ``a`` in the head, so each rule
    becomes the positive ``head | neg :- pos``, which has the same models. The
    answer sets of a positive disjunctive program are exactly its minimal
    models (Gelfond & Lifschitz 1991), so these are the answer sets of that
    reading. Its candidates are its head atoms: an atom in no head is false
    in every minimal model.
    """
    positive = tuple(GroundRule(r.head | r.neg, r.pos, _NO_ATOMS) for r in gp.rules)
    return [s.atoms for s in _answer_sets_of_ground(GroundProgram(positive), limits, deadline)]


def is_answer_set(
    interpretation: frozenset[Atom],
    program: Program,
    limits: EvaluationLimits = DEFAULT_LIMITS,
) -> Verdict:
    """Check one interpretation: model of its reduct, and minimal among subsets."""
    gp = ground_program(program, limits)
    interpretation = frozenset(interpretation)
    if not is_model(interpretation, gp):
        return Verdict.NOT_A_MODEL

    # The model contains the facts, so the candidates are the rest of it.
    # Folding over the interpretation keeps the rules whose positive body it
    # contains; the reduct w.r.t. the full mask then keeps those whose body is
    # true, with negative literals true for every subset.
    run = _Run(limits)
    space = _MaskSpace(gp, interpretation, run)
    full = (1 << len(space.candidates)) - 1
    if _has_smaller_model(full, space.rules, run):
        return Verdict.NOT_MINIMAL
    return Verdict.YES


def answer_sets(
    program: Program,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    deadline: float | None = None,
) -> list[AnswerSet]:
    """Every answer set exactly once, with its cost, in canonical render order.

    The program is grounded in relevance mode, so the head atoms of the
    grounding are exactly its derivable atoms. Candidates are their subsets
    with facts forced in; the search yields those that are supported models
    of the grounding. Unless the program is tight, each is then checked to be
    minimal among the models of its own reduct.
    """
    gp = ground_program(program, limits, deadline=deadline, relevant=True)
    return _answer_sets_of_ground(gp, limits, deadline)


def _answer_sets_of_ground(
    gp: GroundProgram,
    limits: EvaluationLimits,
    deadline: float | None = None,
) -> list[AnswerSet]:
    """Answer sets of ``gp``, candidates its head atoms (a superset of the
    derivable ones on any grounding, since no answer set holds an atom no rule
    derives). The search yields supported models, which on tight folded
    rules are the answer sets; otherwise each is checked to be minimal."""
    run = _Run(limits, deadline)
    space = _MaskSpace(gp, frozenset().union(*(r.head for r in gp._instances)), run)
    tight = _is_tight(space.rules)
    found = []
    for m in _models((1 << len(space.candidates)) - 1, space.rules, run):
        if tight or not _has_smaller_model(m, space.rules, run):
            atoms = space.atoms_of(m)
            found.append(AnswerSet(atoms=atoms, cost=cost(atoms, gp.weak_constraints)))
    if len(found) < 2:
        return found

    text = {a: str(a) for a in space.possible}  # each atom's str built once
    found.sort(key=lambda s: render_interpretation([text[a] for a in s.atoms]))
    return found


def _is_tight(folded) -> bool:
    """No cycle, self-loops included, in the positive dependency graph of the
    folded rules: an edge from each head bit to each positive body bit."""
    depends: dict[int, int] = {}
    for head, pos, _ in folded:
        for bit in _bits(head):
            depends[bit] = depends.get(bit, 0) | pos
    while depends:  # drop the bits that depend on no bit left
        left = sum(depends)
        depends = {bit: pos for bit, pos in depends.items() if pos & left}
        if sum(depends) == left:
            return False
    return True


def compare_costs(a: dict[int, int], b: dict[int, int]) -> int:
    """Lexicographic cost order, higher levels first: -1, 0, or 1."""
    for level in sorted(set(a) | set(b), reverse=True):
        wa, wb = a.get(level, 0), b.get(level, 0)
        if wa != wb:
            return -1 if wa < wb else 1
    return 0


def lowest_cost(sets: list[AnswerSet]) -> list[AnswerSet]:
    """The sets whose cost is lexicographically minimal, in their given order."""
    if not sets:
        return []
    best = min((s.cost for s in sets), key=functools.cmp_to_key(compare_costs))
    return [s for s in sets if compare_costs(s.cost, best) == 0]


def optimal_answer_sets(
    program: Program,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    deadline: float | None = None,
) -> list[AnswerSet]:
    """The answer sets whose cost is lexicographically minimal."""
    return lowest_cost(answer_sets(program, limits, deadline))
