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
from a ground program and the atoms it may contain: for ``answer_sets`` the
head atoms of the relevance grounding, which are exactly its derivable atoms;
the occurring ones for ``minimal_models``; the checked interpretation for
``is_answer_set``. Only rules are folded into bit masks; each answer set is
charged by ``cost`` on its atoms. One backtracking search, ``_models``, drops
a partial assignment as soon as it violates a rule; it enumerates the space
and also serves both minimality checks, which search the submasks of a model
with that model forbidden. For answer sets a least-model check of the reduct
comes first, and the search runs only when head cycles leave it undecided.
This module trades speed for being small enough to audit, and doubles as the
test oracle for the rest of the package.

Grounding has two modes. The naive one tries every substitution over the
universe; ``aspkit ground`` prints it and ``aspkit check`` uses it. Solving
(``answer_sets`` and everything built on it) grounds in relevance mode: only
the instances whose positive body is derivable, found by a semi-naive join
against the derivable atoms. The other instances can never fire, so the
answer sets and costs are the same; the naive mode stays the oracle.
Limits and the deadline reach every phase through ``_Run``, the only clock reader.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from enum import Enum

from .errors import LimitExceeded, SolverTimeout
from .syntax import (
    Atom, Builtin, Constant, Integer, Program, Sum, Term, Variable, classify_predicates,
    render_rule, render_weak,
)


@dataclass(frozen=True)
class EvaluationLimits:
    """Hard bounds checked before any enumeration starts."""

    max_herbrand_base: int = 5000
    max_candidate_atoms: int = 22
    max_ground_rules: int = 200_000

    def __post_init__(self):
        for name in ("max_herbrand_base", "max_candidate_atoms", "max_ground_rules"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_LIMITS = EvaluationLimits()


class _Run:
    """One evaluation's limits and deadline, and the only reader of the clock.

    Each phase (grounding, folding, every ``_models`` search) calls ``start``,
    which reads the clock at once; then every 1,024th ``tick`` reads it again.
    A tick is one substitution or join match, one folded rule or one search
    node. Past the deadline a read raises ``SolverTimeout`` naming the phase.
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


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple[GroundRule, ...] = ()
    weak_constraints: tuple[GroundWeakConstraint, ...] = ()


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

def _operand_constants(operand: Term | Sum) -> list[Term]:
    terms = (operand.lhs, operand.rhs) if isinstance(operand, Sum) else (operand,)
    return [t for t in terms if isinstance(t, (Constant, Integer))]


def herbrand_universe(program: Program) -> frozenset[Term]:
    """All constants appearing in the program.

    Integers produced by evaluating `+` do not extend the universe; only
    constants written in the program text count.
    """
    out: set[Term] = set()

    def from_body(body) -> None:
        for elem in body:
            if isinstance(elem, Builtin):
                out.update(_operand_constants(elem.lhs))
                out.update(_operand_constants(elem.rhs))
            else:
                out.update(t for t in elem.atom.terms if isinstance(t, (Constant, Integer)))

    for rule in program.rules:
        for atom in rule.head:
            out.update(t for t in atom.terms if isinstance(t, (Constant, Integer)))
        from_body(rule.body)
    for weak in program.weak_constraints:
        from_body(weak.body)
        out.update(t for t in (weak.weight, weak.level) if isinstance(t, (Constant, Integer)))
    return frozenset(out)


def herbrand_base(program: Program, limits: EvaluationLimits = DEFAULT_LIMITS) -> frozenset[Atom]:
    """Every atom formable from the program's predicates over its universe."""
    universe = sorted(herbrand_universe(program), key=_term_sort_key)
    partition = classify_predicates(program)
    sigs = partition.edb | partition.idb
    count = sum(len(universe) ** arity for _, arity in sigs)
    if count > limits.max_herbrand_base:
        raise LimitExceeded("herbrand base atoms", count, limits.max_herbrand_base)
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


def _operand_value(operand: Term | Sum, sub: dict[str, Term]):
    """('int', n) or ('sym', name), or None if the operand has no value.

    A sum only has a value when both sides are integers.
    """
    if isinstance(operand, Sum):
        lhs = _ground_value(operand.lhs, sub)
        rhs = _ground_value(operand.rhs, sub)
        if isinstance(lhs, Integer) and isinstance(rhs, Integer):
            return ("int", lhs.value + rhs.value)
        return None
    value = _ground_value(operand, sub)
    if isinstance(value, Integer):
        return ("int", value.value)
    return ("sym", value.name)


def eval_builtin(builtin: Builtin, sub: dict[str, Term]) -> bool:
    """Truth of a builtin under a grounding substitution.

    `=`/`!=` compare values structurally; the order comparisons are only
    defined between integers and are false otherwise, as is any comparison
    against a sum that does not evaluate to an integer.
    """
    lhs = _operand_value(builtin.lhs, sub)
    rhs = _operand_value(builtin.rhs, sub)
    if lhs is None or rhs is None:
        return False
    if builtin.op == "=":
        return lhs == rhs
    if builtin.op == "!=":
        return lhs != rhs
    if lhs[0] != "int" or rhs[0] != "int":
        return False
    a, b = lhs[1], rhs[1]
    return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[builtin.op]


def _instantiate(atom: Atom, sub: dict[str, Term], cache: dict) -> Atom:
    terms = tuple(_ground_value(t, sub) for t in atom.terms)
    key = (atom.predicate, terms)
    got = cache.get(key)
    if got is None:
        got = Atom(atom.predicate, terms)
        cache[key] = got
    return got


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
    """
    universe = sorted(herbrand_universe(program), key=_term_sort_key)
    nconst = len(universe)

    substitution_budget = max(2_000_000, _SUBSTITUTION_FACTOR * limits.max_ground_rules)
    total_subs = 0
    for stmt in list(program.rules) + list(program.weak_constraints):
        nvars = len(stmt.variables())
        total_subs += nconst**nvars if nvars else 1
        if total_subs > substitution_budget:
            raise LimitExceeded("grounding substitutions", total_subs, substitution_budget)

    run = _Run(limits, deadline)
    out = _Instances(run)
    run.start("grounding")
    if relevant:
        _ground_relevant(program, universe, out)
    else:
        for rule in program.rules:
            if rule.is_fact:
                out.add_fact(rule.head[0])
            else:
                out.add_rules(rule, _all_substitutions(rule, universe), rule.builtins())
        for weak in program.weak_constraints:
            out.add_weaks(weak, _all_substitutions(weak, universe), weak.builtins())
    return GroundProgram(rules=tuple(out.rules), weak_constraints=tuple(out.weaks))


def _all_substitutions(stmt, universe):
    names = stmt.variables()
    for combo in itertools.product(universe, repeat=len(names)):
        yield dict(zip(names, combo))


_NO_ATOMS: frozenset[Atom] = frozenset()


class _Instances:
    """Ground instances built from substitutions, for both grounding modes.

    Substitutions are read once and not kept, so a producer may hand out the
    same dict object again after changing it.
    """

    def __init__(self, run: _Run):
        self.run = run
        self.rules: list[GroundRule] = []
        self.weaks: list[GroundWeakConstraint] = []
        self._seen_weaks: set[GroundWeakConstraint] = set()
        self._cache: dict = {}

    def _keep(self, instances: list, instance) -> None:
        instances.append(instance)
        kept = len(self.rules) + len(self.weaks)
        if kept > self.run.limits.max_ground_rules:
            raise LimitExceeded("ground rule instances", kept, self.run.limits.max_ground_rules)

    def add_fact(self, atom: Atom) -> None:
        self.run.tick()
        self._keep(self.rules, GroundRule(head=frozenset((atom,)), pos=_NO_ATOMS, neg=_NO_ATOMS))

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
    terms = (operand.lhs, operand.rhs) if isinstance(operand, Sum) else (operand,)
    return {t.name for t in terms if isinstance(t, Variable)}


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


def _ground_relevant(program: Program, universe: list[Term], out: _Instances) -> None:
    """Ground only instances whose positive body is derivable (semi-naive).

    Rules with an empty positive body, facts among them, are instantiated
    once. Rules with heads then run to a fixpoint: in each round a rule joins
    its positive body against the derivable atoms, with at least one atom new
    in the last round, so each instance is produced exactly once. Constraints
    and weak constraints are joined once against the final derivable set.
    """
    by_value = {_operand_value(t, {}): t for t in universe}
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
            term = by_value.get(_operand_value(operand, sub))
            if term is not None:
                sub[name] = term
                yield from join(steps, k + 1, sub)
                del sub[name]
        else:
            names = step[1]
            for combo in itertools.product(universe, repeat=len(names)):
                sub.update(zip(names, combo))
                yield from join(steps, k + 1, sub)
            for name in names:
                sub.pop(name, None)

    def against_all(stmt):
        return join(_join_plan(stmt, [_ALL] * len(stmt.positive_body_atoms())), 0, {})

    def add_derived(start: int) -> list[Atom]:
        return derivable.add(a for r in out.rules[start:] for a in r.head)

    recursive = []
    for rule in program.rules:
        n = len(rule.positive_body_atoms())
        if rule.is_fact:
            out.add_fact(rule.head[0])
        elif rule.head and not n:
            out.add_rules(rule, against_all(rule), ())
        elif rule.head:
            plans = [
                _join_plan(rule, [_OLD] * i + [_DELTA] + [_ALL] * (n - i - 1))
                for i in range(n)
            ]
            recursive.append((rule, plans))
    new = add_derived(0)

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
        new = add_derived(start)

    for rule in program.rules:
        if not rule.head:
            out.add_rules(rule, against_all(rule), ())
    for weak in program.weak_constraints:
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

    The facts are forced in and folded away. Every other atom of ``atoms`` is
    a candidate: bit ``i`` is the ``i``-th in rendering order, and more than
    ``max_candidate_atoms`` of them raise :class:`LimitExceeded`. For answer
    sets ``atoms`` are the heads of the relevance grounding, its derivable
    atoms. ``possible`` is the facts plus the candidates; ``rules`` are the
    rules of ``gp`` folded into the space (``fold_rules``), in ground order.
    Weak constraints are not folded: ``cost`` charges them on each answer set.
    """

    def __init__(self, gp: GroundProgram, atoms, run: _Run):
        self.forced = frozenset(next(iter(r.head)) for r in gp.rules if r.is_fact)
        self.candidates = sorted(set(atoms) - self.forced, key=str)
        limit = run.limits.max_candidate_atoms
        if len(self.candidates) > limit:
            raise LimitExceeded("candidate atoms", len(self.candidates), limit)
        self.possible = self.forced.union(self.candidates)
        self.bit = {atom: 1 << i for i, atom in enumerate(self.candidates)}
        self.rules = self.fold_rules(gp.rules, run)

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


def _models(bits: int, folded, run: _Run, base: int = 0):
    """Every ``base | sub``, ``sub`` a submask of ``bits``, that satisfies the folded rules.

    A depth-first search that assigns the bits of ``bits`` from the lowest up.
    Each rule sits in the bucket of its highest bit inside ``bits`` and is
    checked as soon as that bit is assigned, so a partial mask that violates
    it is dropped with every extension. A rule with no bit inside ``bits`` is
    checked once against ``base``. Full enumeration is ``bits`` all candidates
    and ``base`` 0; both minimality checks search the submasks of a model.
    """
    run.start("enumeration")
    buckets: dict[int, list[tuple[int, int]]] = {}
    for head, pos, neg in folded:
        inside = (head | pos | neg) & bits
        if inside:
            buckets.setdefault(1 << inside.bit_length() - 1, []).append((pos, head | neg))
        elif (base & pos) == pos and not (base & (head | neg)):
            return
    stack = [(bits, base)]
    tick = run.tick
    while stack:
        tick()
        rest, m = stack.pop()
        if not rest:
            yield m
            continue
        bit = rest & -rest
        rules = buckets.get(bit, ())
        for ext in (m | bit, m):
            for pos, out in rules:
                if (ext & pos) == pos and not (ext & out):
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
    ``m`` itself; only head cycles can leave one.
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
    # A reduct rule with no atom in ``free`` holds in every submask that
    # contains ``must``: its body holds in ``m``, so its head meets the model
    # ``m``, and that atom lies in ``must``. Only the other rules are searched.
    rules = [r for r in reduct if (r[0] | r[1] | r[2]) & free]
    return next(_models(free, rules + [(0, free, 0)], run, must), None) is not None


# ---------------------------------------------------------------------------
# Minimal models, answer sets
# ---------------------------------------------------------------------------

def minimal_models(
    gp: GroundProgram,
    limits: EvaluationLimits = DEFAULT_LIMITS,
    deadline: float | None = None,
) -> list[frozenset[Atom]]:
    """All subset-minimal models of the ground rules, from the backtracking search.

    Candidates range over every atom occurring in the program (facts forced
    in). Each model ``m`` is kept when ``_models`` finds no model among its
    submasks once ``m`` itself is forbidden; returned in canonical rendering
    order.
    """
    occurring: set[Atom] = set()
    for r in gp.rules:
        occurring |= r.head | r.pos | r.neg
    # Everything occurring is a "possible" atom here: plain models need no
    # derivability, so only the forced folding applies.
    run = _Run(limits, deadline)
    space = _MaskSpace(gp, occurring, run)
    minimal = [
        space.atoms_of(m)
        for m in _models((1 << len(space.candidates)) - 1, space.rules, run)
        if next(_models(m, space.rules + [(0, m, 0)], run), None) is None
    ]
    return sorted(minimal, key=render_interpretation)


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
    with facts forced in; the search yields those that are models of the
    grounding, and each is checked to be minimal among the models of its own
    reduct.
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
    derives)."""
    run = _Run(limits, deadline)
    space = _MaskSpace(gp, frozenset().union(*(r.head for r in gp.rules)), run)
    found = []
    for m in _models((1 << len(space.candidates)) - 1, space.rules, run):
        if not _has_smaller_model(m, space.rules, run):
            atoms = space.atoms_of(m)
            found.append(AnswerSet(atoms=atoms, cost=cost(atoms, gp.weak_constraints)))

    found.sort(key=lambda s: render_interpretation(s.atoms))
    return found


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
