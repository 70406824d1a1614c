"""Rule-language front end: AST types, parser, safety check, and canonical rendering.

The concrete syntax is the small DLV-style dialect used throughout this
project: `|` for head disjunction, `:-` for implication, `not` for default
negation, `:~ body. [w:l]` for weak constraints, `%` line comments, and
builtin comparisons (`=`, `!=`/`<>`, `<`, `>`, `<=`, `>=`) whose sides may be
a term or a single binary sum `t + u`.

A ground atom written with no whitespace, such as `reading(12,s1x4,"x")`, is
read as one ATOM token, so rendered facts parse in one regex match per atom.
The parser reads the same atom, results and error positions as from the
per-character tokens; where the atom is not read as an atom (a function term
such as `f(a)`, which is always an error, or an integer too long to read), it
first expands the token in place into those tokens.

Each term lexeme (symbol, integer, string) is defined once; every pattern
that reads terms, in programs and in solver witnesses, is built from them.

A solver witness line is read by one scan, one regex match per atom, without
the tokenizer; the output parsers build each distinct atom text, and each
distinct term text, once per output. The tokenizer reads only the lines the
scan does not read whole, and explains the ones it rejects with a line and
column.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FileReadError, MalformedOutput, ParseError, SafetyError

# The lexemes of a term, each defined once. A symbol is a lowercase word other
# than the keyword `not`, whatever follows the word.
_SYMBOL = r"(?!not(?![A-Za-z0-9_]))[a-z][A-Za-z0-9_]*"
_INTEGER = r"-?[0-9]+"
_STRING = r'"[^"\n]*"'

# A whole string that the tokenizer reads as one identifier.
SYMBOL_RE = re.compile(rf"{_SYMBOL}\Z")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
# Constant, Integer and Atom are named tuples, so the hashing and equality
# that every set and dict of atoms runs on are done in C. Variable stays a
# dataclass: it never equals a Constant of the same name.

@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


class Constant(NamedTuple):
    """Symbolic constant. Quoted-string constants keep their quotes in `name`."""

    name: str

    @property
    def is_quoted(self) -> bool:
        return self.name.startswith('"')

    @property
    def unquoted(self) -> str:
        return self.name[1:-1] if self.is_quoted else self.name

    def __str__(self) -> str:
        return self.name


class Integer(NamedTuple):
    value: int

    def __str__(self) -> str:
        return str(self.value)


Term = Variable | Constant | Integer


@dataclass(frozen=True, slots=True)
class Sum:
    """Single binary `+`, only allowed inside builtins."""

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} + {self.rhs}"


class Atom(NamedTuple):
    predicate: str
    terms: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def signature(self) -> tuple[str, int]:
        return (self.predicate, len(self.terms))

    @property
    def is_ground(self) -> bool:
        return Variable not in map(type, self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        try:  # a ground term's text is that of its one field: no __str__ call per term
            return f"{self.predicate}({','.join([str(t[0]) for t in self.terms])})"
        except TypeError:  # a Variable is not indexable
            return f"{self.predicate}({','.join([str(t) for t in self.terms])})"


@dataclass(frozen=True, slots=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


@dataclass(frozen=True, slots=True)
class Builtin:
    op: str
    lhs: Term | Sum
    rhs: Term | Sum

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


BodyElement = Literal | Builtin


class _Statement:
    """Body accessors shared by :class:`Rule` and :class:`WeakConstraint`."""

    __slots__ = ()

    def positive_body_atoms(self) -> tuple[Atom, ...]:
        return tuple(e.atom for e in self.body if isinstance(e, Literal) and not e.negated)

    def negative_body_atoms(self) -> tuple[Atom, ...]:
        return tuple(e.atom for e in self.body if isinstance(e, Literal) and e.negated)

    def builtins(self) -> tuple[Builtin, ...]:
        return tuple(e for e in self.body if isinstance(e, Builtin))

    def _body_variables(self, seen: list[str]) -> list[str]:
        for elem in self.body:
            if isinstance(elem, Literal):
                _collect_vars(elem.atom.terms, seen)
            else:
                _collect_vars(operand_terms(elem.lhs) + operand_terms(elem.rhs), seen)
        return seen

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Rule(_Statement):
    head: tuple[Atom, ...] = ()
    body: tuple[BodyElement, ...] = ()

    @property
    def is_constraint(self) -> bool:
        return not self.head

    @property
    def is_fact(self) -> bool:
        """Single ground head atom and empty body."""
        return len(self.head) == 1 and not self.body and self.head[0].is_ground

    def variables(self) -> list[str]:
        """All variable names, in first-occurrence order."""
        seen: list[str] = []
        for atom in self.head:
            _collect_vars(atom.terms, seen)
        return self._body_variables(seen)


@dataclass(frozen=True, slots=True)
class WeakConstraint(_Statement):
    body: tuple[BodyElement, ...]
    weight: Term
    level: Term

    def variables(self) -> list[str]:
        """All variable names, in first-occurrence order."""
        seen = self._body_variables([])
        _collect_vars((self.weight, self.level), seen)
        return seen


class Program:
    """Rules and weak constraints.

    A program may also hold ground atoms as facts beside its rules (the
    records a solver is handed), so the grounder takes each as its atom, with
    no rule built and no fact test run for it. ``rules`` still lists every
    rule, each held fact as a fact rule after the others; those are built
    when ``rules`` is first read. Programs are equal when their ``rules`` and
    weak constraints are.
    """

    def __init__(
        self,
        rules: tuple[Rule, ...] = (),
        weak_constraints: tuple[WeakConstraint, ...] = (),
    ):
        self._rules = tuple(rules)
        self._facts: tuple[Atom, ...] = ()
        self.weak_constraints = tuple(weak_constraints)

    @classmethod
    def _with_facts(cls, rules, facts, weak_constraints) -> Program:
        program = cls(rules, weak_constraints)
        program._facts = tuple(facts)
        return program

    @functools.cached_property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules + tuple([Rule((atom,)) for atom in self._facts])

    def facts(self) -> tuple[Atom, ...]:
        return tuple(r.head[0] for r in self._rules if r.is_fact) + self._facts

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.rules == other.rules and self.weak_constraints == other.weak_constraints

    def __hash__(self) -> int:
        return hash((self.rules, self.weak_constraints))

    def __repr__(self) -> str:
        return f"Program(rules={self.rules!r}, weak_constraints={self.weak_constraints!r})"

    def __str__(self) -> str:
        return render(self)


def operand_terms(operand: Term | Sum) -> tuple[Term, ...]:
    """The terms of a builtin operand: both sides of a sum, or the term itself."""
    if isinstance(operand, Sum):
        return (operand.lhs, operand.rhs)
    return (operand,)


def _collect_vars(terms, seen: list[str]) -> None:
    for t in terms:
        if isinstance(t, Variable) and t.name not in seen:
            seen.append(t.name)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One argument of a whole atom: a string, an integer or a symbol.
_ARG = rf"(?:{_STRING}|{_INTEGER}|{_SYMBOL})"

# A whole ground atom `p(t1,...,tn)` with no whitespace and neither `not` nor
# a variable in it: exactly the text of the fine tokens IDENT, LPAREN, terms
# and COMMAs, RPAREN that `_expand` gives back.
_GROUND_ATOM = rf"{_SYMBOL}\({_ARG}(?:,{_ARG})*\)"

# One alternative per token kind, tried in order at each position: `:-`,
# `:~` and the two-character comparisons before their one-character prefixes.
# `\r\n`, `\r` and `\n` end a line outside quoted strings; a string may hold
# a `\r`. A run of `\n` is one NEWLINE match, so the blank lines that stand
# for records cost one match. Only ASCII letters and digits make words and
# integers; ERROR catches any other character. ATOM is tried before WORD.
_TOKEN_RE = re.compile(
    rf"""(?P<NEWLINE>\r\n?|\n+)|(?P<SKIP>[ \t]+)|(?P<COMMENT>%[^\r\n]*)
    |(?P<STRING>{_STRING})|(?P<INTEGER>{_INTEGER})
    |(?P<ATOM>{_GROUND_ATOM})
    |(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<IMPLIES>:-)|(?P<WEAK>:~)|(?P<OP><>|<=|>=|!=|=|<|>)
    |(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACKET>\[)|(?P<RBRACKET>])|(?P<COLON>:)
    |(?P<COMMA>,)|(?P<DOT>\.)|(?P<PIPE>\|)|(?P<PLUS>\+)|(?P<ERROR>.)""",
    re.VERBOSE,
)

# The arguments of an ATOM token's text, by kind; commas and `)` are skipped.
_ARG_RE = re.compile(rf"(?P<INTEGER>{_INTEGER})|(?P<STRING>{_STRING})|(?P<IDENT>{_SYMBOL})")

# One atom of a witness line, as group 1: a whole ground atom or a symbol.
# Every atom after the first needs its separator in front of it: whitespace
# for clingo, a comma inside optional whitespace for DLV
# (``_NEXT_WITNESS_ATOM[commas]``); the line may end in whitespace. So a
# symbol read in part, or followed by `(`, leaves the line unread. `\r` and
# `\n` count as whitespace, as they do between program tokens.
_WITNESS_ATOM = rf"({_GROUND_ATOM}|{_SYMBOL})"
_FIRST_WITNESS_ATOM = re.compile(rf"[ \t\r\n]*{_WITNESS_ATOM}")
_NEXT_WITNESS_ATOM = {
    False: re.compile(rf"[ \t\r\n]+{_WITNESS_ATOM}"),
    True: re.compile(rf"[ \t\r\n]*,[ \t\r\n]*{_WITNESS_ATOM}"),
}
_WITNESS_END = re.compile(r"[ \t\r\n]*\Z")


_new = tuple.__new__  # builds a named tuple without the Python call of its __new__


def _atom_of(text: str, terms: dict[str, Term]) -> Atom:
    """The Atom of a whole ground atom's text, or of a bare symbol's.

    Each argument is looked up by its text in ``terms``, a table the caller
    keeps for one program or one output, so a term that recurs is built once.
    Raises ValueError for an integer too long for ``int``.
    """
    paren = text.find("(")
    if paren < 0:
        return Atom(text)
    args = text[paren + 1 : -1]
    # Only a quoted string holds a comma; without one the commas split the arguments.
    texts = args.split(",") if '"' not in args else [m[0] for m in _ARG_RE.finditer(args)]
    return _new(Atom, (text[:paren], tuple([terms.get(t) or _term_of(t, terms) for t in texts])))


def _term_of(text: str, terms: dict[str, Term]) -> Term:
    """The term of one argument's text, kept in ``terms``."""
    if text[0] in "-0123456789":
        term = terms[text] = _new(Integer, (int(text),))
    else:
        term = terms[text] = _new(Constant, (text,))
    return term


class _Token(NamedTuple):
    """``value`` is what error messages quote; ``text`` is the source covered.

    They differ only for ATOM, whose ``value`` is the predicate name.
    """

    kind: str
    value: str
    line: int
    column: int
    text: str


def _tokenize(text: str, comments: bool = True) -> list[_Token]:
    """Tokens of ``text`` ending in EOF; without ``comments`` a `%` is an error."""
    tokens: list[_Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1 if text[m.start()] == "\r" else m.end() - m.start()
            line_start = m.end()
            continue
        if kind == "SKIP" or (kind == "COMMENT" and comments):
            continue
        value = source = m.group()
        column = m.start() - line_start + 1
        if kind == "ATOM":
            value = source[: source.index("(")]
        elif kind == "WORD":
            kind = "NOT" if value == "not" else "IDENT" if value[0].islower() else "VARIABLE"
        elif kind in ("ERROR", "COMMENT"):
            if value != '"':
                raise ParseError(f"unexpected character {value[0]!r}", line, column)
            closed = text.find('"', m.end()) >= 0
            raise ParseError("newline in string" if closed else "unterminated string", line, column)
        tokens.append(_Token(kind, value, line, column, source))
    # After a comment on the last line, EOF sits where the comment starts.
    end = m.start() if m is not None and m.lastgroup == "COMMENT" else len(text)
    tokens.append(_Token("EOF", "", line, end - line_start + 1, ""))
    return tokens


def _expand(atom: _Token) -> list[_Token]:
    """The fine tokens an ATOM token stands for, with their own columns."""
    name, line, column, text = atom.value, atom.line, atom.column, atom.text
    fine = [
        _Token("IDENT", name, line, column, name),
        _Token("LPAREN", "(", line, column + len(name), "("),
    ]
    for m in _ARG_RE.finditer(text, len(name) + 1):
        arg, after = m.group(), text[m.end()]
        fine.append(_Token(m.lastgroup, arg, line, column + m.start(), arg))
        fine.append(_Token("COMMA" if after == "," else "RPAREN", after, line, column + m.end(), after))
    return fine


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        # Anonymous `_` occurrences become fresh variables; pick names that do
        # not collide with any variable written out in the source.
        self.taken_names = {t.value for t in tokens if t.kind == "VARIABLE"}
        self.fresh_counter = 0
        self.terms: dict[str, Term] = {}  # the arguments of ATOM tokens, by text

    # The token list ends in EOF and no grammar rule consumes it, so ``pos``
    # never passes it; ``peek(1)`` only follows an IDENT, which is not EOF.
    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> _Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.value!r}", tok.line, tok.column)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def fresh_variable(self) -> Variable:
        while True:
            self.fresh_counter += 1
            name = f"_{self.fresh_counter}"
            if name not in self.taken_names:
                self.taken_names.add(name)
                return Variable(name)

    # --- grammar ---

    def parse_statements(self) -> list[Rule | WeakConstraint]:
        """Every statement up to EOF, in source order."""
        statements: list[Rule | WeakConstraint] = []
        while self.peek().kind != "EOF":
            weak = self.peek().kind == "WEAK"
            statements.append(self.parse_weak_constraint() if weak else self.parse_rule())
        return statements

    def parse_rule(self) -> Rule:
        head: list[Atom] = []
        if self.peek().kind != "IMPLIES":
            head.append(self.parse_atom())
            while self.peek().kind == "PIPE":
                self.next()
                head.append(self.parse_atom())
        body: tuple[BodyElement, ...] = ()
        if self.peek().kind == "IMPLIES":
            self.next()
            body = self.parse_body()
        self.expect("DOT")
        return Rule(head=tuple(head), body=body)

    def parse_weak_constraint(self) -> WeakConstraint:
        self.expect("WEAK")
        body = self.parse_body()
        self.expect("DOT")
        self.expect("LBRACKET")
        weight = self.parse_cost_term()
        self.expect("COLON")
        level = self.parse_cost_term()
        self.expect("RBRACKET")
        return WeakConstraint(body=body, weight=weight, level=level)

    def parse_cost_term(self) -> Term:
        """A weight or level; a negative integer is refused at its own token."""
        term = self.parse_term()
        if isinstance(term, Integer) and term.value < 0:
            self.pos -= 1  # back to the integer: every parse error stands at the next token
            raise self.error("weak constraint weight and level must be non-negative")
        return term

    def parse_body(self) -> tuple[BodyElement, ...]:
        elems = [self.parse_body_element()]
        while self.peek().kind == "COMMA":
            self.next()
            elems.append(self.parse_body_element())
        return tuple(elems)

    def parse_body_element(self) -> BodyElement:
        tok = self.peek()
        if tok.kind == "NOT":
            self.next()
            return Literal(self.parse_atom(), negated=True)
        if tok.kind in ("VARIABLE", "INTEGER", "STRING"):
            return self.parse_builtin()
        if tok.kind in ("IDENT", "ATOM"):
            # A lone lowercase identifier is a builtin operand when followed
            # by a comparison or `+`, and an atom otherwise.
            if tok.kind == "IDENT" and self.peek(1).kind in ("OP", "PLUS"):
                return self.parse_builtin()
            return Literal(self.parse_atom())
        raise self.error(f"expected a literal or builtin, found {tok.value!r}")

    def parse_builtin(self) -> Builtin:
        lhs = self.parse_operand()
        op_tok = self.expect("OP")
        rhs = self.parse_operand()
        op = "!=" if op_tok.value == "<>" else op_tok.value
        return Builtin(op=op, lhs=lhs, rhs=rhs)

    def parse_operand(self) -> Term | Sum:
        left = self.parse_term()
        if self.peek().kind == "PLUS":
            self.next()
            right = self.parse_term()
            return Sum(left, right)
        return left

    def parse_atom(self) -> Atom:
        tok = self.peek()
        if tok.kind == "ATOM":
            try:
                atom = _atom_of(tok.text, self.terms)
            except ValueError:
                # An integer too long to read: the fine tokens give its position.
                self.tokens[self.pos : self.pos + 1] = _expand(tok)
            else:
                self.pos += 1
                return atom
        name = self.expect("IDENT")
        terms: list[Term] = []
        if self.peek().kind == "LPAREN":
            self.next()
            terms.append(self.parse_term())
            while self.peek().kind == "COMMA":
                self.next()
                terms.append(self.parse_term())
            self.expect("RPAREN")
        return Atom(predicate=name.value, terms=tuple(terms))

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "ATOM":
            # A function term such as `f(a)`: read `f` as a symbol and leave
            # the `(` to the caller, which rejects it.
            self.tokens[self.pos : self.pos + 1] = _expand(tok)
            tok = self.peek()
        if tok.kind == "VARIABLE":
            self.next()
            if tok.value == "_":
                return self.fresh_variable()
            return Variable(tok.value)
        if tok.kind == "INTEGER":
            try:
                value = int(tok.value)
            except ValueError:  # more digits than int() reads from text
                digits = len(tok.value.lstrip("-"))
                raise self.error(f"integer too long ({digits} digits)") from None
            self.next()
            return Integer(value)
        if tok.kind == "STRING":
            self.next()
            return Constant(tok.value)
        if tok.kind == "IDENT":
            self.next()
            return Constant(tok.value)
        raise self.error(f"expected a term, found {tok.value!r}")


def read_program_file(path) -> str:
    """The text of a program file as written; only the tokenizer splits lines.
    Every failure to read it raises :class:`FileReadError`."""
    try:
        with open(path, newline="") as handle:
            return handle.read()
    except OSError as exc:  # its text already names the file
        raise FileReadError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise FileReadError(f"cannot read {path}: {exc}") from exc


def parse_program(text: str, check_safety: bool = True) -> Program:
    """Parse program text into a :class:`Program`.

    Statement order is preserved (rules and weak constraints each keep their
    relative order). With ``check_safety`` every statement is safety-checked
    and the first offender raises :class:`SafetyError`, whose index counts
    the statements in source order, weak constraints included.
    """
    statements = _Parser(_tokenize(text)).parse_statements()
    if check_safety:
        for index, stmt in enumerate(statements):
            unsafe = safety_check(stmt)
            if unsafe:
                raise SafetyError(index, unsafe, render(stmt))
    return Program(
        rules=tuple(s for s in statements if isinstance(s, Rule)),
        weak_constraints=tuple(s for s in statements if isinstance(s, WeakConstraint)),
    )


def open_statement_end(text: str) -> tuple[int, int] | None:
    """Line and column where ``text`` ends, if it ends inside a statement.

    That is where parsing it runs out of tokens before the statement's
    closing `.` (a rule) or `]` (a weak constraint). Text that fails to
    tokenize, or to parse before its end, gives None: the parse of the whole
    program reports that fault.
    """
    try:
        parser = _Parser(_tokenize(text))
    except ParseError:
        return None
    try:
        parser.parse_statements()
    except ParseError:
        eof = parser.peek()
        if eof.kind == "EOF":
            return eof.line, eof.column
    return None


def parse_witness(
    text: str, line: str, commas: bool, tables: tuple[dict, dict] | None = None
) -> frozenset[Atom]:
    """Ground atoms of one solver witness.

    clingo separates the atoms by whitespace, DLV by commas (``commas``).
    The witness is read by one scan, one regex match per atom. ``tables``
    holds the atoms and the terms already built, each by its text; the
    output parsers share one pair across the witnesses of one output, so an
    atom or a term that recurs is built once. A witness the scan does not
    read whole goes to the program tokenizer, which reads what the scan
    leaves out (such as whitespace inside an atom) and otherwise raises
    :class:`MalformedOutput` quoting ``line``, the output line the witness
    came from, with the position of the fault. A comment is malformed.
    """
    atoms_by_text, terms = ({}, {}) if tables is None else tables
    atoms: list[Atom] = []
    next_atom = _NEXT_WITNESS_ATOM[commas]
    end = 0
    m = _FIRST_WITNESS_ATOM.match(text)
    while m is not None:
        source = m[1]
        atom = atoms_by_text.get(source)
        if atom is None:
            try:
                atom = _atom_of(source, terms)
            except ValueError:  # an integer too long to read: the tokenizer places it
                break
            atoms_by_text[source] = atom
        atoms.append(atom)
        end = m.end()
        m = next_atom.match(text, end)
    if m is None and _WITNESS_END.match(text, end):
        return frozenset(atoms)
    return _parse_witness_tokens(text, line, commas)


def _parse_witness_tokens(text: str, line: str, commas: bool) -> frozenset[Atom]:
    """``parse_witness`` on the program tokenizer: the reference for the scan."""
    atoms: list[Atom] = []
    try:
        parser = _Parser(_tokenize(text, comments=False))
        while parser.peek().kind != "EOF":
            if atoms and commas:
                parser.expect("COMMA")
            elif atoms and parser.peek().column == end and parser.peek().line == last.line:
                raise parser.error("expected whitespace between atoms")
            start = parser.peek()
            atom = parser.parse_atom()
            if not atom.is_ground:
                raise ParseError(f"non-ground atom {atom}", start.line, start.column)
            atoms.append(atom)
            last = parser.tokens[parser.pos - 1]
            end = last.column + len(last.text)
    except ParseError as exc:
        raise MalformedOutput(line, str(exc)) from exc
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# Safety
# ---------------------------------------------------------------------------

def safety_check(rule: Rule | WeakConstraint) -> list[str]:
    """Unsafe variable names of ``rule`` in first-occurrence order.

    A variable is safe when it occurs in a positive non-builtin body literal,
    or when it is the left side of an assignment ``X = s + t`` (or ``X = t``)
    whose right-side variables are all safe already; the latter is closed
    under a fixpoint.
    """
    names = rule.variables()
    if not names:
        return []
    safe: set[str] = set()
    for atom in rule.positive_body_atoms():
        for t in atom.terms:
            if isinstance(t, Variable):
                safe.add(t.name)

    assignments = [
        b for b in rule.builtins()
        if b.op == "=" and isinstance(b.lhs, Variable)
    ]
    changed = True
    while changed:
        changed = False
        for b in assignments:
            if b.lhs.name in safe:
                continue
            rhs_vars = {t.name for t in operand_terms(b.rhs) if isinstance(t, Variable)}
            if rhs_vars <= safe:
                safe.add(b.lhs.name)
                changed = True

    return [name for name in names if name not in safe]


# ---------------------------------------------------------------------------
# EDB / IDB classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredicatePartition:
    edb: frozenset[tuple[str, int]]
    idb: frozenset[tuple[str, int]]


def classify_predicates(program: Program) -> PredicatePartition:
    """Partition predicate signatures into EDB and IDB.

    IDB predicates are those defined by non-fact rules (they occur in the
    head of at least one rule that is not a fact); every other predicate of
    the program is EDB.
    """
    all_sigs: set[tuple[str, int]] = set()
    idb: set[tuple[str, int]] = set()
    for rule in program.rules:
        for atom in rule.head:
            all_sigs.add(atom.signature)
            if not rule.is_fact:
                idb.add(atom.signature)
        for elem in rule.body:
            if isinstance(elem, Literal):
                all_sigs.add(elem.atom.signature)
    for weak in program.weak_constraints:
        for elem in weak.body:
            if isinstance(elem, Literal):
                all_sigs.add(elem.atom.signature)
    return PredicatePartition(edb=frozenset(all_sigs - idb), idb=frozenset(idb))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render(x) -> str:
    """Canonical text for any AST node.

    Canonical form: no space inside atom argument lists, a single space after
    body commas, ``|`` between head atoms, ``:-`` separator, terminating dot.
    ``parse_program(render(p))`` is structurally equal to ``p``.
    """
    if isinstance(x, Program):
        parts = [render(r) for r in x.rules] + [render(w) for w in x.weak_constraints]
        return "\n".join(parts)
    if isinstance(x, Rule):
        return render_rule([str(a) for a in x.head], [str(e) for e in x.body])
    if isinstance(x, WeakConstraint):
        return render_weak([str(e) for e in x.body], x.weight, x.level)
    if isinstance(x, (Atom, Literal, Builtin, Sum, Variable, Constant, Integer)):
        return str(x)
    raise TypeError(f"cannot render {type(x).__name__}")


def render_rule(head: list[str], body: list[str]) -> str:
    """A rule's text from the texts of its head atoms and body elements."""
    if not body:
        return " | ".join(head) + "."
    if not head:
        return f":- {', '.join(body)}."
    return f"{' | '.join(head)} :- {', '.join(body)}."


def render_weak(body: list[str], weight, level) -> str:
    """A weak constraint's text from the texts of its body elements."""
    return f":~ {', '.join(body)}. [{weight}:{level}]"
