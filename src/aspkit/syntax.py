"""Rule-language front end: AST types, parser, safety check, and canonical rendering.

The concrete syntax is the small DLV-style dialect used throughout this
project: `|` for head disjunction, `:-` for implication, `not` for default
negation, `:~ body. [w:l]` for weak constraints, `%` line comments, and
builtin comparisons (`=`, `!=`/`<>`, `<`, `>`, `<=`, `>=`) whose sides may be
a term or a single binary sum `t + u`.

A ground atom written with no whitespace, such as `reading(12,s1x4,"x")`, is
read as one ATOM token, so rendered facts and solver witnesses parse in one
regex match per atom. The parser reads the same atom, results and error
positions as from the per-character tokens; where the atom is not read as an
atom (a function term such as `f(a)`, which is always an error), it first
expands the token in place into those tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FileReadError, MalformedOutput, ParseError, SafetyError

# A whole string that the tokenizer reads as one identifier: the keyword `not`
# and trailing newlines are not symbols.
SYMBOL_RE = re.compile(r"(?!not\Z)[a-z][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Constant:
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


@dataclass(frozen=True, slots=True)
class Integer:
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


@dataclass(frozen=True, slots=True)
class Atom:
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
        return not any(isinstance(t, Variable) for t in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({','.join(str(t) for t in self.terms)})"


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
                _collect_vars(_operand_terms(elem.lhs) + _operand_terms(elem.rhs), seen)
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


@dataclass(frozen=True, slots=True)
class Program:
    rules: tuple[Rule, ...] = ()
    weak_constraints: tuple[WeakConstraint, ...] = ()

    def facts(self) -> tuple[Atom, ...]:
        return tuple(r.head[0] for r in self.rules if r.is_fact)

    def __str__(self) -> str:
        return render(self)


def _operand_terms(operand: Term | Sum) -> tuple[Term, ...]:
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

# One argument of a whole atom: a string, an integer, or a lowercase symbol
# other than `not`.
_ARG = r'(?:"[^"\n]*"|-?[0-9]+|(?!not[,)])[a-z][A-Za-z0-9_]*)'

# One alternative per token kind, tried in order at each position: `:-`,
# `:~` and the two-character comparisons before their one-character prefixes.
# `\r\n`, `\r` and `\n` end a line outside quoted strings; a string may hold
# a `\r`. Only ASCII letters and digits make words and integers; ERROR
# catches any other character. ATOM, tried before WORD, is a whole ground
# atom `p(t1,...,tn)` with no whitespace and neither `not` nor a variable in
# it: exactly the text of the fine tokens IDENT, LPAREN, terms and COMMAs,
# RPAREN that `_expand` gives back.
_TOKEN_RE = re.compile(
    rf"""(?P<NEWLINE>\r\n?|\n)|(?P<SKIP>[ \t]+)|(?P<COMMENT>%[^\r\n]*)
    |(?P<STRING>"[^"\n]*")|(?P<INTEGER>-?[0-9]+)
    |(?P<ATOM>(?!not\()[a-z][A-Za-z0-9_]*\({_ARG}(?:,{_ARG})*\))
    |(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<IMPLIES>:-)|(?P<WEAK>:~)|(?P<OP><>|<=|>=|!=|=|<|>)
    |(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACKET>\[)|(?P<RBRACKET>])|(?P<COLON>:)
    |(?P<COMMA>,)|(?P<DOT>\.)|(?P<PIPE>\|)|(?P<PLUS>\+)|(?P<ERROR>.)""",
    re.VERBOSE,
)

# The arguments of an ATOM token's text, by kind; commas and `)` are skipped.
_ARG_RE = re.compile(r'(?P<INTEGER>-?[0-9]+)|(?P<STRING>"[^"\n]*")|(?P<IDENT>[a-z][A-Za-z0-9_]*)')


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
            line += 1
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
        elif not head:
            raise self.error("expected a rule head or `:-`")
        self.expect("DOT")
        return Rule(head=tuple(head), body=body)

    def parse_weak_constraint(self) -> WeakConstraint:
        self.expect("WEAK")
        body = self.parse_body()
        self.expect("DOT")
        self.expect("LBRACKET")
        weight = self.parse_term()
        self.expect("COLON")
        level = self.parse_term()
        self.expect("RBRACKET")
        for term in (weight, level):
            if isinstance(term, Integer) and term.value < 0:
                raise self.error("weak constraint weight and level must be non-negative")
        return WeakConstraint(body=body, weight=weight, level=level)

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
            self.pos += 1
            return Atom(tok.value, tuple([
                Integer(int(i)) if i else Constant(s or w)
                for i, s, w in _ARG_RE.findall(tok.text, len(tok.value) + 1)
            ]))
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
            self.next()
            return Integer(int(tok.value))
        if tok.kind == "STRING":
            self.next()
            return Constant(tok.value)
        if tok.kind == "IDENT":
            self.next()
            return Constant(tok.value)
        raise self.error(f"expected a term, found {tok.value!r}")


def read_program_file(path) -> str:
    """The text of a program file as written; only the tokenizer splits lines."""
    with open(path, newline="") as handle:
        try:
            return handle.read()
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


def parse_witness(text: str, line: str, commas: bool) -> frozenset[Atom]:
    """Ground atoms of one solver witness, read with the program tokenizer.

    clingo separates the atoms by whitespace, DLV by commas (``commas``).
    Anything else, a comment included, raises :class:`MalformedOutput`
    quoting ``line``, the output line the witness came from.
    """
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
            rhs_vars = {t.name for t in _operand_terms(b.rhs) if isinstance(t, Variable)}
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
