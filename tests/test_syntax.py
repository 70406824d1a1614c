import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspkit import syntax
from aspkit.errors import MalformedOutput, ParseError, SafetyError
from aspkit.mapper import record, record_to_fact, schema
from aspkit.refeval import ground_program
from aspkit.syntax import (
    SYMBOL_RE,
    Atom,
    Builtin,
    Constant,
    Integer,
    Literal,
    Program,
    Rule,
    Sum,
    Variable,
    WeakConstraint,
    _expand,
    _tokenize,
    classify_predicates,
    open_statement_end,
    parse_program,
    parse_witness,
    render,
    safety_check,
)


def single_rule(text: str, check_safety: bool = True) -> Rule:
    program = parse_program(text, check_safety=check_safety)
    assert len(program.rules) == 1
    return program.rules[0]


class TestParsing:
    def test_disjunctive_guess_rule(self):
        rule = single_rule("color(X,r) | color(X,y) | color(X,g) :- node(X).")
        assert len(rule.head) == 3
        assert rule.head[0] == Atom("color", (Variable("X"), Constant("r")))
        assert rule.body == (Literal(Atom("node", (Variable("X"),))),)

    def test_constraint(self):
        rule = single_rule(":- arc(X,Y), color(X,C), color(Y,C).")
        assert rule.head == ()
        assert rule.is_constraint
        assert len(rule.body) == 3

    def test_fact(self):
        rule = single_rule("node(1).")
        assert rule.is_fact
        assert rule.head == (Atom("node", (Integer(1),)),)
        assert rule.body == ()

    def test_weak_constraint(self):
        program = parse_program(":~ a(X). [1:2]")
        assert len(program.weak_constraints) == 1
        weak = program.weak_constraints[0]
        assert weak.body == (Literal(Atom("a", (Variable("X"),))),)
        assert weak.weight == Integer(1)
        assert weak.level == Integer(2)

    def test_weak_constraint_negative_weight_is_a_parse_error(self):
        with pytest.raises(ParseError, match="weight and level must be non-negative"):
            parse_program(":~ a. [-1:0]")

    @pytest.mark.parametrize(
        "text, column",
        [(":~ a. [-1:0]", 8), (":~ a. [0: -2]", 11), (":~ a. [-1", 8), ("a.\n:~ a. [-1:0]", 8)],
    )
    def test_negative_weight_or_level_is_reported_at_its_own_term(self, text, column):
        with pytest.raises(ParseError, match="weight and level must be non-negative") as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.column) == (text.count("\n") + 1, column)
        # the parse stops before EOF, so the text does not end inside a statement
        assert open_statement_end(text) is None

    def test_weak_constraint_variable_annotation(self):
        program = parse_program(":~ optimize(A, W, P), activity_to_do(A, _). [W:P]")
        weak = program.weak_constraints[0]
        assert weak.weight == Variable("W")
        assert weak.level == Variable("P")

    def test_statement_order_preserved(self):
        program = parse_program("b. a. c :- a.")
        assert [r.head[0].predicate for r in program.rules] == ["b", "a", "c"]

    def test_diamond_inequality_is_bang_equals(self):
        a = single_rule(":- p(X,Y), X <> Y.")
        b = single_rule(":- p(X,Y), X != Y.")
        assert a == b
        assert a.builtins()[0].op == "!="

    def test_builtin_sum_operands(self):
        rule = single_rule(":- a(Y), X = Y + Y.", check_safety=True)
        builtin = rule.builtins()[0]
        assert builtin.op == "="
        assert builtin.lhs == Variable("X")
        assert builtin.rhs == Sum(Variable("Y"), Variable("Y"))

    def test_sum_on_left_side(self):
        rule = single_rule(":- a(X), a(Y), X + 1 < Y.")
        assert rule.builtins()[0].lhs == Sum(Variable("X"), Integer(1))

    def test_quoted_string_constant_keeps_quotes(self):
        rule = single_rule('how_long("ON_BICYCLE", 10).')
        term = rule.head[0].terms[0]
        assert term == Constant('"ON_BICYCLE"')
        assert term.is_quoted and term.unquoted == "ON_BICYCLE"

    def test_negative_integer(self):
        rule = single_rule("level(-3).")
        assert rule.head[0].terms[0] == Integer(-3)

    def test_comments_and_whitespace(self):
        program = parse_program("% header\n a. % trailing\n\n b. ")
        assert len(program.rules) == 2

    def test_anonymous_variables_are_fresh_per_occurrence(self):
        rule = single_rule("p(X) :- q(X, _), r(X, _).", check_safety=False)
        anon = [
            t.name
            for atom in rule.positive_body_atoms()
            for t in atom.terms
            if isinstance(t, Variable) and t.name != "X"
        ]
        assert len(anon) == 2 and anon[0] != anon[1]

    def test_anonymous_variables_avoid_user_names(self):
        rule = single_rule("p(X) :- q(_1, _), p(X).", check_safety=False)
        names = {t.name for a in rule.positive_body_atoms() for t in a.terms}
        assert "_1" in names  # the user's own variable
        assert len(names) == 3  # X, _1, and a distinct fresh one

    def test_empty_disjunctive_body_rule_is_not_a_fact(self):
        rule = single_rule("a | b.")
        assert not rule.is_fact
        assert len(rule.head) == 2

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(1).\nq(.")
        assert err.value.line == 2
        assert err.value.column >= 3

    def test_unterminated_statement(self):
        with pytest.raises(ParseError):
            parse_program("p(1)")

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            # EOF after a comment on the last line sits where the comment starts
            ("p(a) % c", 1, 6, "expected DOT, found ''"),
            ("p(a). % x\n  q(b) % y", 2, 8, "expected DOT, found ''"),
            ("p(a) % c\n", 2, 1, "expected DOT, found ''"),
            ("p(a)", 1, 5, "expected DOT, found ''"),
            ('p("a\nb").', 1, 3, "newline in string"),
            ('p("ab).', 1, 3, "unterminated string"),
            ("p(a) @.", 1, 6, "unexpected character '@'"),
        ],
    )
    def test_error_positions(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)

    def test_token_kinds_and_positions(self):
        tokens = _tokenize('a :- not b(X,-1), "s t" <> Y.\n:~ c. [1:0] % w')
        assert [(t.kind, t.value, t.line, t.column) for t in tokens] == [
            ("IDENT", "a", 1, 1), ("IMPLIES", ":-", 1, 3), ("NOT", "not", 1, 6),
            ("IDENT", "b", 1, 10), ("LPAREN", "(", 1, 11), ("VARIABLE", "X", 1, 12),
            ("COMMA", ",", 1, 13), ("INTEGER", "-1", 1, 14), ("RPAREN", ")", 1, 16),
            ("COMMA", ",", 1, 17), ("STRING", '"s t"', 1, 19), ("OP", "<>", 1, 25),
            ("VARIABLE", "Y", 1, 28), ("DOT", ".", 1, 29), ("WEAK", ":~", 2, 1),
            ("IDENT", "c", 2, 4), ("DOT", ".", 2, 5), ("LBRACKET", "[", 2, 7),
            ("INTEGER", "1", 2, 8), ("COLON", ":", 2, 9), ("INTEGER", "0", 2, 10),
            ("RBRACKET", "]", 2, 11), ("EOF", "", 2, 13),
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet=st.characters(codec="ascii"), max_size=8),
            st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}\n?", fullmatch=True),
        )
    )
    @example("not")
    @example("nothing")
    @example("not_")
    @example("abc\n")
    @example("1")
    @example('"a"')
    def test_symbol_re_matches_exactly_one_identifier_token(self, word):
        try:
            tokens = [(t.kind, t.value) for t in _tokenize(word)]
        except ParseError:
            tokens = None
        symbol = bool(SYMBOL_RE.match(word))
        assert symbol == (tokens == [("IDENT", word), ("EOF", "")])
        # The witness scan reads the same words as one bare atom.
        for commas in (False, True):
            try:
                atoms = parse_witness(word, word, commas)
            except MalformedOutput:
                atoms = None
            assert symbol == (atoms == frozenset({Atom(word)}))
        # As an argument, the same words make `p(word)` one ATOM token;
        # integers and strings do too, but they do not start lowercase.
        try:
            arg_tokens = [(t.kind, t.text) for t in _tokenize(f"p({word})")]
        except ParseError:
            arg_tokens = None
        whole_atom = arg_tokens == [("ATOM", f"p({word})"), ("EOF", "")]
        assert symbol == (whole_atom and word[:1].islower())

    def test_not_requires_atom(self):
        with pytest.raises(ParseError):
            parse_program(":- not X < 1.")


class TestSafety:
    def test_positive_definition_is_safe(self):
        assert safety_check(single_rule("p(X) :- q(X).")) == []

    def test_negative_literal_does_not_bind(self):
        rule = single_rule("p(X) :- not q(X).", check_safety=False)
        assert safety_check(rule) == ["X"]

    def test_assignment_closure(self):
        assert safety_check(single_rule(":- a(Y), X = Y + Y.")) == []

    def test_chained_assignment_closure(self):
        rule = single_rule(":- a(Y), X = Y + Y, Z = X + 1, p(Z).", check_safety=False)
        assert safety_check(rule) == []

    def test_unsafe_assignment_rhs(self):
        rule = single_rule(":- a(Y), X = W + Y.", check_safety=False)
        assert safety_check(rule) == ["X", "W"]

    def test_builtin_variables_need_binding(self):
        rule = single_rule(":- p(X), X < Y.", check_safety=False)
        assert safety_check(rule) == ["Y"]

    def test_variable_in_fact_is_a_safety_error(self):
        with pytest.raises(SafetyError) as err:
            parse_program("p(X).")
        assert err.value.variables == ["X"]
        assert err.value.statement_index == 0

    def test_safety_error_reports_statement_index(self):
        with pytest.raises(SafetyError) as err:
            parse_program("a.\nb.\np(X) :- not q(X).")
        assert err.value.statement_index == 2

    @pytest.mark.parametrize(
        "text",
        [
            "a. :~ a. [1:1]\np(X) :- not q(X).",
            "a. b :- a.\n:~ p(X), not q(Y). [1:1]",
            ":~ a. [1:1]\nb.\n:~ not q(Y). [1:0]\np(X) :- q(X).",
        ],
    )
    def test_safety_error_index_counts_weak_constraints_in_source_order(self, text):
        with pytest.raises(SafetyError) as err:
            parse_program(text)
        assert err.value.statement_index == 2

    def test_weak_constraint_weight_must_be_bound(self):
        with pytest.raises(SafetyError):
            parse_program(":~ a(X). [W:1]")

    def test_parse_with_deferred_validation(self):
        program = parse_program("p(X) :- not q(X).", check_safety=False)
        assert len(program.rules) == 1

    def test_monotone_under_added_positive_literals(self):
        # adding a positive body literal never makes a safe rule unsafe
        base = "p(X,Y) :- q(X), r(Y)"
        extras = ["s(X)", "s(Y)", "t(Z)", "u(X,Y)", 'v("k")']
        assert safety_check(single_rule(base + ".")) == []
        for extra in extras:
            rule = single_rule(f"{base}, {extra}.", check_safety=False)
            assert safety_check(rule) == []


class TestClassification:
    def test_three_coloring_partition(self):
        program = parse_program(
            "color(X,r) | color(X,y) | color(X,g) :- node(X)."
            ":- arc(X,Y), color(X,C), color(Y,C)."
            "node(1). node(2). arc(1,2)."
        )
        partition = classify_predicates(program)
        assert partition.edb == {("node", 1), ("arc", 2)}
        assert partition.idb == {("color", 2)}

    def test_head_of_non_fact_rule_is_idb(self):
        partition = classify_predicates(parse_program("a. a :- b."))
        assert ("a", 0) in partition.idb
        assert ("b", 0) in partition.edb

    def test_weak_constraint_bodies_are_read(self):
        partition = classify_predicates(parse_program("a. :~ a, not b. [1:0]"))
        assert partition.edb == {("a", 0), ("b", 0)}
        assert partition.idb == frozenset()

    def test_empty_program(self):
        partition = classify_predicates(parse_program(""))
        assert partition.edb == frozenset() and partition.idb == frozenset()

    def test_fact_set_retrievable(self):
        program = parse_program("node(1). node(2). p(X) :- node(X).")
        assert set(program.facts()) == {Atom("node", (Integer(1),)), Atom("node", (Integer(2),))}


class TestRendering:
    def test_canonicalizes_spacing(self):
        program = parse_program("p(X):-q(X,  1).")
        assert render(program) == "p(X) :- q(X,1)."

    def test_idempotent_on_canonical_text(self):
        text = render(parse_program("a | b :- c, not d, 1 < 2."))
        assert render(parse_program(text)) == text

    def test_constraint_has_no_head_text(self):
        assert render(parse_program(":-  a,b.")) == ":- a, b."

    def test_weak_constraint_render(self):
        assert render(parse_program(":~ a(X). [1:2]")) == ":~ a(X). [1:2]"

    def test_disjunction_render(self):
        text = "color(X,r) | color(X,y) | color(X,g) :- node(X)."
        assert render(parse_program(text, check_safety=False)) == text

    def test_integer_round_trip(self):
        for value in (-12, -1, 0, 7, 100200):
            assert render(parse_program(f"p({value}).")) == f"p({value})."

    def test_str_of_a_statement_and_a_program_is_their_render(self):
        text = "p(X) :- q(X), not r(X).\n:~ q(X). [X:1]"
        program = parse_program(text)
        [rule], [weak] = program.rules, program.weak_constraints
        assert (str(rule), str(weak), str(program)) == (
            "p(X) :- q(X), not r(X).", ":~ q(X). [X:1]", text
        )

    def test_render_of_terms_and_of_other_objects(self):
        terms = (Variable("X"), Constant('"a b"'), Integer(-3), Sum(Variable("X"), Integer(1)))
        assert [render(t) for t in terms] == ["X", '"a b"', "-3", "X + 1"]
        with pytest.raises(TypeError, match="cannot render dict"):
            render({})


# --- structural round trip over randomized programs ---

_variables = st.sampled_from(["X", "Y", "Z", "V1", "Long_Name"]).map(Variable)
_symbols = st.sampled_from(["a", "b", "c", "f1", "some_const"]).map(Constant)
_strings = st.sampled_from(['"RUNNING"', '"a b"', '""', '"x_1"']).map(Constant)
_integers = st.integers(min_value=-50, max_value=50).map(Integer)
_terms = st.one_of(_variables, _symbols, _strings, _integers)
_predicates = st.sampled_from(["p", "q", "r", "edge", "cell"])

_atoms = st.builds(
    Atom,
    predicate=_predicates,
    terms=st.tuples() | st.tuples(_terms) | st.tuples(_terms, _terms) | st.tuples(_terms, _terms, _terms),
)
_literals = st.builds(Literal, atom=_atoms, negated=st.booleans())
_operands = st.one_of(_terms, st.builds(Sum, lhs=_terms, rhs=_terms))
_builtins = st.builds(
    Builtin,
    op=st.sampled_from(["=", "!=", "<", ">", "<=", ">="]),
    lhs=_operands,
    rhs=_operands,
)
_bodies = st.lists(st.one_of(_literals, _builtins), max_size=4).map(tuple)
_rules = st.builds(
    Rule, head=st.lists(_atoms, max_size=3).map(tuple), body=_bodies
).filter(lambda r: r.head or r.body)
# weights and levels are non-negative when ground, so negative literals
# never appear in weak-constraint annotations
_annotation_terms = st.one_of(
    _variables, _symbols, st.integers(min_value=0, max_value=50).map(Integer)
)
_weaks = st.builds(
    WeakConstraint,
    body=st.lists(st.one_of(_literals, _builtins), min_size=1, max_size=3).map(tuple),
    weight=_annotation_terms,
    level=_annotation_terms,
)
_programs = st.builds(
    Program,
    rules=st.lists(_rules, max_size=6).map(tuple),
    weak_constraints=st.lists(_weaks, max_size=2).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(_programs)
def test_parse_render_round_trip(program):
    assert parse_program(render(program), check_safety=False) == program


# --- fuzz: arbitrary text parses or raises ParseError, nothing else ---

_fuzz_pieces = st.sampled_from(
    [
        "not", "not ", ":-", ":~", "|", ".", ",", "(", ")", "[", "]", ":", "=", "!=", "<>",
        "<", ">", "<=", ">=", "+", "-", '"', "%", " ", "\n", "\t", "p", "node", "a", "X",
        "_", "_y", "0", "7", "-3", '"a,b"', "²", "é",
    ]
)
_fuzz_text = st.one_of(
    st.lists(_fuzz_pieces, max_size=30).map("".join),
    st.text(alphabet="abpXY_019 -.,:|()[]=<>!+~%\"\n²", max_size=40),
)


@settings(max_examples=1000, deadline=None)
@given(_fuzz_text)
def test_arbitrary_text_parses_or_raises_parse_error(text):
    try:
        parse_program(text, check_safety=False)
    except ParseError:
        return
    try:
        parse_program(text)
    except SafetyError:
        pass


def test_only_ascii_digits_make_integers():
    for text in ("p(²).", "p(١).", "p(-١)."):
        with pytest.raises(ParseError):
            parse_program(text)


# --- whole-atom tokens: same results and errors as the per-character tokens ---


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("p(f(a)).", 1, 4, "expected RPAREN, found '('"),
        (":- q(X), X = f(a).", 1, 15, "expected DOT, found '('"),
        (":~ p(a). [w(1):1]", 1, 12, "expected COLON, found '('"),
        ("p(a) q(b).", 1, 6, "expected DOT, found 'q'"),
        ("not(a).", 1, 1, "expected IDENT, found 'not'"),
        ("p(not).", 1, 3, "expected a term, found 'not'"),
    ],
)
def test_ground_atom_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


def test_witness_atoms_need_whitespace_between_them():
    with pytest.raises(MalformedOutput) as err:
        parse_witness("p(a)q(b)", "p(a)q(b)", commas=False)
    assert str(err.value).endswith("(1:5: expected whitespace between atoms)")


def test_whole_atom_token_and_its_expansion():
    tokens = _tokenize('p(a,-1,"x,y").')
    assert [(t.kind, t.value, t.line, t.column, t.text) for t in tokens] == [
        ("ATOM", "p", 1, 1, 'p(a,-1,"x,y")'), ("DOT", ".", 1, 14, "."), ("EOF", "", 1, 15, ""),
    ]
    assert [(t.kind, t.value, t.line, t.column) for t in _expand(tokens[0])] == [
        ("IDENT", "p", 1, 1), ("LPAREN", "(", 1, 2), ("IDENT", "a", 1, 3),
        ("COMMA", ",", 1, 4), ("INTEGER", "-1", 1, 5), ("COMMA", ",", 1, 7),
        ("STRING", '"x,y"', 1, 8), ("RPAREN", ")", 1, 13),
    ]


def _fine_tokenize(text, comments=True):
    """The tokens of ``text`` with every ATOM token replaced by its expansion.

    ``_tokenize`` is this module's own name for it, which the patch in the
    test below leaves alone.
    """
    fine = []
    for tok in _tokenize(text, comments):
        fine.extend(_expand(tok) if tok.kind == "ATOM" else [tok])
    return fine


def _outcome(read):
    try:
        return ("ok", read())
    except (ParseError, SafetyError, MalformedOutput) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


def _readings(text):
    def safety():
        program = parse_program(text, check_safety=False)
        return [safety_check(s) for s in program.rules + program.weak_constraints]

    return [
        _outcome(lambda: parse_program(text)),
        _outcome(safety),
        _outcome(lambda: parse_witness(text, text, commas=False)),
        _outcome(lambda: parse_witness(text, text, commas=True)),
    ]


_ground_args = st.sampled_from(
    ['"a,b"', '"x)y"', '"50%"', '"r\rs"', '""', "-1", "0", "007", "-007", "12",
     "a", "s1x4", "nothing", "nota"]
)
_args = st.one_of(
    _ground_args,
    st.sampled_from(["not", "X", "_", "Y1", "f(a)", " a", "a ", "-", "A"]),
)
_names = st.sampled_from(["p", "reading", "nothing", "not", "q1"])
_mixed_atoms = st.builds(
    lambda name, args, sep: f"{name}({sep.join(args)})",
    _names,
    st.lists(_args, min_size=1, max_size=4),
    st.sampled_from([",", ", ", " ,"]),
)
# Ground atoms with no spaces, which the tokenizer reads whole, and atoms
# with variables, `not`, function terms or spaces, which it does not.
_any_atoms = st.one_of(
    st.builds(
        lambda name, args: f"{name}({','.join(args)})",
        _names,
        st.lists(_ground_args, min_size=1, max_size=4),
    ),
    _names,
    _mixed_atoms,
)
_pieces = st.one_of(
    _any_atoms,
    st.sampled_from(
        [".", ". ", " ", ":-", " :- ", ", ", ",", "|", " | ", "not ", "\n", "\r\n", "\r",
         "% c\n", ":~ ", ". [1:0]", " [w(1):1]", " = ", "X", " + ", "<", "(", ")", "f(a)"]
    ),
)
_rule_texts = st.lists(_pieces, max_size=14).map("".join)
_fact_texts = st.lists(
    st.tuples(_any_atoms, st.sampled_from([".\n", ".\r\n", ".\r", ". ", "", " ", ", "])).map("".join),
    max_size=6,
).map("".join)

_body_elements = st.one_of(
    _any_atoms,
    _any_atoms.map("not {}".format),
    st.builds(
        "{} {} {}".format,
        st.one_of(_any_atoms, _args),
        st.sampled_from(["=", "<", "+", "!="]),
        st.one_of(_any_atoms, _args),
    ),
)
_statement_texts = st.lists(
    st.builds(
        lambda start, body, end: start + ", ".join(body) + end,
        st.one_of(st.sampled_from([":- ", ":~ "]), _any_atoms.map("{} :- ".format)),
        st.lists(_body_elements, min_size=1, max_size=3),
        st.sampled_from([".\n", ".\r\n", ".\r", ". [1:0]\n", ". [w(1):1]", "", ". % c\n"]),
    ),
    max_size=4,
).map("".join)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_rule_texts, _fact_texts, _statement_texts))
@example('reading(12,s1x4,56).\r\nq("%,)\r",-007,nothing).\rp(a)q(b).')
@example('p(a) q(not) not(a). X = f(a)')
def test_whole_atom_tokens_read_like_their_expansion(text):
    whole = _readings(text)
    with mock.patch.object(syntax, "_tokenize", _fine_tokenize):
        fine = _readings(text)
    assert whole == fine


# --- the witness scan: the tokenizer loop is its reference ---

_WITNESS_ATOMS = [
    "p", "q1", "nota", "not_x", "p(a)", "p(a,1)", "p(-7,007)", 'p("a b")', 'q("x,y",2)',
    'r("a, b",c)', 'p("\r")', 'p("a\rb")', 'p("50%")', 'p("é")', 'p("\x0b")', "p(a1b)",
    "not", "not(a)", "p(not)", "p(nota)", "X", "p(X)", "_", "p(_)", "p(a,Y)", "f(g(a))",
    "p()", "p( a)", "p(a )", "p (a)", "-p", "1", '"s"', "p(a)(b)", "é", "pé", "%", "% c",
    "\x0b", "p(" + "9" * 4400 + ")",
]
_WITNESS_SEPARATORS = [
    " ", " ", "  ", "\t", "\r", "\r\n", "\n", ",", ",", ", ", " ,", " , ", ",,", ", ,", "",
    "\x0b", "%", ";",
]


def _random_witness(rng):
    text = rng.choice(["", "", " ", "\t", ",", "\r\n"])
    for index in range(rng.randrange(5)):
        if index:
            text += rng.choice(_WITNESS_SEPARATORS)
        text += rng.choice(_WITNESS_ATOMS)
    return text + rng.choice(["", "", " ", ",", "\r", "\r\n", " %"])


@pytest.mark.parametrize("commas", [False, True])
def test_witness_scan_reads_like_the_tokenizer_loop(commas):
    rng = random.Random(14 + commas)
    read = failed = 0
    for _ in range(20_000):
        text = _random_witness(rng)
        scanned = _outcome(lambda: parse_witness(text, text, commas))
        expected = _outcome(lambda: syntax._parse_witness_tokens(text, text, commas))
        assert scanned == expected, text
        read += scanned[0] == "ok"
        failed += scanned[0] != "ok"
    assert read > 2_000 and failed > 2_000


# One value as an integer, a symbol and a quoted string, and a symbol as an atom.
_SHARED_TEXT_ATOMS = [
    "a", "p(1)", "p(01)", "p(-1)", "p(-0)", "p(0)", "p(a)", 'p("1")', 'p("a")', 'p("-1")',
    'q(a,1,"a")', 'q("1",a,-1)', 'q(1,"a",a)', 'p("a,1")', 'p("1)")', "p(a1)", "a1",
]


@pytest.mark.parametrize("commas", [False, True])
def test_terms_shared_across_witnesses_read_like_the_tokenizer_loop(commas):
    rng = random.Random(31 + commas)
    tables = ({}, {})  # shared, as the output parsers share them over one output
    pool = _SHARED_TEXT_ATOMS + _WITNESS_ATOMS[:12]
    for _ in range(3_000):
        text = rng.choice(["", " "])
        for index in range(rng.randrange(1, 6)):
            text += (", " if commas else " ") * bool(index) + rng.choice(pool)
        scanned = _outcome(lambda: parse_witness(text, text, commas, tables))
        expected = _outcome(lambda: syntax._parse_witness_tokens(text, text, commas))
        assert scanned == expected, text
        if scanned[0] == "ok":
            kinds = {str(a): [type(t) for t in a.terms] for a in scanned[1]}
            assert kinds == {str(a): [type(t) for t in a.terms] for a in expected[1]}
    assert len(tables[1]) > 10


def test_an_atom_holding_a_variable_anywhere_is_not_ground():
    terms = [Constant("a"), Integer(1), Constant('"x y"')]
    assert Atom("p").is_ground and Atom("p", tuple(terms)).is_ground
    for position in range(len(terms) + 1):
        held = (*terms[:position], Variable("X"), *terms[position:])
        atom = Atom("p", held)
        assert not atom.is_ground
        assert not Rule((atom,)).is_fact
        assert str(atom) == "p(" + ",".join(map(str, held)) + ")"


def test_witness_scan_peak_memory_stays_near_its_result():
    line = " ".join(f'reading({i},s{i % 40}x4,"v{i}",{i * 7})' for i in range(2_500))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        atoms = parse_witness(line, line, commas=False)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(atoms) == 2_500
    assert peak <= 2 * retained, (peak, retained)


def test_long_integers_are_parse_errors_at_their_position():
    digits = "1" * 5_000
    for text, column in ((f"p({digits}).", 3), (f"p(a, -{digits}).", 6), (f":~ p. [{digits}:0]", 8)):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column) == (1, column)
        assert err.value.message == "integer too long (5000 digits)"
    with pytest.raises(MalformedOutput) as err:
        parse_witness(f"q p({digits})", "line", commas=False)
    assert str(err.value).endswith("(1:5: integer too long (5000 digits))")


# --- atoms and constants are tuples ---


def test_terms_of_different_kinds_are_never_equal():
    assert Variable("a") != Constant("a") and Constant("a") != Variable("a")
    assert Integer(1) != Constant("1")
    assert len({Variable("a"), Constant("a"), Integer(1), Constant("1")}) == 4


def test_every_reader_builds_the_same_atom():
    p = schema("p", sym=(1, "symbol"), num=(2, "integer"), text=(3, "quoted_string"))
    built = [
        parse_program('p(a,1,"x").').rules[0].head[0],
        next(iter(parse_witness('p(a,1,"x")', "line", commas=False))),
        next(iter(parse_witness('p(a, 1, "x")', "line", commas=True))),
        record_to_fact(p, record(p, sym="a", num=1, text="x")),
        next(iter(ground_program(parse_program('p(a,1,"x").')).rules[0].head)),
    ]
    expected = Atom("p", (Constant("a"), Integer(1), Constant('"x"')))
    for atom in built:
        assert atom == expected and hash(atom) == hash(expected)
        assert [type(t) for t in atom.terms] == [Constant, Integer, Constant]


def test_atom_repr_and_text():
    atom = Atom("p", (Constant("a"), Integer(1)))
    assert repr(atom) == "Atom(predicate='p', terms=(Constant(name='a'), Integer(value=1)))"
    assert (str(atom), str(Atom("q")), atom.arity, atom.signature) == ("p(a,1)", "q", 2, ("p", 2))
