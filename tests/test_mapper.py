import logging
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_utf8
from corpus import SEPARATORS

from aspkit.errors import (
    DuplicateSchema,
    FieldKindMismatch,
    FileReadError,
    InvalidSchema,
    TermKindMismatch,
)
from aspkit.mapper import (
    KINDS,
    MappedRecord,
    PredicateSchema,
    SchemaField,
    SchemaRegistry,
    Skipped,
    answer_set_to_records,
    fact_to_record,
    load_schema_manifest,
    parse_schema_manifest,
    record,
    record_to_fact,
    records_to_facts,
    schema,
)
from aspkit.refeval import answer_sets
from aspkit.syntax import Atom, Constant, Integer, parse_program

CELL = schema("cell", row=(1, "integer"), column=(2, "integer"), value=(3, "integer"))
ACTIVITY = schema("activity_to_do", name=(1, "quoted_string"), duration=(2, "integer"))


class TestRegistration:
    def test_register_cell_schema(self):
        registry = SchemaRegistry()
        registry.register(CELL)
        assert registry.lookup(("cell", 3)) is CELL

    def test_positions_must_be_a_permutation(self):
        bad = PredicateSchema(
            "cell",
            (
                SchemaField("row", 1, "integer"),
                SchemaField("column", 1, "integer"),
                SchemaField("value", 3, "integer"),
            ),
        )
        with pytest.raises(InvalidSchema):
            SchemaRegistry().register(bad)

    def test_duplicate_field_ids_rejected(self):
        bad = PredicateSchema(
            "edge", (SchemaField("node", 1, "integer"), SchemaField("node", 2, "integer"))
        )
        with pytest.raises(InvalidSchema, match="duplicate field ids in 'edge'"):
            SchemaRegistry().register(bad)

    def test_duplicate_registration_rejected(self):
        registry = SchemaRegistry([CELL])
        with pytest.raises(DuplicateSchema):
            registry.register(CELL)

    def test_same_name_different_arity_coexist(self):
        two = schema("cell", row=(1, "integer"), column=(2, "integer"))
        registry = SchemaRegistry([CELL, two])
        assert registry.lookup(("cell", 2)) is two

    def test_empty_predicate_name_rejected(self):
        with pytest.raises(InvalidSchema):
            SchemaRegistry().register(PredicateSchema("", ()))

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(InvalidSchema):
            SchemaRegistry().register(
                PredicateSchema("Cell", (SchemaField("row", 1, "integer"),))
            )

    @pytest.mark.parametrize("name", ["not", "cell\n"])
    def test_predicate_must_read_as_one_identifier(self, name):
        with pytest.raises(InvalidSchema):
            schema(name, row=(1, "integer"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidSchema):
            SchemaRegistry().register(
                PredicateSchema("cell", (SchemaField("row", 1, "float"),))
            )


class TestRecordToFact:
    def test_cell_placement(self):
        fact = record_to_fact(CELL, record(CELL, row=1, column=2, value=5))
        assert fact == Atom("cell", (Integer(1), Integer(2), Integer(5)))

    def test_quoted_string_rendering(self):
        fact = record_to_fact(ACTIVITY, record(ACTIVITY, name="RUNNING", duration=20))
        assert str(fact) == 'activity_to_do("RUNNING",20)'
        assert fact.terms[0] == Constant('"RUNNING"')

    def test_positions_not_field_order(self):
        swapped = schema("edge", target=(2, "integer"), source=(1, "integer"))
        fact = record_to_fact(swapped, record(swapped, target=9, source=3))
        assert str(fact) == "edge(3,9)"

    def test_kind_mismatch(self):
        with pytest.raises(FieldKindMismatch):
            record_to_fact(CELL, record(CELL, row="one", column=2, value=5))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(FieldKindMismatch):
            record_to_fact(CELL, record(CELL, row=True, column=2, value=5))

    def test_symbol_kind_requires_identifier(self):
        colored = schema("color", node=(1, "integer"), color=(2, "symbol"))
        with pytest.raises(FieldKindMismatch):
            record_to_fact(colored, record(colored, node=1, color="Not An Ident"))

    @pytest.mark.parametrize("value", ["not", "abc\n"])
    def test_symbol_must_read_as_one_identifier(self, value):
        colored = schema("color", node=(1, "integer"), color=(2, "symbol"))
        with pytest.raises(FieldKindMismatch):
            record_to_fact(colored, record(colored, node=1, color=value))

    def test_quoted_string_rejects_a_quote_mark(self):
        with pytest.raises(FieldKindMismatch, match="expected a plain string"):
            record_to_fact(ACTIVITY, record(ACTIVITY, name='say "hi"', duration=20))

    def test_missing_field(self):
        with pytest.raises(FieldKindMismatch):
            record_to_fact(CELL, record(CELL, row=1, column=2))

    def test_integer_too_long_to_write(self):
        with pytest.raises(FieldKindMismatch, match="cell.value: integer too long to write"):
            record_to_fact(CELL, record(CELL, row=1, column=2, value=-(10**5000)))


class TestFactToRecord:
    def test_cell_round_trip(self):
        registry = SchemaRegistry([CELL])
        fact = Atom("cell", (Integer(1), Integer(2), Integer(5)))
        got = fact_to_record(registry, fact)
        assert got == record(CELL, row=1, column=2, value=5)

    def test_unregistered_predicate_is_skipped_with_warning(self, caplog):
        registry = SchemaRegistry([CELL])
        fact = Atom("nocell", (Integer(1), Integer(2), Integer(5)))
        before = registry.warning_count
        with caplog.at_level(logging.WARNING, logger="aspkit.mapper"):
            outcome = fact_to_record(registry, fact)
        assert isinstance(outcome, Skipped)
        assert outcome.atom == fact  # the raw atom stays available
        assert registry.warning_count == before + 1
        assert any("nocell/3" in r.message for r in caplog.records)

    def test_each_signature_is_logged_once_and_every_skip_is_counted(self, caplog):
        registry = SchemaRegistry([CELL])
        atoms = [Atom("nocell", (Integer(i), Integer(2), Integer(5))) for i in range(3)]
        atoms.append(Atom("pos", (Integer(1),)))
        with caplog.at_level(logging.WARNING, logger="aspkit.mapper"):
            outcomes = [fact_to_record(registry, atom) for atom in atoms]
        assert registry.warning_count == 4
        assert [o.message for o in outcomes] == [
            f"no schema registered for {a.predicate}/{a.arity}; atom {a} ignored" for a in atoms
        ]
        assert [r.message for r in caplog.records] == [outcomes[0].message, outcomes[3].message]

    def test_kind_mismatch_on_symbol_term(self):
        registry = SchemaRegistry([CELL])
        with pytest.raises(TermKindMismatch):
            fact_to_record(registry, Atom("cell", (Constant("a"), Integer(2), Integer(5))))

    def test_quoted_value_stored_unquoted(self):
        registry = SchemaRegistry([ACTIVITY])
        got = fact_to_record(registry, Atom("activity_to_do", (Constant('"RUNNING"'), Integer(20))))
        assert got.values == {"name": "RUNNING", "duration": 20}

    def test_symbol_field_reads_the_constant(self):
        colored = schema("color", node=(1, "integer"), color=(2, "symbol"))
        got = fact_to_record(SchemaRegistry([colored]), Atom("color", (Integer(1), Constant("red"))))
        assert got.values == {"node": 1, "color": "red"}

    def test_quoted_string_field_rejects_symbol_term(self):
        registry = SchemaRegistry([ACTIVITY])
        with pytest.raises(TermKindMismatch, match="expected a quoted string"):
            fact_to_record(registry, Atom("activity_to_do", (Constant("running"), Integer(20))))

    def test_symbol_field_rejects_quoted_term(self):
        colored = schema("color", c=(1, "symbol"))
        registry = SchemaRegistry([colored])
        with pytest.raises(TermKindMismatch):
            fact_to_record(registry, Atom("color", (Constant('"r"'),)))


class TestAnswerSetToRecords:
    def test_mixed_interpretation(self):
        registry = SchemaRegistry([CELL])
        atoms = {
            Atom("cell", (Integer(0), Integer(0), Integer(1))),
            Atom("assigned", (Integer(0), Integer(0))),
        }
        records, skipped = answer_set_to_records(registry, atoms)
        assert len(records) == 1 and skipped == 1

    def test_empty_interpretation(self):
        records, skipped = answer_set_to_records(SchemaRegistry([CELL]), frozenset())
        assert records == [] and skipped == 0

    def test_toy_sudoku_answer_set_yields_four_cells(self):
        program = parse_program(
            "cell(X,Y,N) | nocell(X,Y,N) :- pos(X), pos(Y), symbol(N)."
            ":- cell(X,Y,N), cell(X,Y,N1), N1 <> N."
            "assigned(X,Y) :- cell(X,Y,N)."
            ":- pos(X), pos(Y), not assigned(X,Y)."
            ":- cell(X,Y1,Z), cell(X,Y2,Z), Y1 <> Y2."
            ":- cell(X1,Y,Z), cell(X2,Y,Z), X1 <> X2."
            "pos(0). pos(1). symbol(1). symbol(2)."
        )
        first = answer_sets(program)[0]
        registry = SchemaRegistry([CELL])
        records, skipped = answer_set_to_records(registry, first.atoms)
        cell_count = sum(1 for a in first.atoms if a.predicate == "cell")
        assert len(records) == cell_count == 4
        assert skipped == len(first.atoms) - 4

    def test_records_follow_canonical_atom_order(self):
        registry = SchemaRegistry([CELL])
        atoms = {
            Atom("cell", (Integer(1), Integer(0), Integer(2))),
            Atom("cell", (Integer(0), Integer(1), Integer(1))),
        }
        records, _ = answer_set_to_records(registry, atoms)
        assert [r.values["row"] for r in records] == [0, 1]


    @pytest.mark.parametrize("texts", [
        ["a", "ab", "a_", "aB"],
        ["p(1)", "p(1,2)", "p(12)", "p(1,12)", "p(2)", "p"],
        ["p(-1)", "p(-12)", "p(-2)", "p(0)", "p(1)"],
        ['n("a b")', 'n("a,b")', 'n("a)")', 'n("a")', 'n("a",1)', 'n("")', 'n_(a)'],
    ])
    def test_records_come_in_the_order_of_the_atom_text(self, texts):
        # Every atom maps to a record whose one value is the atom's text, so
        # the records show the order in which the atoms were visited.
        schemas = {}
        atoms = []
        for text in texts:
            [atom] = parse_program(f"{text}.").facts()
            atoms.append(atom)
            schemas[atom.signature] = PredicateSchema(atom.predicate, tuple(
                SchemaField(f"f{i}", i, "integer" if isinstance(t, Integer) else
                            "quoted_string" if t.is_quoted else "symbol")
                for i, t in enumerate(atom.terms, start=1)
            ))
        registry = SchemaRegistry(list(schemas.values()))
        for order in (atoms, atoms[::-1], sorted(atoms)):
            records, skipped = answer_set_to_records(registry, frozenset(order))
            assert skipped == 0
            rendered = [str(record_to_fact(r.schema, r)) for r in records]
            assert rendered == [str(a) for a in sorted(set(atoms), key=str)]


class TestRecordsToFacts:
    """A part mapped in one pass equals record_to_fact record by record."""

    class Name(str):
        pass

    class Count(int):
        pass

    SCHEMAS = (
        schema("reading", id=(1, "integer"), sensor=(2, "symbol"), value=(3, "integer")),
        schema("sensor", zone=(2, "quoted_string"), name=(1, "symbol")),
        schema("tag", label=(2, "symbol"), note=(1, "quoted_string"), rank=(3, "integer")),
    )

    def values(self, rng: random.Random, kind: str, bad: bool):
        """A value of the kind, or with ``bad`` one that may fail its check."""
        good = {
            "integer": [0, 7, -3, 10**30, self.Count(5), 7],
            "symbol": ["s1", "zone_b", self.Name("s1"), "s1", "aB9"],
            "quoted_string": ["Hall", "a b", "x,y)", "", self.Name("Hall"), "Hall"],
        }[kind]
        wrong = {
            "integer": [True, False, "7", 7.0, None, 10 ** (sys.get_int_max_str_digits() + 1)],
            "symbol": ["not", "S1", "1a", "a b", "", 3, self.Name("Not"), True],
            "quoted_string": ['say "hi"', "two\nlines", 3, None, True],
        }[kind]
        return rng.choice(wrong if bad else good)

    def part(self, rng: random.Random, bad_rate: float) -> list[MappedRecord]:
        records = []
        for _ in range(rng.randrange(1, 30)):
            s = rng.choice(self.SCHEMAS)
            values = {f.field_id: self.values(rng, f.value_kind, rng.random() < bad_rate)
                      for f in s.fields}
            if rng.random() < bad_rate / 4:
                del values[rng.choice(s.fields).field_id]
            records.append(MappedRecord(s, values))
        return records

    @staticmethod
    def outcome(mapping):
        try:
            return mapping()
        except Exception as exc:
            return (type(exc), str(exc))

    def test_a_part_maps_as_its_records_do(self):
        mapped = failed = 0
        for seed in range(400):
            rng = random.Random(seed)
            part = self.part(rng, bad_rate=rng.choice([0.0, 0.02, 0.1, 0.3]))
            one_by_one = self.outcome(lambda: tuple(record_to_fact(r.schema, r) for r in part))
            in_one_pass = self.outcome(lambda: records_to_facts(part))
            assert in_one_pass == one_by_one, seed
            if isinstance(one_by_one[0], Atom):
                assert [str(a) for a in in_one_pass] == [str(a) for a in one_by_one], seed
                mapped += 1
            else:
                failed += 1
        assert mapped > 100 and failed > 100

    def test_the_first_field_declared_is_the_first_reported(self):
        # `note` is declared before `label`, but `label` holds the first term.
        tag = self.SCHEMAS[2]
        assert [f.field_id for f in tag.fields] == ["label", "note", "rank"]
        bad = MappedRecord(tag, {"label": "Bad", "note": 'a "quote"', "rank": 1})
        message = "tag.label: expected a symbolic constant, got 'Bad'"
        for mapping in (lambda: record_to_fact(tag, bad), lambda: records_to_facts([bad])):
            with pytest.raises(FieldKindMismatch, match=re.escape(message)):
                mapping()

    def test_a_value_checked_for_one_kind_is_checked_again_for_another(self):
        both = schema("both", a=(1, "symbol"), b=(2, "quoted_string"), c=(3, "integer"))
        facts = records_to_facts([record(both, a="x", b="x", c=1), record(both, a="y", b="y", c=1)])
        assert [str(f) for f in facts] == ['both(x,"x",1)', 'both(y,"y",1)']
        with pytest.raises(FieldKindMismatch, match=re.escape("both.c: expected an integer, got True")):
            records_to_facts([record(both, a="x", b="x", c=1), record(both, a="x", b="x", c=True)])
        with pytest.raises(FieldKindMismatch, match="both.a: expected a symbolic constant"):
            records_to_facts([record(both, a="x", b="x y", c=1), record(both, a="x y", b="x", c=1)])


class TestManifest:
    def test_load_and_use(self):
        registry = parse_schema_manifest(
            "% board cells\n"
            "cell/3 row:1:integer column:2:integer value:3:integer\n"
            "activity_to_do/2 name:1:quoted_string duration:2:integer\n"
        )
        assert registry.lookup(("cell", 3)) is not None
        got = fact_to_record(registry, Atom("cell", (Integer(1), Integer(2), Integer(3))))
        assert got.values == {"row": 1, "column": 2, "value": 3}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InvalidSchema):
            parse_schema_manifest("cell/3 row:1:integer\n")

    def test_bad_field_spec_rejected(self):
        specs = ("row=1=integer", "row:\u00b2:integer", "row:\u0661:integer")
        for line in (f"cell/1 {spec}\n" for spec in specs):
            with pytest.raises(InvalidSchema):
                parse_schema_manifest(line)

    @pytest.mark.parametrize("line", ["cell/1 row:" + "1" * 5000 + ":integer", "cell/" + "1" * 5000])
    def test_number_too_long_to_read(self, line):
        with pytest.raises(InvalidSchema, match="number too long in schema 'cell'"):
            parse_schema_manifest(line)

    @pytest.mark.parametrize("arity", ["\u00b2", "\u0661"])
    def test_arity_is_ascii_digits(self, arity):
        with pytest.raises(InvalidSchema):
            parse_schema_manifest(f"cell/{arity} row:1:integer")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cells.schema"
        path.write_text("cell/3 row:1:integer column:2:integer value:3:integer\r\n")
        assert load_schema_manifest(path).lookup(("cell", 3)) is not None

    def test_load_from_a_str_path(self, tmp_path):
        path = tmp_path / "cells.schema"
        path.write_text("cell/3 row:1:integer column:2:integer value:3:integer\n")
        assert load_schema_manifest(str(path)).lookup(("cell", 3)) is not None

    def test_missing_file_is_a_file_read_error(self, tmp_path):
        path = tmp_path / "absent.schema"
        with pytest.raises(FileReadError, match="No such file or directory"):
            load_schema_manifest(path)

    @needs_utf8
    def test_undecodable_file_is_a_file_read_error(self, tmp_path):
        path = tmp_path / "bad.schema"
        path.write_bytes(b"cell/1 row:1:integer % \xff\n")
        with pytest.raises(FileReadError, match=re.escape(f"cannot read {path}: ")):
            load_schema_manifest(path)


class TestRoundTripProperties:
    def test_randomized_cell_round_trip(self):
        rng = random.Random(99)
        registry = SchemaRegistry([CELL])
        for _ in range(1000):
            original = record(
                CELL,
                row=rng.randint(-100, 100),
                column=rng.randint(0, 8),
                value=rng.randint(1, 9),
            )
            assert fact_to_record(registry, record_to_fact(CELL, original)) == original

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.text(
            alphabet=st.characters(codec="ascii", exclude_characters='"\n\\'),
            max_size=12,
        ),
        duration=st.integers(min_value=-1000, max_value=1000),
    )
    def test_quoted_string_round_trip(self, name, duration):
        registry = SchemaRegistry([ACTIVITY])
        original = record(ACTIVITY, name=name, duration=duration)
        fact = record_to_fact(ACTIVITY, original)
        assert fact_to_record(registry, fact) == original

    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.tuples(
            *(
                st.one_of(
                    st.integers(-99, 99).map(Integer),
                    st.sampled_from(["a", "sym", '"quoted"']).map(Constant),
                )
                for _ in range(3)
            )
        )
    )
    def test_registered_predicates_never_skip(self, terms):
        # a registered (name, arity) always yields a record or a kind error
        registry = SchemaRegistry([CELL])
        atom = Atom("cell", terms)
        try:
            outcome = fact_to_record(registry, atom)
        except TermKindMismatch:
            return
        assert isinstance(outcome, MappedRecord)
        assert registry.warning_count == 0


# --- a record's atom equals the fact its text parses back to ---

_quoted_chars = st.one_of(
    st.sampled_from([" ", "%", "\r", ".", ",", "(", ")", ":", "-", "|", "~", *SEPARATORS]),
    st.characters(exclude_characters='"\n'),
)
_values = {
    "integer": st.one_of(st.integers(), st.sampled_from([-1, 0, -(10**80), 10**80])),
    "symbol": st.from_regex(r"[a-z][A-Za-z0-9_]*", fullmatch=True).filter(lambda s: s != "not"),
    "quoted_string": st.text(_quoted_chars, max_size=12),
}


class TestRecordFactsParseBack:
    @settings(max_examples=300, deadline=None)
    @given(st.permutations(list(KINDS)), st.data())
    def test_atom_equals_the_parsed_fact(self, kinds, data):
        fields = {kind: (position, kind) for position, kind in enumerate(kinds, start=1)}
        s = schema("item_1", **fields)
        r = record(s, **{kind: data.draw(_values[kind], label=kind) for kind in kinds})
        atom = record_to_fact(s, r)
        program = parse_program(f"{atom}.")
        assert program.weak_constraints == ()
        assert [rule.head for rule in program.rules if rule.is_fact] == [(atom,)]
        assert len(program.rules) == 1

    @pytest.mark.parametrize("sep", SEPARATORS, ids=lambda c: f"U+{ord(c):04X}")
    def test_quoted_separators_parse_back(self, sep):
        s = schema("note", text=(1, "quoted_string"), n=(2, "integer"))
        atom = record_to_fact(s, record(s, text=f"{sep}50% a{sep}b {sep}", n=-7))
        assert parse_program(f"{atom}.").facts() == (atom,)
