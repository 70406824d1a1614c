"""Two-way translation between application records and ground facts.

Schemas are registered explicitly: a schema names a predicate, and for each
record field the 1-based term position it occupies and the value kind it
carries. No runtime introspection is involved; a language without reflection
can express the same mapping this way.

Each schema builds its table of fields (id, term index, kind) once, and both
directions read it. :func:`records_to_facts` maps a whole part of records in
one pass and builds each distinct value's term once per call: a sensor name
or a zone that recurs is checked and built the first time only. Records come
back from an answer set in the order of their atoms' text.
"""

from __future__ import annotations

import functools
import logging
import threading
from dataclasses import dataclass
from pathlib import Path

from .errors import DuplicateSchema, FieldKindMismatch, InvalidSchema, TermKindMismatch
from .syntax import SYMBOL_RE, Atom, Constant, Integer, read_program_file

log = logging.getLogger(__name__)

KINDS = ("integer", "symbol", "quoted_string")
_INTEGER, _SYMBOL, _STRING = range(3)  # a field's kind in a schema's table
_EXACT = (int, str, str)  # per kind, the one value type whose term is interned
_MISSING = object()
_new = tuple.__new__  # builds a named tuple without the Python call of its __new__


@dataclass(frozen=True, slots=True)
class SchemaField:
    field_id: str
    term_position: int  # 1-based
    value_kind: str  # one of KINDS


@dataclass(frozen=True)
class PredicateSchema:
    predicate: str
    fields: tuple[SchemaField, ...]

    @property
    def arity(self) -> int:
        return len(self.fields)

    @property
    def signature(self) -> tuple[str, int]:
        return (self.predicate, len(self.fields))

    @functools.cached_property
    def _table(self) -> tuple[tuple[str, int, int], ...]:
        """(field id, 0-based term index, kind) of each field, in declaration order;
        a kind outside ``KINDS`` reads as a quoted string."""
        kinds = {"integer": _INTEGER, "symbol": _SYMBOL}
        return tuple(
            (f.field_id, f.term_position - 1, kinds.get(f.value_kind, _STRING)) for f in self.fields
        )

    def validate(self) -> None:
        if not SYMBOL_RE.match(self.predicate or ""):
            raise InvalidSchema(f"invalid predicate name {self.predicate!r}")
        positions = sorted(f.term_position for f in self.fields)
        if positions != list(range(1, len(self.fields) + 1)):
            raise InvalidSchema(
                f"term positions of {self.predicate!r} must be a permutation "
                f"of 1..{len(self.fields)}, got {positions}"
            )
        ids = [f.field_id for f in self.fields]
        if len(set(ids)) != len(ids):
            raise InvalidSchema(f"duplicate field ids in {self.predicate!r}")
        for f in self.fields:
            if f.value_kind not in KINDS:
                raise InvalidSchema(f"unknown value kind {f.value_kind!r}")


def schema(predicate: str, **fields: tuple[int, str]) -> PredicateSchema:
    """Shorthand: ``schema("cell", row=(1, "integer"), ...)``."""
    specs = tuple(SchemaField(name, pos, kind) for name, (pos, kind) in fields.items())
    s = PredicateSchema(predicate, specs)
    s.validate()
    return s


@dataclass(frozen=True)
class MappedRecord:
    schema: PredicateSchema
    values: dict[str, int | str]


@dataclass(frozen=True, slots=True)
class Skipped:
    """Outcome for an atom whose predicate has no registered schema."""

    atom: Atom
    message: str


class SchemaRegistry:
    """Schemas keyed by (predicate, arity); at most one per key.

    Registration happens up front; afterwards the registry is only read, so
    sharing it across threads is fine. The warning counter tracks skipped
    translations, and the warned signatures let each signature's first skip
    alone be logged; they are the one mutable state (lock-protected).
    """

    def __init__(self, schemas: list[PredicateSchema] | None = None):
        self._schemas: dict[tuple[str, int], PredicateSchema] = {}
        self._warnings = 0
        self._warned: set[tuple[str, int]] = set()
        self._lock = threading.Lock()
        for s in schemas or []:
            self.register(s)

    def register(self, s: PredicateSchema) -> "SchemaRegistry":
        s.validate()
        if s.signature in self._schemas:
            raise DuplicateSchema(f"schema for {s.predicate}/{s.arity} already registered")
        self._schemas[s.signature] = s
        return self

    def lookup(self, signature: tuple[str, int]) -> PredicateSchema | None:
        return self._schemas.get(signature)

    @property
    def warning_count(self) -> int:
        return self._warnings

    def _warn(self, signature: tuple[str, int], message: str) -> None:
        with self._lock:
            self._warnings += 1
            first = signature not in self._warned
            self._warned.add(signature)
        if first:
            log.warning(message)


def record(s: PredicateSchema, **values) -> MappedRecord:
    return MappedRecord(schema=s, values=dict(values))


def record_to_fact(s: PredicateSchema, r: MappedRecord) -> Atom:
    """Build the ground atom for a record; terms placed by declared position."""
    return _fact(s, r.values, None)


def records_to_facts(records) -> tuple[Atom, ...]:
    """The fact of each record, as :func:`record_to_fact` builds it, in one pass.

    A value of exact type ``int`` or ``str`` is checked and its term built the
    first time it comes as its kind; later records reuse that term. The
    tables live for this call only. The first record that fails raises.
    """
    interned = ({}, {}, {})
    return tuple([_fact(r.schema, r.values, interned) for r in records])


def _fact(s: PredicateSchema, values, interned: tuple[dict, dict, dict] | None) -> Atom:
    """A record's atom; fields are checked in declaration order, so the
    first field that fails is the one reported. ``interned`` holds the terms
    built so far per kind, by value, or is None to build each term anew."""
    p = s.predicate
    terms: list = [None] * len(s.fields)
    for field_id, index, kind in s._table:
        value = values.get(field_id, _MISSING)
        if value is _MISSING:
            raise FieldKindMismatch(f"{p}: missing value for field {field_id!r}")
        exact = interned is not None and type(value) is _EXACT[kind]
        if exact:
            term = interned[kind].get(value)
            if term is not None:
                terms[index] = term
                continue
        if kind == _INTEGER:
            if not isinstance(value, int) or isinstance(value, bool):
                raise FieldKindMismatch(f"{p}.{field_id}: expected an integer, got {value!r}")
            try:
                str(value)
            except ValueError:  # more digits than str() writes
                raise FieldKindMismatch(
                    f"{p}.{field_id}: integer too long to write as a fact"
                ) from None
            term = _new(Integer, (value,))
        elif kind == _SYMBOL:
            if not isinstance(value, str) or not SYMBOL_RE.match(value):
                raise FieldKindMismatch(
                    f"{p}.{field_id}: expected a symbolic constant, got {value!r}"
                )
            term = _new(Constant, (value,))
        else:  # quoted_string; stored unquoted, quoted only in the fact
            if not isinstance(value, str) or '"' in value or "\n" in value:
                raise FieldKindMismatch(f"{p}.{field_id}: expected a plain string, got {value!r}")
            term = _new(Constant, (f'"{value}"',))
        if exact:
            interned[kind][value] = term
        terms[index] = term
    return _new(Atom, (p, tuple(terms)))


def fact_to_record(reg: SchemaRegistry, atom: Atom) -> MappedRecord | Skipped:
    """Translate a ground atom back into a record.

    An atom without a matching schema is skipped: a warning is counted on the
    registry, logged only for the first skip of its signature, and the atom
    stays available to the caller untouched.
    """
    s = reg.lookup((atom.predicate, len(atom.terms)))
    if s is None:
        message = f"no schema registered for {atom.predicate}/{atom.arity}; atom {atom} ignored"
        reg._warn(atom.signature, message)
        return Skipped(atom=atom, message=message)
    terms = atom.terms
    values: dict[str, int | str] = {}
    for field_id, index, kind in s._table:
        term = terms[index]
        if kind == _INTEGER:
            if not isinstance(term, Integer):
                raise TermKindMismatch(
                    f"{s.predicate}.{field_id}: expected an integer term, got {term}"
                )
            values[field_id] = term.value
        elif kind == _SYMBOL:
            if not isinstance(term, Constant) or term.name.startswith('"'):
                raise TermKindMismatch(
                    f"{s.predicate}.{field_id}: expected a symbolic constant, got {term}"
                )
            values[field_id] = term.name
        else:
            if not isinstance(term, Constant) or not term.name.startswith('"'):
                raise TermKindMismatch(
                    f"{s.predicate}.{field_id}: expected a quoted string, got {term}"
                )
            values[field_id] = term.name[1:-1]
    return MappedRecord(s, values)


def answer_set_to_records(reg: SchemaRegistry, atoms) -> tuple[list[MappedRecord], int]:
    """Map every atom of an interpretation; returns (records, skipped count).

    Atoms are visited in the order of their text, so the result is
    deterministic. The sort key is ``Atom.__str__`` called directly: the
    atom's text built from its terms' values, with no ``str()`` dispatch.
    """
    records: list[MappedRecord] = []
    skipped = 0
    for atom in sorted(atoms, key=Atom.__str__):
        outcome = fact_to_record(reg, atom)
        if isinstance(outcome, Skipped):
            skipped += 1
        else:
            records.append(outcome)
    return records, skipped


def load_schema_manifest(path: str | Path) -> SchemaRegistry:
    """Read a schema manifest file; see :func:`parse_schema_manifest`."""
    return parse_schema_manifest(read_program_file(path))


def parse_schema_manifest(text: str) -> SchemaRegistry:
    """Parse a schema manifest: one schema per line, `%` comments.

    Line format: ``predicate/arity field:pos:kind ...`` with one field spec
    per term position; arity and positions are written in ASCII digits.
    """
    registry = SchemaRegistry()
    for raw in text.splitlines():
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        head, *field_specs = line.split()
        name, _, arity_text = head.partition("/")
        if not (arity_text.isascii() and arity_text.isdigit()):
            raise InvalidSchema(f"bad schema header {head!r}")
        fields = []
        try:
            for spec in field_specs:
                parts = spec.split(":")
                if len(parts) != 3 or not (parts[1].isascii() and parts[1].isdigit()):
                    raise InvalidSchema(f"bad field spec {spec!r}")
                fields.append(SchemaField(parts[0], int(parts[1]), parts[2]))
            arity = int(arity_text)
        except ValueError:  # more digits than int() reads from text
            raise InvalidSchema(f"number too long in schema {name!r}") from None
        if len(fields) != arity:
            raise InvalidSchema(f"{head}: {len(fields)} field specs for arity {arity_text}")
        registry.register(PredicateSchema(name, tuple(fields)))
    return registry
