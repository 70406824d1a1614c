"""Spans recorded from outside the toolkit, kept in memory, written once.

A traced pass replaces a fixed set of module-level entry points of aspkit
with wrappers that record one span per call (``Tracer.install``) and puts
the originals back afterwards (``Tracer.uninstall``). Functions look those
names up at call time, so calls the toolkit makes between its own modules
are timed too, without editing it. A span is a list
``[name, start, end, parent, request, counts]``; parent is the span
object that was open on the same thread when it started, or one the
benchmark assigns later for work done on a job thread.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path

NAME, START, END, PARENT, REQUEST, COUNTS = range(6)
DEFER = "_defer"


def _counts_parse(result, args):
    return {"statements": len(result.rules) + len(result.weak_constraints),
            "bytes": len(args[0].encode())}


def _counts_ground(result, args):
    # The program and its grounding are kept until Tracer.settle derives the
    # remaining counters, outside the request's latency window.
    return {"rules": len(result.rules), "weaks": len(result.weak_constraints),
            DEFER: (args[0], result)}


def _counts_sets(result, args):
    return {"sets": len(result)}


def _counts_clingo(result, args):
    return {"atoms": sum(len(s.atoms) for s in result.sets)}


def _counts_records(result, args):
    records, skipped = result
    return {"records": len(records), "skipped": skipped, "atoms": len(args[1])}


def patch_points():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from aspkit import cli, mapper, orchestration, refeval, systems

    return [
        (orchestration.Handler, "start_sync", "orchestration.start_sync", None),
        (orchestration.Handler, "start_async", "orchestration.start_async", None),
        (systems, "invoke_solver", "systems.invoke_solver", None),
        (systems, "render_reference_output", "systems.render_reference_output", None),
        (systems, "parse_clingo_output", "systems.parse_clingo_output", _counts_clingo),
        (systems, "parse_program", "syntax.parse_program", _counts_parse),
        (cli, "parse_program", "syntax.parse_program", _counts_parse),
        (refeval, "ground_program", "refeval.ground_program", _counts_ground),
        (refeval, "answer_sets", "refeval.answer_sets", _counts_sets),
        (refeval, "optimal_answer_sets", "refeval.optimal_answer_sets", None),
        (refeval, "is_answer_set", "refeval.is_answer_set", None),
        (mapper, "answer_set_to_records", "mapper.answer_set_to_records", _counts_records),
    ]


# Inside these spans a wrapped call is part of the caller's own work: the
# clingo-output parser parses each witness atom with parse_program.
PASS_THROUGH = {"syntax.parse_program": "systems.parse_clingo_output"}


class Tracer:
    def __init__(self, derive=None):
        """``derive(*deferred)`` returns more counts for a span that deferred some."""
        self.spans: list[list] = []
        self.enabled = False
        self._derive = derive
        self._pending: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    # --- recording ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent=None, request=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if request is None and parent is not None:
            request = parent[REQUEST]
        span = [name, 0.0, 0.0, parent, request, None]
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)
        if span[PARENT] is None and span[REQUEST] is None:
            self._orphans().append(span)

    def _orphans(self) -> list:
        orphans = getattr(self._local, "orphans", None)
        if orphans is None:
            orphans = self._local.orphans = []
        return orphans

    def take_orphans(self) -> list:
        """Spans closed on this thread with no parent or request since the last call.

        On a job thread these are the job's own spans; the benchmark attaches
        them to the request whose callback then runs on the same thread.
        """
        orphans = self._orphans()
        self._local.orphans = []
        return orphans

    @contextlib.contextmanager
    def span(self, name, parent=None, request=None):
        """A span opened by the benchmark itself; yields it (or None when off)."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, parent, request)
        try:
            yield span
        finally:
            self._close(span)

    def add(self, name, start, end, parent=None, request=None, counts=None):
        """A span whose interval the benchmark measured itself; None when off."""
        if not self.enabled:
            return None
        span = [name, start, end, parent, request, counts]
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, counter):
        outer = PASS_THROUGH.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if outer is not None and stack and stack[-1][NAME] == outer:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[COUNTS] = counter(result, args)
                if DEFER in span[COUNTS]:
                    self._pending.append(span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def settle(self) -> None:
        """Derive the deferred counts of every span that has some, and drop the inputs."""
        while True:
            try:
                span = self._pending.pop()  # atomic: two client threads may settle
            except IndexError:
                return
            deferred = span[COUNTS].pop(DEFER)
            if self._derive is not None:
                span[COUNTS].update(self._derive(*deferred))

    def install(self) -> None:
        for owner, attr, name, counter in patch_points():
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        self.enabled = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.enabled = False

    # --- analysis ---

    def write(self, path: Path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s[PARENT])) if s[PARENT] is not None else None
                out.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": parent, "request": request_of(s), "counts": s[COUNTS],
                }) + "\n")


def request_of(span):
    while span[REQUEST] is None and span[PARENT] is not None:
        span = span[PARENT]
    return span[REQUEST]


def self_times(spans) -> dict[int, float]:
    """Seconds of each span's interval that none of its children cover, by id()."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(id(s[PARENT]), []).append(s)
    out = {}
    for s in spans:
        start, end = s[START], s[END]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(id(s), ()), key=lambda c: c[START]):
            lo, hi = max(c[START], cursor), min(c[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(s)] = (end - start) - covered
    return out
