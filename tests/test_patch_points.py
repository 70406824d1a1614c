"""Every entry point the benchmark wraps still exists on aspkit and is called.

``perfbench/spans.py`` times the toolkit by replacing the names listed in
``patch_points()``. ``Tracer.install`` skips a name it cannot find without a
warning, so a rename in ``src/`` would silently zero that layer's metrics,
and so would code that binds one of those names before the patch, for
example as a default value. The module is only loaded here, under its own
name, not changed.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_exists_on_aspkit():
    points = load_spans().patch_points()
    assert points
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in points
        if not callable(owner.__dict__.get(attr))
    ]
    assert missing == []


def test_a_reference_run_calls_each_systems_patch_point_once(monkeypatch):
    from aspkit import systems
    from aspkit.orchestration import Handler

    names = ("invoke_solver", "parse_program", "render_reference_output", "parse_clingo_output")
    calls = Counter()
    for name in names:
        def counting(*args, _name=name, _original=getattr(systems, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(systems, name, counting)
    handler = Handler(systems.reference_solver())
    handler.add_program("a | b.")
    assert len(handler.start_sync().answer_sets.sets) == 2
    assert calls == Counter(dict.fromkeys(names, 1))
