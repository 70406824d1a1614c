"""Every entry point the benchmark wraps still exists on aspkit.

``perfbench/spans.py`` times the toolkit by replacing the names listed in
``patch_points()``. ``Tracer.install`` skips a name it cannot find without a
warning, so a rename in ``src/`` would silently zero that layer's metrics.
The module is only loaded here, under its own name, not changed.
"""

from __future__ import annotations

import importlib.util
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
