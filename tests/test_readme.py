"""The README's library quickstart, run as written in a child interpreter."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quickstart_prints_the_four_cells():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "{'row': 0, 'column': 0, 'value': 1}",
        "{'row': 0, 'column': 1, 'value': 2}",
        "{'row': 1, 'column': 0, 'value': 2}",
        "{'row': 1, 'column': 1, 'value': 1}",
    ]
    # one warning per unregistered signature: assigned/2, nocell/3, pos/1, symbol/1
    assert len(proc.stderr.splitlines()) == 4, proc.stderr
