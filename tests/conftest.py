"""Shared fixtures and the acceptance-criteria reporting hook."""

from __future__ import annotations

import contextlib
import locale
import shutil
import stat
from pathlib import Path

import pytest
from hypothesis import settings

from aspkit import encodings
from aspkit.refeval import answer_sets, ground_program
from aspkit.syntax import parse_program

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Property tests draw the same examples in every run, and keep no example
# database between runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# One "criterion: PASS/FAIL" line per acceptance criterion, printed in the
# terminal summary of every run that touched test_acceptance.py.
ACCEPTANCE_LINES: list[str] = []


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"criterion {number:2d}: FAIL - {description}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {number:2d}: PASS - {description}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


# Byte 0xff is not text in UTF-8; other locale encodings may read it.
needs_utf8 = pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("_", "-") not in ("utf-8", "utf8"),
    reason="needs a UTF-8 locale, where byte 0xff is not text",
)


def external_clingo() -> str | None:
    return shutil.which("clingo")


def make_script(tmp_path, name: str, body: str) -> str:
    """An executable shell script ``name`` in ``tmp_path`` that runs ``body``."""
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


@pytest.fixture(scope="session")
def solved_corpus():
    """Answer sets of every desk-scale bundled example, solved once."""
    texts = {
        "3col-k3": encodings.THREE_COL_K3,
        "3col-k3-isolated": encodings.THREE_COL_K3_ISOLATED,
        "3col-k4": encodings.THREE_COL_K4,
        "ramsey-n3": encodings.RAMSEY_N3,
        "sudoku-toy": encodings.SUDOKU_TOY,
        "sudoku-toy-given": encodings.SUDOKU_TOY_GIVEN,
        "dlvfit": encodings.DLVFIT_FRAGMENT,
    }
    out = {}
    for name, text in texts.items():
        program = parse_program(text)
        out[name] = (program, ground_program(program), answer_sets(program))
    return out
