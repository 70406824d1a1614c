"""Exception hierarchy shared across the package."""

from __future__ import annotations


class AspkitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AspkitError):
    """Malformed program text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class SafetyError(AspkitError):
    """A rule uses variables that no positive body literal can bind."""

    def __init__(self, statement_index: int, variables: list[str], text: str):
        names = ", ".join(variables)
        super().__init__(f"statement {statement_index}: unsafe variables {names} in `{text}`")
        self.statement_index = statement_index
        self.variables = variables


class LimitExceeded(AspkitError):
    """An evaluation limit is exceeded: the substitution budget before grounding,
    ``max_ground_rules`` as an instance is kept, the candidate cap when the
    search space is built, the Herbrand base cap before the base is built."""

    def __init__(self, what: str, count: int, limit: int):
        super().__init__(f"{what}: {count} exceeds limit {limit}")
        self.what = what
        self.count = count
        self.limit = limit


# --- mapper ---

class InvalidSchema(AspkitError):
    pass


class DuplicateSchema(AspkitError):
    pass


class FieldKindMismatch(AspkitError):
    """A record value does not match the declared field kind."""


class TermKindMismatch(AspkitError):
    """A fact term does not match the declared field kind."""


# --- orchestration / systems ---

class MappingError(AspkitError):
    """A mapped-facts input part could not be rendered."""


class FileReadError(AspkitError):
    pass


class SolverNotFound(AspkitError):
    pass


class SolverTimeout(AspkitError):
    pass


class NonzeroExit(AspkitError):
    def __init__(self, code: int, stderr: str):
        super().__init__(f"solver exited with code {code}: {stderr.strip()[:500]}")
        self.code = code
        self.stderr = stderr


class MalformedOutput(AspkitError):
    def __init__(self, line: str, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(f"unparseable solver output line `{line}`{detail}")
        self.line = line


class EmptyFilter(AspkitError):
    pass


class UnsupportedOption(AspkitError):
    """A solver was given option text it cannot read."""

    def __init__(self, system: str, option: str):
        super().__init__(f"the {system} system cannot read option {option!r}")
        self.option = option
