"""Exception types shared across the package.

A message shows a value read from outside the program (a JSON value, a CSV
cell) through echo.
"""

ECHO_LIMIT = 100  # a CSV cell may hold 131,072 characters, a JSON integer 4,300 digits


def echo(value) -> str:
    """repr(value) for a message; past ECHO_LIMIT characters it keeps only its two ends."""
    text, cut = repr(value), ECHO_LIMIT // 2 - 2  # 48 characters, "...", the last 49
    return text if len(text) <= ECHO_LIMIT else f"{text[:cut]}...{text[-cut - 1:]}"


class ChartersegError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(ChartersegError):
    """A required column or field is missing or unknown."""


class ParseError(ChartersegError):
    """A value could not be parsed; carries its location when known."""

    def __init__(self, message: str, line: int | None = None, column: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {echo(column)}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
        self.line = line
        self.column = column


class DuplicateRowError(ChartersegError):
    """Two panel rows share the same (bank_id, year) key."""


class EmptySubsampleError(ChartersegError):
    """A filter or matrix build produced no rows."""


class EmptyModelError(ChartersegError):
    """Too few rows to fit the requested model."""


class ConfigError(ChartersegError):
    """A run configuration value is missing, malformed, or inconsistent."""


class DegenerateInputError(ChartersegError, ValueError):
    """Numeric input outside a function's domain (empty, constant, zero variance)."""
