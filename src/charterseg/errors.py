"""Exception types shared across the package, and its typed JSON readers.

Both JSON inputs, the run config and an exported tree, read their values
through json_number, json_string and json_object: an integer is a JSON
integer (not a bool, not 30.0), a number is finite and exact as a float,
and unknown keys are refused. A fault names its key. A message shows a value
read from outside the program (a JSON value, a CSV cell) through echo.
"""

import math

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


def json_number(kind, value, key: str, error=ConfigError):
    """value as kind, int or float, if it is a JSON number of that type; a fault names the key."""
    if isinstance(value, float) and not math.isfinite(value):  # json.load reads Infinity, NaN
        raise error(f"{key} must be finite, got {echo(value)}")
    try:  # a bool is no integer, and an integer a float rounds is no exact number
        ok = isinstance(value, (int, kind)) and not isinstance(value, bool) and kind(value) == value
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise error(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                    f"got {echo(value)}")
    return kind(value)


def json_string(value, key: str, error=ConfigError) -> str:
    if not isinstance(value, str):
        raise error(f"{key} must be a string, got {echo(value)}")
    return value


def json_object(value, key: str, allowed, error=ConfigError) -> dict:
    """value if it is a JSON object whose keys are all in allowed."""
    if not isinstance(value, dict):
        raise error(f"{key} must be an object, got {echo(value)}")
    unknown = set(value) - set(allowed)
    if unknown:  # keys set in Python may mix types, so they sort as text
        raise error(f"unknown keys in {key}: {echo(sorted(unknown, key=str))}")
    return value
