"""Exception types shared across the package, and the run config's typed JSON readers.

The run config, the one JSON input, reads its values through json_number,
json_string and json_object: an integer is a JSON integer (not a bool, not
30.0), a number is finite and exact as a float, and unknown keys are
refused. It is parsed with unique_keys, which marks an object that repeats
a key (json.load keeps its last value), so the config walk can refuse it by
its key path. A fault names its key. A message shows a value read from
outside the program (a JSON value, a CSV cell) through echo.
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


def json_number(kind, value, key: str):
    """value as kind, int or float, if it is a JSON number of that type; a fault names the key."""
    if isinstance(value, float) and not math.isfinite(value):  # json.load reads Infinity, NaN
        raise ConfigError(f"{key} must be finite, got {echo(value)}")
    try:  # a bool is no integer, and an integer a float rounds is no exact number
        ok = isinstance(value, (int, kind)) and not isinstance(value, bool) and kind(value) == value
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {echo(value)}")
    return kind(value)


def json_string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {echo(value)}")
    return value


def json_object(value, key: str, allowed) -> dict:
    """value if it is a JSON object whose keys are all in allowed."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {echo(value)}")
    unknown = set(value) - set(allowed)
    if unknown:  # keys set in Python may mix types, so they sort as text
        raise ConfigError(f"unknown keys in {key}: {echo(sorted(unknown, key=str))}")
    return value


class RepeatedKey(dict):
    """A parsed JSON object that repeats a key, the first of which is .repeated."""

    def __init__(self, pairs, repeated: str):
        super().__init__(pairs)
        self.repeated = repeated


def unique_keys(pairs) -> dict:
    """A json object_pairs_hook: the object as a dict, a RepeatedKey if it repeats a key."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return RepeatedKey(pairs, key)
        seen.add(key)
    return dict(pairs)
