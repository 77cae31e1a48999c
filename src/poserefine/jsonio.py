"""Reading the package's JSON input files, and strict JSON scalar checks."""

from __future__ import annotations

import json

from .errors import SchemaError


def read_json(path, label: str):
    """The parsed document of a UTF-8 JSON file.

    Bytes that are not UTF-8, text that is not JSON, and nesting past the
    recursion limit raise SchemaError prefixed with label, which names the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{label}: invalid JSON at line {exc.lineno}")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{label}: not UTF-8 text (byte {exc.start})")
    except RecursionError:
        raise SchemaError(f"{label}: JSON nested too deeply")


def json_number(value) -> float:
    """float of a JSON number, refusing strings and true/false."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a JSON number")
    return float(value)


def json_index(value) -> int:
    """A JSON integer as int, refusing every float (2.0 too), strings and
    true/false (bool is an int subclass)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value
