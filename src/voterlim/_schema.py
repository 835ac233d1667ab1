"""The one reader of JSON configs: a table of keys per config object, applied
by `read`; unknown keys, and booleans or strings in place of numbers, are refused."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError

REQUIRED = object()
OPTIONAL = object()
_NOT_NUMBERS = (bool, np.bool_, str, bytes)  # what float() and int() would read as numbers


def count(value) -> int:
    """int(value) for a count; int() alone would read 2.7 as 2, True as 1 and
    "3" as 3.  Such values, NaN and Infinity are a ValueError."""
    if isinstance(value, _NOT_NUMBERS) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def real(value) -> float:
    """float(value); float() alone would read True as 1.0 and "0.1" as 0.1,
    so booleans and strings are a ValueError."""
    if isinstance(value, _NOT_NUMBERS):
        raise ValueError(f"{value!r} is not a real number")
    return float(value)


def positive(value) -> float:
    """A real number that is positive and finite."""
    value = real(value)
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ValueError("must be positive and finite")
    return value


def _holds_non_number(value) -> bool:
    """True where value is a boolean or a string, or holds one at any depth;
    one set of element types per list, so rows of numbers cost no Python
    loop.  An array is judged by its dtype, one of objects by its entries."""
    if isinstance(value, np.ndarray):
        if value.dtype != object:
            return value.dtype.kind in "bSU"
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        return isinstance(value, _NOT_NUMBERS)
    types = set(map(type, value))
    if any(issubclass(t, _NOT_NUMBERS) for t in types):
        return True
    return bool(types & {list, tuple, np.ndarray}) and any(map(_holds_non_number, value))


def numbers(value):
    """A value of numbers, as given; a boolean or a string at any depth is a ValueError."""
    if _holds_non_number(value):
        raise ValueError("must hold numbers, not booleans or strings")
    return value


def reals(value) -> np.ndarray:
    """An array of real numbers; a boolean or a string at any depth is a ValueError."""
    return np.asarray(numbers(value), dtype=float)


def as_is(value):
    """A value that its consumer checks: a time-grid entry or a file path."""
    return value


def solver(value) -> str:
    """The solver a config names: "expm", the only one, for configs of earlier versions."""
    if value != "expm":
        raise ValueError(f"must be 'expm', the only solver, not {value!r}")
    return value


def checked(kind, key: str, value, what: str = "config"):
    """kind(value), or a ValidationError naming `key` of a `what`."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what} value for {key!r}: {exc}") from exc


def read(data, table: dict, what: str) -> SimpleNamespace:
    """Each key of `table` as an attribute: its kind's reading of `data`, or its default.

    table[key] is (kind, default, *excluded).  A kind converts a value or
    raises TypeError or ValueError; builders such as `make_kernel` are kinds
    too.  An absent key reads as its default; a REQUIRED one must be given
    and an OPTIONAL one reads as None.  null reads as None where the default
    is None; elsewhere the kind refuses it.  A non-null value makes the
    `excluded` keys meaningless, so they are refused next to it.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    for key, value in data.items():
        if key not in table:
            raise ValidationError(f"{what} has unknown key {key!r}")
        for other in table[key][2:]:
            if value is not None and other in data:
                raise ValidationError(f"{what}: {other!r} cannot be given with {key!r}")
    values = {}
    for key, (kind, default, *_) in table.items():
        if key in data and (data[key] is not None or default is not None):
            values[key] = checked(kind, key, data[key], what)
        elif default is REQUIRED:
            raise ValidationError(f"{what} missing field {key!r}")
        else:
            values[key] = None if default is OPTIONAL else default
    return SimpleNamespace(**values)


def build(spec, types: dict, what: str):
    """builder(**keys) of a spec {"type": t, **keys}, where types[t] = (builder, table)."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{what} spec must be a JSON object")
    kind = spec.get("type")
    if not (isinstance(kind, str) and kind in types):
        given = f"type {kind!r}" if "type" in spec else f"spec without 'type': {list(spec)}"
        raise ValidationError(f"unknown {what} {given}")
    builder, table = types[kind]
    args = read({k: v for k, v in spec.items() if k != "type"}, table, f"{what} spec")
    try:
        return builder(**vars(args))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what} spec: {exc}") from exc


class _FloatMemo(dict):
    """Float of each number token, parsed once: repeats share one object."""

    def __missing__(self, token):
        value = self[token] = float(token)
        return value


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValidationError(f"JSON object repeats the key {key!r}")
    return obj


def _json_loads(text: str):
    """`json.loads(text)`, with each distinct float token parsed once; the same
    values, types and errors, but a key repeated in an object is a ValidationError."""
    return json.loads(text, parse_float=_FloatMemo().__getitem__, object_pairs_hook=_unique_keys)


def loads(text: str, what: str):
    """Parsed `what` JSON text; malformed text is a ValidationError."""
    try:
        return _json_loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc
