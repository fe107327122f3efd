"""cmla's JSON documents: scenario files, --config settings, report.json,
model.json and scenario_summary.json.

Every JSON file cmla reads goes through load, which gives one error form for
a missing file and for bytes that are not UTF-8 JSON, and every JSON file it
writes takes its text from render. read and write map a document onto a
dataclass and back: a dataclass is its document's schema, its field names
the keys, in declaration order, and its type hints the JSON types. Checks
that are not about type stay in the dataclass's own __post_init__.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError, LoadError


def load(path: str | Path) -> tuple[str, str, object]:
    """The file's name, its text and the JSON value the text holds. The text
    is the file's bytes decoded, line ends untranslated, so that verify can
    compare it with a rendering. A missing file is the LoadError "no such
    file: <path>", and bytes that are not UTF-8 or not JSON are "<name>:
    invalid JSON: <reason>"."""
    p = Path(path)
    if not p.is_file():
        raise LoadError(f"no such file: {p}")
    try:
        text = p.read_bytes().decode("utf-8")
        return p.name, text, json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise LoadError(f"{p.name}: invalid JSON: {e}") from None


def render(doc) -> str:
    """The text of every JSON file cmla writes: two-space indents, keys in
    the document's order and a final newline."""
    return json.dumps(doc, indent=2) + "\n"


class _Mismatch(Exception):
    """A value without its annotation's JSON type."""


def read(cls, doc, where: str, prefix: str):
    """The dataclass cls built from doc, a parsed JSON object: every key a
    field, every field without a default present, and each value of its type
    hint's JSON type. int takes an integer, float any number (as a float), a
    bool is never a number; str, bool, bare dict, X | None, list[X],
    tuple[X, ...], dict[str, X] and nested dataclasses take their JSON forms.
    Errors, __post_init__'s too, are ConfigErrors that start with prefix and
    name where or the path of the nested object at fault.
    """
    return _read(cls, doc, where, "", prefix)


def _read(cls, doc, where: str, path: str, prefix: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix} {where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in fields(cls) if f.init}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{prefix} {where} has an unknown key {key!r}")
    values = {}
    for name, f in known.items():
        if name in doc:
            child = f"{path}.{name}" if path else name
            try:
                values[name] = _value(hints[name], doc[name], child, prefix)
            except _Mismatch:
                raise ConfigError(f"{prefix} {where} has a malformed {name!r}: "
                                  f"expected {_shown(hints[name])}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{prefix} {where} is missing the key {name!r}")
    try:
        return cls(**values)
    except ConfigError as e:
        raise ConfigError(f"{prefix} {where}: {e}") from None


def _value(hint, value, path: str, prefix: str):
    """value as hint types it; path names it if it is an object to read."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _value(inner, value, path, prefix)
    if is_dataclass(hint) and isinstance(value, dict):
        return _read(hint, value, path, path, prefix)
    if origin in (list, tuple) and isinstance(value, list):
        return origin(_value(args[0], v, f"{path}[{i}]", prefix) for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {k: _value(args[1], v, f"{path}.{k}", prefix) for k, v in value.items()}
    if origin is None and not is_dataclass(hint) and isinstance(value, bool) == (hint is bool):
        if hint is float and isinstance(value, int):
            try:
                return float(value)
            except OverflowError:
                pass
        elif isinstance(value, hint):
            return value
    raise _Mismatch


def write(obj) -> dict:
    """The JSON object of a dataclass, the inverse of read: its fields in
    declaration order, nested dataclasses as objects, lists and tuples as
    arrays, None as null. A value hinted int or float goes through int() or
    float(), so a numpy scalar, or an int where float is declared, is written
    as a Python number of the declared type."""
    hints = typing.get_type_hints(type(obj))
    return {f.name: _json(hints[f.name], getattr(obj, f.name)) for f in fields(obj)}


def _json(hint, value):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if value is None:
        return None
    if origin is types.UnionType:
        (inner,) = (a for a in args if a is not type(None))
        return _json(inner, value)
    if is_dataclass(hint):
        return write(value)
    if origin in (list, tuple):
        return [_json(args[0], v) for v in value]
    if origin is dict:
        return {k: _json(args[1], v) for k, v in value.items()}
    return hint(value) if hint in (int, float) else value


def _shown(hint) -> str:
    """hint as a message shows it, a dataclass or bare dict as object."""
    args = typing.get_args(hint)
    if is_dataclass(hint) or hint is dict:
        return "object"
    if typing.get_origin(hint) is types.UnionType:
        return " | ".join(_shown(a) for a in args)
    if args:
        inner = ", ".join("..." if a is Ellipsis else _shown(a) for a in args)
        return f"{typing.get_origin(hint).__name__}[{inner}]"
    return "None" if hint is type(None) else hint.__name__
