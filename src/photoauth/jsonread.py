"""Typed reading of parsed JSON, for the files the CLI loads.

`from_json` builds a value of a given type from what `json.load`
returned, taking each record's field types from its own annotations,
so a loader states no field, type or default a second time. A record
is a `typing.NamedTuple`, or a subclass of one that checks its fields.
"""

from __future__ import annotations

import sys
import types
import typing
from enum import Enum
from typing import Any


def is_record(tp: Any) -> bool:
    """True for a `typing.NamedTuple` class or a subclass of one."""
    return isinstance(tp, type) and issubclass(tp, tuple) and hasattr(tp, "_fields")


def from_json(tp: Any, value: Any, where: str) -> Any:
    """Build a value of type `tp` from the parsed JSON `value`.

    Reads `int`, `str` and `bool` (a bool is never a number, nor a number
    a bool); `float` (an int too, but never NaN or an infinity); `X | None`
    and other unions (the first member that accepts the value wins);
    `tuple[X, ...]` from a list; a bare `dict` from an object, as it is;
    Enums by value; records from objects. A field missing from the
    object keeps its default, and keys that name no field are ignored.

    Raises:
        ValueError: the value does not fit `tp`, a required field is
            missing, or the record rejects its fields. The message
            starts with the key path, `where` for the top level.
    """
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        errors = []
        for member in typing.get_args(tp):
            try:
                return from_json(member, value, where)
            except ValueError as exc:
                errors.append(exc)
        raise errors[0]
    if tp is type(None) or tp in (int, str, bool):
        if type(value) is not tp:
            raise ValueError(f"{where}: expected {tp.__name__}, got {type(value).__name__}")
        return value
    if tp is float:
        # NaN fails any comparison; an int is compared exactly, not converted.
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{where}: expected a finite number, got {value!r}")
        return value
    if typing.get_origin(tp) is tuple and typing.get_args(tp)[1:] == (...,):
        if type(value) is not list:
            raise ValueError(f"{where}: expected a list, got {type(value).__name__}")
        item_tp = typing.get_args(tp)[0]
        return tuple(from_json(item_tp, item, f"{where}[{i}]") for i, item in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            names = ", ".join(repr(member.value) for member in tp)
            raise ValueError(f"{where}: expected one of {names}, got {value!r}") from None
    if tp is not dict and not is_record(tp):
        raise TypeError(f"no JSON reading for {tp!r}")
    if type(value) is not dict:
        raise ValueError(f"{where}: expected an object, got {type(value).__name__}")
    if tp is dict:
        return value
    hints = typing.get_type_hints(tp)
    kwargs = {}
    for name in tp._fields:
        if name in value:
            kwargs[name] = from_json(hints[name], value[name], f"{where}.{name}")
        elif name not in tp._field_defaults:
            raise ValueError(f"{where}.{name}: missing")
    try:
        return tp(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
