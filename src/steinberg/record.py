"""One JSON layout for every certificate record.

A `Record` dataclass writes its fields in declaration order: enums as their
value, tuples as lists, nested records as objects, None as null.  Reading
decodes each value, element by element, from the field's type.  A field made
by `json_at(*path)` is stored at path instead of under its name: ``(key,)``
renames it, ``(group, key)`` files it in a nested object, and
``(group, index)`` makes it a slot of a list, filled in field order; a
``codec=(encode, decode)`` pair replaces the one read off the field's type.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing

__all__ = ["Record", "json_at"]

_PLAIN = (None, None)  # int, str and bool are JSON already


def json_at(*path: str | int, codec: tuple | None = None) -> dataclasses.Field:
    """A dataclass field stored at path in the JSON, through codec if given."""
    return dataclasses.field(metadata={"json": path, "codec": codec})


def _codec(tp) -> tuple:
    """(encode, decode) for values of type tp."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is None:  # a plain class
        if issubclass(tp, Record):
            return tp.to_dict, tp.from_dict
        return ((lambda v: v.value), tp) if issubclass(tp, enum.Enum) else _PLAIN
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _codec(inner)
        if enc is None:
            return _PLAIN
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        codecs = [_codec(a) for a in (args[:1] if variadic else args)]
        if all(c is _PLAIN for c in codecs):
            return list, tuple
        if variadic:
            ((enc, dec),) = codecs
            return (lambda v: [enc(x) for x in v]), (lambda v: tuple(dec(x) for x in v))
    raise TypeError(f"no JSON layout for {tp}")


class Record:
    """Base class of the dataclasses written to and read from JSON."""

    @classmethod
    def _layout(cls) -> tuple:
        """(name, group, key, encode, decode) per field, worked out once per class."""
        layout = cls.__dict__.get("_json_layout")
        if layout is None:
            hints = typing.get_type_hints(cls)
            rows = []
            for f in dataclasses.fields(cls):
                *group, key = f.metadata.get("json", (f.name,))
                codec = f.metadata.get("codec") or _codec(hints[f.name])
                rows.append((f.name, group[0] if group else None, key, *codec))
            layout = cls._json_layout = tuple(rows)
        return layout

    def to_dict(self) -> dict:
        out: dict = {}
        for name, group, key, encode, _ in self._layout():
            value = getattr(self, name)
            if encode is not None:
                value = encode(value)
            if group is None:
                out[key] = value
            elif isinstance(key, int):
                out.setdefault(group, []).append(value)
            else:
                out.setdefault(group, {})[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict):
        kwargs = {}
        for name, group, key, _, decode in cls._layout():
            value = data[key] if group is None else data[group][key]
            kwargs[name] = value if decode is None else decode(value)
        return cls(**kwargs)
