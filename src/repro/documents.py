"""The format of every outside document (fault plans, machine specs,
service requests and configurations, workload specs), taken from the
dataclass it describes.

:func:`read` builds a dataclass from a JSON document.  The accepted
fields are the dataclass's fields, and those without a default are
required.  ``null`` is accepted exactly where a field's default is
``None``.  The annotation fixes the JSON type: ``int`` takes an
integer, ``float`` an integer or a float, ``str`` a string and
``tuple[...]`` an array, read as a tuple whose items are read by
``D.from_dict`` when the annotation is ``tuple[D, ...]`` for a
dataclass ``D`` and checked like a field otherwise.  A ``bool`` is
never a number.  Range and finiteness checks stay in each class's
``__post_init__``, because in-Python construction needs them too.

:func:`write` is its inverse, ``read(type(x), write(x), kind) == x``,
and :func:`load` reads a document from a file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types
import typing
from typing import Any

#: The JSON values a field of each annotated type accepts.
_JSON_TYPES = {
    int: (int,), float: (int, float), str: (str,), tuple: (list, tuple),
}


def read(
    cls: type, doc: Any, kind: str, error: type[Exception] = ValueError
) -> Any:
    """Build the dataclass ``cls`` from the JSON document ``doc``, or
    raise ``error`` naming the ``kind`` of document and the field."""
    if not isinstance(doc, dict):
        raise error(f"{kind} must be a JSON object, got {doc!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(fields)
    if unknown:
        raise error(
            f"unknown {kind} fields {sorted(unknown)}; "
            f"accepted: {list(fields)}"
        )
    missing = [
        name for name, f in fields.items() if name not in doc
        and f.default is f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise error(f"{kind} is missing required fields {missing}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, value in doc.items():
        hint = hints[name]
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        if value is not None or fields[name].default is not None:
            what = f"{kind} field {name!r}"
            _check(value, typing.get_origin(hint) or hint, what, error)
            item = typing.get_args(hint)[:1]
            if item and dataclasses.is_dataclass(item[0]):
                value = tuple(item[0].from_dict(v) for v in value)
            elif item:
                for v in value:
                    _check(v, item[0], f"{what} items", error)
                value = tuple(value)
        values[name] = value
    return cls(**values)


def _check(
    value: Any, typ: type, what: str, error: type[Exception]
) -> None:
    wanted = _JSON_TYPES[typ]
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise error(
            f"{what} must be {' or '.join(t.__name__ for t in wanted)}, "
            f"got {value!r}"
        )


def load(
    cls: type, path: str | os.PathLike, kind: str,
    error: type[Exception] = ValueError,
) -> Any:
    """:func:`read` the JSON file at ``path``; every error, a JSON
    syntax error included, starts with the path."""
    with open(path) as fh:
        try:
            return read(cls, json.load(fh), kind, error)
        except ValueError as exc:
            raise error(f"{path}: {exc}") from None


def write(obj: Any) -> Any:
    """The JSON document of ``obj``: a dataclass as an object of every
    field, a tuple as an array, any other value as it is."""
    if dataclasses.is_dataclass(obj):
        return {
            f.name: write(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, tuple):
        return [write(v) for v in obj]
    return obj
