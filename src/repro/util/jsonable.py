"""The one JSON form of the config dataclasses: scenario configs, timeline
scripts and blame settings.  A field's form follows from its annotation: an
``IntEnum`` is its int, a tuple or list a list (a ``Tuple[X, Y]`` of that
arity), a :class:`DirectedLink` ``[src, dst]``, a :class:`Link` ``[a, b]``,
a dataclass an object in field order led by the class's ``kind`` attribute
if it has one (``kind`` picks the class in a ``Union`` of such classes).
Decoding takes an int for a float, no float for an int and no bool for
either, and a missing key takes the field's default.  One ``ValueError``
names the key path (``script.events[1].level``) of every unknown key,
missing required key, value of the wrong type or outside a ``Literal`` or
an enum, and list of the wrong arity.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import functools
import typing
from typing import Any, Dict, List, Literal, Tuple, Type, TypeVar, Union

from repro.topology.elements import DirectedLink, Link

T = TypeVar("T")

#: the pairs of node names, and how each is built from its two names.
_PAIRS = {DirectedLink: DirectedLink, Link: Link.of}


def to_json(value: Any) -> Any:
    """``value`` as JSON-ready primitives."""
    if isinstance(value, enum.IntEnum):
        return int(value)
    if isinstance(value, Link):
        return [value.a, value.b]
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if not dataclasses.is_dataclass(value):
        return value
    tag = {"kind": value.kind} if hasattr(value, "kind") else {}
    return {**tag, **{name: to_json(getattr(value, name)) for name in _fields(type(value))}}


def from_json(cls: Type[T], data: Any) -> T:
    """Rebuild a ``cls`` from :func:`to_json` output."""
    return _decode(cls, data, "")


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Dict[str, Tuple[Any, bool]]:
    """Each field's annotation, and whether the field has no default."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


def _at(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def _fault(path: str, message: str) -> ValueError:
    return ValueError(f"{path}: {message}" if path else message)


def _mismatch(hint: Any, value: Any, path: str) -> ValueError:
    name = hint.__name__ if typing.get_origin(hint) is None else str(hint)
    return _fault(path, f"expected {name}, got {value!r}")


def _decode_each(items: Dict[Any, Tuple[Any, Any, str]], faults: List[str]) -> Dict:
    """``{key: (hint, value, path)}`` decoded; one ``ValueError`` names every
    fault, the ``faults`` found before first."""
    decoded = {}
    for key, (hint, value, path) in items.items():
        try:
            decoded[key] = _decode(hint, value, path)
        except ValueError as exc:
            faults.append(str(exc))
    if faults:
        raise ValueError("; ".join(faults))
    return decoded


def _decode(hint: Any, value: Any, path: str) -> Any:
    """``value`` as a ``hint``; a ``ValueError`` names ``path``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        members = [arg for arg in args if arg is not type(None)]
        if value is None and len(members) < len(args):
            return None
        if len(members) == 1:
            return _decode(members[0], value, path)
        kinds = {getattr(member, "kind", None): member for member in members}
        if None not in kinds and isinstance(value, dict):
            kind = value.get("kind")
            if not isinstance(kind, str) or kind not in kinds:
                raise _fault(_at(path, "kind"), f"unknown kind {kind!r}")
            return _decode(kinds[kind], value, path)
        for member in members:
            try:
                return _decode(member, value, path)
            except (ValueError, OverflowError):
                pass
        raise _mismatch(hint, value, path)
    if origin in (tuple, list, collections.abc.Sequence):
        fixed = origin is tuple and Ellipsis not in args
        if not isinstance(value, (list, tuple)) or (fixed and len(value) != len(args)):
            raise _mismatch(hint, value, path)
        items = {
            i: (args[i] if fixed else args[0], v, f"{path}[{i}]") for i, v in enumerate(value)
        }
        decoded = list(_decode_each(items, []).values())
        return decoded if origin is list else tuple(decoded)
    if hint in _PAIRS:
        return _PAIRS[hint](*_decode(Tuple[str, str], value, path))
    if dataclasses.is_dataclass(hint):
        return _decode_dataclass(hint, value, path)
    if origin is Literal:
        if not any(value == arg and type(value) is type(arg) for arg in args):
            raise _mismatch(hint, value, path)
        return value
    taken = (int, float) if hint is float else int if issubclass(hint, enum.IntEnum) else hint
    if not isinstance(value, taken) or (hint is not bool and isinstance(value, bool)):
        raise _mismatch(hint, value, path)
    try:
        return hint(value)  # an int as a float, an enum member by its value
    except (ValueError, OverflowError):  # an int too large for a float
        raise _mismatch(hint, value, path) from None


def _decode_dataclass(cls: type, value: Any, path: str) -> Any:
    if not isinstance(value, dict):
        raise _fault(path, f"expected {cls.__name__} object, got {value!r}")
    fields, faults = _fields(cls), []
    unknown = value.keys() - fields.keys() - ({"kind"} if hasattr(cls, "kind") else set())
    if unknown:
        faults.append(f"unknown {cls.__name__} keys: {sorted(_at(path, k) for k in unknown)}")
    items = {}
    for name, (hint, required) in fields.items():
        if name in value:
            items[name] = (hint, value[name], _at(path, name))
        elif required:
            faults.append(f"{_at(path, name)}: missing key")
    kwargs = _decode_each(items, faults)
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the class's own checks
        raise _fault(path, str(exc)) from None
