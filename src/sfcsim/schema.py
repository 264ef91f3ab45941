"""Config fields: each is converted to its declared type and checked against
the range declared beside it, such as `Annotated[int, AT_LEAST_1]`, whenever a
`Section` is built: by the loader, `dataclasses.replace` or a direct call."""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import fields
from functools import cache
from types import NoneType, UnionType
from typing import Annotated, Callable, NamedTuple, Union, get_args, get_origin, \
    get_type_hints


class Range(NamedTuple):
    """The values that pass `test`; NaN passes none of the ranges below."""
    text: str
    test: Callable[[object], bool]

    def __repr__(self) -> str:
        return self.text


AT_LEAST_0 = Range("at least 0", lambda x: x >= 0)
AT_LEAST_1 = Range("at least 1", lambda x: x >= 1)
AT_LEAST_2 = Range("at least 2", lambda x: x >= 2)
POSITIVE = Range("positive and finite", lambda x: 0 < x < math.inf)
FINITE_AT_LEAST_0 = Range("finite and at least 0", lambda x: 0 <= x < math.inf)
FINITE = Range("finite", math.isfinite)
UNIT = Range("in [0, 1]", lambda x: 0 <= x <= 1)
BELOW_1 = Range("in [0, 1)", lambda x: 0 <= x < 1)
NON_EMPTY = Range("non-empty", len)


def convert(value, kind, where: str):
    """`value` as the declared type `kind`: int, float, str or dict, a list or
    tuple of those, a union such as `X | None`, or `Annotated[X, range]`;
    else ValueError naming `where`. An int takes only whole numbers."""
    if get_origin(kind) in (Union, UnionType):
        if value is None and NoneType in get_args(kind):
            return None
        *others, last = (k for k in get_args(kind) if k is not NoneType)
        for other in others:  # the first alternative that takes the value
            with suppress(ValueError):
                return convert(value, other, where)
        return convert(value, last, where)
    origin, args = get_origin(kind), get_args(kind)
    if origin is Annotated:
        converted, valid = convert(value, args[0], where), args[1]
        if not valid.test(converted):
            raise ValueError(f"{where} must be {valid.text}, got {value!r}")
        return converted
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        kinds = (args[:1] * len(value) if origin is list or args[-1] is Ellipsis
                 else args)
        if len(kinds) == len(value):
            return origin(convert(v, k, f"{where}[{i}]")
                          for i, (v, k) in enumerate(zip(value, kinds)))
    elif kind is dict:
        if isinstance(value, dict):
            return value
    elif origin is None and isinstance(value, (int, float, str)) \
            and not isinstance(value, bool):
        try:
            converted = kind(value)
            if kind is not int or converted == float(value):
                return converted
        except (ValueError, OverflowError):
            pass
    name = kind.__name__ if origin is None else str(kind).replace("typing.", "")
    raise ValueError(f"{where} must be {name}, got {value!r}")


@cache
def _declared(cls) -> tuple[tuple[str, object], ...]:
    """(name, declared type) of each of `cls`'s fields, resolved once."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


class Section:
    """Base of a config section's dataclass; `name` is its YAML section. A
    subclass that adds a cross-field check calls `super().__post_init__()`
    first."""

    def __init_subclass__(cls, name: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if name is not None:
            cls.section = name

    def __post_init__(self):
        for name, kind in _declared(type(self)):
            setattr(self, name, convert(getattr(self, name), kind,
                                        f"{self.section}.{name}"))
