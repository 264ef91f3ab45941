"""Config values: each is converted to its declared type and checked against
the range declared beside it, such as `Annotated[int, AT_LEAST_1]`. A
dataclass is built from a mapping of its fields, each converted the same way,
and a `Section` converts its fields whenever it is built: by the loader,
`dataclasses.replace` or a direct call."""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import MISSING, fields, is_dataclass
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
    """`value` as the declared type `kind`: int, float or str, a list, tuple
    or `dict[str, X]` of those, a dataclass, a union such as `X | None`, or
    `Annotated[X, range]`; else ValueError naming `where`, the value's path
    such as `topology.links[1].a` (empty for the config root). An int takes
    only whole numbers. A dataclass is built from a mapping that holds each
    of its required fields and no other key; an instance is taken as it is."""
    if get_origin(kind) in (Union, UnionType):
        if value is None and NoneType in get_args(kind):
            return None
        kinds = [k for k in get_args(kind) if k is not NoneType]
        if len(kinds) == 1:  # `X | None`: X's own message
            return convert(value, kinds[0], where)
        for other in kinds:  # the first alternative that takes the value
            with suppress(ValueError):
                return convert(value, other, where)
        raise ValueError(f"{where or 'config'} must be "
                         f"{' or '.join(map(_type_name, kinds))}, got {value!r}")
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
    elif origin is dict and isinstance(value, dict):
        return {convert(k, args[0], where): convert(v, args[1], f"{where}.{k}")
                for k, v in value.items()}
    elif is_dataclass(kind):
        if isinstance(value, kind):
            return value
        if isinstance(value, dict):
            declared, path = _declared(kind), f"{where}." if where else ""
            if unknown := [key for key in value if key not in declared]:
                raise ValueError(f"{where or 'config'}: unknown keys {unknown}, "
                                 f"expected {list(declared)}")
            if missing := [f.name for f in fields(kind) if f.init
                           and f.name not in value and f.default is MISSING
                           and f.default_factory is MISSING]:
                raise ValueError(f"{path}{missing[0]} is missing")
            return kind(**{k: convert(v, declared[k], f"{path}{k}")
                           for k, v in value.items()})
    elif origin is None and isinstance(value, (int, float, str)) \
            and not isinstance(value, bool):
        try:
            converted = kind(value)
            if kind is not int or converted == float(value):
                return converted
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{where or 'config'} must be {_type_name(kind)}, "
                     f"got {value!r}")


def _type_name(kind) -> str:
    """`kind` as an error message names it: `Annotated[X, range]` as X."""
    if get_origin(kind) is Annotated:
        return _type_name(get_args(kind)[0])
    return ("a mapping" if is_dataclass(kind) else kind.__name__
            if get_origin(kind) is None else str(kind).replace("typing.", ""))


@cache
def _declared(cls) -> dict[str, object]:
    """Each of `cls`'s init fields with its declared type, resolved once."""
    hints = get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


class Section:
    """Base of a config section's dataclass; `name` is its YAML section. A
    subclass that adds a cross-field check calls `super().__post_init__()`
    first."""

    def __init_subclass__(cls, name: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if name is not None:
            cls.section = name

    def __post_init__(self):
        for name, kind in _declared(type(self)).items():
            setattr(self, name, convert(getattr(self, name), kind,
                                        f"{self.section}.{name}"))
