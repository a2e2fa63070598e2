"""Typed config fields: one coercion rule per field type, shared by the specs.

A spec dataclass annotates each field with one of the types below and calls
`coerce_fields(self)` first in its `__post_init__`, so the library
constructors and the config path (`from_dict`) run the same checks:

    int      strict_int: an int or an integral float; no bool, fraction
             or string
    float    finite_real: an int or a float, finite; no bool, string,
             NaN or +-inf
    str      string
    Vec3     a list of exactly 3 finite reals, stored as a tuple
    Reals    a list of finite reals of any length, stored as a tuple
    Profile  an object whose "kind" is a string and whose every other
             entry is a finite real

Every rule raises a ValueError whose message names the field.  `Spec`
adds the generic dict reader and writer on top.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing

__all__ = [
    "Profile",
    "Reals",
    "Spec",
    "Vec3",
    "coerce_fields",
    "finite_real",
    "finite_reals",
    "profile",
    "strict_int",
    "string",
]

Vec3 = tuple[float, float, float]
Reals = tuple[float, ...]
Profile = typing.NewType("Profile", dict)


def _bad(key, want: str, value) -> ValueError:
    return ValueError(f"{key!r} must be {want}, got {value!r}")


def strict_int(value, key: str) -> int:
    """An integer config value: an int or an integral float.

    Bools, fractions and strings raise a ValueError naming `key`, where
    int() would read them or truncate them silently.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _bad(key, "an integer", value)


def finite_real(value, key: str) -> float:
    """A finite real number as a float; bools, strings, NaN and +-inf raise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise _bad(key, "a finite number", value)


def finite_reals(value, key: str, length: int | None = None) -> tuple:
    """A list of finite reals as a tuple of floats, of `length` if given."""
    want = f"a list of {length} finite numbers" if length else "a list of finite numbers"
    is_list = isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1
    if not is_list or (length is not None and len(value) != length):
        raise _bad(key, want, value)
    try:
        return tuple(finite_real(x, key) for x in value)
    except ValueError:
        raise _bad(key, want, value) from None


def string(value, key: str) -> str:
    if not isinstance(value, str):
        raise _bad(key, "a string", value)
    return value


def profile(value, key: str) -> dict:
    """A profile object: "kind" a string, every other entry a finite real."""
    if not isinstance(value, dict):
        raise _bad(key, "an object", value)
    try:
        return {k: string(x, k) if k == "kind" else finite_real(x, k)
                for k, x in value.items()}
    except ValueError as err:
        raise ValueError(f"{key}: {err}") from None


_RULES = {
    int: strict_int,
    float: finite_real,
    str: string,
    Vec3: lambda value, key: finite_reals(value, key, 3),
    Reals: finite_reals,
    Profile: profile,
}
_hints = functools.cache(typing.get_type_hints)


def coerce_fields(spec) -> None:
    """Replace every field of a dataclass instance by its coerced value."""
    hints = _hints(type(spec))
    for f in dataclasses.fields(spec):
        value = _RULES[hints[f.name]](getattr(spec, f.name), f.name)
        object.__setattr__(spec, f.name, value)


class Spec:
    """Dict reader and writer for a dataclass whose fields coerce themselves."""

    def to_dict(self) -> dict:
        """The fields in order, tuples written as lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict):
        """Reject unknown keys, name the first missing required one, build."""
        fields = dataclasses.fields(cls)
        names = {f.name for f in fields}
        for key in d:
            if key not in names:
                raise KeyError(f"unknown key {key!r}")
        for f in fields:
            if (f.name not in d and f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                raise KeyError(f"missing key {f.name!r}")
        return cls(**d)
