"""One reader of a JSON object into a dataclass, and one range table.

A run config, a model's config.json and a dataset.jsonl header all go
through `from_json`, which raises ConfigError naming the key; the caller
picks the exit code: 3 for a run config, CorruptArtifact's 2 for a file.
It sits in sim/ because its table reads CHANNELS and MIN_MAP_SIZE.
"""

from __future__ import annotations

import math
import os
import typing
from collections.abc import Callable
from dataclasses import fields
from typing import NamedTuple

from .. import ConfigError
from .encode import CHANNELS
from .state import MIN_MAP_SIZE

FORMAT_VERSION = 1  # of dataset.jsonl


class Range(NamedTuple):
    """low..high, with low excluded if `open_low`, for a number or for each
    item of a list, which must then hold one item at least."""

    low: float
    high: float = math.inf
    open_low: bool = False

    def __str__(self) -> str:
        if self.low == self.high:
            return repr(self.low)
        if self.high == math.inf:
            return f"{'>' if self.open_low else '>='} {self.low!r}"
        if self.open_low:
            return f"in ({self.low!r}, {self.high!r}]"
        return f"in {self.low!r}..{self.high!r}"

    def holds(self, value) -> bool:
        items = value if isinstance(value, (list, tuple)) else [value]
        return bool(items) and all(
            (self.low < v if self.open_low else self.low <= v) and v <= self.high for v in items)


# One entry per key, whichever of RunConfig, ModelConfig and DatasetHeader
# holds it, so a shared key means the same in each. A key with no entry
# takes any value of its type.
RANGES: dict[str, Range] = {
    # SplitMix64 and derive_seed use a seed mod 2**64, so a seed outside
    # would play the same matches as one inside
    "seed": Range(0, 2**64 - 1),
    "max_steps": Range(1),
    "capture_every": Range(1),
    # 0 is DatasetHeader's default, for a dataset no tournament wrote; a
    # run's schedule also asks for an even count
    "rounds_per_pair": Range(0),
    # a run plays from standard_start, which needs MIN_MAP_SIZE; a header
    # or a model may hold smaller maps, as tests write 4x4 datasets
    "map_size": Range(MIN_MAP_SIZE),
    "map_height": Range(1),
    "map_width": Range(1),
    # a frame holds CHANNELS planes, all of which decode_planes reads, and
    # a model's channels are the planes of the frames it reads
    "channels": Range(CHANNELS, CHANNELS),
    "format_version": Range(FORMAT_VERSION, FORMAT_VERSION),
    # a process pool forks all its workers at the first submit: a bound
    # of this machine, not of a file
    "threads": Range(1, os.cpu_count() or 1),
    "fractions": Range(0, 1, open_low=True),
    "layers": Range(1),
    "embed_dim": Range(1),
    "heads": Range(1),
    "time_steps": Range(1),
    "patch": Range(1),
}


# Per scalar type: its description, the plural for a list of it, and the
# check of a JSON value. type() is exact, so a JSON true/false is not an int.
_SCALARS: dict[type, tuple[str, str, Callable[[object], bool]]] = {
    int: ("an integer", "integers", lambda v: type(v) is int),
    float: ("a number", "numbers", lambda v: type(v) in (int, float) and math.isfinite(v)),
    str: ("a string", "strings", lambda v: type(v) is str),
}


def field_kind(annotation) -> tuple[str, Callable[[object], bool]]:
    """(description, check) of the JSON values a dataclass field accepts:
    int, float or str, one of those or None, or `tuple[X, ...]` of one
    of those (given as a list). TypeError for any other annotation."""
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple and args[1:] == (...,) and args[0] in _SCALARS:
        _, items, check = _SCALARS[args[0]]
        return f"a list of {items}", lambda v: isinstance(v, (list, tuple)) and all(map(check, v))
    if args[1:] == (type(None),) and args[0] in _SCALARS:  # X | None
        what, _, check = _SCALARS[args[0]]
        return f"{what} or null", lambda v: v is None or check(v)
    if annotation in _SCALARS:
        what, _, check = _SCALARS[annotation]
        return what, check
    raise TypeError(f"no config kind for the annotation {annotation!r}")


def from_json(cls, data: dict, what: str = "config"):
    """The dataclass `cls` from the JSON object `data`, called `what` in
    errors. Its keys must be the fields, and each value fit its field's
    annotation (`field_kind`), then its RANGES entry. A list becomes a
    tuple of the annotation's item type, so [1] for `tuple[float, ...]`
    is (1.0,)."""
    hints = typing.get_type_hints(cls)  # the fields' annotations
    for f in fields(cls):
        if f.name not in data:
            raise ConfigError(f"{what} lacks key {f.name!r}")
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown {what} key {key!r}")
        kind, check = field_kind(hints[key])
        if not check(value):
            raise ConfigError(f"{what} key {key!r} must be {kind}, got {value!r}")
        bounds = RANGES.get(key)
        if bounds and value is not None and not bounds.holds(value):
            listed = type(value) in (list, tuple)
            rule = f"a non-empty list of values {bounds}" if listed else bounds
            raise ConfigError(f"{what} key {key!r} must be {rule}, got {value!r}")
        if type(value) is list:
            value = tuple(map(typing.get_args(hints[key])[0], value))
        kwargs[key] = value
    return cls(**kwargs)
