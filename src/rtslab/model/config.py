"""Model hyperparameters and the named presets.

The embedding width must divide evenly by both the head count (for
spatial/temporal attention) and the channel count (for feature attention):
each head works on D/h dims, each channel token on D/C dims.
"""

from __future__ import annotations

import json
import math
import typing
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import CorruptArtifact

VARIANTS = ("tstf", "space_time_only")


class ConfigError(ValueError):
    """Bad configuration: a model config, a run config or a command line
    (CLI exit code 3)."""


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


def fields_from_json(cls, data: dict) -> dict:
    """Keyword arguments for the dataclass `cls` from the JSON object
    `data`. Each key must name a field and each value fit its annotation
    (`field_kind`), else ConfigError. A list becomes a tuple of the
    annotation's item type, so [1] for `tuple[float, ...]` is (1.0,)."""
    hints = typing.get_type_hints(cls)  # the fields' annotations
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {key!r}")
        what, check = field_kind(hints[key])
        if not check(value):
            raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")
        if type(value) is list:
            value = tuple(map(typing.get_args(hints[key])[0], value))
        kwargs[key] = value
    return kwargs


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    embed_dim: int      # D
    heads: int          # h
    channels: int       # C
    time_steps: int     # frames per input
    map_height: int = 16
    map_width: int = 16
    patch: int = 4
    variant: str = "tstf"

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.embed_dim % self.channels != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by channels {self.channels}"
            )
        if self.map_height % self.patch or self.map_width % self.patch:
            raise ConfigError(
                f"map {self.map_height}x{self.map_width} not divisible by patch {self.patch}"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if min(self.layers, self.embed_dim, self.heads, self.channels, self.time_steps) < 1:
            raise ConfigError("all dimensions must be positive")

    @property
    def patches_per_frame(self) -> int:  # N
        return (self.map_height // self.patch) * (self.map_width // self.patch)

    @property
    def seq_len(self) -> int:  # T*N + 1 for the summary token
        return self.time_steps * self.patches_per_frame + 1

    @property
    def channel_dim(self) -> int:  # d'
        return self.embed_dim // self.channels

    @property
    def patch_values(self) -> int:  # C * patch^2 raw values per patch
        return self.channels * self.patch * self.patch

    def save(self, path: str | Path) -> None:
        # The file names the block layout, which is always post_norm; the
        # entry keeps config.json's bytes fixed.
        data = {**asdict(self), "block_form": "post_norm"}
        Path(path).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ModelConfig":
        """Read a saved config. A file that does not parse, is not an object,
        or has an unknown, missing or bad value is a CorruptArtifact naming it.
        The optional "block_form" entry must name the one layout, post_norm."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                raise ConfigError("must hold a JSON object")
            block_form = data.pop("block_form", "post_norm")
            if block_form != "post_norm":
                raise ConfigError(f"'block_form' must be 'post_norm', got {block_form!r}")
            return cls(**fields_from_json(cls, data))
        except (ValueError, TypeError, RecursionError) as exc:  # a missing key is a TypeError
            raise CorruptArtifact(f"{path}: {exc}") from None


# Full-scale presets mirror the published training setups; only the desk
# preset is meant to be trained here.
PRESETS: dict[str, ModelConfig] = {
    "desk": ModelConfig(layers=2, embed_dim=20, heads=5, channels=5, time_steps=8),
    "desk-4": ModelConfig(layers=4, embed_dim=20, heads=5, channels=5, time_steps=8),
    "tstf-6": ModelConfig(layers=6, embed_dim=155, heads=5, channels=5, time_steps=500),
    "tstf-8": ModelConfig(layers=8, embed_dim=155, heads=5, channels=5, time_steps=500),
    "timesformer-12": ModelConfig(
        layers=12, embed_dim=155, heads=5, channels=5, time_steps=500,
        variant="space_time_only",
    ),
}


def get_preset(name: str) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]
