"""Model hyperparameters and the named presets.

The embedding width must divide evenly by both the head count (for
spatial/temporal attention) and the channel count (for feature attention):
each head works on D/h dims, each channel token on D/C dims.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import ConfigError, CorruptArtifact
from ..schema import from_json

VARIANTS = ("tstf", "space_time_only")


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
        or has an unknown, missing or bad value (`from_json`, before the
        divisibility rules) is a CorruptArtifact naming it and the key. The
        optional "block_form" entry must name the one layout, post_norm."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                raise ConfigError("must hold a JSON object")
            block_form = data.pop("block_form", "post_norm")
            if block_form != "post_norm":
                raise ConfigError(f"'block_form' must be 'post_norm', got {block_form!r}")
            return from_json(cls, data)
        except (ValueError, RecursionError) as exc:
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
