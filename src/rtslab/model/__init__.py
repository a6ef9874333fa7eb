"""Tri-axis attention win predictor: config, parameters, network."""

from .config import PRESETS, ConfigError, ModelConfig, get_preset
from .network import WinPredictor, extract_patches
from .params import (
    count_params,
    init_params,
    load_params,
    parameter_spec,
)

__all__ = [
    "ConfigError",
    "ModelConfig",
    "PRESETS",
    "WinPredictor",
    "count_params",
    "extract_patches",
    "get_preset",
    "init_params",
    "load_params",
    "parameter_spec",
]
