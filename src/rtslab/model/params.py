"""Parameter construction, the active parameter count, and checkpoint loading.

Naming scheme (all keys in one flat dict):

    embed.weight (D, C*patch^2)   embed.bias (D,)
    pos (T*N+1, D)                cls (D,)
    layers.{l}.{sa|ta}.{wq,wk,wv,wo} (D, D) and .{bq,bk,bv,bo} (D,)
    layers.{l}.fa.{wq,wk,wv,wo} (d', d') and biases (d',)
    layers.{l}.cls_attn.*  single-head summary read-out, (D, D) / (D,)
    layers.{l}.cls_norm.{gamma,beta} (D,)
    layers.{l}.norm.{gamma,beta} (D,)   the LayerNorm closing each block
                                        (allocated but unread on the last)
    head.w1 (D, 4D)  head.b1 (4D,)  head.w2 (4D, 1)  head.b2 ()

Weight matrices multiply row-vector activations on the right (out = x @ W + b).
Init: weights ~ Normal(0, 1/sqrt(fan_in)); biases 0; pos and cls ~
Normal(0, 0.02); norm gains 1, shifts 0. Parameters are created in a fixed
order from one SplitMix64 stream, so a seed pins every value. The
per-group census of these arrays is docs/parameter_counts.py.
"""

from __future__ import annotations

import numpy as np

from ..checkpoint import load_checkpoint
from ..rng import SplitMix64
from ..tensor import Tensor, normal
from .config import ConfigError, ModelConfig


def _attention_names(prefix: str, dim: int) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init-kind) for one attention submodule of width `dim`."""
    out = []
    for part in ("wq", "wk", "wv", "wo"):
        out.append((f"{prefix}.{part}", (dim, dim), "weight"))
    for part in ("bq", "bk", "bv", "bo"):
        out.append((f"{prefix}.{part}", (dim,), "zero"))
    return out


def parameter_spec(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Every parameter's (name, shape, init-kind), in creation order."""
    d = config.embed_dim
    spec: list[tuple[str, tuple[int, ...], str]] = [
        ("embed.weight", (d, config.patch_values), "weight"),
        ("embed.bias", (d,), "zero"),
        ("pos", (config.seq_len, d), "embedding"),
        ("cls", (d,), "embedding"),
    ]
    for l in range(config.layers):
        base = f"layers.{l}"
        spec += _attention_names(f"{base}.sa", d)
        spec += _attention_names(f"{base}.ta", d)
        spec += _attention_names(f"{base}.fa", config.channel_dim)
        spec += _attention_names(f"{base}.cls_attn", d)
        spec += [
            (f"{base}.cls_norm.gamma", (d,), "one"),
            (f"{base}.cls_norm.beta", (d,), "zero"),
            (f"{base}.norm.gamma", (d,), "one"),
            (f"{base}.norm.beta", (d,), "zero"),
        ]
    spec += [
        ("head.w1", (d, 4 * d), "weight"),
        ("head.b1", (4 * d,), "zero"),
        ("head.w2", (4 * d, 1), "weight"),
        ("head.b2", (), "zero"),
    ]
    return spec


def _fan_in(name: str, shape: tuple[int, ...]) -> int:
    # embed.weight is stored (D, C*p^2) but contracts over its second axis
    if name == "embed.weight":
        return shape[1]
    return shape[0]


def init_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    rng = SplitMix64(seed)
    params: dict[str, Tensor] = {}
    for name, shape, kind in parameter_spec(config):
        if kind == "weight":
            std = 1.0 / np.sqrt(_fan_in(name, shape))
            params[name] = normal(rng, shape, std)
        elif kind == "embedding":
            params[name] = normal(rng, shape, 0.02)
        elif kind == "one":
            params[name] = Tensor(np.ones(shape), requires_grad=True)
        else:
            params[name] = Tensor(np.zeros(shape), requires_grad=True)
    return params


def count_params(config: ModelConfig) -> int:
    """Exact count of the parameters the variant uses: every array of
    `parameter_spec`, less the feature scope (`layers.{l}.fa.*`) for
    space/time-only models, which allocate it but never read it."""
    skip_feature = config.variant == "space_time_only"
    return sum(
        int(np.prod(shape))
        for name, shape, _ in parameter_spec(config)
        if not (skip_feature and ".fa." in name)
    )


def load_params(path, config: ModelConfig) -> dict[str, Tensor]:
    """Load a checkpoint, validating every shape against the config."""
    arrays = load_checkpoint(path)
    expected = {name: shape for name, shape, _ in parameter_spec(config)}
    if set(arrays) != set(expected):
        missing = sorted(set(expected) - set(arrays))
        extra = sorted(set(arrays) - set(expected))
        raise ConfigError(
            f"checkpoint does not match config: missing={missing[:4]} extra={extra[:4]}"
        )
    out: dict[str, Tensor] = {}
    for name, arr in arrays.items():
        if tuple(arr.shape) != tuple(expected[name]):
            raise ConfigError(
                f"checkpoint shape mismatch for {name}: "
                f"file {tuple(arr.shape)} vs config {tuple(expected[name])}"
            )
        out[name] = Tensor(arr, requires_grad=True)
    return out
