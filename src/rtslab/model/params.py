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

from collections.abc import Iterator

import numpy as np

from .. import ConfigError
from ..checkpoint import load_checkpoint
from ..rng import SplitMix64
from ..tensor import Tensor, normal
from .config import ModelConfig


Spec = Iterator[tuple[str, tuple[int, ...], str]]


def _attention_names(prefix: str, dim: int) -> Spec:
    """(name, shape, init-kind) for one attention submodule of width `dim`."""
    for part in ("wq", "wk", "wv", "wo"):
        yield f"{prefix}.{part}", (dim, dim), "weight"
    for part in ("bq", "bk", "bv", "bo"):
        yield f"{prefix}.{part}", (dim,), "zero"


def parameter_spec(config: ModelConfig) -> Spec:
    """Every parameter's (name, shape, init-kind), in creation order, one
    at a time, so a reader may stop before a huge `layers` is spelled out."""
    d = config.embed_dim
    yield "embed.weight", (d, config.patch_values), "weight"
    yield "embed.bias", (d,), "zero"
    yield "pos", (config.seq_len, d), "embedding"
    yield "cls", (d,), "embedding"
    for l in range(config.layers):
        base = f"layers.{l}"
        yield from _attention_names(f"{base}.sa", d)
        yield from _attention_names(f"{base}.ta", d)
        yield from _attention_names(f"{base}.fa", config.channel_dim)
        yield from _attention_names(f"{base}.cls_attn", d)
        yield f"{base}.cls_norm.gamma", (d,), "one"
        yield f"{base}.cls_norm.beta", (d,), "zero"
        yield f"{base}.norm.gamma", (d,), "one"
        yield f"{base}.norm.beta", (d,), "zero"
    yield "head.w1", (d, 4 * d), "weight"
    yield "head.b1", (4 * d,), "zero"
    yield "head.w2", (4 * d, 1), "weight"
    yield "head.b2", (), "zero"


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
    """Load a checkpoint, validating every name and shape against the
    config. The config's names are walked only until one is missing from
    the checkpoint, so the work is bounded by the checkpoint's size, not
    by the config's `layers`."""
    arrays = load_checkpoint(path)
    matched = set()
    for name, shape, _ in parameter_spec(config):
        if name not in arrays:
            raise ConfigError(f"checkpoint does not match config: missing={[name]}")
        if arrays[name].shape != shape:
            raise ConfigError(
                f"checkpoint shape mismatch for {name}: "
                f"file {arrays[name].shape} vs config {shape}"
            )
        matched.add(name)
    extra = sorted(set(arrays) - matched)
    if extra:
        raise ConfigError(f"checkpoint does not match config: extra={extra[:4]}")
    return {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
