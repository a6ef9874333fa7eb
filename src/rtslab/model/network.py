"""Tri-axis attention win predictor.

An input clip (B, T, C, H, W) is cut into non-overlapping patch tokens,
embedded, and pushed through L encoder blocks. Each block runs attention
three times over different groupings of the same tokens:

    spatial   (B*T) x N  x D   patches of one frame attend to each other
    temporal  (B*N) x T  x D   one patch position attends across frames
    feature   (B*T*N) x C x d' channel slices of one token attend (1 head)

A summary token rides along outside those reshapes; each block updates it
by single-head cross-attention over the block's patch outputs (residual +
norm), and the prediction head reads it after the last block:

    p(win) = sigmoid(w2 . gelu(w1 . summary + b1) + b2)

Block forms: "post_norm" keeps a residual around every attention submodule
and closes the block with one LayerNorm (so a block with silenced
attention reduces to LN of its input); "pre_norm" is the conventional
LN-before-submodule layout. The space/time-only variant skips the feature
attention term entirely; its parameters stay allocated and untouched.
"""

from __future__ import annotations

import numpy as np

from .. import tensor as T
from ..tensor import Tensor
from .config import ConfigError, ModelConfig
from .params import init_params, load_params, save_params


def extract_patches(x: np.ndarray, patch: int) -> np.ndarray:
    """(B, T, C, H, W) -> (B, T*N, C*patch*patch), row-major patch order.

    Each patch flattens its (C, patch, patch) block with channel outermost.
    """
    b, t, c, h, w = x.shape
    gh, gw = h // patch, w // patch
    x = x.reshape(b, t, c, gh, patch, gw, patch)
    x = x.transpose(0, 1, 3, 5, 2, 4, 6)  # (B,T,gh,gw,C,p,p)
    return np.ascontiguousarray(x.reshape(b, t * gh * gw, c * patch * patch))


class WinPredictor:
    """Config + parameter bundle with the forward pass as methods."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def create(cls, config: ModelConfig, seed: int) -> "WinPredictor":
        return cls(config, init_params(config, seed))

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        save_params(path, self.config, self.params)

    @classmethod
    def load(cls, path, config: ModelConfig) -> "WinPredictor":
        return cls(config, load_params(path, config))

    # -- forward ------------------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _attend(self, xq: Tensor, xkv: Tensor, prefix: str, heads: int) -> Tensor:
        """Fused attention of xq over xkv with the weights stored under `prefix`."""
        weights = (
            self._p(f"{prefix}.{part}")
            for part in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        )
        return T.attention(xq, xkv, *weights, heads=heads)

    def spatial_attention(self, patches: Tensor, layer: int) -> Tensor:
        """Attention among the N patches of each frame; (B, T*N, D) preserved."""
        cfg = self.config
        b = patches.shape[0]
        x = patches.reshape(b * cfg.time_steps, cfg.patches_per_frame, cfg.embed_dim)
        out = self._attend(x, x, f"layers.{layer}.sa", cfg.heads)
        return out.reshape(b, cfg.time_steps * cfg.patches_per_frame, cfg.embed_dim)

    def temporal_attention(self, patches: Tensor, layer: int) -> Tensor:
        """Attention across the T frames of each patch position."""
        cfg = self.config
        b = patches.shape[0]
        x = patches.reshape(b, cfg.time_steps, cfg.patches_per_frame, cfg.embed_dim)
        x = x.permute(0, 2, 1, 3).reshape(
            b * cfg.patches_per_frame, cfg.time_steps, cfg.embed_dim
        )
        out = self._attend(x, x, f"layers.{layer}.ta", cfg.heads)
        out = out.reshape(b, cfg.patches_per_frame, cfg.time_steps, cfg.embed_dim)
        return out.permute(0, 2, 1, 3).reshape(
            b, cfg.time_steps * cfg.patches_per_frame, cfg.embed_dim
        )

    def feature_attention(self, patches: Tensor, layer: int) -> Tensor:
        """Single-head attention among each token's C channel slices."""
        cfg = self.config
        b, m, _ = patches.shape
        x = patches.reshape(b * m, cfg.channels, cfg.channel_dim)
        out = self._attend(x, x, f"layers.{layer}.fa", heads=1)
        return out.reshape(b, m, cfg.embed_dim)

    def _summary_update(self, summary: Tensor, patches: Tensor, layer: int) -> Tensor:
        """Cross-attention: summary token queries all patch outputs."""
        attended = self._attend(summary, patches, f"layers.{layer}.cls_attn", heads=1)
        return T.layer_norm(
            T.add(summary, attended),
            self._p(f"layers.{layer}.cls_norm.gamma"),
            self._p(f"layers.{layer}.cls_norm.beta"),
        )

    def encoder_block(self, z: Tensor, layer: int) -> Tensor:
        """One block: factorized attention over patches + summary update."""
        cfg = self.config
        summary, patches = z[:, :1, :], z[:, 1:, :]
        base = f"layers.{layer}"
        if cfg.block_form == "post_norm":
            u = T.add(patches, self.spatial_attention(patches, layer))
            v = T.add(u, self.temporal_attention(u, layer))
            if cfg.variant == "tstf":
                w = T.add(v, self.feature_attention(v, layer))
            else:
                w = v
            summary = self._summary_update(summary, w, layer)
            patches_out = T.layer_norm(
                w, self._p(f"{base}.norm.gamma"), self._p(f"{base}.norm.beta")
            )
        else:
            u = T.add(
                patches,
                self.spatial_attention(
                    T.layer_norm(
                        patches,
                        self._p(f"{base}.norm_sa.gamma"),
                        self._p(f"{base}.norm_sa.beta"),
                    ),
                    layer,
                ),
            )
            v = T.add(
                u,
                self.temporal_attention(
                    T.layer_norm(
                        u,
                        self._p(f"{base}.norm_ta.gamma"),
                        self._p(f"{base}.norm_ta.beta"),
                    ),
                    layer,
                ),
            )
            if cfg.variant == "tstf":
                w = T.add(
                    v,
                    self.feature_attention(
                        T.layer_norm(
                            v,
                            self._p(f"{base}.norm_fa.gamma"),
                            self._p(f"{base}.norm_fa.beta"),
                        ),
                        layer,
                    ),
                )
            else:
                w = v
            summary = self._summary_update(summary, w, layer)
            patches_out = w
        return T.concat([summary, patches_out], axis=1)

    def embed(self, x: np.ndarray) -> Tensor:
        """Patch-embed a clip and prepend the summary token: (B, T*N+1, D)."""
        cfg = self.config
        expected = (cfg.time_steps, cfg.channels, cfg.map_height, cfg.map_width)
        if x.ndim != 5 or tuple(x.shape[1:]) != expected:
            raise ConfigError(
                f"input shape {tuple(x.shape)} incompatible with config (B,)+{expected}"
            )
        b = x.shape[0]
        raw = Tensor(extract_patches(np.asarray(x, dtype=np.float64), cfg.patch))
        e_t = self._p("embed.weight").permute(1, 0)  # (C*p^2, D)
        tokens = T.add(T.matmul(raw, e_t), self._p("embed.bias"))
        tokens = T.add(tokens, self._p("pos")[1:, :])
        summary = T.add(self._p("cls"), self._p("pos")[0, :]).reshape(1, 1, cfg.embed_dim)
        summary = T.add(T.zeros((b, 1, cfg.embed_dim)), summary)
        return T.concat([summary, tokens], axis=1)

    def forward(self, x: np.ndarray) -> Tensor:
        """Win probability for player 1, one value in (0,1) per batch row."""
        z = self.embed(x)
        for layer in range(self.config.layers):
            z = self.encoder_block(z, layer)
        summary = z[:, 0, :]
        if self.config.block_form == "pre_norm":
            summary = T.layer_norm(
                summary, self._p("final_norm.gamma"), self._p("final_norm.beta")
            )
        hidden = T.gelu(T.add(T.matmul(summary, self._p("head.w1")), self._p("head.b1")))
        logits = T.add(T.matmul(hidden, self._p("head.w2")), self._p("head.b2"))
        return T.sigmoid(logits.reshape(x.shape[0]))
