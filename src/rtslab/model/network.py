"""Tri-axis attention win predictor.

An input clip (B, T, C, H, W) is cut into non-overlapping patch tokens,
embedded, and pushed through L encoder blocks. Each block runs attention
three times over different groupings of the same tokens:

    spatial   (B*T) x N  x D   patches of one frame attend to each other
    temporal  (B*N) x T  x D   one patch position attends across frames
    feature   (B*T*N) x C x d' channel slices of one token attend (1 head)

A summary token rides along outside those reshapes; each block updates it
by single-head attention over the block's patch outputs, a ``readout``
node (residual + norm), and the prediction head reads it after the last block:

    p(win) = sigmoid(w2 . gelu(w1 . summary + b1) + b2)

Each block keeps a residual around every attention submodule and closes
with one LayerNorm of the patches (so a block with silenced attention
reduces to LN of its input). The last block skips that LayerNorm, since the
head reads only the summary; its parameters stay allocated, so checkpoints
keep their shape. The space/time-only variant skips the feature
attention term entirely; its parameters stay allocated and untouched.
"""

from __future__ import annotations

import numpy as np

from .. import CorruptArtifact
from .. import tensor as T
from ..checkpoint import save_checkpoint
from ..tensor import Tensor
from .config import ConfigError, ModelConfig
from .params import init_params, load_params


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

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], checkpoint=None):
        self.config = config
        self.params = params
        self.checkpoint = checkpoint  # the file `load` read the params from

    @classmethod
    def create(cls, config: ModelConfig, seed: int) -> "WinPredictor":
        return cls(config, init_params(config, seed))

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        save_checkpoint(path, self.params)

    @classmethod
    def load(cls, path, config: ModelConfig) -> "WinPredictor":
        return cls(config, load_params(path, config), checkpoint=path)

    # -- forward ------------------------------------------------------------

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _weights(self, prefix: str) -> list[Tensor]:
        """The eight attention operands stored under `prefix`."""
        parts = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        return [self._p(f"{prefix}.{part}") for part in parts]

    def _attend(self, x: Tensor, prefix: str, heads: int, axis: int = -2) -> Tensor:
        """Fused self-attention of x along `axis` with the weights stored
        under `prefix`."""
        return T.attention(x, *self._weights(prefix), heads=heads, axis=axis)

    def spatial_attention(self, patches: Tensor, layer: int) -> Tensor:
        """Attention among the N patches of each frame; (B, T*N, D) preserved."""
        cfg = self.config
        b = patches.shape[0]
        x = patches.reshape(b * cfg.time_steps, cfg.patches_per_frame, cfg.embed_dim)
        out = self._attend(x, f"layers.{layer}.sa", cfg.heads)
        return out.reshape(b, cfg.time_steps * cfg.patches_per_frame, cfg.embed_dim)

    def temporal_attention(self, patches: Tensor, layer: int) -> Tensor:
        """Attention across the T frames of each patch position: the kernel
        runs along axis 1 of a (B, T, N, D) view, so nothing is permuted."""
        cfg = self.config
        b = patches.shape[0]
        x = patches.reshape(b, cfg.time_steps, cfg.patches_per_frame, cfg.embed_dim)
        out = self._attend(x, f"layers.{layer}.ta", cfg.heads, axis=1)
        return out.reshape(patches.shape)

    def feature_attention(self, patches: Tensor, layer: int) -> Tensor:
        """Single-head attention among each token's C channel slices."""
        cfg = self.config
        b, m, _ = patches.shape
        x = patches.reshape(b * m, cfg.channels, cfg.channel_dim)
        out = self._attend(x, f"layers.{layer}.fa", heads=1)
        return out.reshape(b, m, cfg.embed_dim)

    def _norm(self, x: Tensor, prefix: str) -> Tensor:
        """LayerNorm with the gain and shift stored under `prefix`."""
        return T.layer_norm(x, self._p(f"{prefix}.gamma"), self._p(f"{prefix}.beta"))

    def _summary_update(self, summary: Tensor, patches: Tensor, layer: int) -> Tensor:
        """The summary token reads all patch outputs (one-head attention)."""
        attended = T.readout(summary, patches, *self._weights(f"layers.{layer}.cls_attn"))
        return self._norm(T.add(summary, attended), f"layers.{layer}.cls_norm")

    def encoder_block(
        self, summary: Tensor, x: Tensor, layer: int
    ) -> tuple[Tensor, Tensor]:
        """One block: factorized attention over patches + summary update.

        Takes and returns (summary (B,1,D), patches (B,T*N,D)). Each scope
        adds attention of its input to the residual stream; the patches are
        normalized once after the summary update, except on the last block,
        whose patches nothing reads.
        """
        attentions = [self.spatial_attention, self.temporal_attention]
        if self.config.variant == "tstf":
            attentions.append(self.feature_attention)
        for attention in attentions:
            x = T.add(x, attention(x, layer))
        summary = self._summary_update(summary, x, layer)
        if layer == self.config.layers - 1:
            return summary, x  # the head reads only the summary
        return summary, self._norm(x, f"layers.{layer}.norm")

    def embed(self, x: np.ndarray) -> tuple[Tensor, Tensor]:
        """Patch-embed a clip: (summary token (B,1,D), patches (B,T*N,D))."""
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
        summary = T.add(Tensor(np.zeros((b, 1, cfg.embed_dim))), summary)
        return summary, tokens

    def forward(self, x: np.ndarray) -> Tensor:
        """Win probability for player 1, one value in (0,1) per batch row.

        A NaN or Inf on the way is a NonFiniteError, with no numpy warning
        before it; for a loaded model it is a CorruptArtifact naming the
        checkpoint, whose weights are then too large for the forward."""
        cfg = self.config
        try:
            with np.errstate(all="ignore"):
                summary, patches = self.embed(x)
                for layer in range(cfg.layers):
                    summary, patches = self.encoder_block(summary, patches, layer)
                summary = summary.reshape(x.shape[0], cfg.embed_dim)
                hidden = T.gelu(T.add(T.matmul(summary, self._p("head.w1")), self._p("head.b1")))
                logits = T.add(T.matmul(hidden, self._p("head.w2")), self._p("head.b2"))
                return T.sigmoid(logits.reshape(x.shape[0]))
        except T.NonFiniteError:
            if self.checkpoint is None:
                raise
            raise CorruptArtifact(
                f"{self.checkpoint}: weights overflow the forward to NaN/Inf"
            ) from None
