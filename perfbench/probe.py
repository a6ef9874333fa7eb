"""Per-scope timing of the desk tri-axis model.

Scopes are the public ``WinPredictor`` methods ``embed``,
``spatial_attention``, ``temporal_attention``, ``feature_attention``,
``encoder_block`` and ``forward``, plus ``rtslab.tensor.layer_norm``. Each
is wrapped on one model instance; a scope's forward time and tape nodes are
its self share: time and nodes not covered by a nested scope. So
``summary`` (self of ``encoder_block``) is the summary-token update with the
block's residual adds, slices and concat, and ``head`` (self of
``forward``) is the prediction head.

Backward time per scope is measured node by node: after a taped forward,
each recorded node's backward closure is wrapped with a timer and the
scope that recorded it, then ``Tape.backward`` runs as usual. This reads
the tape's node list (``Tape._nodes``, ``Tensor._backward``), the one place
the benchmark looks inside the program.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import rtslab.tensor as T
from rtslab.model import WinPredictor, get_preset
from rtslab.tensor import Tape
from rtslab.train import bce_loss

SCOPES = ("embed", "spatial", "temporal", "feature", "summary", "layer_norm", "head")
_METHODS = {
    "embed": "embed",
    "spatial": "spatial_attention",
    "temporal": "temporal_attention",
    "feature": "feature_attention",
    "summary": "encoder_block",
    "head": "forward",
}
BATCHES = (1, 2, 32)


class _ScopeRecorder:
    """Self time and self tape nodes per scope for one forward pass."""

    def __init__(self):
        self._stack: list[list] = []  # [scope, start, child time]
        self.reset(None)

    def reset(self, tape: Tape | None) -> None:
        self.tape = tape
        self.fwd = dict.fromkeys(SCOPES, 0.0)
        self.nodes = dict.fromkeys(SCOPES + ("loss",), 0)
        self.owner: list[str] = []  # scope of each tape node, by index

    def _tape_len(self) -> int:
        return len(self.tape) if self.tape is not None else 0

    def claim(self, scope: str) -> None:
        # nodes recorded since the last claim belong to the innermost open scope
        new = self._tape_len() - len(self.owner)
        self.owner.extend([scope] * new)
        self.nodes[scope] += new

    def wrap(self, scope: str, fn):
        def wrapper(*args, **kwargs):
            if self._stack:
                self.claim(self._stack[-1][0])
            self._stack.append([scope, perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                self.claim(scope)
                _, start, child = self._stack.pop()
                dur = perf_counter() - start
                if self._stack:
                    self._stack[-1][2] += dur
                self.fwd[scope] += dur - child

        return wrapper


def _timed_backward(rec: _ScopeRecorder, tape: Tape, loss) -> dict[str, float]:
    bwd = dict.fromkeys(SCOPES + ("loss",), 0.0)
    for node, scope in zip(tape._nodes, rec.owner, strict=True):
        fn = node._backward
        if fn is None:
            continue

        def timed(g, fn=fn, scope=scope):
            start = perf_counter()
            fn(g)
            bwd[scope] += perf_counter() - start

        node._backward = timed
    tape.backward(loss)
    return bwd


def run_probe(seed: int, repeats: int) -> dict[str, tuple[float, str]]:
    """Median over `repeats` of per-scope milliseconds at B=1, 2, 32."""
    config = get_preset("desk")
    model = WinPredictor.create(config, seed=seed)
    rec = _ScopeRecorder()
    for scope, method in _METHODS.items():
        setattr(model, method, rec.wrap(scope, getattr(model, method)))
    rng = np.random.default_rng(seed)
    shape = (config.time_steps, config.channels, config.map_height, config.map_width)
    inputs = {b: rng.random((b,) + shape) for b in BATCHES}
    labels = (np.arange(2) % 2).astype(np.float64)

    samples: dict[str, list[float]] = {}
    tape_nodes = dict.fromkeys(SCOPES, 0)
    orig_ln = T.layer_norm
    T.layer_norm = rec.wrap("layer_norm", orig_ln)
    try:
        for _ in range(repeats):
            for b in BATCHES:
                if b == 2:
                    with Tape() as tape:
                        rec.reset(tape)
                        probs = model.forward(inputs[b])
                        loss = bce_loss(probs, labels)
                        rec.claim("loss")  # the probe's own loss, not reported
                        bwd = _timed_backward(rec, tape, loss)
                    tape_nodes = dict(rec.nodes)
                    for scope in SCOPES:
                        samples.setdefault(f"model.{scope}.bwd_ms.b2", []).append(bwd[scope])
                else:
                    rec.reset(None)
                    model.forward(inputs[b])
                for scope in SCOPES:
                    samples.setdefault(f"model.{scope}.fwd_ms.b{b}", []).append(rec.fwd[scope])
    finally:
        T.layer_norm = orig_ln
    out = {
        name: (statistics.median(values) * 1e3, "ms") for name, values in samples.items()
    }
    for scope in SCOPES:
        out[f"model.{scope}.tape_nodes"] = (tape_nodes[scope], "count")
    return out
