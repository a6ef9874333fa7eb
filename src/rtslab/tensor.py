"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in contiguous row-major numpy arrays. Gradients are tracked by
an explicit :class:`Tape`: operations executed inside a ``with Tape() as t:``
block record themselves, and ``t.backward(loss)`` replays the records in
reverse order, accumulating into ``.grad`` buffers. Outside a tape every
operation is plain numpy (inference mode, nothing recorded). Operations
take Tensors, not arrays or numbers: wrap a constant in ``Tensor`` first.

Contracts:

* A Tensor is immutable after creation except for gradient accumulation.
  (A central-difference gradient check, such as ``grad_check`` in
  ``tests/oracles.py``, perturbs ``.data`` in place and restores it, and
  an optimizer such as ``rtslab.train.optim.AdamW`` makes each
  parameter's ``.data`` and ``.grad`` views into its flat buffers and
  updates them in place; those are the sanctioned exceptions, and each
  owns the parameters while it runs.)
* Calling ``backward`` twice on the same tape accumulates leaf gradients
  additively. An intermediate node's gradient is released as soon as its
  backward has consumed it, so after the pass every recorded node's
  ``.grad`` is None and only the leaves hold theirs.
* Every public operation leaves only finite values behind; an op that would
  produce NaN/Inf raises NonFiniteError immediately instead of letting it
  propagate.
* Tapes nest on one stack, and every tape is opened and closed on one
  thread: operations record onto the innermost open tape.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

_TINY = np.finfo(np.float64).tiny  # smallest normal float64
_LN_EPS = 1e-5  # added to LayerNorm's variance

_tapes: list[Tape] = []  # the open tapes, innermost last


class NonFiniteError(ValueError):
    """An operation produced a NaN or an Inf."""


class Tape:
    """Ordered record of operations for one reverse pass.

    Execution order is a topological order of the graph, so the backward
    walk simply visits the records last-to-first.
    """

    def __init__(self):
        self._nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tapes.pop()
        assert popped is self, "tapes must unwind in LIFO order"

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: "Tensor") -> None:
        """Populate gradients of everything `loss` depends on.

        Leaf gradients accumulate across calls; repeat calls without
        re-recording therefore add the same gradient again. Each recorded
        node's gradient is released once its backward has consumed it, so
        an op may hand that array, or one it has just made, to an input
        (see Tensor.accumulate_grad) and the pass holds only the gradients
        still to be consumed.
        """
        if not isinstance(loss, Tensor):
            raise TypeError(f"backward expects a Tensor, got {type(loss).__name__}")
        if loss.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        for node in self._nodes:
            node.grad = None
        if loss._backward is not None:
            loss.grad = np.ones_like(loss.data)
        for node in reversed(self._nodes):
            g = node.grad
            if g is None:
                continue
            node.grad = None
            node._backward(g)


class Tensor:
    """n-dimensional float64 value, optionally participating in a tape."""

    __slots__ = ("data", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shape, unlike calling it blindly
        if not _all_finite(arr):
            raise NonFiniteError("tensor data must be finite (no NaN/Inf)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` into ``.grad``.

        The first gradient is copied, since later accumulation writes into
        it, unless the caller passes `fresh`: `g` is an array it has just
        made, or the released gradient of the node being consumed, and it
        keeps no other reference to it. A fresh `g` of this tensor's shape
        is adopted as ``.grad`` without a copy. Only ops whose `g` is known
        fresh pass the flag: adopting every fresh gradient was measured
        slower on the desk train step, even in its untouched forward
        (most likely through numpy's reuse of freed arrays).
        """
        if self.grad is not None:
            self.grad += g
        elif fresh and g.shape == self.data.shape:
            self.grad = g
        else:
            if g.shape != self.data.shape:
                g = np.broadcast_to(g, self.data.shape)
            self.grad = np.array(g, dtype=np.float64)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __getitem__(self, key):
        return index(self, key)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def permute(self, *axes):
        return permute(self, axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)


def _all_finite(arr: np.ndarray) -> bool:
    """True iff every element is finite.

    Any NaN or Inf makes the sum NaN or Inf, so a finite sum proves every
    element finite; only a sum that is not finite (an overflow of finite
    values, or a real NaN/Inf) pays for the elementwise scan. Such a sum
    also raises numpy's overflow/invalid RuntimeWarning.
    """
    return math.isfinite(arr.sum()) or bool(np.isfinite(arr).all())


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result; record it if a tape is active and grads are needed."""
    needs = bool(_tapes) and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._backward = backward_fn
        _tapes[-1]._nodes.append(out)
    return out


@functools.lru_cache(maxsize=16)
def _ones(n: int) -> np.ndarray:
    """A read-only vector of n ones, shared by every caller."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo numpy broadcasting: reduce `g` back to `shape`.

    The extra leading axes go in one product `1^T g` over g's rows: a
    column sum of rows as short as 4 costs several times the
    matrix-vector product."""
    lead = g.ndim - len(shape)
    if lead > 0:
        tail = g.shape[lead:]
        rows = math.prod(g.shape[:lead])
        g = np.matmul(_ones(rows), g.reshape(rows, math.prod(tail))).reshape(tail)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        # g is this node's released gradient: a may adopt it, so b copies
        if a.requires_grad:
            a.accumulate_grad(_sum_to_shape(g, a.shape), fresh=True)
        if b.requires_grad:
            b.accumulate_grad(_sum_to_shape(g, b.shape))

    return _result(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes.

    Leading axes broadcast; gradients are summed back to each operand's
    shape. dA = dC @ B^T and dB = A^T @ dC, transposing the last two axes.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul needs >=2-d operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.shape} @ {b.shape}"
        )
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_sum_to_shape(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b.accumulate_grad(_sum_to_shape(gb, b.shape))

    return _result(data, (a, b), backward)


# ---------------------------------------------------------------------------
# nonlinearities


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax of a plain array: attention's row-max fallback."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh form: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    x = a.data
    u = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * x ** 3)
    t = np.tanh(u)
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        if a.requires_grad:
            du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x ** 2)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du
            a.accumulate_grad(g * local)

    return _result(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    """1/(1+e^-x), computed without overflow for any finite x."""
    x = a.data
    z = np.exp(-np.abs(x))
    data = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * data * (1.0 - data))

    return _result(data, (a,), backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    One tape node. With xhat = (x - mu) * inv and inv = (var + 1e-5)^-1/2,
    the backward is closed form: dx = inv * (dxhat - mean(dxhat) -
    xhat * mean(dxhat * xhat)) over the last axis, where dxhat = g * gamma.
    Every row mean is an einsum row sum over n: numpy's `mean(axis=-1)`
    over rows this short costs several times an elementwise pass.
    """
    x = a.data
    n = x.shape[-1]
    xhat = x - (np.einsum("...i->...", x) / n)[..., None]
    inv = (np.einsum("...i,...i->...", xhat, xhat) / n + _LN_EPS)[..., None] ** -0.5
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data

    def backward(g):
        if a.requires_grad:
            dxhat = g * gamma.data
            proj = np.einsum("...i,...i->...", dxhat, xhat) / n
            dx = dxhat - (np.einsum("...i->...", dxhat) / n)[..., None]
            dx -= xhat * proj[..., None]
            dx *= inv
            a.accumulate_grad(dx, fresh=True)
        if gamma.requires_grad:
            gamma.accumulate_grad(_sum_to_shape(g * xhat, gamma.shape))
        if beta.requires_grad:
            beta.accumulate_grad(_sum_to_shape(g, beta.shape))

    return _result(data, (a, gamma, beta), backward)


def _split_heads(rows: np.ndarray, lead: tuple[int, ...], axis: int, heads: int,
                 transpose: bool = False) -> np.ndarray:
    """Rows of one token each, in stored order -> contiguous (G, heads, S,
    A/heads), or with `transpose` (G, heads, A/heads, S).

    `lead` is the token grid the rows come from (the input's shape without
    its feature axis); S = lead[axis] and G is the product of the other
    lead axes, kept in their order. The split is one transposed copy:
    numpy's batched matmul on a transposed view as its second operand
    costs more than the copy and the product together (31.0 against 5.5 +
    13.6 us at (16,5,16,4)@(16,5,4,16)), while a transposed first operand
    costs no more than a contiguous one (8.2 against 13.4 us at
    (16,5,16,16)@(16,5,16,4))."""
    n = len(lead)
    x = rows.reshape(*lead, heads, rows.shape[-1] // heads)
    rest = tuple(i for i in range(n) if i != axis)
    x = x.transpose(*rest, n, n + 1, axis) if transpose else x.transpose(*rest, n, axis, n + 1)
    x = np.ascontiguousarray(x)
    return x.reshape(-1, *x.shape[-3:])


def _merge_heads(x: np.ndarray, lead: tuple[int, ...], axis: int,
                 transpose: bool = False) -> np.ndarray:
    """(G, heads, S, dh), or with `transpose` (G, heads, dh, S) -> rows of
    heads*dh in the stored order of the token grid `lead`, by one
    transposed copy; inverse of _split_heads with the same flag."""
    if transpose:
        x = x.swapaxes(-1, -2)
    n = len(lead)
    _, h, s, dh = x.shape
    x = x.reshape(*(d for i, d in enumerate(lead) if i != axis), h, s, dh)
    order = list(range(n - 1))
    order.insert(axis, n)
    return x.transpose(*order, n - 1, n + 1).reshape(-1, h * dh)


def _linear_grads(x: np.ndarray, d: np.ndarray, w: Tensor, b: Tensor) -> None:
    """Accumulate dW = x^T d and db = 1^T d for rows out = x @ w + b."""
    if w.requires_grad:
        w.accumulate_grad(np.matmul(x.T, d))
    if b.requires_grad:
        b.accumulate_grad(_sum_to_shape(d, b.shape))


def _block_softmax(s: np.ndarray) -> np.ndarray | None:
    """Softmax over the last axis of (G, h, Sq, Sk) scores, in place.

    Each (group, head) block is shifted by its own max, a reduction over the
    last two axes, so no max runs along a short row and clips in one batch
    stay independent. A row whose max lies about 708 or more below its
    block's max underflows to a sum below the smallest normal float; then
    the result is None and the caller recomputes with the row-max _softmax.
    """
    s -= s.max(axis=(-2, -1), keepdims=True)
    np.exp(s, out=s)
    total = np.einsum("...i->...", s)
    if total.min() < _TINY:
        return None
    s /= total[..., None]
    return s


def attention(x, wq, bq, wk, bk, wv, bv, wo, bo, heads: int, axis: int = -2) -> Tensor:
    """Multi-head scaled dot-product self-attention as one tape node.

    The tokens of x attend to each other along the token axis `axis`; the
    last axis holds each token's E features, and every other axis is a
    group axis. So (G, S, E) with the default axis attends within each
    group G, and (B, T, N, E) with axis=1 attends across T for each (B, N)
    pair, with no regrouping copy. Weights multiply on the right (q = x @
    wq + bq, likewise k and v); the A projected dims split into `heads`
    heads of A/heads each, scores scale by 1/sqrt(A/heads), and the merged
    heads go through out = mix @ wo + bo, giving x's shape with O
    features. Each projection is one 2-D product over all token rows in
    their stored order, and the scale is folded into q's weights; each
    head split and merge is one transposed copy to or from those rows. The
    softmax shifts each (group, head) block of scores by the block's max
    (see _block_softmax); only a row whose exponentials underflow there,
    one whose max lies about 708 or more below its block's, sends the call
    to the row-max _softmax. The forward keeps the probabilities P and the
    head-split q, kt (keys, transposed) and vs (values), so the backward is
    closed form with no recompute and no re-split. It works in those
    layouts: dS^T = V dMix^T, then dK = dS^T Q, dQ^T = K^T dS^T and
    dV^T = dMix^T P, each merged from its own layout.
    """
    nd = x.ndim
    if nd < 3:
        raise ValueError(f"attention needs an input of rank >= 3, got {x.shape}")
    if not -nd <= axis < nd or axis % nd == nd - 1:
        raise ValueError(
            f"attention axis {axis} must name a token axis of {x.shape}, not the feature axis"
        )
    axis %= nd
    lead = x.shape[:-1]
    width = wq.shape[-1]
    if heads < 1 or width % heads:
        raise ValueError(f"attention width {width} not divisible by heads {heads}")
    scale = 1.0 / math.sqrt(width // heads)
    x2 = x.data.reshape(-1, x.shape[-1])
    q = np.matmul(x2, wq.data * scale)
    q += bq.data * scale
    q = _split_heads(q, lead, axis, heads)
    k = np.matmul(x2, wk.data)
    k += bk.data
    kt = _split_heads(k, lead, axis, heads, transpose=True)
    v = np.matmul(x2, wv.data)
    v += bv.data
    vs = _split_heads(v, lead, axis, heads)
    p = _block_softmax(np.matmul(q, kt))
    if p is None:
        p = _softmax(np.matmul(q, kt))
    mix = _merge_heads(np.matmul(p, vs), lead, axis)
    data = np.matmul(mix, wo.data)
    data += bo.data

    def backward(g):
        g2 = g.reshape(mix.shape[0], -1)
        dmixt = _split_heads(np.matmul(g2, wo.data.T), lead, axis, heads, transpose=True)
        dst = np.matmul(vs, dmixt)  # dS^T: (G, h, Sk, Sq)
        dst -= np.einsum("...ij,...ji->...i", p, dst)[..., None, :]
        dst *= p.swapaxes(-1, -2)
        dq = _merge_heads(np.matmul(kt, dst), lead, axis, transpose=True)
        dq *= scale
        dk = _merge_heads(np.matmul(dst, q), lead, axis)
        dv = _merge_heads(np.matmul(dmixt, p), lead, axis, transpose=True)
        _linear_grads(mix, g2, wo, bo)
        _linear_grads(x2, dq, wq, bq)
        _linear_grads(x2, dk, wk, bk)
        _linear_grads(x2, dv, wv, bv)
        if x.requires_grad:
            dx = np.matmul(dk, wk.data.T)
            dx += np.matmul(dv, wv.data.T)
            dx += np.matmul(dq, wq.data.T)
            x.accumulate_grad(dx.reshape(x.shape), fresh=True)

    return _result(data.reshape(*lead, -1), (x, wq, bq, wk, bk, wv, bv, wo, bo), backward)


def readout(s, x, wq, bq, wk, bk, wv, bv, wo, bo) -> Tensor:
    """One-head attention of one query token per clip over the clip's
    tokens, as one tape node: s (B, 1, E) reads x (B, M, E).

    The forward is attention's arithmetic on these shapes (the same
    products on operands of the same shapes, in the same order), so its
    result is bit for bit that of the attention kernel with s as the
    queries and x as the keys and values. With c = 1/sqrt(A), q = s Wq c +
    bq c, k_j = x_j Wk + bk and v_j = x_j Wv + bv, the backward forms no
    per-token key or value: dp_j = x_j (Wv dmix^T) + bv dmix, whose
    constant cancels in ds = p (dp - sum p dp); then with du = sum ds_j x_j
    and c_x = sum p_j x_j, dWk = du^T q, dbk = (sum ds_j) q, dWv = c_x^T
    dmix, dbv = (sum p_j) dmix, dq = du Wk + (sum ds_j) bk, and dx_j =
    ds_j (q Wk^T) + p_j (dmix Wv^T). The node keeps q, p and mix.
    """
    if s.ndim != 3 or x.ndim != 3 or s.shape[1] != 1 or s.shape[0] != x.shape[0]:
        raise ValueError(
            f"readout needs a query (B, 1, E) and tokens (B, M, E), got {s.shape} and {x.shape}"
        )
    b, m, _ = x.shape
    scale = 1.0 / math.sqrt(wq.shape[-1])
    s2 = s.data.reshape(b, -1)
    x2 = x.data.reshape(b * m, -1)
    q = np.matmul(s2, wq.data * scale)
    q += bq.data * scale
    k = np.matmul(x2, wk.data)
    k += bk.data
    kt = np.ascontiguousarray(k.reshape(b, 1, m, -1).swapaxes(-1, -2))
    v = np.matmul(x2, wv.data)
    v += bv.data
    # one query row: its block max is its row max, so the sum is at least 1
    p = _block_softmax(np.matmul(q.reshape(b, 1, 1, -1), kt))
    mix = np.matmul(p, v.reshape(b, 1, m, -1)).reshape(b, -1)
    p = p.reshape(b, m)
    data = np.matmul(mix, wo.data)
    data += bo.data

    def backward(g):
        g2 = g.reshape(b, -1)
        dmix = np.matmul(g2, wo.data.T)
        x3 = x.data.reshape(b, m, -1)
        u = np.matmul(dmix, wv.data.T)  # (B, E): Wv dmix^T, per clip
        dp = np.matmul(x3, u[:, :, None])[:, :, 0]
        ds = dp - np.einsum("bj,bj->b", p, dp)[:, None]
        ds *= p
        ds_sum = np.einsum("bj->b", ds)
        du = np.matmul(ds[:, None, :], x3)[:, 0]
        _linear_grads(mix, g2, wo, bo)
        if wk.requires_grad:
            wk.accumulate_grad(np.matmul(du.T, q))
        if bk.requires_grad:
            bk.accumulate_grad(np.matmul(ds_sum, q))
        if wv.requires_grad:
            cx = np.matmul(p[:, None, :], x3)[:, 0]
            wv.accumulate_grad(np.matmul(cx.T, dmix))
        if bv.requires_grad:
            bv.accumulate_grad(np.matmul(np.einsum("bj->b", p), dmix))
        dq = np.matmul(du, wk.data)
        dq += ds_sum[:, None] * bk.data
        dq *= scale
        _linear_grads(s2, dq, wq, bq)
        if s.requires_grad:
            s.accumulate_grad(np.matmul(dq, wq.data.T).reshape(s.shape), fresh=True)
        if x.requires_grad:
            dx = ds[:, :, None] * np.matmul(q, wk.data.T)[:, None, :]
            dx += p[:, :, None] * u[:, None, :]
            x.accumulate_grad(dx, fresh=True)

    return _result(data.reshape(b, 1, -1), (s, x, wq, bq, wk, bk, wv, bv, wo, bo), backward)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    target = math.prod(shape)
    if target != a.size:
        raise ValueError(f"cannot reshape {a.shape} ({a.size} elems) to {shape}")
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape), fresh=True)

    return _result(data, (a,), backward)


def permute(a: Tensor, axes) -> Tensor:
    """Reorder axes; the result is materialized contiguous, not a view."""
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ValueError(f"permute axes {axes} invalid for shape {a.shape}")
    data = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.ascontiguousarray(g.transpose(inverse)))

    return _result(data, (a,), backward)


def index(a: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing; gradient scatters back into place."""
    data = a.data[key]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[key] += g
            a.accumulate_grad(full)

    return _result(np.ascontiguousarray(data), (a,), backward)


# ---------------------------------------------------------------------------
# construction helpers


def normal(rng, shape, std: float) -> Tensor:
    """A parameter of N(0, std^2) values drawn one by one from a SplitMix64 stream."""
    n = math.prod(shape)
    vals = np.fromiter((rng.normal(std) for _ in range(n)), dtype=np.float64, count=n)
    return Tensor(vals.reshape(shape), requires_grad=True)
