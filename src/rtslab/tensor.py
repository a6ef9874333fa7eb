"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in contiguous row-major numpy arrays. Gradients are tracked by
an explicit :class:`Tape`: operations executed inside a ``with Tape() as t:``
block record themselves, and ``t.backward(loss)`` replays the records in
reverse order, accumulating into ``.grad`` buffers. Outside a tape every
operation is plain numpy (inference mode, nothing recorded).

Contracts:

* A Tensor is immutable after creation except for gradient accumulation.
  (``grad_check`` perturbs ``.data`` in place and restores it; that is the
  one sanctioned exception, and it owns the parameters while it runs.)
* Calling ``backward`` twice on the same tape accumulates leaf gradients
  additively; intermediate node gradients are reset per call.
* Every public operation leaves only finite values behind; an op that would
  produce NaN/Inf raises immediately instead of letting it propagate.
* A tape is confined to one thread; distinct tapes may run concurrently.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715

_tape_stack = threading.local()


def _stack() -> list:
    if not hasattr(_tape_stack, "tapes"):
        _tape_stack.tapes = []
    return _tape_stack.tapes


def _active_tape():
    tapes = _stack()
    return tapes[-1] if tapes else None


class Tape:
    """Ordered record of operations for one reverse pass.

    Execution order is a topological order of the graph, so the backward
    walk simply visits the records last-to-first.
    """

    def __init__(self):
        self._nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _stack().pop()
        assert popped is self, "tapes must unwind in LIFO order"

    def _record(self, node: "Tensor") -> None:
        self._nodes.append(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: "Tensor") -> None:
        """Populate gradients of everything `loss` depends on.

        Leaf gradients accumulate across calls; repeat calls without
        re-recording therefore add the same gradient again.
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
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)


class Tensor:
    """n-dimensional float64 value, optionally participating in a tape."""

    __slots__ = ("data", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shape, unlike calling it blindly
        if not _all_finite(arr):
            raise ValueError("tensor data must be finite (no NaN/Inf)")
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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err(self)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            if g.shape != self.data.shape:
                g = np.broadcast_to(g, self.data.shape)
            # a copy, never an alias: later accumulation writes into it
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; all real work happens in the module-level functions
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division unsupported; use mul + pow")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return index(self, key)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def permute(self, *axes):
        return permute(self, axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)

    def mean(self, axis=None, keepdims: bool = False):
        return mean(self, axis=axis, keepdims=keepdims)

    def sum(self, axis=None, keepdims: bool = False):
        return sum_(self, axis=axis, keepdims=keepdims)


def _all_finite(arr: np.ndarray) -> bool:
    """True iff every element is finite.

    Any NaN or Inf makes the sum NaN or Inf, so a finite sum proves every
    element finite; only a sum that is not finite (an overflow of finite
    values, or a real NaN/Inf) pays for the elementwise scan. Such a sum
    also raises numpy's overflow/invalid RuntimeWarning.
    """
    return math.isfinite(arr.sum()) or bool(np.isfinite(arr).all())


def _scalar_err(t: Tensor):
    raise ValueError(f"expected a scalar tensor, got shape {t.shape}")


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result; record it if a tape is active and grads are needed."""
    tape = _active_tape()
    needs = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._backward = backward_fn
        tape._record(out)
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo numpy broadcasting: reduce `g` back to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_sum_to_shape(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_sum_to_shape(g, b.shape))

    return _result(data, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    return add(a, neg(_coerce(b)))


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(-g)

    return _result(-a.data, (a,), backward)


def mul(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_sum_to_shape(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_sum_to_shape(g * a.data, b.shape))

    return _result(data, (a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise a**p for a scalar exponent; base must stay in p's domain."""
    p = float(exponent)
    data = a.data ** p
    if not _all_finite(data):
        raise ValueError(f"power({p}) left the finite domain")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * p * a.data ** (p - 1.0))

    return _result(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * data)

    return _result(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive input; clamp first")
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g / a.data)

    return _result(data, (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * mask)

    return _result(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes.

    Leading axes broadcast; gradients are summed back to each operand's
    shape. dA = dC @ B^T and dB = A^T @ dC, transposing the last two axes.
    """
    a, b = _coerce(a), _coerce(b)
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
    """Max-subtracted softmax of a plain array; shared by softmax and attention."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`, max-subtracted before exponentiation."""
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"softmax axis {axis} out of range for shape {a.shape}")
    data = _softmax(a.data, axis)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            a.accumulate_grad((g - dot) * data)

    return _result(data, (a,), backward)


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


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    One tape node. With xhat = (x - mu) * inv and inv = (var + eps)^-1/2,
    the backward is closed form: dx = inv * (dxhat - mean(dxhat) -
    xhat * mean(dxhat * xhat)) over the last axis, where dxhat = g * gamma.
    """
    a, gamma, beta = _coerce(a), _coerce(gamma), _coerce(beta)
    x = a.data
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = ((centered * centered).mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat = centered * inv
    data = xhat * gamma.data + beta.data

    def backward(g):
        if a.requires_grad:
            dxhat = g * gamma.data
            proj = (dxhat * xhat).mean(axis=-1, keepdims=True)
            a.accumulate_grad(
                inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * proj)
            )
        if gamma.requires_grad:
            gamma.accumulate_grad(_sum_to_shape(g * xhat, gamma.shape))
        if beta.requires_grad:
            beta.accumulate_grad(_sum_to_shape(g, beta.shape))

    return _result(data, (a, gamma, beta), backward)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(G, S, A) -> contiguous (G, heads, S, A/heads)."""
    g, s, a = x.shape
    return np.ascontiguousarray(x.reshape(g, s, heads, a // heads).transpose(0, 2, 1, 3))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(G, heads, S, dh) -> contiguous (G, S, heads*dh); inverse of _split_heads."""
    g, h, s, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(g, s, h * dh)


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.swapaxes(x, -1, -2))


def _linear_grads(x: np.ndarray, d: np.ndarray, w: Tensor, b: Tensor) -> None:
    """Accumulate dW = x^T d and db = sum(d) for out = x @ w + b over rows."""
    if w.requires_grad:
        rows = x.reshape(-1, x.shape[-1])
        w.accumulate_grad(np.matmul(_swap_last(rows), d.reshape(-1, d.shape[-1])))
    if b.requires_grad:
        b.accumulate_grad(_sum_to_shape(d, b.shape))


def attention(xq, xkv, wq, bq, wk, bk, wv, bv, wo, bo, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    Queries xq (G, Sq, E) attend over keys/values xkv (G, Sk, E) within each
    group G; pass the same tensor twice for self-attention. Weights multiply
    on the right (q = xq @ wq + bq, likewise k and v from xkv); the A
    projected dims split into `heads` heads of A/heads each, scores scale by
    1/sqrt(A/heads), and the merged heads go through out = mix @ wo + bo,
    giving (G, Sq, O). The forward keeps the softmax probabilities and the
    head-split q/k/v, so the backward is closed form with no recompute.
    """
    xq, xkv = _coerce(xq), _coerce(xkv)
    wq, bq, wk, bk, wv, bv, wo, bo = (_coerce(t) for t in (wq, bq, wk, bk, wv, bv, wo, bo))
    if xq.ndim != 3 or xkv.ndim != 3 or xq.shape[0] != xkv.shape[0]:
        raise ValueError(
            f"attention needs (G, S, E) inputs with equal G, got {xq.shape} and {xkv.shape}"
        )
    width = wq.shape[-1]
    if heads < 1 or width % heads:
        raise ValueError(f"attention width {width} not divisible by heads {heads}")
    scale = 1.0 / math.sqrt(width // heads)
    q = _split_heads(np.matmul(xq.data, wq.data) + bq.data, heads)
    k = _split_heads(np.matmul(xkv.data, wk.data) + bk.data, heads)
    v = _split_heads(np.matmul(xkv.data, wv.data) + bv.data, heads)
    p = _softmax(np.matmul(q, _swap_last(k)) * scale)
    mix = _merge_heads(np.matmul(p, v))
    data = np.matmul(mix, wo.data) + bo.data

    def backward(g):
        dmix = _split_heads(np.matmul(g, _swap_last(wo.data)), heads)
        dp = np.matmul(dmix, _swap_last(v))
        ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p * scale
        dq = _merge_heads(np.matmul(ds, k))
        dk = _merge_heads(np.matmul(_swap_last(ds), q))
        dv = _merge_heads(np.matmul(_swap_last(p), dmix))
        _linear_grads(mix, g, wo, bo)
        _linear_grads(xq.data, dq, wq, bq)
        _linear_grads(xkv.data, dk, wk, bk)
        _linear_grads(xkv.data, dv, wv, bv)
        # for self-attention xq is xkv and the two contributions accumulate
        if xq.requires_grad:
            xq.accumulate_grad(np.matmul(dq, _swap_last(wq.data)))
        if xkv.requires_grad:
            xkv.accumulate_grad(
                np.matmul(dk, _swap_last(wk.data)) + np.matmul(dv, _swap_last(wv.data))
            )

    return _result(data, (xq, xkv, wq, bq, wk, bk, wv, bv, wo, bo), backward)


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
            a.accumulate_grad(g.reshape(a.shape))

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


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat of no tensors")
    tensors = [_coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis if axis >= 0 else t.ndim + axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return _result(data, tuple(tensors), backward)


def index(a: Tensor, key) -> Tensor:
    """Basic (slice/int) indexing; gradient scatters back into place."""
    data = a.data[key]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[key] += g
            a.accumulate_grad(full)

    return _result(np.ascontiguousarray(data), (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else a.shape[axis]

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.full(a.shape, float(g.reshape(())) / count))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(gg, a.shape) / count)

    return _result(np.asarray(data), (a,), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.full(a.shape, float(g.reshape(()))))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(gg, a.shape).copy())

    return _result(np.asarray(data), (a,), backward)


# ---------------------------------------------------------------------------
# construction helpers


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def normal(rng, shape, std: float = 1.0, requires_grad: bool = False) -> Tensor:
    """Gaussian init drawn element-by-element from a SplitMix64 stream."""
    n = math.prod(shape) if shape else 1
    vals = np.fromiter((rng.normal(0.0, std) for _ in range(n)), dtype=np.float64, count=n)
    return Tensor(vals.reshape(shape), requires_grad=requires_grad)


def zero_grads(params) -> None:
    for p in (params.values() if isinstance(params, dict) else params):
        p.zero_grad()


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckResult:
    """Outcome of a central-difference check over a parameter set."""

    passed: bool
    tol: float
    h: float
    checked: int
    worst_rel_err: float
    worst_param: str
    worst_index: int
    failures: list[tuple[str, int, float]] = field(default_factory=list)

    def summary(self) -> str:
        status = "OK" if self.passed else "FAIL"
        return (
            f"grad_check {status}: {self.checked} components, worst rel err "
            f"{self.worst_rel_err:.3e} at {self.worst_param}[{self.worst_index}] "
            f"(tol {self.tol:g})"
        )


def grad_check(f, params: dict[str, Tensor], h: float = 1e-5, tol: float = 1e-4) -> GradCheckResult:
    """Compare tape gradients of `f()` against central differences.

    `f` must return a scalar Tensor computed from the current values of
    `params`. Each component is perturbed in place by ±h (and restored);
    relative error is |analytic - numeric| / max(1, |analytic|).
    """
    with Tape() as tape:
        out = f()
        if not isinstance(out, Tensor) or out.data.size != 1:
            raise ValueError("grad_check requires f() to return a scalar Tensor")
        tape.backward(out)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    def eval_scalar() -> float:
        return float(f().data.reshape(()))

    worst = (0.0, "", -1)
    failures: list[tuple[str, int, float]] = []
    checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = eval_scalar()
            flat[i] = orig - h
            down = eval_scalar()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = grad_flat[i]
            rel = abs(a - numeric) / max(1.0, abs(a))
            checked += 1
            if rel > worst[0]:
                worst = (rel, name, i)
            if rel > tol:
                failures.append((name, i, rel))
    return GradCheckResult(
        passed=not failures,
        tol=tol,
        h=h,
        checked=checked,
        worst_rel_err=worst[0],
        worst_param=worst[1],
        worst_index=worst[2],
        failures=failures,
    )
