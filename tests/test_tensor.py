"""Tensor-core behavior: op semantics, tape mechanics, gradient checks."""

import math

import numpy as np
import pytest

from rtslab import tensor as T
from rtslab.rng import SplitMix64
from rtslab.tensor import Tape, Tensor

from oracles import composed_attention, grad_check, mean, mul, softmax


def rand(rng, shape):
    return Tensor(
        np.array([rng.normal() for _ in range(int(np.prod(shape)))]).reshape(shape),
        requires_grad=True,
    )


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent triple-loop oracle."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        rng = SplitMix64(1)
        b = rand(rng, (3, 3))
        out = T.matmul(Tensor(np.eye(3)), b)
        assert np.allclose(out.data, b.data)

    def test_scalar_case(self):
        out = T.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_against_triple_loop(self):
        rng = SplitMix64(7)
        a = rand(rng, (4, 5))
        b = rand(rng, (5, 3))
        out = T.matmul(a, b)
        assert np.allclose(out.data, matmul_reference(a.data, b.data), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_gradient_rule(self):
        rng = SplitMix64(3)
        a = rand(rng, (4, 5))
        b = rand(rng, (5, 3))
        with Tape() as tape:
            out = T.matmul(a, b)
            loss = mean(out)
            tape.backward(loss)
        g = np.full((4, 3), 1 / 12)
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)

    def test_batched_broadcast_gradient(self):
        rng = SplitMix64(11)
        a = rand(rng, (2, 3, 4, 5))
        w = rand(rng, (5, 3))
        res = grad_check(lambda: mean(mul(T.matmul(a, w), T.matmul(a, w))), {"a": a, "w": w})
        assert res.passed, res.summary()


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_analytic_two_point(self):
        out = softmax(Tensor([0.0, math.log(2.0)]), axis=0)
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    def test_shift_invariance(self):
        rng = SplitMix64(5)
        x = np.array([rng.normal() for _ in range(6)]).reshape(2, 3)
        for c in (1.0, 1000.0):
            a = softmax(Tensor(x), axis=1)
            b = softmax(Tensor(x + c), axis=1)
            assert np.allclose(a.data, b.data, atol=1e-12)

    def test_rows_sum_to_one_large_inputs(self):
        for seed in range(5):
            rng = SplitMix64(seed)
            x = np.array([rng.uniform() * 2000 - 1000 for _ in range(12)]).reshape(3, 4)
            out = softmax(Tensor(x), axis=1)
            assert np.all(out.data >= 0)
            assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError, match="axis"):
            softmax(Tensor([1.0, 2.0]), axis=3)


class TestLayerNorm:
    def test_constant_slice_absorbed_by_epsilon(self):
        g, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0]), g, b)
        assert np.allclose(out.data, 0.0)

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        mu = x.mean()
        var = ((x - mu) ** 2).mean()
        expect = (x - mu) / math.sqrt(var + 1e-5)
        out = T.layer_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, expect, atol=1e-12)
        assert abs(out.data.mean()) < 1e-9
        # epsilon skews output variance by eps/(var+eps); here that is 1.5e-5
        assert abs(out.data.var() - 1.0) < 2e-5
        # batched input with random gain and shift, normalized over the last axis
        rng = SplitMix64(120)
        x, g, b = rand(rng, (3, 4, 6)), rand(rng, (6,)), rand(rng, (6,))
        mu = x.data.mean(axis=-1, keepdims=True)
        var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
        expect = (x.data - mu) / np.sqrt(var + 1e-5) * g.data + b.data
        out = T.layer_norm(x, g, b)
        assert np.allclose(out.data, expect, rtol=0, atol=1e-12)

    def test_beta_passthrough_with_zero_gamma(self):
        out = T.layer_norm(
            Tensor([1.0, 4.0, -2.0]), Tensor(np.zeros(3)), Tensor(np.full(3, 7.0))
        )
        assert np.allclose(out.data, 7.0)

    def test_one_tape_node(self):
        rng = SplitMix64(121)
        x, g, b = rand(rng, (2, 5)), rand(rng, (5,)), rand(rng, (5,))
        with Tape() as tape:
            T.layer_norm(x, g, b)
        assert len(tape) == 1

    def test_gradient_check(self):
        rng = SplitMix64(122)
        x, g, b = rand(rng, (3, 4, 6)), rand(rng, (6,)), rand(rng, (6,))
        w = Tensor(np.array([rng.normal() for _ in range(72)]).reshape(3, 4, 6))
        res = grad_check(
            lambda: mean(mul(T.layer_norm(x, g, b), w)),
            {"x": x, "gamma": g, "beta": b}, h=1e-5, tol=1e-4,
        )
        assert res.passed, res.summary()

    def test_normalizes_random_slices(self):
        for seed in range(5):
            rng = SplitMix64(seed + 100)
            x = rand(rng, (4, 6))
            out = T.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
            assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
            assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)


def attention_case(seed: int, groups: int, tokens: int, width: int, spread: float = 1.0):
    """Input and the eight weights of one self-attention call; the first
    token of each group is multiplied by `spread`."""
    rng = SplitMix64(seed)
    x = rand(rng, (groups, tokens, width))
    x.data[:, 0] *= spread
    weights = [rand(rng, shape) for _ in range(4) for shape in ((width, width), (width,))]
    return x, weights


ATTENTION_CASES = {
    # name: (groups, tokens, width, heads, first-token spread)
    "self_five_heads": (2, 3, 10, 5, 1.0),
    "self_one_head": (2, 3, 4, 1, 1.0),
    # the desk preset's shapes: rows of 8 and 16 scores
    "desk_spatial": (2, 16, 20, 5, 1.0),
    "desk_temporal": (2, 8, 20, 5, 1.0),
    "desk_feature": (3, 5, 4, 1, 1.0),
    # scores of one block span far more than 745: some rows underflow
    # under the block max, so the call falls back to the row-max softmax
    "underflow_guard": (2, 8, 20, 5, 30.0),
}

WEIGHT_NAMES = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def token_axis_case(seed: int, frames: int = 4):
    """(B, T, N, D) input for attention along T (axis=1) and the eight
    weights."""
    rng = SplitMix64(seed)
    x = rand(rng, (2, frames, 3, 10))
    weights = [rand(rng, shape) for _ in range(4) for shape in ((10, 10), (10,))]
    return x, weights


# name: frames T; the heads are always 5 of width 2. One frame attends
# only to itself.
TOKEN_AXIS_CASES = {"self": 4, "single_frame": 1}


def random_mix(seed: int, shape) -> Tensor:
    rng = SplitMix64(seed)
    return Tensor(np.array([rng.normal() for _ in range(math.prod(shape))]).reshape(shape))


class TestAttention:
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_fused_forward_matches_composed_reference(self, case):
        groups, tokens, width, heads, spread = ATTENTION_CASES[case]
        x, weights = attention_case(200, groups, tokens, width, spread)
        fused = T.attention(x, *weights, heads=heads)
        composed = composed_attention(x, x, *weights, heads=heads)
        assert fused.shape == (groups, tokens, width)
        assert np.allclose(fused.data, composed.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_gradient_check(self, case):
        groups, tokens, width, heads, spread = ATTENTION_CASES[case]
        x, weights = attention_case(201, groups, tokens, width, spread)
        mix = random_mix(202, x.shape)
        res = grad_check(
            lambda: mean(mul(T.attention(x, *weights, heads=heads), mix)),
            {"x": x, **dict(zip(WEIGHT_NAMES, weights))}, h=1e-5, tol=1e-4,
        )
        assert res.passed, res.summary()

    @pytest.mark.parametrize("case,falls_back", [("underflow_guard", True), ("desk_spatial", False)])
    def test_row_max_softmax_only_on_underflow(self, case, falls_back, monkeypatch):
        groups, tokens, width, heads, spread = ATTENTION_CASES[case]
        x, weights = attention_case(200, groups, tokens, width, spread)
        calls = []
        row_max = T._softmax
        monkeypatch.setattr(T, "_softmax", lambda x: calls.append(x) or row_max(x))
        T.attention(x, *weights, heads=heads)
        assert bool(calls) == falls_back
        if falls_back:
            scores = calls[0]
            span = scores.max(axis=(-2, -1)) - scores.max(axis=-1).min(axis=-1)
            assert span.max() > 745

    def test_one_tape_node(self):
        x, weights = attention_case(203, 2, 3, 10)
        with Tape() as tape:
            T.attention(x, *weights, heads=5)
        assert len(tape) == 1

    def test_heads_must_divide_width(self):
        x, weights = attention_case(204, 1, 2, 10)
        with pytest.raises(ValueError, match="heads"):
            T.attention(x, *weights, heads=3)

    @pytest.mark.parametrize("shape,axis", [((6, 4, 10), -2), ((2, 4, 3, 10), 1)])
    def test_merge_heads_inverts_split_heads(self, shape, axis):
        lead, axis = shape[:-1], axis % len(shape)
        rows = np.arange(math.prod(shape), dtype=np.float64).reshape(-1, shape[-1])
        split = T._split_heads(rows, lead, axis, 5)
        split_t = T._split_heads(rows, lead, axis, 5, transpose=True)
        assert split.shape == (math.prod(lead) // lead[axis], 5, lead[axis], 2)
        assert np.array_equal(split_t, split.swapaxes(-1, -2))
        assert np.array_equal(T._merge_heads(split, lead, axis), rows)
        assert np.array_equal(T._merge_heads(split_t, lead, axis, transpose=True), rows)

    @pytest.mark.parametrize("case", sorted(TOKEN_AXIS_CASES))
    def test_token_axis_matches_permuted_reference(self, case):
        x, weights = token_axis_case(205, TOKEN_AXIS_CASES[case])
        fused = T.attention(x, *weights, heads=5, axis=1)

        b, t, n, d = x.shape
        grouped = x.permute(0, 2, 1, 3).reshape(b * n, t, d)  # (B, T, N, D) -> (B*N, T, D)
        ref = composed_attention(grouped, grouped, *weights, heads=5)
        ref = ref.reshape(b, n, t, d).permute(0, 2, 1, 3)
        assert fused.shape == x.shape
        assert np.allclose(fused.data, ref.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(TOKEN_AXIS_CASES))
    def test_token_axis_gradient_check(self, case):
        x, weights = token_axis_case(206, TOKEN_AXIS_CASES[case])
        mix = random_mix(207, x.shape)
        res = grad_check(
            lambda: mean(mul(T.attention(x, *weights, heads=5, axis=1), mix)),
            {"x": x, **dict(zip(WEIGHT_NAMES, weights))}, h=1e-5, tol=1e-4,
        )
        assert res.passed, res.summary()

    def test_token_axis_one_tape_node(self):
        x, weights = token_axis_case(208)
        with Tape() as tape:
            T.attention(x, *weights, heads=5, axis=1)
        assert len(tape) == 1

    def test_token_axis_rejects_group_mismatch_and_feature_axis(self):
        x, weights = token_axis_case(209)
        for axis in (3, -1):
            with pytest.raises(ValueError, match="feature axis"):
                T.attention(x, *weights, heads=5, axis=axis)


READOUT_CASES = {
    # name: (clips, tokens, width)
    "cross_single_query": (2, 4, 6),
    "desk_summary": (2, 128, 20),
}


def readout_case(seed: int, clips: int, tokens: int, width: int):
    """Query token (B, 1, E), tokens (B, M, E) and the eight weights."""
    rng = SplitMix64(seed)
    s = rand(rng, (clips, 1, width))
    x = rand(rng, (clips, tokens, width))
    weights = [rand(rng, shape) for _ in range(4) for shape in ((width, width), (width,))]
    return s, x, weights


class TestReadout:
    @pytest.mark.parametrize("case", sorted(READOUT_CASES))
    def test_matches_composed_reference(self, case):
        clips, tokens, width = READOUT_CASES[case]
        s, x, weights = readout_case(211, clips, tokens, width)
        out = T.readout(s, x, *weights)
        composed = composed_attention(s, x, *weights, heads=1)
        assert out.shape == (clips, 1, width)
        assert np.allclose(out.data, composed.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(READOUT_CASES))
    def test_gradient_check(self, case):
        clips, tokens, width = READOUT_CASES[case]
        s, x, weights = readout_case(212, clips, tokens, width)
        mix = random_mix(213, s.shape)
        res = grad_check(
            lambda: mean(mul(T.readout(s, x, *weights), mix)),
            {"s": s, "x": x, **dict(zip(WEIGHT_NAMES, weights))}, h=1e-5, tol=1e-4,
        )
        assert res.passed, res.summary()

    def test_one_tape_node_and_every_operand_gets_a_gradient(self):
        s, x, weights = readout_case(214, 2, 4, 6)
        with Tape() as tape:
            loss = mean(mul(T.readout(s, x, *weights), random_mix(215, s.shape)))
        tape.backward(loss)
        assert len(tape) == 3  # readout, mul, mean
        assert all(t.grad is not None for t in (s, x, *weights))

    def test_rejects_anything_but_one_query_per_clip(self):
        s, x, weights = readout_case(216, 2, 4, 6)
        for query, tokens in ((x, x), (s, x[:1]), (s.reshape(2, 6), x)):
            with pytest.raises(ValueError, match="readout"):
                T.readout(query, tokens, *weights)


class TestActivations:
    def test_fixed_points(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_symmetry(self):
        x = np.linspace(-20, 20, 11)
        s = T.sigmoid(Tensor(x)).data + T.sigmoid(Tensor(-x)).data
        assert np.allclose(s, 1.0, atol=1e-12)

    def test_stable_at_extremes(self):
        out = T.sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.allclose(out.data, [0.0, 1.0])
        out = T.gelu(Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))

    def test_gradients_match_central_differences(self):
        # central-difference oracle, h=1e-5, at the stated probe points
        h = 1e-5
        for fn_t, fn_np in (
            (T.gelu, lambda v: 0.5 * v * (1 + math.tanh(math.sqrt(2 / math.pi) * (v + 0.044715 * v**3)))),
            (T.sigmoid, lambda v: 1 / (1 + math.exp(-v))),
        ):
            for v in (-2.0, -0.5, 0.5, 2.0):
                x = Tensor([v], requires_grad=True)
                with Tape() as tape:
                    tape.backward(mean(fn_t(x)))
                numeric = (fn_np(v + h) - fn_np(v - h)) / (2 * h)
                rel = abs(x.grad[0] - numeric) / max(1.0, abs(x.grad[0]))
                assert rel < 1e-6


class TestShapeOps:
    def test_reshape_round_trip_bit_exact(self):
        rng = SplitMix64(2)
        x = rand(rng, (2, 3, 4))
        back = T.reshape(T.reshape(x, (6, 4)), (2, 3, 4))
        assert back.data.tobytes() == x.data.tobytes()

    def test_reshape_bad_count(self):
        with pytest.raises(ValueError, match="reshape"):
            T.reshape(Tensor(np.zeros((2, 3))), (4, 4))

    def test_permute_twice_is_identity(self):
        rng = SplitMix64(4)
        x = rand(rng, (3, 5))
        twice = T.permute(T.permute(x, (1, 0)), (1, 0))
        assert np.array_equal(twice.data, x.data)

    def test_permute_preserves_multiset(self):
        for seed in range(5):
            rng = SplitMix64(seed + 20)
            x = rand(rng, (2, 3, 4))
            p = T.permute(x, (2, 0, 1))
            assert np.array_equal(np.sort(p.data.ravel()), np.sort(x.data.ravel()))

    @pytest.mark.parametrize(
        "gshape, shape",
        [((1280, 4), (4,)), ((2, 16, 20), (20,)), ((3, 5), ()), ((0, 4), (4,)),
         ((2, 3, 4), (1, 4)), ((3, 4), (3, 4))],
    )
    def test_sum_to_shape_matches_sums_axis_by_axis(self, gshape, shape):
        # the product adds in another order than numpy's sums, hence 1e-12
        rng = SplitMix64(9)
        g = np.array([rng.normal() for _ in range(math.prod(gshape))]).reshape(gshape)
        want = g
        while want.ndim > len(shape):
            want = want.sum(axis=0)
        for ax, dim in enumerate(shape):
            if dim == 1 and want.shape[ax] != 1:
                want = want.sum(axis=ax, keepdims=True)
        got = T._sum_to_shape(g, shape)
        assert got.shape == shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_mean_of_ones(self):
        assert mean(Tensor(np.ones((3, 3)))).data == 1.0

    def test_permute_gradient_is_inverse_permute(self):
        rng = SplitMix64(6)
        x = rand(rng, (2, 3, 4))
        with Tape() as tape:
            y = T.permute(x, (1, 2, 0))
            w = Tensor(np.arange(24, dtype=float).reshape(3, 4, 2))
            tape.backward(mean(mul(y, w)))
        assert np.allclose(x.grad, w.data.transpose(2, 0, 1) / 24, rtol=0, atol=1e-15)

    def test_concat_and_slice_gradients(self):
        rng = SplitMix64(8)
        a = rand(rng, (3, 3))
        res = grad_check(lambda: mean(mul(a[1:, :2], a[1:, :2])), {"a": a})
        assert res.passed, res.summary()


class TestTape:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = mean(mul(x, x))
            tape.backward(loss)
        assert np.allclose(x.grad, [2 / 3, 4 / 3, 2.0])

    def test_constant_function_zero_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = mean(Tensor([5.0]))
            tape.backward(loss)
        assert x.grad is None

    def test_empty_tape_leaves_grads_zero(self):
        x = Tensor([1.0], requires_grad=True)
        tape = Tape()
        tape.backward(Tensor([3.0]))
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_double_backward_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = mean(mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        assert np.allclose(x.grad, 2 * first)

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)          # x^2
            loss = mean(T.add(y, y))  # 2x^2 -> d/dx = 4x
            tape.backward(loss)
        assert np.allclose(x.grad, [8.0])

    def test_no_tracking_outside_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = mul(x, x)
        assert y._backward is None and not y.requires_grad

    def test_finite_guard(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([float("nan")])

    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce")
    def test_overflowing_sum_of_finite_values_accepted(self):
        x = Tensor(np.array([1e308, 1e308]))
        assert np.all(np.isfinite(x.data))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", [0, 54_321, 99_999])
    def test_any_non_finite_in_large_array_rejected(self, bad, where):
        x = np.ones(100_000)
        x[where] = bad
        with pytest.raises(ValueError, match="finite"):
            Tensor(x.reshape(100, 1000))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in reduce")
    def test_opposite_infinities_rejected(self):
        # inf + -inf sums to NaN; still rejected, not mistaken for finite
        with pytest.raises(ValueError, match="finite"):
            Tensor([float("inf"), float("-inf")])

    def test_backward_releases_every_node_gradient(self):
        s, x, weights = readout_case(217, 2, 4, 6)
        with Tape() as tape:
            h = T.add(x, T.attention(x, *weights, heads=2))
            h = T.layer_norm(h.reshape(8, 6), weights[1], weights[3]).reshape(2, 4, 6)
            loss = mean(mul(T.readout(s, h, *weights), random_mix(218, s.shape)))
        tape.backward(loss)
        assert len(tape) == 8
        assert all(node.grad is None for node in tape._nodes)
        assert all(t.grad is not None for t in (s, x, *weights))

    def test_handed_over_gradients_never_alias(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            loss = mean(mul(T.add(a, b), Tensor([2.0, 6.0])))
        tape.backward(loss)
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(a.grad, [1.0, 3.0]) and np.array_equal(b.grad, [1.0, 3.0])
        a.grad += 1.0
        assert np.array_equal(b.grad, [1.0, 3.0])

        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = mean(mul(T.add(x, x), Tensor([2.0, 6.0])))
        tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 6.0])

    def test_leaf_gradients_own_distinct_buffers(self):
        # every hand-over path at once: reshape, add, attention, layer_norm
        # and readout; a leaf's gradient never shares memory with another's
        s, x, weights = readout_case(219, 2, 4, 6)
        gamma, beta = rand(SplitMix64(220), (6,)), rand(SplitMix64(221), (6,))
        with Tape() as tape:
            flat = x.reshape(1, 8, 6)
            h = T.add(flat, T.attention(flat, *weights, heads=3)).reshape(2, 4, 6)
            h = T.layer_norm(h, gamma, beta)
            loss = mean(mul(T.add(s, T.readout(s, h, *weights)), random_mix(222, s.shape)))
        tape.backward(loss)
        leaves = (s, x, gamma, beta, *weights)
        for i, t in enumerate(leaves):
            for u in leaves[i + 1:]:
                assert not np.shares_memory(t.grad, u.grad)

    def test_first_gradient_is_a_copy(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        g = np.array([3.0, 4.0])
        x.accumulate_grad(g)
        x.accumulate_grad(g)
        assert np.array_equal(x.grad, [6.0, 8.0])
        assert np.array_equal(g, [3.0, 4.0])


class TestGradCheck:
    def test_passes_on_composite_function(self):
        for seed in range(5):
            rng = SplitMix64(seed + 40)
            w = rand(rng, (3, 3))
            b = rand(rng, (3,))
            x = Tensor(np.array([rng.normal() for _ in range(6)]).reshape(2, 3))

            def f():
                h = T.gelu(T.add(T.matmul(x, w), b))
                return mean(T.sigmoid(softmax(h, axis=-1)))

            res = grad_check(f, {"w": w, "b": b})
            assert res.passed, res.summary()

    def test_reports_worst_offender(self):
        w = Tensor([1.0, 2.0], requires_grad=True)

        def bad():
            # plant a wrong gradient by bypassing the tape for one term
            out = mean(mul(w, w))
            return T.add(out, Tensor([float(w.data[1] * 10)]))

        res = grad_check(bad, {"w": w})
        assert not res.passed
        assert res.worst_param == "w" and res.worst_index == 1
        assert res.failures

    def test_rejects_non_scalar(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda: mul(w, Tensor([1.0, 2.0])), {"w": w})
