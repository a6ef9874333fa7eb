"""Tensor-core behavior: op semantics, tape mechanics, gradient checks."""

import math

import numpy as np
import pytest

from rtslab import tensor as T
from rtslab.rng import SplitMix64
from rtslab.tensor import Tape, Tensor

from oracles import composed_attention, composed_layer_norm


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
            loss = T.sum_(out)
            tape.backward(loss)
        g = np.ones((4, 3))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)

    def test_batched_broadcast_gradient(self):
        rng = SplitMix64(11)
        a = rand(rng, (2, 3, 4, 5))
        w = rand(rng, (5, 3))
        res = T.grad_check(lambda: T.sum_(T.mul(T.matmul(a, w), T.matmul(a, w))), {"a": a, "w": w})
        assert res.passed, res.summary()


class TestSoftmax:
    def test_uniform_input(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_analytic_two_point(self):
        out = T.softmax(Tensor([0.0, math.log(2.0)]), axis=0)
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-12)

    def test_shift_invariance(self):
        rng = SplitMix64(5)
        x = np.array([rng.normal() for _ in range(6)]).reshape(2, 3)
        for c in (1.0, 1000.0):
            a = T.softmax(Tensor(x), axis=1)
            b = T.softmax(Tensor(x + c), axis=1)
            assert np.allclose(a.data, b.data, atol=1e-12)

    def test_rows_sum_to_one_large_inputs(self):
        for seed in range(5):
            rng = SplitMix64(seed)
            x = np.array([rng.uniform() * 2000 - 1000 for _ in range(12)]).reshape(3, 4)
            out = T.softmax(Tensor(x), axis=1)
            assert np.all(out.data >= 0)
            assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError, match="axis"):
            T.softmax(Tensor([1.0, 2.0]), axis=3)


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

    def test_beta_passthrough_with_zero_gamma(self):
        out = T.layer_norm(
            Tensor([1.0, 4.0, -2.0]), Tensor(np.zeros(3)), Tensor(np.full(3, 7.0))
        )
        assert np.allclose(out.data, 7.0)

    def test_fused_forward_matches_composed_reference(self):
        rng = SplitMix64(120)
        x, g, b = rand(rng, (3, 4, 6)), rand(rng, (6,)), rand(rng, (6,))
        fused = T.layer_norm(x, g, b)
        assert np.allclose(fused.data, composed_layer_norm(x, g, b).data, rtol=0, atol=1e-12)

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
        res = T.grad_check(
            lambda: T.sum_(T.mul(T.layer_norm(x, g, b), w)),
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


def attention_case(seed: int, groups: int, sq: int, sk: int, width: int, self_attn: bool):
    """Inputs and the ten attention operands for one attention call."""
    rng = SplitMix64(seed)
    xq = rand(rng, (groups, sq, width))
    xkv = xq if self_attn else rand(rng, (groups, sk, width))
    weights = []
    for _ in range(4):
        weights.append(rand(rng, (width, width)))
        weights.append(rand(rng, (width,)))
    return xq, xkv, weights


ATTENTION_CASES = {
    # name: (groups, Sq, Sk, width, heads, self-attention)
    "self_five_heads": (2, 3, 3, 10, 5, True),
    "self_one_head": (2, 3, 3, 4, 1, True),
    "cross_single_query": (2, 1, 4, 6, 1, False),
}


class TestAttention:
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_fused_forward_matches_composed_reference(self, case):
        groups, sq, sk, width, heads, self_attn = ATTENTION_CASES[case]
        xq, xkv, weights = attention_case(200, groups, sq, sk, width, self_attn)
        fused = T.attention(xq, xkv, *weights, heads=heads)
        composed = composed_attention(xq, xkv, *weights, heads=heads)
        assert fused.shape == (groups, sq, width)
        assert np.allclose(fused.data, composed.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_gradient_check(self, case):
        groups, sq, sk, width, heads, self_attn = ATTENTION_CASES[case]
        xq, xkv, weights = attention_case(201, groups, sq, sk, width, self_attn)
        rng = SplitMix64(202)
        mix = Tensor(
            np.array([rng.normal() for _ in range(groups * sq * width)]).reshape(groups, sq, width)
        )
        params = {"xq": xq, "xkv": xkv} if not self_attn else {"x": xq}
        names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        params.update(zip(names, weights))
        res = T.grad_check(
            lambda: T.sum_(T.mul(T.attention(xq, xkv, *weights, heads=heads), mix)),
            params, h=1e-5, tol=1e-4,
        )
        assert res.passed, res.summary()

    def test_one_tape_node(self):
        xq, xkv, weights = attention_case(203, 2, 3, 3, 10, True)
        with Tape() as tape:
            T.attention(xq, xkv, *weights, heads=5)
        assert len(tape) == 1

    def test_heads_must_divide_width(self):
        xq, xkv, weights = attention_case(204, 1, 2, 2, 10, True)
        with pytest.raises(ValueError, match="heads"):
            T.attention(xq, xkv, *weights, heads=3)


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
                    tape.backward(T.sum_(fn_t(x)))
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

    def test_mean_of_ones(self):
        assert T.mean(Tensor(np.ones((3, 3)))).data == 1.0

    def test_permute_gradient_is_inverse_permute(self):
        rng = SplitMix64(6)
        x = rand(rng, (2, 3, 4))
        with Tape() as tape:
            y = T.permute(x, (1, 2, 0))
            w = Tensor(np.arange(24, dtype=float).reshape(3, 4, 2))
            tape.backward(T.sum_(T.mul(y, w)))
        assert np.array_equal(x.grad, w.data.transpose(2, 0, 1))

    def test_concat_and_slice_gradients(self):
        rng = SplitMix64(8)
        a, b = rand(rng, (2, 3)), rand(rng, (1, 3))
        res = T.grad_check(
            lambda: T.sum_(T.power(T.concat([a, b], axis=0)[1:, :2], 2.0)),
            {"a": a, "b": b},
        )
        assert res.passed, res.summary()


class TestTape:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(T.mul(x, x))
            tape.backward(loss)
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_constant_function_zero_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(Tensor([5.0]))
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
            y = T.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_double_backward_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.sum_(T.mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        assert np.allclose(x.grad, 2 * first)

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)          # x^2
            loss = T.sum_(T.add(y, y))  # 2x^2 -> d/dx = 4x
            tape.backward(loss)
        assert np.allclose(x.grad, [8.0])

    def test_no_tracking_outside_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.mul(x, x)
        assert y._backward is None and not y.requires_grad

    def test_finite_guard(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([float("nan")])

    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce")
    def test_overflowing_sum_of_finite_values_accepted(self):
        x = Tensor(np.array([1e308, 1e308]))
        assert np.all(np.isfinite(x.data))
        # power's own check: each square is finite, their sum is not
        assert np.array_equal(T.power(Tensor([1e154, 1e154]), 2.0).data, [1e308, 1e308])

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

    def test_power_rejects_non_finite_result(self):
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(ValueError, match="finite"):
                T.power(Tensor(np.r_[np.ones(1000), 1e200]), 2.0)
            with pytest.raises(ValueError, match="finite"):
                T.power(Tensor([1.0, 0.0]), -1.0)

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
                return T.mean(T.sigmoid(T.softmax(h, axis=-1)))

            res = T.grad_check(f, {"w": w, "b": b})
            assert res.passed, res.summary()

    def test_reports_worst_offender(self):
        w = Tensor([1.0, 2.0], requires_grad=True)

        def bad():
            # plant a wrong gradient by bypassing the tape for one term
            out = T.sum_(T.mul(w, w))
            return T.add(out, Tensor([float(w.data[1] * 10)]))

        res = T.grad_check(bad, {"w": w})
        assert not res.passed
        assert res.worst_param == "w" and res.worst_index == 1
        assert res.failures

    def test_rejects_non_scalar(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.grad_check(lambda: T.mul(w, Tensor([1.0, 2.0])), {"w": w})
