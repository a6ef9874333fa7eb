"""Loss, optimizer, metrics, loop, and stratified-eval behavior."""

import math

import numpy as np
import pytest

from rtslab import tensor as T
from rtslab.model import ModelConfig, WinPredictor
from rtslab.rng import SplitMix64
from rtslab.tensor import Tape, Tensor
from rtslab.train import (
    AdamW,
    MetricsReport,
    TrainConfig,
    bce_loss,
    compute_metrics,
    evaluate_accuracy,
    neural_predictor,
    op_stability,
    progress_stratified_eval,
    train_model,
)
from rtslab.train.metrics import metrics_from_confusion


class TestBCELoss:
    def test_perfect_predictions_vanish(self):
        p = Tensor([1.0, 0.0, 1.0])
        loss = bce_loss(p, np.array([1, 0, 1]))
        assert float(loss.data) < 1e-10

    def test_coin_flip_is_ln2(self):
        loss = bce_loss(Tensor([0.5, 0.5, 0.5, 0.5]), np.array([1, 0, 1, 0]))
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = SplitMix64(3)
        vals = np.array([0.2 + 0.6 * rng.uniform() for _ in range(6)])
        y = np.array([1, 0, 1, 1, 0, 0])
        p = Tensor(vals, requires_grad=True)
        res = T.grad_check(lambda: bce_loss(p, y), {"p": p}, h=1e-7, tol=1e-6)
        assert res.passed, res.summary()

    def test_label_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            bce_loss(Tensor([0.5]), np.array([2]))
        with pytest.raises(ValueError, match="shape"):
            bce_loss(Tensor([0.5, 0.5]), np.array([1]))

    def test_loss_nonnegative(self):
        rng = SplitMix64(4)
        for _ in range(20):
            p = Tensor([rng.uniform() for _ in range(4)])
            y = np.array([rng.randrange(2) for _ in range(4)])
            assert float(bce_loss(p, y).data) >= 0.0


class TestAdamW:
    def test_zero_grad_is_pure_decay(self):
        cfg = TrainConfig()
        theta = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        opt = AdamW({"theta": theta}, cfg)
        opt.step()  # no gradient accumulated
        expect = np.array([1.0, -2.0, 0.5]) * (1.0 - cfg.lr * cfg.weight_decay)
        assert np.array_equal(theta.data, expect)

    def test_hand_computed_single_scalar_step(self):
        cfg = TrainConfig()
        theta = Tensor(np.array([1.0]), requires_grad=True)
        theta.grad = np.array([1.0])
        AdamW({"theta": theta}, cfg).step()
        # m=0.1, v=0.001, mhat=1, vhat=1 -> 1 - lr/(1+eps) - lr*0.01*1
        expect = 1.0 - cfg.lr * 1.0 / (1.0 + cfg.eps) - cfg.lr * cfg.weight_decay * 1.0
        assert theta.data[0] == pytest.approx(expect, abs=1e-12)

    def test_bit_identical_trajectories(self):
        def run():
            rng = SplitMix64(8)
            theta = Tensor(np.array([rng.normal() for _ in range(5)]), requires_grad=True)
            opt = AdamW({"t": theta}, TrainConfig(lr=1e-3))
            for i in range(50):
                theta.grad = np.sin(np.arange(5) + i) * 0.1
                opt.step()
            return theta.data.copy()

        assert np.array_equal(run(), run())

    def test_quadratic_bowl_strictly_decreases(self):
        theta = Tensor(np.array([1.0, -1.5]), requires_grad=True)
        opt = AdamW({"t": theta}, TrainConfig(lr=5e-3, weight_decay=0.0))
        prev = float((theta.data ** 2).sum())
        for _ in range(100):
            theta.grad = 2.0 * theta.data
            opt.step()
            now = float((theta.data ** 2).sum())
            assert now < prev
            prev = now

    def test_flat_update_bit_identical_to_per_parameter_formula(self):
        cfg = TrainConfig(lr=1e-2, weight_decay=0.05)
        rng = SplitMix64(21)
        shapes = {"w": (6, 7), "b": (9,), "s": (), "frozen": (3, 1)}
        params = {
            k: Tensor(np.array([rng.normal() for _ in range(int(np.prod(s)))]).reshape(s),
                      requires_grad=True)
            for k, s in shapes.items()
        }
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        opt = AdamW(params, cfg)
        for t in range(1, 11):
            grads = {
                k: np.array([rng.normal() for _ in range(int(np.prod(s)))]).reshape(s)
                for k, s in shapes.items() if k != "frozen"
            }
            for k, p in params.items():
                p.grad = grads.get(k)
            opt.step()
            bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
            for k in shapes:
                g = grads.get(k, np.zeros(shapes[k]))
                m[k] = m[k] * cfg.beta1 + (1.0 - cfg.beta1) * g
                v[k] = v[k] * cfg.beta2 + (1.0 - cfg.beta2) * g * g
                update = cfg.lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + cfg.eps)
                ref[k] = ref[k] * (1.0 - cfg.lr * cfg.weight_decay) - update
            for k, p in params.items():
                assert p.data.shape == shapes[k]
                assert np.array_equal(p.data, ref[k]), (t, k)

    def test_shape_mismatch_rejected(self):
        theta = Tensor(np.zeros(3), requires_grad=True)
        opt = AdamW({"t": theta}, TrainConfig())
        theta.grad = np.zeros(4)
        with pytest.raises(ValueError, match="shape"):
            opt.step()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError, match="betas"):
            TrainConfig(beta1=1.0)


class TestMetrics:
    def test_perfect_predictions(self):
        m = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
        assert m.op == 4.0

    def test_worked_confusion_example(self):
        m = metrics_from_confusion(tp=2, fp=1, fn=1, tn=1)
        assert m.accuracy == pytest.approx(0.6)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)
        assert m.op == pytest.approx(2.6)
        assert m.op == m.accuracy + m.precision + m.recall + m.f1  # exact sum

    def test_all_positive_on_balanced_set(self):
        m = compute_metrics([1, 1, 1, 1], [1, 0, 1, 0])
        assert m.recall == 1.0 and m.precision == 0.5

    def test_zero_denominator_conventions(self):
        assert metrics_from_confusion(0, 0, 2, 2).precision == 0.0
        assert metrics_from_confusion(0, 2, 0, 2).recall == 0.0
        assert metrics_from_confusion(0, 0, 0, 4).f1 == 0.0

    def test_against_bruteforce_counting(self):
        rng = SplitMix64(11)
        for _ in range(200):
            n = rng.randrange(30) + 1
            pred = [rng.randrange(2) for _ in range(n)]
            true = [rng.randrange(2) for _ in range(n)]
            m = compute_metrics(pred, true)
            tp = fp = fn = tn = 0
            for p, t in zip(pred, true):
                if p == 1 and t == 1:
                    tp += 1
                elif p == 1 and t == 0:
                    fp += 1
                elif p == 0 and t == 1:
                    fn += 1
                else:
                    tn += 1
            assert m.confusion == (tp, fp, fn, tn)
            assert m == metrics_from_confusion(tp, fp, fn, tn)

    def test_contract_errors(self):
        with pytest.raises(ValueError, match="match"):
            compute_metrics([1, 0], [1])
        with pytest.raises(ValueError, match="empty"):
            compute_metrics([], [])
        with pytest.raises(ValueError, match="0 or 1"):
            compute_metrics([2, 0], [1, 0])


def tiny_model(seed=0, layers=1):
    cfg = ModelConfig(
        layers=layers, embed_dim=10, heads=5, channels=5, time_steps=2,
        map_height=8, map_width=8,
    )
    return WinPredictor.create(cfg, seed=seed)


def random_examples(n, cfg, seed=0, balanced=True):
    rng = SplitMix64(seed)
    out = []
    for i in range(n):
        clip = np.array(
            [rng.uniform() for _ in range(cfg.time_steps * 5 * 8 * 8)]
        ).reshape(cfg.time_steps, 5, 8, 8)
        label = i % 2 if balanced else rng.randrange(2)
        out.append((clip, label))
    return out


class TestTrainLoop:
    def test_initial_loss_near_ln2(self):
        model = tiny_model(seed=5)
        examples = random_examples(8, model.config, seed=6)
        x = np.stack([e[0] for e in examples])
        y = np.array([e[1] for e in examples], dtype=float)
        loss = float(bce_loss(model.forward(x), y).data)
        assert abs(loss - math.log(2.0)) < 0.15

    def test_fixed_seed_identical_log(self):
        def run():
            model = tiny_model(seed=7)
            train = random_examples(12, model.config, seed=8)
            val = random_examples(6, model.config, seed=9)
            return train_model(model, train, val, TrainConfig(epochs=2, batch_size=4, seed=3)).log

        assert run() == run()

    def test_empty_sets_rejected(self):
        model = tiny_model()
        examples = random_examples(4, model.config)
        with pytest.raises(ValueError, match="non-empty"):
            train_model(model, [], examples, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="non-empty"):
            train_model(model, examples, [], TrainConfig(epochs=1))

    def test_random_labels_no_leakage(self):
        model = tiny_model(seed=10)
        train = random_examples(16, model.config, seed=11)
        val = random_examples(16, model.config, seed=12)
        result = train_model(model, train, val, TrainConfig(epochs=3, batch_size=4, seed=1))
        final_val = result.log[-1].val_acc
        assert 0.4 <= final_val <= 0.6

    def test_best_checkpoint_tracked(self):
        model = tiny_model(seed=13)
        train = random_examples(8, model.config, seed=14)
        val = random_examples(8, model.config, seed=15)
        result = train_model(model, train, val, TrainConfig(epochs=3, batch_size=4, seed=2))
        best_row = max(result.log, key=lambda r: r.val_acc)
        assert result.best_val_acc == best_row.val_acc
        assert set(result.best_params) == set(model.params)


def constant_series(values):
    return [
        (rho, metrics_from_confusion(tp, 0, 0, 10 - tp))
        for rho, tp in values
    ]


class TestStratified:
    def test_row_count_and_rho_one_matches_plain_eval(self):
        model = tiny_model(seed=16, layers=1)
        from rtslab.sim.engine import MatchRecord

        rng = SplitMix64(17)
        records = []
        for i in range(10):
            frames = []
            for k in range(4):
                planes = np.array(
                    [rng.randrange(8) for _ in range(5 * 8 * 8)]
                ).reshape(5, 8, 8)
                planes[1] = planes[1] % 11
                frames.append(((k + 1) * 2, planes))
            records.append(MatchRecord("A", "B", i, "p1" if i % 2 else "p2", 8, frames))
        predict = neural_predictor(model, frame_count=2)
        rows = progress_stratified_eval(predict, records, fractions=(0.5, 1.0))
        assert len(rows) == 2
        labels = np.array([1 if r.winner == "p1" else 0 for r in records])
        direct = np.array([predict(r, 1.0) for r in records])
        assert rows[1][1].accuracy == pytest.approx(float((direct == labels).mean()))

    def test_tie_predictions_score_as_wrong(self):
        records = [None, None]  # predictor ignores the record
        labels = [1, 0]
        rows = progress_stratified_eval(
            lambda rec, rho: None, records, fractions=(1.0,), labels=labels
        )
        assert rows[0][1].accuracy == 0.0

    def test_op_stability_constant_series(self):
        rows = constant_series([(0.1, 5), (0.3, 5), (0.6, 5), (0.9, 5)])
        out = op_stability(rows)
        assert out["early"] == 0.0 and out["late"] == 0.0

    def test_op_stability_population_convention(self):
        # two points with op values 0 and 2 -> population std exactly 1
        a = metrics_from_confusion(0, 10, 0, 0)   # everything wrong: op 0
        b = metrics_from_confusion(10, 0, 0, 0)   # everything right: op ... acc 1
        rows = [(0.1, a), (0.3, b)]
        out = op_stability(rows)
        assert out["early"] == pytest.approx(abs(b.op - a.op) / 2)

    def test_single_point_phase_omitted(self, caplog):
        rows = constant_series([(0.1, 5), (0.6, 5), (0.9, 5)])
        import logging

        with caplog.at_level(logging.WARNING):
            out = op_stability(rows)
        assert out["early"] is None
        assert "early" in caplog.text
