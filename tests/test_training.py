"""Loss, optimizer, metrics, loop, and stratified-eval behavior."""

import math
import weakref

import numpy as np
import pytest

from rtslab.cli import main
from rtslab.model import ModelConfig, WinPredictor, get_preset
from rtslab.rng import SplitMix64, derive_seed
from rtslab.sim import (
    Dataset,
    DatasetHeader,
    MatchRecord,
    make_strategy,
    raw_planes,
    read_dataset,
    run_match,
    sample_timeline,
    standard_start,
    write_dataset,
)
from rtslab.sim.encode import PLANE_MAX, normalize_planes
from rtslab.sim.engine import visible_prefix
from rtslab.tensor import Tape, Tensor
from rtslab.train import (
    AdamW,
    MetricsReport,
    Prediction,
    TrainConfig,
    bce_loss,
    compute_metrics,
    evaluate_accuracy,
    op_stability,
    predict_probs,
    progress_stratified_eval,
    stratified_metrics,
    train_model,
)
from rtslab.train.loop import INFER_BATCH, THRESHOLD, dataset_to_examples
from rtslab.train.metrics import metrics_from_confusion
from rtslab.train.stratified import fraction_cuts

from oracles import grad_check


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
        res = grad_check(lambda: bce_loss(p, y), {"p": p}, h=1e-7, tol=1e-6)
        assert res.passed, res.summary()

    def test_fused_node_equals_closed_form(self):
        # value and gradient equal the numpy formula exactly on seeded
        # batches; every probability the clamp moves gets zero gradient
        rng = SplitMix64(6)
        moved_values = (0.0, 1e-13, 1.0 - 1e-13, 1.0)
        for trial in range(400):
            n = rng.randrange(8) + 1
            vals = np.array([rng.uniform() for _ in range(n)])
            moved = np.zeros(n, dtype=bool)
            if trial % 2:
                i = rng.randrange(n)
                vals[i] = moved_values[trial // 2 % len(moved_values)]
                moved[i] = True
            y = np.array([float(rng.randrange(2)) for _ in range(n)])
            probs = Tensor(vals, requires_grad=True)
            with Tape() as tape:
                loss = bce_loss(probs, y)
                tape.backward(loss)
            assert len(tape) == 1
            p = np.clip(vals, 1e-12, 1.0 - 1e-12)
            assert loss.data == -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
            c = -1.0 / n
            expect = c * y / p - c * (1.0 - y) / (1.0 - p)
            assert np.array_equal(probs.grad[~moved], expect[~moved])
            assert np.all(probs.grad[moved] == 0.0)

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
                theta.grad[...] = np.sin(np.arange(5) + i) * 0.1
                opt.step()
            return theta.data.copy()

        assert np.array_equal(run(), run())

    def test_quadratic_bowl_strictly_decreases(self):
        theta = Tensor(np.array([1.0, -1.5]), requires_grad=True)
        opt = AdamW({"t": theta}, TrainConfig(lr=5e-3, weight_decay=0.0))
        prev = float((theta.data ** 2).sum())
        for _ in range(100):
            theta.grad[...] = 2.0 * theta.data
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
                p.grad[...] = grads.get(k, 0.0)  # the frozen parameter's stays 0
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
        theta.grad = np.zeros(4)
        with pytest.raises(ValueError, match="shape"):
            AdamW({"t": theta}, TrainConfig())

    def test_parameters_and_gradients_share_one_buffer_each(self):
        rng = SplitMix64(22)
        shapes = {"w": (3, 4), "b": (4,), "s": ()}
        params = {
            k: Tensor(np.array([rng.normal() for _ in range(math.prod(s))]).reshape(s),
                      requires_grad=True)
            for k, s in shapes.items()
        }
        values = {k: p.data.copy() for k, p in params.items()}
        params["b"].grad = np.arange(4.0)
        AdamW(params, TrainConfig())
        first = params["w"]
        for k, p in params.items():
            assert np.shares_memory(p.data, first.data.base), k
            assert np.shares_memory(p.grad, first.grad.base), k
            assert np.array_equal(p.data, values[k]), k
        assert np.array_equal(params["b"].grad, np.arange(4.0))
        assert not np.shares_memory(first.data.base, first.grad.base)

    @pytest.mark.parametrize("replacement", [None, np.zeros(3)], ids=["none", "another-array"])
    def test_replaced_gradient_raises_at_step(self, replacement):
        params = {
            "a": Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True),
            "b": Tensor(np.array([[1.5], [-0.25]]), requires_grad=True),
        }
        opt = AdamW(params, TrainConfig(lr=1e-2))
        params["a"].grad = replacement
        with pytest.raises(ValueError, match="^a: .grad was replaced"):
            opt.step()
        assert np.array_equal(params["a"].data, [0.5, -1.0, 2.0])  # no update made

    def test_one_tensor_under_two_names_rejected(self):
        theta = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="two names"):
            AdamW({"t": theta, "alias": theta}, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError, match="betas"):
            TrainConfig(beta1=1.0)

    def test_weight_decay_bound(self):
        # the decay factor 1 - lr*wd must stay in (0, 1]
        for lr, wd in ((1e-4, -1e-9), (0.5, 2.0), (1e-4, 2e4)):  # lr*wd < 0, == 1, == 2
            with pytest.raises(ValueError, match=r"0 <= lr\*weight_decay < 1"):
                TrainConfig(lr=lr, weight_decay=wd)
        TrainConfig(weight_decay=0.0)
        TrainConfig(lr=0.5, weight_decay=1.99)


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


def raw_clip(rng, shape):
    """Raw uint8 planes, each value floor(u * (PLANE_MAX + 1)) of a uniform u."""
    u = np.array([rng.uniform() for _ in range(math.prod(shape))]).reshape(shape)
    return np.floor(u * (PLANE_MAX + 1)).astype(np.uint8)


def random_examples(n, cfg, seed=0, balanced=True):
    rng = SplitMix64(seed)
    out = []
    for i in range(n):
        clip = raw_clip(rng, (cfg.time_steps, 5, 8, 8))
        label = i % 2 if balanced else rng.randrange(2)
        out.append((clip, label))
    return out


@pytest.fixture
def batches(monkeypatch):
    """The input of every WinPredictor.forward call."""
    seen = []
    forward = WinPredictor.forward

    def counting(model, x):
        seen.append(x.copy())
        return forward(model, x)

    monkeypatch.setattr(WinPredictor, "forward", counting)
    return seen


class TestTrainLoop:
    def test_initial_loss_near_ln2(self):
        model = tiny_model(seed=5)
        examples = random_examples(8, model.config, seed=6)
        x = normalize_planes(np.stack([e[0] for e in examples]))
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

    def test_best_snapshot_does_not_move_on_later_steps(self):
        model = tiny_model(seed=13)
        train = random_examples(8, model.config, seed=14)
        val = random_examples(8, model.config, seed=15)
        at_epoch_end = []
        result = train_model(
            model, train, val, TrainConfig(epochs=3, batch_size=4, seed=2, lr=1e-2),
            progress=lambda row: at_epoch_end.append(
                {k: p.data.copy() for k, p in model.params.items()}
            ),
        )
        assert result.best_epoch < 2  # later steps ran after the snapshot
        best = at_epoch_end[result.best_epoch]
        for k, p in model.params.items():
            assert np.array_equal(result.best_params[k], best[k]), k
        assert any(
            not np.array_equal(result.best_params[k], p.data) for k, p in model.params.items()
        )

    def test_float_clip_rejected_before_first_step(self, batches):
        model = tiny_model(seed=13)
        train = random_examples(8, model.config, seed=14)
        val = random_examples(8, model.config, seed=15)
        val[-1] = (val[-1][0].astype(np.float64), val[-1][1])
        with pytest.raises(ValueError, match="got dtype float64"):
            train_model(model, train, val, TrainConfig(epochs=1, batch_size=4, seed=2))
        assert batches == []

    def test_each_step_forwards_its_normalized_batch(self, batches):
        model = tiny_model(seed=13)
        train = random_examples(8, model.config, seed=14)
        val = random_examples(4, model.config, seed=15)
        train_model(model, train, val, TrainConfig(epochs=1, batch_size=4, seed=2))
        order = list(range(len(train)))
        SplitMix64(derive_seed(2, 0)).shuffle(order)
        expected = [
            normalize_planes(np.stack([train[i][0] for i in order[:4]])),
            normalize_planes(np.stack([train[i][0] for i in order[4:]])),
            normalize_planes(np.stack([x for x, _ in val])),  # the validation pass
        ]
        assert len(batches) == len(expected)
        assert all(np.array_equal(b, e) for b, e in zip(batches, expected))


class TestExamples:
    def test_clips_are_the_records_own_uint8_frames(self, tmp_path):
        records = [
            run_match(make_strategy(a), make_strategy(b), seed, max_steps=60, capture_every=4)
            for seed, (a, b) in enumerate([("WorkerRushLite", "PassiveLite"),
                                           ("PassiveLite", "LightRushLite")])
        ]
        path = tmp_path / "dataset.jsonl"
        write_dataset(path, Dataset(header=DatasetHeader(), records=records))
        read = read_dataset(path).records
        frames = 4
        examples = dataset_to_examples(read, frames)
        assert len(examples) == 2
        for (clip, label), rec in zip(examples, read):
            assert label == (1 if rec.winner == "p1" else 0)
            assert clip.dtype == np.uint8
            assert clip.nbytes == frames * 5 * 16 * 16
            last = len(rec.frames) - 1
            picks = [math.floor(i * last / (frames - 1) + 0.5) for i in range(frames)]
            assert np.array_equal(clip, np.stack([rec.frames[k][1] for k in picks]))


def constant_series(values):
    return [
        (rho, metrics_from_confusion(tp, 0, 0, 10 - tp))
        for rho, tp in values
    ]


class TestPredictProbs:
    """Tape-free inference forwards each distinct clip once, in batches of
    at most INFER_BATCH, and returns probabilities in input order."""

    ORDER = [0, 1, 0, 2, 3, 1, 4, 0, 5, 5]  # 10 clips, 6 distinct

    @pytest.fixture(scope="class")
    def desk(self):
        return WinPredictor.create(get_preset("desk"), seed=21)

    @pytest.fixture(scope="class")
    def distinct(self, desk):
        cfg = desk.config
        shape = (cfg.time_steps, cfg.channels, cfg.map_height, cfg.map_width)
        rng = SplitMix64(22)
        return [raw_clip(rng, shape) for _ in range(6)]

    def test_each_distinct_clip_forwarded_once_in_bounded_batches(self, desk, distinct, batches):
        predict_probs(desk, (distinct[i] for i in self.ORDER))
        assert all(len(b) <= INFER_BATCH for b in batches)
        rows = [row.tobytes() for b in batches for row in b]
        assert sorted(rows) == sorted(normalize_planes(c).tobytes() for c in distinct)

    def test_forward_sees_the_normalized_stack(self, desk, distinct, batches):
        raw = distinct[:INFER_BATCH]
        predict_probs(desk, raw)
        assert len(batches) == 1
        assert np.array_equal(batches[0], normalize_planes(np.stack(raw)))

    def test_float_clip_rejected_before_any_forward(self, desk, distinct, batches):
        # the float clip arrives while the first batch is still pending
        clips = [*distinct[: INFER_BATCH - 1], normalize_planes(distinct[INFER_BATCH - 1])]
        with pytest.raises(ValueError, match="got dtype float64"):
            predict_probs(desk, clips)
        assert batches == []

    def test_input_order_and_b1_agreement(self, desk, distinct):
        probs = predict_probs(desk, (distinct[i] for i in self.ORDER))
        single = [float(desk.forward(normalize_planes(c)[None]).data[0]) for c in distinct]
        assert len(set(single)) == len(single)  # so the order check below can fail
        expected = np.array([single[i] for i in self.ORDER])
        np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(probs >= 0.5, expected >= 0.5)

    def test_shared_cache_runs_no_second_forward(self, desk, distinct, batches):
        cache = {}
        first = predict_probs(desk, (distinct[i] for i in self.ORDER), cache)
        batches.clear()
        again = predict_probs(desk, (distinct[i] for i in self.ORDER), cache)
        assert batches == []
        np.testing.assert_array_equal(again, first)

    def test_input_is_streamed(self, desk, distinct):
        # each yielded clip is a fresh copy; count the copies still alive
        alive = []
        most = 0

        def clips():
            nonlocal most
            for i in range(3 * INFER_BATCH):
                most = max(most, sum(ref() is not None for ref in alive))
                clip = distinct[i % len(distinct)] + i
                alive.append(weakref.ref(clip))
                yield clip

        assert len(predict_probs(desk, clips())) == 3 * INFER_BATCH
        assert most <= INFER_BATCH

    def test_empty_input(self, desk):
        assert predict_probs(desk, iter([])).shape == (0,)

    def test_timeline_of_a_static_record_runs_one_forward_per_model(
        self, desk, batches, tmp_path
    ):
        planes = raw_planes(standard_start())
        frames = [(step, planes.copy()) for step in range(2, 42, 2)]
        record = MatchRecord("A", "B", 0, "p1", 40, frames)
        data = tmp_path / "dataset.jsonl"
        write_dataset(data, Dataset(header=DatasetHeader(), records=[record]))
        # two models of distinct evaluator names, tstf-2 and tstf-4
        dirs = []
        for model in (desk, WinPredictor.create(get_preset("desk-4"), seed=22)):
            model_dir = tmp_path / f"layers{model.config.layers}"
            model_dir.mkdir()
            model.config.save(model_dir / "config.json")
            model.save(model_dir / "best.ckpt")
            dirs.append(str(model_dir))
        rc = main([
            "timeline", "--dataset", str(data), "--models", ",".join(dirs),
            "--out", str(tmp_path / "t"),
        ])
        assert rc == 0
        assert [len(b) for b in batches] == [1, 1]
        lines = (tmp_path / "t" / "timeline_match0.csv").read_text().splitlines()
        for name in ("tstf-2", "tstf-4"):
            neural = [ln for ln in lines[2:] if ln.startswith(f"{name},")]
            assert len(neural) == len(frames)
            assert len({ln.split(",", 2)[2] for ln in neural}) == 1


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
                    [rng.randrange(8) for _ in range(5 * 8 * 8)], dtype=np.uint8
                ).reshape(5, 8, 8)
                planes[1] = planes[1] % 11
                frames.append(((k + 1) * 2, planes))
            records.append(MatchRecord("A", "B", i, "p1" if i % 2 else "p2", 8, frames))
        # dataset indices need not start at 0 or be sorted
        by_index = {3 * i + 1 if i % 2 else 40 - i: r for i, r in enumerate(records)}
        table = progress_stratified_eval([("m", model)], by_index,
                                         fraction_cuts(by_index, (0.5, 1.0)), classical=False)
        assert [(row.fraction, row.record) for row in table] == [
            (rho, i) for rho in (0.5, 1.0) for i in by_index]
        [_, (_, full)] = stratified_metrics(table)["m"]
        labels = np.array([1 if r.winner == "p1" else 0 for r in records])
        # the model's time_steps: 2
        probs = predict_probs(model, [sample_timeline(visible_prefix(r, 1.0), 2) for r in records])
        direct = (probs >= THRESHOLD).astype(int)
        assert full.accuracy == pytest.approx(float((direct == labels).mean()))
        assert [row.prob for row in table[10:]] == pytest.approx(probs.tolist(), abs=1e-12)

    def test_tie_predictions_score_as_wrong(self):
        # a tie on label 1 counts as a false negative, on label 0 as a false positive
        table = [Prediction("simple", 1.0, 7, 1, None, None, (2.0, 2.0)),
                 Prediction("simple", 1.0, 9, 0, None, None, (2.0, 2.0))]
        [(rho, report)] = stratified_metrics(table)["simple"]
        assert rho == 1.0 and report.accuracy == 0.0
        assert report.confusion == (0, 1, 1, 0)  # (tp, fp, fn, tn)

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
