"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive shared work
(toy dataset generation + training both model variants) happens once in the
module fixture; criteria 3 and 4 consume it.
"""

import dataclasses
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles as T  # the tape ops and gradient check that only tests use
from oracles import (
    empty_state,
    oracle_lanchester,
    oracle_simple,
    random_small_state,
    surviving_units_label,
)
from parameter_counts import GROUPS, REFERENCE_PARAM_COUNTS, accounting_report, census

from rtslab.baselines import lanchester_eval, simple_eval
from rtslab.cli import main
from rtslab.model import (
    ModelConfig,
    WinPredictor,
    count_params,
    get_preset,
    init_params,
    parameter_spec,
)
from rtslab.rng import SplitMix64
from rtslab.sim import (
    decode_planes,
    run_tournament,
    schedule_round_robin,
    split_dataset,
)
from rtslab.sim.engine import visible_prefix
from rtslab.sim.rules import P1
from rtslab.sim.state import Unit
from rtslab.sim.rules import MAX_HP, UnitKind
from rtslab.tensor import Tensor
from rtslab.train import (
    AdamW,
    TrainConfig,
    bce_loss,
    compute_metrics,
    dataset_to_examples,
    evaluate_accuracy,
    progress_stratified_eval,
    stratified_metrics,
    train_model,
)
from rtslab.train.metrics import metrics_from_confusion
from rtslab.train.published import REFERENCE_ACCURACY, REFERENCE_OP_STD

DESK_GRADCHECK = ModelConfig(
    layers=2, embed_dim=20, heads=5, channels=5, time_steps=4,
    map_height=8, map_width=8,
)


def ok(n: int, text: str) -> None:
    print(f"\nPASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def toy_lab():
    """Toy separable dataset (>=200 matches) + both trained variants."""
    t0 = time.time()
    roster = [
        "PassiveLite", "RandomBiasedLite", "WorkerRushLite", "LightRushLite",
        "HeavyRushLite", "RangedRushLite", "EconomyRushLite",
    ]
    records = run_tournament(roster, 12, seed=42, max_steps=600, capture_every=8)
    relabeled = []
    for rec in records:
        label = surviving_units_label(rec)
        if label is None:
            continue
        relabeled.append(dataclasses.replace(rec, winner="p1" if label == 1 else "p2"))
    assert len(relabeled) >= 200, f"toy dataset too small: {len(relabeled)}"
    train_r, test_r, val_r = split_dataset(relabeled, seed=7)

    cfg = get_preset("desk")
    frames = cfg.time_steps
    sets = {
        "train": dataset_to_examples(train_r, frames),
        "val": dataset_to_examples(val_r, frames),
        "test": dataset_to_examples(test_r, frames),
    }
    train_cfg = TrainConfig(epochs=30, batch_size=2, seed=5)

    models = {}
    for variant in ("tstf", "space_time_only"):
        model = WinPredictor.create(dataclasses.replace(cfg, variant=variant), seed=1)
        result = train_model(model, sets["train"], sets["val"], train_cfg)
        for key, param in model.params.items():
            param.data[...] = result.best_params[key]
        models[variant] = (model, result)
    elapsed = time.time() - t0
    return {
        "records": relabeled,
        "test_records": test_r,
        "sets": sets,
        "models": models,
        "frames": frames,
        "elapsed": elapsed,
    }


class TestCriterion01GradientFidelity:
    def test_every_parameter_matches_central_differences(self):
        t0 = time.time()
        model = WinPredictor.create(DESK_GRADCHECK, seed=11)
        rng = SplitMix64(12)
        shape = (1, 4, 5, 8, 8)
        x = np.array([rng.uniform() for _ in range(int(np.prod(shape)))]).reshape(shape)
        y = np.array([1.0])

        def f():
            return bce_loss(model.forward(x), y)

        result = T.grad_check(f, model.params, h=1e-5, tol=1e-4)
        elapsed = time.time() - t0
        assert result.passed, result.summary()
        assert elapsed < 300, f"gradient check took {elapsed:.0f}s (budget 300s)"
        ok(1, f"{result.checked} gradients match central differences "
              f"(worst rel err {result.worst_rel_err:.2e}, {elapsed:.0f}s)")


class TestCriterion02AttentionInvariants:
    def test_softmax_row_stochastic(self):
        for seed in range(5):
            rng = SplitMix64(seed)
            x = Tensor(np.array(
                [rng.uniform() * 2000 - 1000 for _ in range(3 * 7 * 5)]
            ).reshape(3, 7, 5))
            out = T.softmax(x, axis=-1)
            assert np.all(out.data >= 0)
            assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_singleton_axes_reduce_to_projected_value(self):
        def projected(model, row, prefix):
            p = model.params
            v = row @ p[f"{prefix}.wv"].data + p[f"{prefix}.bv"].data
            return v @ p[f"{prefix}.wo"].data + p[f"{prefix}.bo"].data

        rng = SplitMix64(21)
        # N=1 spatial
        m = WinPredictor.create(ModelConfig(
            layers=1, embed_dim=20, heads=5, channels=5, time_steps=2,
            map_height=4, map_width=4), seed=1)
        z = Tensor(np.array([rng.normal() for _ in range(2 * 20)]).reshape(1, 2, 20))
        out = m.spatial_attention(z, 0)
        for t in range(2):
            assert np.allclose(out.data[0, t], projected(m, z.data[0, t], "layers.0.sa"), atol=1e-12)
        # T=1 temporal
        m = WinPredictor.create(ModelConfig(
            layers=1, embed_dim=20, heads=5, channels=5, time_steps=1,
            map_height=8, map_width=8), seed=2)
        z = Tensor(np.array([rng.normal() for _ in range(4 * 20)]).reshape(1, 4, 20))
        out = m.temporal_attention(z, 0)
        for n in range(4):
            assert np.allclose(out.data[0, n], projected(m, z.data[0, n], "layers.0.ta"), atol=1e-12)
        # C=1 feature
        m = WinPredictor.create(ModelConfig(
            layers=1, embed_dim=20, heads=5, channels=1, time_steps=2,
            map_height=8, map_width=8), seed=3)
        z = Tensor(np.array([rng.normal() for _ in range(3 * 20)]).reshape(1, 3, 20))
        out = m.feature_attention(z, 0)
        for i in range(3):
            assert np.allclose(out.data[0, i], projected(m, z.data[0, i], "layers.0.fa"), atol=1e-12)

    def test_permutation_equivariance_with_zero_positions(self):
        cfg = ModelConfig(layers=1, embed_dim=20, heads=5, channels=5, time_steps=3,
                          map_height=8, map_width=8)
        model = WinPredictor.create(cfg, seed=4)
        model.params["pos"].data[...] = 0.0
        rng = SplitMix64(22)
        n = cfg.patches_per_frame
        z = np.array([rng.normal() for _ in range(3 * n * 20)]).reshape(1, 3, n, 20)
        sperm = list(reversed(range(n)))
        flat = z.reshape(1, 3 * n, 20)
        out = model.spatial_attention(Tensor(flat), 0).data.reshape(1, 3, n, 20)
        out_p = model.spatial_attention(
            Tensor(z[:, :, sperm, :].reshape(1, 3 * n, 20)), 0
        ).data.reshape(1, 3, n, 20)
        assert np.allclose(out_p, out[:, :, sperm, :], atol=1e-9)
        tperm = [2, 0, 1]
        out = model.temporal_attention(Tensor(flat), 0).data.reshape(1, 3, n, 20)
        out_p = model.temporal_attention(
            Tensor(z[:, tperm].reshape(1, 3 * n, 20)), 0
        ).data.reshape(1, 3, n, 20)
        assert np.allclose(out_p, out[:, tperm], atol=1e-9)
        ok(2, "softmax row-stochastic, singleton-axis identities, permutation equivariance")


class TestCriterion03ToyLearnability:
    def test_desk_model_learns_separable_task(self, toy_lab):
        model, result = toy_lab["models"]["tstf"]
        best_train = max(row.train_acc for row in result.log)
        held_out = evaluate_accuracy(model, toy_lab["sets"]["test"])
        st_model, st_result = toy_lab["models"]["space_time_only"]
        st_held_out = evaluate_accuracy(st_model, toy_lab["sets"]["test"])
        assert len(result.log) <= 30
        assert best_train >= 0.95, f"train accuracy {best_train:.3f} < 0.95"
        assert held_out >= 0.90, f"held-out accuracy {held_out:.3f} < 0.90"
        assert toy_lab["elapsed"] < 1800, f"toy pipeline took {toy_lab['elapsed']:.0f}s"
        ok(3, f"tstf train {best_train:.3f} / held-out {held_out:.3f}; "
              f"space-time-only held-out {st_held_out:.3f} (reported, not bounded); "
              f"{len(toy_lab['records'])} matches, {toy_lab['elapsed']:.0f}s")


class TestCriterion04ProgressTrend:
    def test_accuracy_at_full_progress_at_least_early(self, toy_lab):
        model, _ = toy_lab["models"]["tstf"]
        records = dict(enumerate(toy_lab["test_records"]))
        fractions = (0.04, 1.0)
        states = {(i, rho): decode_planes(visible_prefix(r, rho)[-1][1])
                  for i, r in records.items() for rho in fractions}
        table = progress_stratified_eval([("tstf-2", model)], records, fractions, states)
        metrics = {name: dict(rows) for name, rows in stratified_metrics(table).items()}
        acc_early, acc_full = (metrics["tstf-2"][rho].accuracy for rho in fractions)
        assert acc_full >= acc_early, f"acc(1.0)={acc_full:.3f} < acc(0.04)={acc_early:.3f}"
        classical = {name: metrics[name][1.0].accuracy for name in ("simple", "lanchester")}
        # published full-scale rows are context only, never targets
        ref = ", ".join(
            f"{m}@4%={v[0.04]}" for m, v in sorted(REFERENCE_ACCURACY.items())
        )
        ok(4, f"toy trend acc(1.0)={acc_full:.3f} >= acc(0.04)={acc_early:.3f}; "
              f"classical@1.0 simple={classical['simple']:.3f} "
              f"lanchester={classical['lanchester']:.3f}; "
              f"paper reference (not reproduced): {ref}")


class TestCriterion05ParameterAccounting:
    def test_breakdown_document_and_exact_layer_counts(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "parameter_counts.md"
        assert doc.exists(), "docs/parameter_counts.md missing"
        assert doc.read_text() == accounting_report(), (
            "docs/parameter_counts.md is stale; regenerate with "
            "PYTHONPATH=src python3 docs/parameter_counts.py > docs/parameter_counts.md"
        )
        deltas = []
        for preset in ("tstf-6", "tstf-8", "timesformer-12"):
            cfg = get_preset(preset)
            groups, _ = census(cfg)
            active = count_params(cfg)
            # layer-local groups must match the allocated arrays exactly
            allocated: dict[str, int] = {g: 0 for g in GROUPS}
            from oracles import oracle_group_of as _group_of

            for name, shape, _ in parameter_spec(cfg):
                allocated[_group_of(name)] += int(np.prod(shape)) if shape else 1
            for group in ("spatial", "temporal", "feature", "cls_route", "norms"):
                assert groups[group] == allocated[group], group
            published = REFERENCE_PARAM_COUNTS[preset]
            delta_pct = 100.0 * (active - published) / published
            deltas.append(f"{preset}: ours {active:,} vs "
                          f"published {published:,} ({delta_pct:+.1f}%)")
        desk = init_params(get_preset("desk"), 0)
        assert sum(p.size for p in desk.values()) == sum(census(get_preset("desk"))[0].values())
        ok(5, "breakdown documented; layer-local counts exact; deltas: " + "; ".join(deltas))


class TestCriterion06OracleEquivalence:
    def test_thousand_random_states_agree_exactly(self):
        rng = SplitMix64(99)
        for _ in range(1000):
            s = random_small_state(rng)
            for player in (1, 2):
                assert simple_eval(s, player) == oracle_simple(s, player)
                assert lanchester_eval(s, player) == oracle_lanchester(s, player)

    def test_duplication_law(self):
        def army(n: int) -> float:
            s = empty_state()
            for i in range(n):
                s.units[(i // 16, i % 16)] = Unit(
                    UnitKind.LIGHT, MAX_HP[UnitKind.LIGHT], P1
                )
            return lanchester_eval(s, P1)

        for k in (1, 2, 3, 4):
            assert abs(army(2 * k) - army(k) * 2 ** 1.7) < 1e-9
        ok(6, "1000-state exact oracle agreement; doubling scales combat term by 2^1.7")


class TestCriterion07MetricCorrectness:
    def test_bruteforce_confusion_on_10k_vectors(self):
        rng = SplitMix64(123)
        for _ in range(10_000):
            n = rng.randrange(20) + 1
            pred = [rng.randrange(2) for _ in range(n)]
            true = [rng.randrange(2) for _ in range(n)]
            m = compute_metrics(pred, true)
            tp = sum(1 for p, t in zip(pred, true) if p == 1 and t == 1)
            fp = sum(1 for p, t in zip(pred, true) if p == 1 and t == 0)
            fn = sum(1 for p, t in zip(pred, true) if p == 0 and t == 1)
            tn = sum(1 for p, t in zip(pred, true) if p == 0 and t == 0)
            assert m.confusion == (tp, fp, fn, tn)
            assert m == metrics_from_confusion(tp, fp, fn, tn)
            assert m.op == m.accuracy + m.precision + m.recall + m.f1

    def test_worked_example(self):
        m = metrics_from_confusion(tp=2, fp=1, fn=1, tn=1)
        assert m.accuracy == pytest.approx(0.6, abs=1e-15)
        assert m.precision == pytest.approx(2 / 3, abs=1e-15)
        assert m.recall == pytest.approx(2 / 3, abs=1e-15)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-15)
        assert m.op == pytest.approx(2.6, abs=1e-15)
        ok(7, "10,000 random vectors match brute-force confusion counting; "
              "worked example (0.6, 2/3, 2/3, 2/3, 2.6)")


class TestCriterion08ProtocolArithmetic:
    def test_schedule_and_split_arithmetic(self):
        names = [f"S{i}" for i in range(10)]
        sched = schedule_round_robin(names, 70, seed=1)
        assert len(sched) == 3150
        sides: dict[tuple[str, str], int] = {}
        for m in sched:
            sides[(m.first, m.second)] = sides.get((m.first, m.second), 0) + 1
        for (a, b), count in sides.items():
            assert count == 35 and sides[(b, a)] == 35
        from rtslab.sim.engine import MatchRecord

        planes = np.zeros((5, 4, 4), dtype=np.int64)
        records = [
            MatchRecord("A", "B", i, "p1" if i % 2 else "p2", 10, [(10, planes)])
            for i in range(3150)
        ]
        train, test, val = split_dataset(records, seed=2)
        assert (len(train), len(test), len(val)) == (1800, 900, 450)
        ok(8, "10 strategies x 70 rounds -> 3,150 matches, 35/35 sides per pair; "
              "split 1800/900/450")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCriterion09Determinism:
    def test_generate_train_eval_rerun_byte_identical(self, tmp_path):
        def run(tag: str) -> dict[str, str]:
            base = tmp_path / tag
            gen = ["generate", "--out", str(base / "data"), "--seed", "5",
                   "--roster", "WorkerRushLite,LightRushLite,PassiveLite",
                   "--rounds", "2", "--max-steps", "80", "--capture-every", "4"]
            assert main(gen) == 0
            tr = ["train", "--dataset", str(base / "data" / "dataset.jsonl"),
                  "--out", str(base / "model"), "--seed", "3", "--epochs", "2"]
            assert main(tr) == 0
            ev = ["eval", "--dataset", str(base / "data" / "dataset.jsonl"),
                  "--models", str(base / "model"), "--out", str(base / "eval")]
            assert main(ev) == 0
            return {
                "dataset": _sha(base / "data" / "dataset.jsonl"),
                "splits": _sha(base / "data" / "splits.json"),
                "ckpt": _sha(base / "model" / "best.ckpt"),
                "log": _sha(base / "model" / "train_log.csv"),
                "report": _sha(base / "eval" / "metrics_report.csv"),
            }

        first, second = run("a"), run("b")
        assert first == second
        ok(9, "generate/train/eval reruns byte-identical "
              f"(5 artifacts checksummed, e.g. dataset {first['dataset'][:12]}...)")


class TestCriterion10AdamWUnitBehavior:
    def test_zero_grad_shrink_and_hand_step(self):
        cfg = TrainConfig()
        theta = Tensor(np.array([1.0, -0.25, 3.5]), requires_grad=True)
        AdamW({"t": theta}, cfg).step()
        assert np.array_equal(
            theta.data, np.array([1.0, -0.25, 3.5]) * (1.0 - cfg.lr * cfg.weight_decay)
        )
        theta = Tensor(np.array([1.0]), requires_grad=True)
        theta.grad = np.array([1.0])
        AdamW({"t": theta}, cfg).step()
        hand = 1.0 - cfg.lr * 1.0 / (1.0 + cfg.eps) - cfg.lr * cfg.weight_decay * 1.0
        assert abs(theta.data[0] - hand) < 1e-12
        ok(10, "zero-grad step shrinks by exactly (1 - lr*wd); "
               f"hand-computed step matches to 1e-12 (|diff|={abs(theta.data[0]-hand):.1e})")


class TestEndToEndPipeline:
    """Not a numbered criterion: drives the converged toy model through the
    compare and timeline commands and checks their promised behavior."""

    def test_timeline_and_compare_on_converged_model(self, toy_lab, tmp_path):
        from rtslab.sim import Dataset, DatasetHeader, write_dataset
        import json

        data_dir = tmp_path / "data"
        data_dir.mkdir()
        test_records = toy_lab["test_records"]
        write_dataset(
            data_dir / "dataset.jsonl",
            Dataset(header=DatasetHeader(capture_every=8, max_steps=600, seed=42),
                    records=test_records),
        )
        # splits must be disjoint; timeline and compare read only the test split
        (data_dir / "splits.json").write_text(json.dumps({
            "train": [], "test": list(range(len(test_records))),
            "validation": [], "draws": [],
        }))
        dirs = {}
        for variant, label in (("tstf", "tstf-2"), ("space_time_only", "spacetime-2")):
            m, _ = toy_lab["models"][variant]
            d = tmp_path / f"model_{variant}"
            d.mkdir()
            m.config.save(d / "config.json")
            m.save(d / "best.ckpt")
            (d / "train.json").write_text(json.dumps(
                {"name": label, "frames": toy_lab["frames"], "preset": "desk"}
            ))
            dirs[variant] = d
        model, _ = toy_lab["models"]["tstf"]
        model_dir = dirs["tstf"]

        # pick a match the converged model classifies correctly at rho=1
        table = progress_stratified_eval(
            [("tstf-2", model)], dict(enumerate(test_records)), (1.0,), None)
        match_id = next(row.record for row in table if row.prediction == row.label)
        out = tmp_path / "timeline"
        rc = main([
            "timeline", "--dataset", str(data_dir / "dataset.jsonl"),
            "--models", str(model_dir), "--match-id", str(match_id),
            "--out", str(out),
        ])
        assert rc == 0
        lines = (out / f"timeline_match{match_id}.csv").read_text().splitlines()
        last_neural = [ln for ln in lines[2:] if ln.startswith("tstf-2,")][-1]
        assert last_neural.split(",")[-1] == test_records[match_id].winner

        cmp_out = tmp_path / "compare"
        rc = main([
            "compare", "--dataset", str(data_dir / "dataset.jsonl"),
            "--models", f"{dirs['tstf']},{dirs['space_time_only']}",
            "--out", str(cmp_out),
            "--fractions", "0.04,0.2,0.4,0.6,0.8,1.0",
        ])
        assert rc == 0
        ours_tables = sorted(
            p.name for p in cmp_out.glob("stratified_*.csv")
            if p.name != "stratified_paper_reference.csv"
        )
        assert ours_tables == [
            "stratified_lanchester.csv", "stratified_simple.csv",
            "stratified_spacetime-2.csv", "stratified_tstf-2.csv",
        ]
        for table in ours_tables:
            rows = (cmp_out / table).read_text().splitlines()
            assert len(rows) == 1 + 6  # header + one row per fraction
        ref = (cmp_out / "stratified_paper_reference.csv").read_text()
        assert "paper" in ref and "0.587" in ref
        print("\nPASS end-to-end: timeline final prediction matches label on a "
              "converged match; compare emits 4 evaluator tables x 6 fractions")
