"""CLI pipeline: artifacts, determinism, exit codes, schemas."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import struct
import typing
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import rtslab.sim.tournament
from rtslab.baselines import lanchester_eval, simple_eval, winner_by_score
from rtslab.cli import RunConfig, build_parser, main
from rtslab.model import ConfigError, ModelConfig
from rtslab.rng import SplitMix64
from rtslab.sim import (
    Dataset,
    DatasetHeader,
    MatchRecord,
    UnitKind,
    decode_planes,
    raw_planes,
    read_dataset,
    run_tournament,
    schedule_round_robin,
    standard_start,
    write_dataset,
)
from rtslab.sim.encode import PLANE_FACTION_RES, PLANE_HEALTH, PLANE_TYPE
from rtslab.sim.schema import RANGES, field_kind, from_json
from rtslab.train.metrics import metrics_from_confusion


NONEMPTY_FRACTIONS = "a non-empty list of values in (0, 1]"


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> train -> shared artifacts for the command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    rc = main([
        "generate", "--out", str(data), "--seed", "5",
        "--roster", "WorkerRushLite,LightRushLite,PassiveLite",
        "--rounds", "2", "--max-steps", "80", "--capture-every", "4",
    ])
    assert rc == 0
    model_dir = root / "model"
    rc = main([
        "train", "--dataset", str(data / "dataset.jsonl"), "--out", str(model_dir),
        "--seed", "3", "--epochs", "2",
    ])
    assert rc == 0
    return {"root": root, "data": data, "model": model_dir}


class TestGenerate:
    def test_two_strategy_two_round_dataset(self, tmp_path):
        out = tmp_path / "g"
        rc = main([
            "generate", "--out", str(out), "--seed", "1",
            "--roster", "WorkerRushLite,PassiveLite",
            "--rounds", "2", "--max-steps", "60", "--capture-every", "4",
        ])
        assert rc == 0
        lines = (out / "dataset.jsonl").read_text().splitlines()
        assert len(lines) == 3  # header + 2 matches
        head = json.loads(lines[0])
        assert head["kind"] == "header" and head["rounds_per_pair"] == 2

    def test_rerun_checksum_identical(self, tmp_path):
        args = [
            "generate", "--seed", "9",
            "--roster", "WorkerRushLite,EconomyRushLite",
            "--rounds", "2", "--max-steps", "60", "--capture-every", "4",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha(a / "dataset.jsonl") == sha(b / "dataset.jsonl")
        assert sha(a / "splits.json") == sha(b / "splits.json")

    def test_unknown_strategy_exits_3(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x"), "--roster", "Nope,PassiveLite"])
        assert rc == 3
        assert "Nope" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--capture-every", "--max-steps"])
    def test_non_positive_step_settings_exit_3(self, flag, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x"), flag, "0"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be >= 1" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("size", [0, 4])
    def test_map_below_minimum_exits_3(self, size, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_size": size}))
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "config key 'map_size' must be >= 8" in err
        assert not (tmp_path / "x").exists()

    def test_smallest_map_generates(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_size": 8}))
        out = tmp_path / "g"
        rc = main([
            "generate", "--config", str(cfg), "--out", str(out), "--seed", "1",
            "--roster", "WorkerRushLite,EconomyRushLite",
            "--rounds", "2", "--max-steps", "60", "--capture-every", "4",
        ])
        assert rc == 0
        dataset = read_dataset(out / "dataset.jsonl")
        assert dataset.header.map_height == dataset.header.map_width == 8
        assert all(planes.shape == (5, 8, 8) for r in dataset.records for _, planes in r.frames)

    @pytest.mark.parametrize("raw", [b"{", b'{"seed": "\xff"}', b"[" * 100_000, b"[1, 2]"],
                             ids=["not-json", "not-utf8", "deep-nesting", "not-object"])
    def test_unreadable_config_file_exits_3_naming_it(self, raw, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(cfg) in err
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rounds_per_pair": 2, "bogus_knob": 1}')
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "y")])
        assert rc == 3
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry,key",
        [
            ({"map_size": "x"}, "map_size"),
            ({"threads": None}, "threads"),
            ({"seed": "a"}, "seed"),
            ({"max_steps": True}, "max_steps"),
            ({"fractions": 5}, "fractions"),
            ({"fractions": [0.5, "1"]}, "fractions"),
            ({"roster": "PassiveLite"}, "roster"),
            ({"models": [1]}, "models"),
            ({"lr": "fast"}, "lr"),
            ({"fractions": []}, "fractions"),
        ],
        ids=["map_size-str", "threads-null", "seed-str", "max_steps-bool", "fractions-number",
             "fractions-str-item", "roster-str", "models-int-item", "lr-str", "fractions-empty"],
    )
    def test_config_value_of_wrong_type_exits_3(self, entry, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"config key {key!r} must be" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("entry,words", [
        ({"preset": "huge"}, "unknown preset 'huge'"),
        ({"fractions": [0.5, 1.5]}, f"config key 'fractions' must be {NONEMPTY_FRACTIONS}"),
        ({"fractions": [0.0]}, f"config key 'fractions' must be {NONEMPTY_FRACTIONS}"),
        ({"fractions": [0.2, 0.2]}, "fractions must not repeat a value: (0.2, 0.2)"),
        ({"seed": -1}, "config key 'seed' must be in 0..18446744073709551615, got -1"),
        ({"seed": 2**64}, f"config key 'seed' must be in 0..{2**64 - 1}, got {2**64}"),
    ], ids=["unknown-preset", "fraction-above-1", "fraction-0", "fraction-repeated",
            "seed-negative", "seed-2**64"])
    def test_value_out_of_range_exits_3(self, entry, words, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and words in err
        assert not (tmp_path / "x").exists()

    def test_threads_above_core_count_exits_3(self, tmp_path, capsys, monkeypatch):
        # a pool forks all its workers at the first submit, so the bound
        # must hold before any pool exists; a pool started here fails loudly
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threads": 1_000_000}))
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1000000" in err
        assert f"1..{os.cpu_count() or 1}" in err
        assert not (tmp_path / "x" / "dataset.jsonl").exists()

    @pytest.mark.parametrize("cls", [RunConfig, ModelConfig, DatasetHeader])
    def test_every_config_field_has_a_kind(self, cls):
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            what, check = field_kind(hints[field.name])
            if field.default is not dataclasses.MISSING:
                assert check(field.default), (field.name, what)
                assert field.name not in RANGES or RANGES[field.name].holds(field.default)
        with pytest.raises(TypeError, match="no config kind"):
            field_kind(dict[str, int])

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "roster": ["WorkerRushLite", "PassiveLite"],
            "rounds_per_pair": 2, "max_steps": 40, "capture_every": 4, "seed": 2,
        }))
        out = tmp_path / "z"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        head = json.loads((out / "dataset.jsonl").read_text().splitlines()[0])
        assert head["max_steps"] == 40


TWO_CORES = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--threads 2 needs 2 cores")
SMALL = ["--rounds", "2", "--max-steps", "60", "--capture-every", "4"]


def _files(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in folder.iterdir()}


class TestGenerateStream:
    def test_serial_run_holds_at_most_two_records(self, tmp_path, monkeypatch):
        # the one being written and the one being played; a list holds all 10
        real = rtslab.sim.tournament.run_match
        alive, peak, played = [0], [0], [0]

        def dropped():
            alive[0] -= 1

        def counted(*args, **kwargs):
            rec = real(*args, **kwargs)
            alive[0] += 1
            played[0] += 1
            peak[0] = max(peak[0], alive[0])
            weakref.finalize(rec, dropped)
            return rec

        monkeypatch.setattr(rtslab.sim.tournament, "run_match", counted)
        rc = main(["generate", "--out", str(tmp_path), "--seed", "3", "--threads", "1",
                   "--roster", "WorkerRushLite,LightRushLite", "--rounds", "10",
                   "--max-steps", "60", "--capture-every", "4"])
        assert rc == 0
        assert played[0] == 10 and peak[0] <= 2

    def test_pool_submits_a_bounded_window_ahead(self, monkeypatch):
        import concurrent.futures

        tournament = rtslab.sim.tournament
        played, shutdowns = [], []
        real = tournament.run_match

        def counted(*args, seed, **kwargs):
            played.append(seed)
            return real(*args, seed=seed, **kwargs)

        class InlinePool:
            """Plays each task as it is submitted, in this process."""

            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                shutdowns.append(cancel_futures)

        monkeypatch.setattr(tournament, "run_match", counted)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        roster = ["WorkerRushLite", "LightRushLite", "PassiveLite"]
        sched = schedule_round_robin(roster, 40, seed=3)
        ahead = tournament.IN_FLIGHT_PER_WORKER * 2 * tournament.CHUNK
        records = run_tournament(roster, 40, 3, max_steps=40, capture_every=4, threads=2)
        for k in range(1, 41):
            assert next(records).seed == sched[k - 1].seed
            assert len(played) <= k + ahead
        records.close()  # stopping early shuts the pool down, cancelling the rest
        assert shutdowns == [True]
        assert played == [slot.seed for slot in sched[:len(played)]] and len(played) < 120

    @TWO_CORES
    def test_two_threads_write_the_serial_bytes(self, tmp_path):
        args = ["generate", "--seed", "4", "--roster",
                "RandomBiasedLite,WorkerRushLite,LightRushLite", "--rounds", "4",
                "--max-steps", "80", "--capture-every", "4"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(b), "--threads", "2"]) == 0
        assert _files(a) == _files(b)
        assert not multiprocessing.active_children()

    def test_odd_rounds_exit_3_before_a_dataset_is_written(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x"), "--rounds", "3"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rounds_per_pair" in err
        assert not (tmp_path / "x" / "dataset.jsonl").exists()

    @pytest.mark.parametrize("threads", [1, pytest.param(2, marks=TWO_CORES)])
    def test_failed_match_keeps_the_earlier_outputs(self, threads, tmp_path, monkeypatch):
        roster = ["WorkerRushLite", "LightRushLite", "PassiveLite"]
        args = ["generate", "--out", str(tmp_path), "--roster", ",".join(roster)] + SMALL
        assert main(args + ["--seed", "1"]) == 0
        before = _files(tmp_path)
        third = schedule_round_robin(roster, 2, seed=2)[2].seed
        real = rtslab.sim.tournament.run_match

        def failing(*args, seed, **kwargs):
            if seed == third:
                raise RuntimeError("third match failed")
            return real(*args, seed=seed, **kwargs)

        # a forked worker inherits the patched module
        monkeypatch.setattr(rtslab.sim.tournament, "run_match", failing)
        with pytest.raises(RuntimeError, match="third match failed"):
            main(args + ["--seed", "2", "--threads", str(threads)])
        assert _files(tmp_path) == before
        assert not multiprocessing.active_children()

    def test_run_without_a_decided_match_keeps_the_earlier_outputs(self, tmp_path, capsys):
        args = ["generate", "--out", str(tmp_path), "--seed", "1"] + SMALL
        assert main(args + ["--roster", "WorkerRushLite,PassiveLite"]) == 0
        before = _files(tmp_path)
        capsys.readouterr()
        # a single step decides no match
        assert main(args + ["--roster", "LightRushLite,HeavyRushLite", "--max-steps", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no decided matches" in err
        assert _files(tmp_path) == before

    def test_printed_counts_match_a_recount(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path), "--seed", "6", "--roster",
                   "RandomBiasedLite,WorkerRushLite,PassiveLite", "--rounds", "4",
                   "--max-steps", "80", "--capture-every", "4"])
        assert rc == 0
        printed = re.search(
            r"distinct: (\d+) of (\d+) matches by frame sha256; "
            r"(\d+) of (\d+) ordered matchups have a single outcome",
            capsys.readouterr().out,
        )
        records = read_dataset(tmp_path / "dataset.jsonl").records
        distinct: list = []  # one representative per class of identical frame lists
        for rec in records:
            same = [
                other for other in distinct
                if len(other.frames) == len(rec.frames)
                and all(sa == sb and np.array_equal(fa, fb)
                        for (sa, fa), (sb, fb) in zip(other.frames, rec.frames))
            ]
            if not same:
                distinct.append(rec)
        outcomes: dict = {}
        for rec in records:
            outcomes.setdefault((rec.strategy_a, rec.strategy_b), set()).add(rec.winner)
        single = sum(len(seen) == 1 for seen in outcomes.values())
        expected = (len(distinct), len(records), single, len(outcomes))
        assert tuple(int(g) for g in printed.groups()) == expected
        assert len(distinct) < len(records) and single < len(outcomes)  # neither count trivial


class TestTrain:
    def test_artifacts_written(self, pipeline):
        model = pipeline["model"]
        for name in ("best.ckpt", "config.json", "train.json", "train_log.csv"):
            assert (model / name).exists()
        log_lines = (model / "train_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,train_loss,train_acc,val_acc"
        assert len(log_lines) == 3  # header + 2 epochs

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "no.jsonl"), "--out", str(tmp_path)])
        assert rc == 2

    def test_train_determinism(self, pipeline, tmp_path):
        data = pipeline["data"]
        args = ["train", "--dataset", str(data / "dataset.jsonl"),
                "--seed", "3", "--epochs", "2"]
        a, b = tmp_path / "m1", tmp_path / "m2"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha(a / "best.ckpt") == sha(b / "best.ckpt")
        assert sha(a / "train_log.csv") == sha(b / "train_log.csv")

    @pytest.mark.parametrize("lr", [100, 200])
    def test_lr_times_weight_decay_out_of_range_exits_3(self, pipeline, lr, tmp_path, capsys):
        # at the fixed weight decay 0.01, lr 100 makes the decay factor
        # 1 - lr*wd equal 0 and lr 200 makes it -1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": lr}))
        out = tmp_path / "m"
        rc = main(["train", "--config", str(cfg), "--dataset",
                   str(pipeline["data"] / "dataset.jsonl"), "--out", str(out), "--epochs", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "weight_decay" in err and "0 <= lr*weight_decay < 1" in err
        assert f"lr={lr}" in err
        assert not (out / "best.ckpt").exists()

    def test_bad_setting_exits_3_before_the_dataset_is_read(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(pipeline["data"] / "dataset.jsonl", data)  # no splits.json beside it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 200}))
        out = tmp_path / "m"
        rc = main(["train", "--config", str(cfg), "--dataset", str(data / "dataset.jsonl"),
                   "--out", str(out), "--epochs", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "0 <= lr*weight_decay < 1" in err
        assert not (out / "best.ckpt").exists()

    @pytest.mark.parametrize("case,words", [
        ("no-dataset", "dataset path is required"),
        ("empty-validation", "train or validation split has no usable records"),
    ])
    def test_unusable_dataset_exits_3(self, pipeline, tmp_path, capsys, case, words):
        argv = ["train", "--out", str(tmp_path / "m"), "--epochs", "1"]
        if case == "empty-validation":
            shutil.copy(pipeline["data"] / "dataset.jsonl", tmp_path)
            manifest = json.loads((pipeline["data"] / "splits.json").read_text())
            (tmp_path / "splits.json").write_text(json.dumps({**manifest, "validation": []}))
            argv += ["--dataset", str(tmp_path / "dataset.jsonl")]
        rc = main(argv)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and words in err
        assert not (tmp_path / "m" / "best.ckpt").exists()

    def test_variant_flag_overrides_the_preset(self, pipeline, tmp_path):
        out = tmp_path / "m"
        assert main(["train", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--out", str(out), "--epochs", "1", "--variant", "space_time_only"]) == 0
        assert json.loads((pipeline["model"] / "config.json").read_text())["variant"] == "tstf"
        assert json.loads((out / "config.json").read_text())["variant"] == "space_time_only"

    def test_inputs_not_mutated(self, pipeline):
        data = pipeline["data"]
        before = sha(data / "dataset.jsonl")
        main(["train", "--dataset", str(data / "dataset.jsonl"),
              "--out", str(pipeline["root"] / "scratch"), "--epochs", "1"])
        assert sha(data / "dataset.jsonl") == before


class TestEval:
    def test_report_schema(self, pipeline, tmp_path):
        out = tmp_path / "e"
        rc = main([
            "eval", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(pipeline["model"]), "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "metrics_report.csv").read_text().splitlines()
        assert lines[0].startswith("model,fraction,accuracy,precision,recall,f1,op")
        assert len(lines) == 2

    def test_eval_determinism(self, pipeline, tmp_path):
        base = [
            "eval", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(pipeline["model"]),
        ]
        a, b = tmp_path / "e1", tmp_path / "e2"
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert sha(a / "metrics_report.csv") == sha(b / "metrics_report.csv")

    def test_empty_test_split_exits_3(self, pipeline, tmp_path, capsys):
        data_dir = tmp_path / "empty"
        data_dir.mkdir()
        src = pipeline["data"]
        (data_dir / "dataset.jsonl").write_bytes((src / "dataset.jsonl").read_bytes())
        manifest = json.loads((src / "splits.json").read_text())
        manifest["test"] = []
        (data_dir / "splits.json").write_text(json.dumps(manifest))
        rc = main([
            "eval", "--dataset", str(data_dir / "dataset.jsonl"),
            "--models", str(pipeline["model"]), "--out", str(tmp_path / "out"),
        ])
        assert rc == 3
        assert "empty dataset" in capsys.readouterr().err

    def test_more_than_one_model_exits_3(self, pipeline, tmp_path, capsys):
        rc = main([
            "eval", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", f"{pipeline['model']},{pipeline['model']}", "--out", str(tmp_path / "e"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exactly one model directory" in err and "got 2" in err
        assert not (tmp_path / "e").exists()

    def test_missing_checkpoint_exits_2(self, pipeline, tmp_path):
        rc = main([
            "eval", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(tmp_path / "nomodel"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2


def assert_one_line_exit_2(rc, capsys, *names):
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    for name in names:
        assert name in err


class TestCorruptCheckpoint:
    def compare_with_checkpoint(self, pipeline, tmp_path, raw: bytes) -> int:
        model = tmp_path / "model"
        model.mkdir()
        for name in ("config.json", "train.json"):
            (model / name).write_bytes((pipeline["model"] / name).read_bytes())
        (model / "best.ckpt").write_bytes(raw)
        return main([
            "compare", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(model), "--out", str(tmp_path / "c"), "--fractions", "1.0",
        ])

    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        raw = (pipeline["model"] / "best.ckpt").read_bytes()
        rc = self.compare_with_checkpoint(pipeline, tmp_path, raw[: len(raw) // 2])
        assert_one_line_exit_2(rc, capsys, "best.ckpt")

    def test_nan_payload_exits_2(self, pipeline, tmp_path, capsys):
        raw = (pipeline["model"] / "best.ckpt").read_bytes()
        raw = raw[:-8] + struct.pack("<d", float("nan"))
        rc = self.compare_with_checkpoint(pipeline, tmp_path, raw)
        assert_one_line_exit_2(rc, capsys, "best.ckpt", "non-finite")

    def test_huge_weight_exits_2_with_no_warning(self, pipeline, tmp_path, capsys):
        raw = (pipeline["model"] / "best.ckpt").read_bytes()
        raw = raw[:-8] + struct.pack("<d", 1e300)  # finite, but the forward overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = self.compare_with_checkpoint(pipeline, tmp_path, raw)
        assert_one_line_exit_2(rc, capsys, "best.ckpt", "NaN/Inf")
        assert [str(w.message) for w in caught] == []


class TestModelDirectory:
    def compare_with(self, pipeline, tmp_path, config: str | None, train_json: str | None):
        model = tmp_path / "model"
        model.mkdir()
        (model / "best.ckpt").write_bytes((pipeline["model"] / "best.ckpt").read_bytes())
        for name, text in (("config.json", config), ("train.json", train_json)):
            if text is not None:
                (model / name).write_text(text)
        return main([
            "compare", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(model), "--out", str(tmp_path / "c"), "--fractions", "1.0",
        ])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text[:-3],
            lambda text: "[1, 2]",
            lambda text: text.replace("{", '{"bogus": 1, ', 1),
            lambda text: text.replace('"layers": 2', '"layers": "2"'),
            lambda text: text.replace('"layers": 2', '"layers": true'),
            lambda text: text.replace('"layers": 2, ', ""),
            lambda text: text.replace('"heads": 5', '"heads": 3'),
            lambda text: text.replace('"post_norm"', '"pre_norm"'),
            lambda text: "[" * 100_000,
        ],
        ids=["not-json", "not-object", "unknown-key", "layers-str", "layers-bool",
             "missing-key", "heads-not-dividing", "block-form-pre-norm", "deep-nesting"],
    )
    def test_bad_config_json_exits_2_naming_it(self, pipeline, tmp_path, capsys, edit):
        text = json.dumps(json.loads((pipeline["model"] / "config.json").read_text()),
                          sort_keys=True)
        bad = edit(text)
        assert bad != text
        rc = self.compare_with(pipeline, tmp_path, bad, "{}")
        assert_one_line_exit_2(rc, capsys, "config.json")

    @pytest.mark.parametrize("old,new", [
        ('"patch": 4', '"patch": 0'), ('"patch": 4', '"patch": -4'),
        ('"layers": 2', '"layers": 0'), ('"map_height": 16', '"map_height": 0'),
    ], ids=["patch-0", "patch-negative", "layers-0", "map_height-0"])
    def test_dimension_below_1_exits_2_naming_the_key(self, pipeline, tmp_path, capsys, old, new):
        text = (pipeline["model"] / "config.json").read_text()
        assert old in text
        rc = self.compare_with(pipeline, tmp_path, text.replace(old, new), "{}")
        key = old.split('"')[1]
        assert_one_line_exit_2(rc, capsys, "config.json: ", f"config key {key!r} must be >= 1")

    def test_config_not_fitting_checkpoint_exits_2_naming_both(self, pipeline, tmp_path, capsys):
        text = (pipeline["model"] / "config.json").read_text()
        bad = text.replace('"time_steps": 8', '"time_steps": 4')
        assert bad != text
        rc = self.compare_with(pipeline, tmp_path, bad, "{}")
        assert_one_line_exit_2(rc, capsys, "config.json", "best.ckpt")

    @pytest.mark.parametrize("train_json", [None, "[]", '{"frames": 4}'],
                             ids=["missing", "list", "wrong-frames"])
    def test_train_json_is_not_read(self, pipeline, tmp_path, train_json):
        config = (pipeline["model"] / "config.json").read_text()
        assert self.compare_with(pipeline, tmp_path, config, train_json) == 0
        ours = (tmp_path / "c" / "stratified_tstf-2.csv").read_text()
        ref = tmp_path / "ref"
        assert main([
            "compare", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(pipeline["model"]), "--out", str(ref), "--fractions", "1.0",
        ]) == 0
        assert ours == (ref / "stratified_tstf-2.csv").read_text()


class TestMapSizeMismatch:
    """`train` sizes the preset's model from the dataset header. A dataset
    whose maps differ in size from a model's config.json is a pair of
    inconsistent artifacts: exit 2 naming both, before any forward."""

    @pytest.fixture(scope="class")
    def small_maps(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("small")
        config = root / "config.json"
        config.write_text(json.dumps({"map_size": 8}))
        data = root / "data"
        assert main([
            "generate", "--config", str(config), "--out", str(data), "--seed", "5",
            "--roster", "WorkerRushLite,LightRushLite,PassiveLite",
            "--rounds", "2", "--max-steps", "80", "--capture-every", "4",
        ]) == 0
        return data / "dataset.jsonl"

    @pytest.mark.parametrize("command", [
        ["eval"], ["compare", "--fractions", "1.0"], ["timeline", "--match-id", "0"],
    ], ids=["eval", "compare", "timeline"])
    def test_exits_2_naming_dataset_and_model(self, pipeline, small_maps, tmp_path, capsys,
                                              command):
        rc = main(command + [
            "--dataset", str(small_maps), "--models", str(pipeline["model"]),
            "--out", str(tmp_path / "o"),
        ])
        assert_one_line_exit_2(rc, capsys, str(small_maps), str(pipeline["model"]), "8x8",
                               "16x16")

    def test_train_sizes_the_model_from_the_header(self, small_maps, tmp_path):
        model = tmp_path / "m"
        assert main(["train", "--dataset", str(small_maps), "--out", str(model),
                     "--epochs", "1"]) == 0
        config = json.loads((model / "config.json").read_text())
        assert (config["map_height"], config["map_width"]) == (8, 8)
        assert main(["compare", "--dataset", str(small_maps), "--models", str(model),
                     "--out", str(tmp_path / "c"), "--fractions", "1.0"]) == 0

    def test_map_size_the_patch_does_not_divide_exits_3(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"map_size": 10}))
        data = tmp_path / "data"
        assert main([
            "generate", "--config", str(config), "--out", str(data), "--seed", "5",
            "--roster", "WorkerRushLite,LightRushLite,PassiveLite",
            "--rounds", "2", "--max-steps", "80", "--capture-every", "4",
        ]) == 0
        capsys.readouterr()
        rc = main(["train", "--dataset", str(data / "dataset.jsonl"), "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert rc == 3 and err.count("\n") == 1 and "Traceback" not in err
        assert str(data / "dataset.jsonl") in err and "10x10" in err and "desk" in err


LAYOUT = "match line is not in the writer's layout"


def _canonical_dump(record):
    """The writer's own layout."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# each case edits the dataset lines and returns where the error must point
def _drop_winner(lines):
    record = json.loads(lines[1])
    del record["winner"]
    lines[1] = _canonical_dump(record)
    return "dataset.jsonl:2: record lacks key 'winner'"


def _truncate_last(lines):
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    return f"dataset.jsonl:{len(lines)}: not valid JSON"


def _append_non_utf8(lines):
    lines[-1] += "\udcff"  # written back as the lone byte 0xff
    return f"dataset.jsonl:{len(lines)}: not UTF-8"


def _three_planes(lines):
    record = json.loads(lines[1])
    record["frames"][0][1] = record["frames"][0][1][:3]
    lines[1] = _canonical_dump(record)
    return f"dataset.jsonl:2: {LAYOUT}"  # the values do not fill whole frames


def _repeated_step(lines):
    record = json.loads(lines[2])
    record["frames"][1][0] = record["frames"][0][0]
    lines[2] = _canonical_dump(record)
    return "dataset.jsonl:3: frame 1 step"


def _no_frames(lines):
    record = json.loads(lines[1])
    record["frames"] = []
    lines[1] = _canonical_dump(record)
    return "dataset.jsonl:2: record has no frames"


def _unknown_winner(lines):
    record = json.loads(lines[1])
    record["winner"] = "p3"
    lines[1] = _canonical_dump(record)
    return "dataset.jsonl:2: winner 'p3'"


def _three_channel_header(lines):
    header = json.loads(lines[0])
    header["channels"] = 3
    lines[0] = json.dumps(header)
    for i in range(1, len(lines)):
        record = json.loads(lines[i])
        record["frames"] = [[step, planes[:3]] for step, planes in record["frames"]]
        lines[i] = json.dumps(record)
    return "dataset.jsonl:1: header key 'channels' must be 5, got 3"


def _blank_line(lines):
    # skipping it would shift every later record off line index + 2
    lines.insert(1, "")
    return "dataset.jsonl:2: not valid JSON"


def _deep_nesting(lines):
    lines[1] = "[" * 100_000
    return "dataset.jsonl:2: maximum recursion depth"


# each edit changes a parsed match record and returns what the error must say
def _set_cell(plane, value, words=None):
    """`words` is for a value numpy does not parse as an int64."""
    def edit(record):
        record["frames"][0][1][plane][0][0] = value
        return words or f"frame 0 plane {plane}"
    return edit


def _set_duration(value):
    def edit(record):
        record["duration"] = value
        return "duration"
    return edit


def _step_past_duration(record):
    record["frames"][-1][0] = record["duration"] + 1
    return f"frame {len(record['frames']) - 1} step"


class TestCorruptDataset:
    @pytest.mark.parametrize(
        "corrupt",
        [_drop_winner, _truncate_last, _append_non_utf8, _three_planes, _repeated_step,
         _no_frames, _unknown_winner, _three_channel_header, _deep_nesting, _blank_line],
        ids=["missing-winner", "truncated-line", "non-utf8", "three-planes", "repeated-step",
             "no-frames", "unknown-winner", "three-channel-header", "deep-nesting", "blank-line"],
    )
    def test_bad_record_exits_2_naming_the_line(self, pipeline, tmp_path, capsys, corrupt):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        where = corrupt(lines)
        data = tmp_path / "dataset.jsonl"
        data.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        (tmp_path / "splits.json").write_bytes((pipeline["data"] / "splits.json").read_bytes())
        rc = main(["compare", "--dataset", str(data), "--out", str(tmp_path / "c")])
        assert_one_line_exit_2(rc, capsys, where)

    # json.dumps with default separators is not the writer's layout
    @pytest.mark.parametrize("dump", [_canonical_dump, json.dumps], ids=["canonical", "default"])
    @pytest.mark.parametrize("edit", [
        _set_cell(0, 10**30, LAYOUT), _set_cell(1, 1.5, LAYOUT), _set_cell(4, -7),
        _set_cell(3, 26), _set_cell(0, 9), _set_cell(2, True, LAYOUT), _set_duration("x"),
        _set_duration(-5), _step_past_duration,
    ], ids=["huge", "float", "negative", "26-in-plane-3", "9-in-plane-0", "bool",
            "string-duration", "negative-duration", "step-past-duration"])
    def test_bad_value_exits_2_naming_the_line(self, pipeline, tmp_path, capsys, edit, dump):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        where = edit(record)
        if dump is json.dumps:
            where = LAYOUT
        lines[1] = dump(record)
        data = tmp_path / "dataset.jsonl"
        data.write_text("\n".join(lines) + "\n")
        (tmp_path / "splits.json").write_bytes((pipeline["data"] / "splits.json").read_bytes())
        rc = main(["compare", "--dataset", str(data), "--out", str(tmp_path / "c")])
        assert_one_line_exit_2(rc, capsys, f"dataset.jsonl:2: {where}")

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(DatasetHeader)])
    def test_header_lacking_a_key_exits_2_naming_it(self, pipeline, tmp_path, capsys, key):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        del header[key]
        lines[0] = _canonical_dump(header)
        data = tmp_path / "dataset.jsonl"
        data.write_text("\n".join(lines) + "\n")
        (tmp_path / "splits.json").write_bytes((pipeline["data"] / "splits.json").read_bytes())
        rc = main(["compare", "--dataset", str(data), "--out", str(tmp_path / "c")])
        assert_one_line_exit_2(rc, capsys, f"dataset.jsonl:1: header lacks key {key!r}")

    @pytest.mark.parametrize("command", ["compare", "train"])
    @pytest.mark.parametrize("header,words", [
        ({"seed": "x"}, "header key 'seed' must be an integer"),
        ({"roster": 5}, "header key 'roster' must be a list of strings"),
        ({"capture_every": -1}, "header key 'capture_every' must be >= 1"),
        ({"rounds_per_pair": "x"}, "header key 'rounds_per_pair' must be an integer"),
        ({"channels": 5.0}, "header key 'channels' must be an integer, got 5.0"),
        ({"format_version": True}, "header key 'format_version' must be an integer"),
        ({"format_version": 1.0}, "header key 'format_version' must be an integer"),
        ({"seed": -1}, "header key 'seed' must be in 0..18446744073709551615, got -1"),
        ([1], "header is not a JSON object"),
    ], ids=["seed-str", "roster-int", "capture_every-negative", "rounds_per_pair-str",
            "channels-float", "format_version-bool", "format_version-float", "seed-negative",
            "list"])
    def test_bad_header_value_exits_2_naming_the_key(self, pipeline, tmp_path, capsys,
                                                      command, header, words):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        if isinstance(header, dict):
            header = {**json.loads(lines[0]), **header}
        lines[0] = _canonical_dump(header)
        data = tmp_path / "dataset.jsonl"
        data.write_text("\n".join(lines) + "\n")
        (tmp_path / "splits.json").write_bytes((pipeline["data"] / "splits.json").read_bytes())
        models = ["--models", str(pipeline["model"])] if command == "compare" else []
        rc = main([command, "--dataset", str(data), "--out", str(tmp_path / "o")] + models)
        assert_one_line_exit_2(rc, capsys, f"dataset.jsonl:1: {words}")

    def test_three_plane_frame_stops_timeline(self, pipeline, tmp_path, capsys):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        where = _three_planes(lines)
        data = tmp_path / "dataset.jsonl"
        data.write_text("\n".join(lines) + "\n")
        rc = main([
            "timeline", "--dataset", str(data), "--models", str(pipeline["model"]),
            "--match-id", "0", "--out", str(tmp_path / "t"),
        ])
        assert_one_line_exit_2(rc, capsys, where)


class TestMissingArtifact:
    """A missing or empty input, or an output directory that cannot be
    made: exit 2 on one line naming the path."""

    @pytest.mark.parametrize("case,words", [
        ("no-config", "config file not found"),
        ("out-under-a-file", "output directory not writable"),
        ("no-splits", "split manifest not found"),
        ("empty-dataset", "empty dataset file"),
    ])
    def test_exits_2_naming_the_path(self, pipeline, tmp_path, capsys, case, words):
        data = tmp_path / "dataset.jsonl"
        if case == "no-config":
            path = tmp_path / "none.json"
            argv = ["generate", "--config", str(path), "--out", str(tmp_path / "g")]
        elif case == "out-under-a-file":
            # a path below a regular file, since permission bits do not stop root
            (tmp_path / "file").write_text("")
            path = tmp_path / "file" / "out"
            argv = ["generate", "--out", str(path)]
        else:
            if case == "no-splits":
                shutil.copy(pipeline["data"] / "dataset.jsonl", data)
                path = tmp_path / "splits.json"
            else:
                data.write_bytes(b"")
                shutil.copy(pipeline["data"] / "splits.json", tmp_path)
                path = data
            argv = ["compare", "--dataset", str(data), "--out", str(tmp_path / "c")]
        rc = main(argv)
        assert_one_line_exit_2(rc, capsys, words, str(path))


def _overheal_a_worker(lines, index):
    """Give a worker hp 5 (its maximum is 1) in the last frame of record
    `index`: every plane stays in its range, but the frame decodes to no
    legal unit."""
    record = json.loads(lines[1 + index])
    planes = record["frames"][-1][1]
    r, c = next((r, c) for r, row in enumerate(planes[PLANE_TYPE])
                for c, kind in enumerate(row) if kind == UnitKind.WORKER)
    planes[PLANE_HEALTH][r][c] = 5
    lines[1 + index] = _canonical_dump(record)
    return "WORKER hp 5"


def _store_on_an_empty_cell(lines, index):
    """Paint a store of 3 on the first empty cell of the last frame of
    record `index`: every plane stays in its range, but no state encodes
    to the frame."""
    record = json.loads(lines[1 + index])
    planes = record["frames"][-1][1]
    r, c = next((r, c) for r, row in enumerate(planes[PLANE_TYPE])
                for c, kind in enumerate(row) if kind == 0)
    planes[PLANE_FACTION_RES][r][c] = 3
    lines[1 + index] = _canonical_dump(record)
    return f"cell ({r}, {c})"


class TestUndecodableFrame:
    @pytest.mark.parametrize("command,corrupt", [
        ("compare", _overheal_a_worker), ("timeline", _overheal_a_worker),
        ("compare", _store_on_an_empty_cell), ("timeline", _store_on_an_empty_cell),
    ], ids=["compare", "timeline", "compare-store-on-empty-cell", "timeline-store-on-empty-cell"])
    def test_exits_2_naming_the_line(self, pipeline, tmp_path, capsys, command, corrupt):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        manifest = json.loads((pipeline["data"] / "splits.json").read_text())
        index = manifest["test"][0]
        words = corrupt(lines, index)
        data = tmp_path / "dataset.jsonl"
        data.write_text("\n".join(lines) + "\n")
        (tmp_path / "splits.json").write_text(json.dumps(manifest))
        assert len(read_dataset(data).records) == len(lines) - 1  # the reader accepts it
        out = tmp_path / "out"
        rc = main([command, "--dataset", str(data), "--models", str(pipeline["model"]),
                   "--out", str(out)]
                  + (["--match-id", str(index)] if command == "timeline" else []))
        assert_one_line_exit_2(rc, capsys, f"dataset.jsonl:{index + 2}:", words)
        # both decode the frames they score before they make the output directory
        assert not out.exists()


class TestDirectoryAsInput:
    @pytest.mark.parametrize("command", ["generate", "train", "compare", "timeline"])
    def test_directory_path_exits_2_naming_it(self, command, pipeline, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = {
            "generate": ["generate", "--config", str(folder)],
            "train": ["train", "--dataset", str(folder)],
            "compare": ["compare", "--dataset", str(folder), "--models", str(pipeline["model"])],
            "timeline": ["timeline", "--dataset", str(folder),
                         "--models", str(pipeline["model"]), "--match-id", "0"],
        }[command]
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert_one_line_exit_2(rc, capsys, str(folder))


def _draw_in_test(lines, m):
    record = json.loads(lines[1 + m["test"][0]])
    record["winner"] = "draw"
    lines[1 + m["test"][0]] = _canonical_dump(record)
    return json.dumps(m)


class TestCorruptSplits:
    # each case maps (dataset lines, manifest) to the splits.json text; it
    # may also edit the dataset lines
    @pytest.mark.parametrize("corrupt,words", [
        (lambda lines, m: json.dumps({**m, "test": [-1]}), "out of range"),
        (lambda lines, m: json.dumps({**m, "test": [len(lines) - 1]}), "out of range"),
        (lambda lines, m: json.dumps({**m, "test": m["test"] + m["train"][:1]}),
         "more than once"),
        (lambda lines, m: json.dumps({**m, "test": m["test"] * 2}), "more than once"),
        (lambda lines, m: json.dumps({**m, "test": [True]}), "list of record indices"),
        (lambda lines, m: json.dumps({**m, "test": ["0"]}), "list of record indices"),
        (lambda lines, m: json.dumps({**m, "test": 0}), "list of record indices"),
        (lambda lines, m: json.dumps({"train": m["train"], "test": m["test"]}),
         "list of record indices"),
        (_draw_in_test, "drawn match"),
        (lambda lines, m: "[1, 2]", "JSON object"),
        (lambda lines, m: "{not json", "not valid JSON"),
        (lambda lines, m: "[" * 100_000, "not valid JSON"),
    ], ids=[
        "negative", "past-end", "overlap", "repeat", "bool", "string", "not-a-list",
        "missing-split", "draw", "array", "garbage", "deep-nesting",
    ])
    def test_bad_manifest_exits_2(self, pipeline, tmp_path, capsys, corrupt, words):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        manifest = json.loads((pipeline["data"] / "splits.json").read_text())
        (tmp_path / "splits.json").write_text(corrupt(lines, manifest))
        (tmp_path / "dataset.jsonl").write_text("\n".join(lines) + "\n")
        rc = main([
            "compare", "--dataset", str(tmp_path / "dataset.jsonl"),
            "--out", str(tmp_path / "c"), "--fractions", "1.0",
        ])
        assert_one_line_exit_2(rc, capsys, "splits.json", words)


def _corrupt(raw: bytes, rng: SplitMix64) -> bytes:
    """One seeded byte replacement, insertion or deletion; half of them
    fall in the first 512 bytes, where headers and small fields sit."""
    at = rng.randrange(min(len(raw), 512) if rng.randrange(2) else len(raw))
    byte = bytes([rng.randrange(256)])
    op = rng.randrange(3)
    if op == 0:
        return raw[:at] + byte + raw[at:]
    return raw[:at] + (byte if op == 1 else b"") + raw[at + 1:]


class TestSeededFuzz:
    """`compare` on a tiny 8x8 lab with one corrupted byte in one input:
    every run exits 0, 2 or 3, and a failing run prints one line and no
    traceback."""

    @pytest.fixture(scope="class")
    def tiny_lab(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        sizes = root / "sizes.json"
        sizes.write_text(json.dumps({"map_size": 8}))
        assert main([
            "generate", "--config", str(sizes), "--out", str(root / "data"), "--seed", "2",
            "--roster", "WorkerRushLite,PassiveLite", "--rounds", "4",
            "--max-steps", "40", "--capture-every", "4",
        ]) == 0
        assert main(["train", "--dataset", str(root / "data" / "dataset.jsonl"),
                     "--out", str(root / "model"), "--epochs", "1"]) == 0
        return root

    @pytest.mark.parametrize("artifact", [
        "run.json", "data/dataset.jsonl", "data/splits.json", "model/config.json",
        "model/best.ckpt",
    ], ids=["config", "dataset", "splits", "model-config", "checkpoint"])
    def test_corrupted_input(self, tiny_lab, tmp_path, capsys, artifact):
        lab = tmp_path / "lab"
        shutil.copytree(tiny_lab, lab)
        (lab / "run.json").write_text(json.dumps({
            "dataset": str(lab / "data" / "dataset.jsonl"), "models": [str(lab / "model")],
            "fractions": [1.0],
        }))
        pristine = (lab / artifact).read_bytes()
        rng = SplitMix64(7)
        capsys.readouterr()
        codes = set()
        for _ in range(200):
            (lab / artifact).write_bytes(_corrupt(pristine, rng))
            rc = main(["compare", "--config", str(lab / "run.json"), "--out", str(tmp_path / "c")])
            err = capsys.readouterr().err
            assert rc in (0, 2, 3) and "Traceback" not in err, (rc, err)
            if rc:
                assert err.startswith("error: ") and err.count("\n") == 1, err
            codes.add(rc)
        assert codes - {0}, codes  # some corruption is caught


def _wrong_types(annotation, rng: SplitMix64) -> list:
    """A JSON value of each type that a field of `annotation` (int, float,
    str, X | None or tuple[X, ...]) must reject, with seeded numbers and
    strings; which types fit is worked out here, not by `field_kind`."""
    args = typing.get_args(annotation)
    listed = typing.get_origin(annotation) is tuple
    fits = {int: (int,), float: (int, float), str: (str,)}[args[0] if args else annotation]
    number = 1 + rng.randrange(999)
    word = "".join(chr(97 + rng.randrange(26)) for _ in range(1 + rng.randrange(8)))
    values = [None, True, number, number + 0.5, float(number), word, [number], [word], {word: 1}]
    if listed:
        return [v for v in values if type(v) is not list or any(type(x) not in fits for x in v)]
    return [v for v in values if type(v) not in fits and (v is not None or not args)]


def _range_edges(annotation, bounds) -> tuple[list, list]:
    """(inside, outside): each finite edge of `bounds` and one step inside
    it, and one step outside it, as JSON values of a field of `annotation`
    (an int step, or 2**-20 for a float or a list of floats)."""
    args = typing.get_args(annotation)
    listed = typing.get_origin(annotation) is tuple
    step = 1 if (args[0] if args else annotation) is int else 2.0**-20
    inside, outside = [], []
    if bounds.open_low:
        inside.append(bounds.low + step)
        outside.append(bounds.low)
    else:
        inside += [bounds.low, bounds.low + step]
        outside.append(bounds.low - step)
    if bounds.high != math.inf:
        inside += [bounds.high, bounds.high - step]
        outside.append(bounds.high + step)
    inside = [v for v in inside if bounds.low <= v <= bounds.high]
    if listed:
        return [[v] for v in inside], [[v] for v in outside] + [[]]  # a listed range needs an item
    return inside, outside


class TestSchemaFuzz:
    """Every field of the three objects the one schema reader reads, given
    each wrong JSON type and each range edge one step out: exit 3 for a
    run config, 2 for a dataset header or a model's config.json, on one
    line naming the key, and no traceback. One step inside each edge, the
    reader does not reject the key."""

    def run_config(self, pipeline, tmp_path, key, value) -> int:
        cfg = tmp_path / "cfg.json"
        small = {"roster": ["WorkerRushLite", "PassiveLite"], "rounds_per_pair": 2,
                 "max_steps": 40, "out": str(tmp_path / "x")}
        cfg.write_text(json.dumps({**small, key: value}))
        return main(["generate", "--config", str(cfg)])

    def header(self, pipeline, tmp_path, key, value) -> int:
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        lines[0] = _canonical_dump({**json.loads(lines[0]), key: value})
        (tmp_path / "dataset.jsonl").write_text("\n".join(lines) + "\n")
        shutil.copy(pipeline["data"] / "splits.json", tmp_path)
        return main(["compare", "--dataset", str(tmp_path / "dataset.jsonl"),
                     "--models", str(pipeline["model"]), "--out", str(tmp_path / "c")])

    def model_config(self, pipeline, tmp_path, key, value) -> int:
        model = tmp_path / "model"
        model.mkdir(exist_ok=True)
        shutil.copy(pipeline["model"] / "best.ckpt", model)
        config = json.loads((pipeline["model"] / "config.json").read_text())
        (model / "config.json").write_text(json.dumps({**config, key: value}))
        return main(["compare", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                     "--models", str(model), "--out", str(tmp_path / "c")])

    def test_every_range_names_a_field(self):
        names = {f.name for cls in (RunConfig, ModelConfig, DatasetHeader)
                 for f in dataclasses.fields(cls)}
        assert set(RANGES) <= names

    @pytest.mark.parametrize("cls,code,where,what", [
        (RunConfig, 3, "", "config"), (DatasetHeader, 2, "dataset.jsonl:1: ", "header"),
        (ModelConfig, 2, "config.json: ", "config"),
    ], ids=["run-config", "header", "model-config"])
    def test_bad_value_exits_naming_the_key(self, pipeline, tmp_path, capsys, cls, code, where,
                                            what):
        header = json.loads((pipeline["data"] / "dataset.jsonl").read_text().split("\n")[0])
        config = json.loads((pipeline["model"] / "config.json").read_text())
        del header["kind"], config["block_form"]  # read before the schema reader
        write, base = {RunConfig: (self.run_config, dataclasses.asdict(RunConfig())),
                       DatasetHeader: (self.header, header),
                       ModelConfig: (self.model_config, config)}[cls]
        rng = SplitMix64({RunConfig: 31, DatasetHeader: 32, ModelConfig: 33}[cls])
        hints = typing.get_type_hints(cls)
        capsys.readouterr()
        cases = 0
        for field in dataclasses.fields(cls):
            key, bad = field.name, _wrong_types(hints[field.name], rng)
            if key in RANGES:
                inside, outside = _range_edges(hints[key], RANGES[key])
                bad += outside
                for value in inside:
                    try:
                        from_json(cls, {**base, key: value}, what)
                    except ConfigError as exc:  # another field's rule, such as divisibility
                        assert f"key {key!r}" not in str(exc), (key, value, exc)
            for value in bad:
                rc = write(pipeline, tmp_path, key, value)
                err = capsys.readouterr().err
                assert rc == code and err.count("\n") == 1, (key, value, rc, err)
                assert "Traceback" not in err, err
                assert f"{where}{what} key {key!r}" in err, (key, value, err)
                cases += 1
        assert cases >= 5 * len(dataclasses.fields(cls))


class TestCompare:
    def test_four_tables_with_fraction_rows(self, pipeline, tmp_path):
        out = tmp_path / "c"
        rc = main([
            "compare", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(pipeline["model"]), "--out", str(out),
            "--fractions", "0.5,1.0",
        ])
        assert rc == 0
        tables = sorted(p.name for p in out.glob("stratified_*.csv"))
        assert tables == [
            "stratified_lanchester.csv",
            "stratified_paper_reference.csv",
            "stratified_simple.csv",
            "stratified_tstf-2.csv",
        ]
        for name in ("tstf-2", "simple", "lanchester"):
            lines = (out / f"stratified_{name}.csv").read_text().splitlines()
            assert len(lines) == 3  # header + 2 fractions
            assert all(",ours," in ln for ln in lines[1:])

    def test_reference_rows_flagged_paper(self, pipeline, tmp_path):
        out = tmp_path / "c2"
        main([
            "compare", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(pipeline["model"]), "--out", str(out),
            "--fractions", "1.0",
        ])
        ref = (out / "stratified_paper_reference.csv").read_text()
        assert "tstf-8,paper,0.04,0.587" in ref
        assert "timesformer-12,paper,0.04,0.418" in ref
        stability = (out / "op_stability.csv").read_text().splitlines()
        assert "tstf-8,paper,0.947,0.114" in stability
        # one fraction leaves both phases with too few points: empty cells
        assert stability[1:4] == ["tstf-2,ours,,", "simple,ours,,", "lanchester,ours,,"]


class TestPredictionsTable:
    """compare's predictions.csv holds one row per evaluator, fraction and
    test record, and every summary compare writes is computed from it."""

    FRACTIONS = (0.04, 0.2, 0.4, 0.6, 0.8, 1.0)
    EVALUATORS = ("tstf-2", "simple", "lanchester")

    @pytest.fixture(scope="class")
    def run(self, pipeline, tmp_path_factory):
        # the pipeline's test split plus one match that never leaves the
        # mirrored start, so both classical rules tie at every fraction
        root = tmp_path_factory.mktemp("table")
        dataset = read_dataset(pipeline["data"] / "dataset.jsonl")
        manifest = json.loads((pipeline["data"] / "splits.json").read_text())
        start = raw_planes(standard_start(16))
        records = dataset.records + [
            MatchRecord("PassiveLite", "PassiveLite", 0, "p1", 8, [(0, start), (8, start)])]
        write_dataset(root / "dataset.jsonl", Dataset(dataset.header, records))
        manifest["test"].append(len(records) - 1)
        (root / "splits.json").write_text(json.dumps(manifest))
        argv = ["compare", "--dataset", str(root / "dataset.jsonl"),
                "--models", str(pipeline["model"])]
        for out in ("a", "b"):
            assert main(argv + ["--out", str(root / out)]) == 0
        labels = {i: int(records[i].winner == "p1") for i in manifest["test"]}
        return {"out": root / "a", "rerun": root / "b", "labels": labels, "tie": len(records) - 1}

    @staticmethod
    def rows(out: Path) -> list[list[str]]:
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "evaluator,fraction,record,label,prediction,prob"
        return [ln.split(",") for ln in lines[1:]]

    def test_one_row_per_evaluator_fraction_and_record_in_order(self, run):
        rows = self.rows(run["out"])
        labels = run["labels"]
        assert len(rows) == len(self.EVALUATORS) * len(self.FRACTIONS) * len(labels)
        assert [(e, float(f), int(r), int(y)) for e, f, r, y, _, _ in rows] == [
            (e, rho, i, labels[i]) for e in self.EVALUATORS for rho in self.FRACTIONS
            for i in labels]

    def test_classical_rows_have_no_prob_and_ties_read_tie(self, run):
        for name, _, record, _, prediction, prob in self.rows(run["out"]):
            if name == "tstf-2":
                assert repr(float(prob)) == prob
                assert prediction == str(int(float(prob) >= 0.5))
            else:
                assert prob == ""
                assert (prediction == "tie") == (int(record) == run["tie"])
                assert prediction in ("0", "1", "tie")

    def test_summaries_recomputed_from_the_table_alone(self, run):
        scored: dict = {}  # evaluator -> fraction -> [tp, fp, fn, tn]
        for name, fraction, _, label, prediction, _ in self.rows(run["out"]):
            truth = int(label)
            guess = 1 - truth if prediction == "tie" else int(prediction)  # a tie is wrong
            cell = {(1, 1): 0, (1, 0): 1, (0, 1): 2, (0, 0): 3}[guess, truth]
            scored.setdefault(name, {}).setdefault(float(fraction), [0, 0, 0, 0])[cell] += 1
        stability = (run["out"] / "op_stability.csv").read_text().splitlines()
        for name, by_fraction in scored.items():
            reports = {rho: metrics_from_confusion(*c) for rho, c in by_fraction.items()}
            want = ["model,source,fraction,accuracy,precision,recall,f1,op"] + [
                f"{name},ours,{rho},{m.accuracy},{m.precision},{m.recall},{m.f1},{m.op}"
                for rho, m in reports.items()]
            assert (run["out"] / f"stratified_{name}.csv").read_text() == "\n".join(want) + "\n"
            early = [m.op for rho, m in reports.items() if rho <= 0.4]
            late = [m.op for rho, m in reports.items() if rho > 0.4]
            assert f"{name},ours,{float(np.std(early))},{float(np.std(late))}" in stability

    def test_rerun_writes_the_same_bytes(self, run):
        assert sha(run["out"] / "predictions.csv") == sha(run["rerun"] / "predictions.csv")


class TestTimeline:
    def test_per_step_rows_for_every_evaluator(self, pipeline, tmp_path):
        out = tmp_path / "t"
        rc = main([
            "timeline", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(pipeline["model"]), "--match-id", "0", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "timeline_match0.csv").read_text().splitlines()
        assert lines[0].startswith("#") and "(y, 1-y)" in lines[0]
        assert lines[1] == "evaluator,step,p1_score,p2_score,predicted_winner"
        evaluators = {ln.split(",")[0] for ln in lines[2:]}
        assert evaluators == {"tstf-2", "simple", "lanchester"}
        n_frames = sum(1 for ln in lines[2:] if ln.startswith("simple,"))
        assert all(
            sum(1 for ln in lines[2:] if ln.startswith(f"{e},")) == n_frames
            for e in evaluators
        )

    def test_compare_and_timeline_idempotent(self, pipeline, tmp_path):
        for cmd, check in (
            (["compare", "--fractions", "1.0"], "stratified_simple.csv"),
            (["timeline", "--match-id", "1"], "timeline_match1.csv"),
        ):
            base = cmd + [
                "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                "--models", str(pipeline["model"]),
            ]
            a = tmp_path / f"{cmd[0]}_a"
            b = tmp_path / f"{cmd[0]}_b"
            assert main(base + ["--out", str(a)]) == 0
            assert main(base + ["--out", str(b)]) == 0
            assert sha(a / check) == sha(b / check)

    def test_classical_rows_score_the_frame_at_their_step(self, tmp_path):
        # with a frame at every step, a row at step s must show frame s and
        # never a later one
        data = tmp_path / "every"
        assert main([
            "generate", "--out", str(data), "--seed", "4",
            "--roster", "WorkerRushLite,LightRushLite", "--rounds", "2",
            "--max-steps", "90", "--capture-every", "1",
        ]) == 0
        dataset = read_dataset(data / "dataset.jsonl")
        evaluators = {"simple": simple_eval, "lanchester": lanchester_eval}
        for match_id, record in enumerate(dataset.records):
            out = tmp_path / f"t{match_id}"
            assert main([
                "timeline", "--dataset", str(data / "dataset.jsonl"),
                "--match-id", str(match_id), "--out", str(out),
            ]) == 0
            frames = dict(record.frames)
            lines = (out / f"timeline_match{match_id}.csv").read_text().splitlines()[2:]
            assert len(lines) == 2 * len(frames)
            for line in lines:
                name, step, s1, s2, verdict = line.split(",")
                state = decode_planes(frames[int(step)])
                evaluator = evaluators[name]
                assert (s1, s2) == (str(evaluator(state, 1)), str(evaluator(state, 2)))
                assert verdict == winner_by_score(evaluator(state, 1), evaluator(state, 2))

    def test_match_id_out_of_range_exits_3(self, pipeline, tmp_path):
        rc = main([
            "timeline", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(pipeline["model"]), "--match-id", "999",
            "--out", str(tmp_path / "t2"),
        ])
        assert rc == 3


class TestRejectedRun:
    """A setting or input that fails its check exits 3 before the output
    directory is made."""

    @pytest.mark.parametrize("argv,words", [
        (["generate", "--rounds", "3"], "rounds_per_pair must be even and positive"),
        (["generate", "--rounds", "0"], "rounds_per_pair must be even and positive"),
        (["generate", "--roster", "PassiveLite"], "need at least 2 strategies"),
        (["generate", "--roster", "WorkerRushLite,WorkerRushLite,PassiveLite"],
         "roster must not repeat a strategy: WorkerRushLite,WorkerRushLite,PassiveLite"),
        (["train", "--epochs", "0"], "batch_size and epochs must be >= 1"),
        (["train", "--batch-size", "0"], "batch_size and epochs must be >= 1"),
        (["train", "--lr", "0"], "lr must be positive"),
        (["timeline", "--match-id", "-1"], "match_id -1 out of range"),
        # SplitMix64 takes a seed mod 2**64: -1 would replay seed 2**64 - 1
        (["generate", "--seed", "-1"], "config key 'seed' must be in 0..18446744073709551615"),
        (["train", "--seed", "-5"], "config key 'seed' must be in 0..18446744073709551615"),
    ], ids=["odd-rounds", "zero-rounds", "one-strategy", "repeated-strategy", "zero-epochs",
            "zero-batch", "zero-lr", "negative-match-id", "generate-negative-seed",
            "train-negative-seed"])
    def test_exits_3_and_makes_no_output_directory(self, pipeline, tmp_path, capsys, argv,
                                                   words):
        if argv[0] != "generate":
            argv = argv + ["--dataset", str(pipeline["data"] / "dataset.jsonl")]
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and words in err, err
        assert not out.exists()


class TestDuplicateEvaluatorName:
    @pytest.mark.parametrize("command", ["compare", "timeline"])
    def test_exits_3_naming_both_directories(self, pipeline, tmp_path, capsys, command):
        twin = tmp_path / "twin"
        shutil.copytree(pipeline["model"], twin)
        out = tmp_path / "out"
        rc = main([command, "--dataset", str(pipeline["data"] / "dataset.jsonl"),
                   "--models", f"{pipeline['model']},{twin}", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'tstf-2'" in err
        assert str(pipeline["model"]) in err and str(twin) in err
        assert not out.exists() or not any(out.iterdir())


class TestBadFlags:
    @pytest.mark.parametrize("argv,words", [
        (["generate", "--max-steps", "abc"], "invalid int value: 'abc'"),
        (["compare", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["eval", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["compare", "--threads", "2"], "unrecognized arguments: --threads 2"),
        (["compare", "--fractions", "0.5,x"], "invalid float_list value: '0.5,x'"),
        (["train", "--variant", "big"], "invalid choice: 'big'"),
        ([], "the following arguments are required: command"),
    ], ids=["bad-int", "unknown-flag", "eval-seed", "compare-threads", "bad-fraction",
            "bad-variant", "no-command"])
    def test_exits_3_on_one_line(self, argv, words, tmp_path, capsys):
        rc = main(argv + (["--out", str(tmp_path / "x")] if argv else []))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: rtslab") and err.count("\n") == 1 and words in err, err
        assert not (tmp_path / "x").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        assert "--models" in capsys.readouterr().out


class TestHelp:
    @pytest.mark.parametrize(
        "command,expected_flags",
        [
            ("generate", ["--config", "--out", "--seed", "--threads", "--roster", "--rounds"]),
            ("train", ["--dataset", "--preset", "--epochs", "--lr", "--variant"]),
            ("eval", ["--dataset", "--models"]),
            ("compare", ["--fractions", "--models"]),
            ("timeline", ["--match-id", "--models"]),
        ],
    )
    def test_help_lists_flags(self, command, expected_flags, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in expected_flags:
            assert flag in text, f"{command} --help missing {flag}"
