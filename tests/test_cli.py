"""CLI pipeline: artifacts, determinism, exit codes, schemas."""

import dataclasses
import hashlib
import json
import shutil
import struct
from pathlib import Path

import pytest

from rtslab.baselines import lanchester_eval, predict_winner_classical, simple_eval
from rtslab.cli import FIELD_TYPES, RunConfig, build_parser, main
from rtslab.rng import SplitMix64
from rtslab.sim import decode_planes, read_dataset


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
        assert err.count("\n") == 1 and "map_size must be >= 8" in err
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
        ],
        ids=["map_size-str", "threads-null", "seed-str", "max_steps-bool", "fractions-number",
             "fractions-str-item", "roster-str", "models-int-item", "lr-str"],
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

    def test_config_type_table_covers_every_field(self):
        assert set(FIELD_TYPES) == {f.name for f in dataclasses.fields(RunConfig)}

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


# each case edits the dataset lines and returns where the error must point
def _drop_winner(lines):
    record = json.loads(lines[1])
    del record["winner"]
    lines[1] = json.dumps(record)
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
    lines[1] = json.dumps(record)
    return "dataset.jsonl:2: frame 0 planes have shape (3,"


def _repeated_step(lines):
    record = json.loads(lines[2])
    record["frames"][1][0] = record["frames"][0][0]
    lines[2] = json.dumps(record)
    return "dataset.jsonl:3: frame 1 step"


def _no_frames(lines):
    record = json.loads(lines[1])
    record["frames"] = []
    lines[1] = json.dumps(record)
    return "dataset.jsonl:2: record has no frames"


def _unknown_winner(lines):
    record = json.loads(lines[1])
    record["winner"] = "p3"
    lines[1] = json.dumps(record)
    return "dataset.jsonl:2: winner 'p3'"


def _three_channel_header(lines):
    header = json.loads(lines[0])
    header["channels"] = 3
    lines[0] = json.dumps(header)
    for i in range(1, len(lines)):
        record = json.loads(lines[i])
        record["frames"] = [[step, planes[:3]] for step, planes in record["frames"]]
        lines[i] = json.dumps(record)
    return "dataset.jsonl:1: header channels 3 is not 5"


def _deep_nesting(lines):
    lines[1] = "[" * 100_000
    return "dataset.jsonl:2: maximum recursion depth"


def _canonical_dump(record):
    """The writer's own layout."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# each edit changes a parsed match record and returns what the error must say
def _set_cell(plane, value):
    def edit(record):
        record["frames"][0][1][plane][0][0] = value
        return f"frame 0 plane {plane}"
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
         _no_frames, _unknown_winner, _three_channel_header, _deep_nesting],
        ids=["missing-winner", "truncated-line", "non-utf8", "three-planes", "repeated-step",
             "no-frames", "unknown-winner", "three-channel-header", "deep-nesting"],
    )
    def test_bad_record_exits_2_naming_the_line(self, pipeline, tmp_path, capsys, corrupt):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        where = corrupt(lines)
        data = tmp_path / "dataset.jsonl"
        data.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        (tmp_path / "splits.json").write_bytes((pipeline["data"] / "splits.json").read_bytes())
        rc = main(["compare", "--dataset", str(data), "--out", str(tmp_path / "c")])
        assert_one_line_exit_2(rc, capsys, where)

    @pytest.mark.parametrize("dump", [_canonical_dump, json.dumps], ids=["canonical", "default"])
    @pytest.mark.parametrize("edit", [
        _set_cell(0, 10**30), _set_cell(1, 1.5), _set_cell(4, -7), _set_cell(3, 26),
        _set_cell(0, 9), _set_cell(2, True), _set_duration("x"), _set_duration(-5),
        _step_past_duration,
    ], ids=["huge", "float", "negative", "26-in-plane-3", "9-in-plane-0", "bool",
            "string-duration", "negative-duration", "step-past-duration"])
    def test_bad_value_exits_2_naming_the_line(self, pipeline, tmp_path, capsys, edit, dump):
        lines = (pipeline["data"] / "dataset.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        where = edit(record)
        lines[1] = dump(record)
        data = tmp_path / "dataset.jsonl"
        data.write_text("\n".join(lines) + "\n")
        (tmp_path / "splits.json").write_bytes((pipeline["data"] / "splits.json").read_bytes())
        rc = main(["compare", "--dataset", str(data), "--out", str(tmp_path / "c")])
        assert_one_line_exit_2(rc, capsys, f"dataset.jsonl:2: {where}")

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
    lines[1 + m["test"][0]] = json.dumps(record)
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
        assert any(ln.endswith(",ours,None,None") or ",ours," in ln for ln in stability[1:])


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
                assert verdict == predict_winner_classical(state, evaluator)

    def test_match_id_out_of_range_exits_3(self, pipeline, tmp_path):
        rc = main([
            "timeline", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(pipeline["model"]), "--match-id", "999",
            "--out", str(tmp_path / "t2"),
        ])
        assert rc == 3


class TestHelp:
    @pytest.mark.parametrize(
        "command,expected_flags",
        [
            ("generate", ["--config", "--out", "--seed", "--threads", "--roster", "--rounds"]),
            ("train", ["--dataset", "--preset", "--epochs", "--lr", "--variant"]),
            ("eval", ["--dataset", "--models", "--threshold"]),
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
