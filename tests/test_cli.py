"""CLI pipeline: artifacts, determinism, exit codes, schemas."""

import hashlib
import json
from pathlib import Path

import pytest

from rtslab.cli import build_parser, main


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

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rounds_per_pair": 2, "bogus_knob": 1}')
        rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "y")])
        assert rc == 3
        assert "bogus_knob" in capsys.readouterr().err

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


class TestCorruptCheckpoint:
    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        model = tmp_path / "model"
        model.mkdir()
        for name in ("config.json", "train.json"):
            (model / name).write_bytes((pipeline["model"] / name).read_bytes())
        raw = (pipeline["model"] / "best.ckpt").read_bytes()
        (model / "best.ckpt").write_bytes(raw[: len(raw) // 2])
        rc = main([
            "compare", "--dataset", str(pipeline["data"] / "dataset.jsonl"),
            "--models", str(model), "--out", str(tmp_path / "c"), "--fractions", "1.0",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "best.ckpt" in err


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
