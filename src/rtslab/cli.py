"""Command-line front end wiring the full pipeline.

Subcommands:

    generate   play a round-robin tournament, write dataset + split manifest
    train      fit a win predictor on a generated dataset
    eval       score a trained model on the test split (full progress)
    compare    the predictions of neural + classical evaluators at each
               progress fraction (predictions.csv), and the stratified
               tables and stability summary computed from them
    timeline   per-step scores of every evaluator over one chosen match

Settings merge from a JSON config file (--config) and flag overrides;
unknown config keys are rejected by name. One checker, `sim.schema`,
reads the settings, a dataset.jsonl header and a model's config.json:
each key's type from its field and its range from one table (a seed,
for one, must lie in 0..2**64-1). Every command is idempotent:
identical config + seed produces byte-identical output files. Errors end
in one line on stderr. A command checks its settings and inputs before it
makes the output directory, so a rejected run creates none. Exit codes:

    0  success
    2  missing or unwritable artifact, or a corrupt one: a dataset.jsonl
       header that is not a JSON object, or lacks a key or holds one of
       the wrong type or out of range (named with the file, line 1 and
       the key), a dataset.jsonl line that does not parse, lacks a key
       or disagrees with the header
       (no frames, frame shape, a plane value outside its range, a
       duration below 1, frame steps out of order or past the duration,
       winner value; named by file and line),
       a frame that is not the encoding of a legal state (named by file
       and line when compare or timeline scores it classically),
       a splits.json whose splits are not disjoint lists of in-range
       indices of decided matches, a model directory's config.json that
       does not parse or holds a bad key or value (named with the key),
       a checkpoint that is truncated, padded, holds a NaN/Inf or does
       not fit its config.json,
       a model whose map size differs from the dataset header's
    3  configuration violation: a flag that does not parse, is unknown or
       is not one the subcommand takes, a missing subcommand, a --config
       file that is not UTF-8 JSON or holds an unknown key or a value of
       the wrong type, a value out of range, a progress fraction given
       twice, a roster that names a strategy twice, eval given other than one
       model directory, compare or timeline given two model directories
       with one evaluator name, and a dataset whose map size the preset's
       patch does not divide
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from collections import defaultdict
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import CorruptArtifact
from .baselines import lanchester_eval, simple_eval, winner_by_score
from .model import ConfigError, ModelConfig, WinPredictor, count_params, get_preset
from .model.config import PRESETS, VARIANTS
from .sim import (
    Dataset,
    DatasetHeader,
    MatchRecord,
    read_dataset,
    run_tournament,
    split_dataset,
    write_dataset,
)
from .sim.dataset import replaced_on_success
from .sim.encode import decode_planes
from .sim.engine import sample_timeline, visible_prefix
from .sim.schema import from_json
from .sim.state import GameState
from .sim.strategies import DEFAULT_ROSTER, REGISTRY
from .train import (
    Prediction,
    TrainConfig,
    dataset_to_examples,
    op_stability,
    predict_probs,
    progress_stratified_eval,
    stratified_metrics,
    train_model,
)
from .train.loop import THRESHOLD
from .train.published import (
    REFERENCE_ACCURACY,
    REFERENCE_OP_STD,
    REFERENCE_PRECISION,
    REFERENCE_RECALL,
)
from .train.stratified import DEFAULT_FRACTIONS

# batch size per preset (as published; desk values are this lab's defaults)
PRESET_BATCH_SIZE: dict[str, int] = {
    "desk": 2,
    "desk-4": 2,
    "tstf-6": 1,
    "tstf-8": 1,
    "timesformer-12": 2,
}


class MissingArtifact(FileNotFoundError):
    """Referenced input does not exist or output is unwritable (exit code 2)."""


@dataclass
class RunConfig:
    out: str = "out"
    seed: int = 0
    preset: str = "desk"
    variant: str | None = None
    roster: tuple[str, ...] = DEFAULT_ROSTER
    rounds_per_pair: int = 12
    max_steps: int = 1000
    capture_every: int = 2
    map_size: int = 16
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    match_id: int = 0
    threads: int = 1
    dataset: str | None = None
    models: tuple[str, ...] = ()
    epochs: int = 30
    batch_size: int | None = None
    lr: float = TrainConfig.lr

    def validate(self) -> None:
        """The rules `from_json` cannot check from one value alone."""
        get_preset(self.preset)
        for name in self.roster:
            if name not in REGISTRY:
                raise ConfigError(
                    f"unknown strategy {name!r}; registered: {sorted(REGISTRY)}"
                )
        if len(set(self.roster)) != len(self.roster):
            raise ConfigError(f"roster must not repeat a strategy: {','.join(self.roster)}")
        if len(set(self.fractions)) != len(self.fractions):
            raise ConfigError(f"fractions must not repeat a value: {self.fractions}")


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """The run config from RunConfig's defaults, the JSON file at `path`
    (if any) on top, then `overrides` (flag values); every value is
    checked against its field's type and range (`from_json`), then
    `RunConfig.validate`."""
    merged = dataclasses.asdict(RunConfig())
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise MissingArtifact(f"config file not found: {path}")
        try:
            given = json.loads(p.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # a UnicodeDecodeError is a ValueError too
            raise ConfigError(f"config file {path} is not UTF-8 JSON: {exc}") from None
        if not isinstance(given, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged.update(given)
    merged.update(overrides)
    cfg = from_json(RunConfig, merged)
    cfg.validate()
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise MissingArtifact(f"output directory not writable: {out} ({exc})") from exc
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _require(path: str | None, what: str) -> Path:
    if path is None:
        raise ConfigError(f"{what} path is required")
    p = Path(path)
    if not p.exists():
        raise MissingArtifact(f"{what} not found: {path}")
    if not p.is_file():  # before a directory's siblings, such as splits.json, are looked for
        raise MissingArtifact(f"{what} is not a file: {path}")
    return p


# ---------------------------------------------------------------------------
# commands


class _Entry(NamedTuple):
    """What `generate` keeps of a record once it is written: its index in
    dataset.jsonl, and its winner, the one field `split_dataset` reads."""

    index: int
    winner: str


def _frames_digest(rec: MatchRecord) -> bytes:
    """sha256 over each frame's step and raw plane bytes."""
    h = hashlib.sha256()
    for step_no, planes in rec.frames:
        h.update(step_no.to_bytes(8, "little"))
        h.update(planes.tobytes())
    return h.digest()


def cmd_generate(cfg: RunConfig) -> int:
    records = run_tournament(
        cfg.roster,
        cfg.rounds_per_pair,
        cfg.seed,
        max_steps=cfg.max_steps,
        capture_every=cfg.capture_every,
        size=cfg.map_size,
        threads=cfg.threads,
    )
    out = _out_dir(cfg)  # the schedule is checked; no match is played yet
    entries: list[_Entry] = []
    digests: set[bytes] = set()
    outcomes: dict[tuple[str, str], set[str]] = defaultdict(set)
    parts: list[list[_Entry]] = []

    def tap():
        # each record is written, then dropped: keep only what the split
        # and the printed counts need
        for i, rec in enumerate(records):
            entries.append(_Entry(i, rec.winner))
            digests.add(_frames_digest(rec))
            outcomes[rec.strategy_a, rec.strategy_b].add(rec.winner)
            yield rec
        # split before write_dataset moves the file into place, so a run
        # with no decided match leaves the earlier outputs as they were
        parts.extend(split_dataset(entries, seed=cfg.seed))

    header = DatasetHeader(
        map_height=cfg.map_size,
        map_width=cfg.map_size,
        capture_every=cfg.capture_every,
        max_steps=cfg.max_steps,
        seed=cfg.seed,
        roster=cfg.roster,
        rounds_per_pair=cfg.rounds_per_pair,
    )
    with closing(records):  # ends the worker processes if the write fails
        write_dataset(out / "dataset.jsonl", Dataset(header=header, records=tap()))

    train, test, val = parts
    draws = [e.index for e in entries if e.winner == "draw"]
    manifest = {
        "train": [e.index for e in train],
        "test": [e.index for e in test],
        "validation": [e.index for e in val],
        "draws": draws,
    }
    with replaced_on_success(out / "splits.json") as f:
        f.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    single = sum(len(seen) == 1 for seen in outcomes.values())
    print(f"matches: {len(entries)} scheduled, {len(draws)} draws discarded")
    print(
        f"distinct: {len(digests)} of {len(entries)} matches by frame sha256;"
        f" {single} of {len(outcomes)} ordered matchups have a single outcome"
    )
    print(
        f"splits: train {len(manifest['train'])} / test {len(manifest['test'])}"
        f" / validation {len(manifest['validation'])}"
    )
    print(f"wrote {out / 'dataset.jsonl'} and {out / 'splits.json'}")
    return 0


def _load_split(cfg: RunConfig) -> tuple[DatasetHeader, dict[str, list], dict]:
    """The dataset header, the records of each split in the splits.json
    beside the dataset, and that manifest.

    Every split must be a list of in-range record indices, no record may
    sit in two splits (or twice in one), and no split may hold a draw.
    """
    ds_path = _require(cfg.dataset, "dataset")
    path = ds_path.parent / "splits.json"
    if not path.exists():
        raise MissingArtifact(f"split manifest not found: {path}")
    dataset = read_dataset(ds_path)
    records = dataset.records
    try:
        manifest = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        raise CorruptArtifact(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise CorruptArtifact(f"{path}: must hold a JSON object")
    seen: set[int] = set()
    parts = {}
    for name in ("train", "test", "validation"):
        indices = manifest.get(name)
        if not isinstance(indices, list) or any(type(i) is not int for i in indices):
            raise CorruptArtifact(f"{path}: {name!r} must be a list of record indices")
        for i in indices:
            if not 0 <= i < len(records):
                raise CorruptArtifact(
                    f"{path}: {name} index {i} out of range (dataset has {len(records)} records)"
                )
            if i in seen:
                raise CorruptArtifact(f"{path}: record {i} is listed more than once")
            if records[i].winner == "draw":
                raise CorruptArtifact(f"{path}: {name} index {i} is a drawn match")
            seen.add(i)
        parts[name] = [records[i] for i in indices]
    return dataset.header, parts, manifest


def _test_split(cfg: RunConfig) -> tuple[DatasetHeader, dict[int, MatchRecord]]:
    """The dataset header and the test records by dataset index, in split
    order; an empty test split is a ConfigError."""
    header, parts, manifest = _load_split(cfg)
    if not parts["test"]:
        raise ConfigError("empty dataset: test split has no usable records")
    return header, dict(zip(manifest["test"], parts["test"]))


def _undecodable(dataset: str, line: int, exc: ValueError) -> CorruptArtifact:
    """The error of a record at `line` of `dataset` whose frame `decode_planes` rejects."""
    return CorruptArtifact(f"{dataset}:{line}: a frame is not the encoding of a legal state: {exc}")


def _last_visible_states(cfg: RunConfig, records: dict[int, MatchRecord]
                         ) -> dict[tuple[int, float], GameState]:
    """The state at the end of each record's visible prefix at each of
    `cfg.fractions`, keyed by (dataset index, fraction). Each distinct frame
    is decoded once; one that `decode_planes` rejects is `_undecodable`,
    named by its record's line."""
    states, decoded = {}, {}
    for rho in cfg.fractions:
        for i, record in records.items():
            step, planes = visible_prefix(record, rho)[-1]
            if (i, step) not in decoded:
                try:
                    decoded[i, step] = decode_planes(planes)
                except ValueError as exc:
                    raise _undecodable(cfg.dataset, i + 2, exc) from None
            states[i, rho] = decoded[i, step]
    return states


def _model_name(config: ModelConfig) -> str:
    stem = "tstf" if config.variant == "tstf" else "spacetime"
    return f"{stem}-{config.layers}"


def cmd_train(cfg: RunConfig) -> int:
    train_config = TrainConfig(
        lr=cfg.lr,
        batch_size=cfg.batch_size if cfg.batch_size is not None else PRESET_BATCH_SIZE[cfg.preset],
        epochs=cfg.epochs,
        seed=cfg.seed,
    )
    header, parts, _ = _load_split(cfg)
    try:  # the preset's model, sized to the dataset's maps
        model_config = dataclasses.replace(
            get_preset(cfg.preset), map_height=header.map_height, map_width=header.map_width
        )
    except ConfigError as exc:
        raise ConfigError(
            f"{cfg.dataset} holds {header.map_height}x{header.map_width} maps, which the "
            f"{cfg.preset} preset does not fit: {exc}"
        ) from None
    if cfg.variant is not None:
        model_config = dataclasses.replace(model_config, variant=cfg.variant)
    frames = model_config.time_steps
    train_set = dataset_to_examples(parts["train"], frames)
    val_set = dataset_to_examples(parts["validation"], frames)
    if not train_set or not val_set:
        raise ConfigError("empty dataset: train or validation split has no usable records")

    out = _out_dir(cfg)
    model = WinPredictor.create(model_config, seed=cfg.seed)
    print(f"model {_model_name(model_config)}: {count_params(model_config):,} active parameters")
    result = train_model(
        model,
        train_set,
        val_set,
        train_config,
        progress=lambda row: print(
            f"epoch {row.epoch}: loss {row.train_loss:.6f} "
            f"train_acc {row.train_acc:.4f} val_acc {row.val_acc:.4f}"
        ),
    )
    for key, param in model.params.items():
        param.data[...] = result.best_params[key]
    model_config.save(out / "config.json")
    model.save(out / "best.ckpt")
    (out / "train.json").write_text(
        json.dumps(
            {
                "preset": cfg.preset,
                "name": _model_name(model_config),
                "frames": frames,
                "relabel": "none",  # labels are always the recorded winner
                "best_epoch": result.best_epoch,
                "best_val_acc": result.best_val_acc,
                "train_config": {**dataclasses.asdict(train_config), "threshold": THRESHOLD},
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    _write_csv(
        out / "train_log.csv",
        ["epoch", "train_loss", "train_acc", "val_acc"],
        [[r.epoch, r.train_loss, r.train_acc, r.val_acc] for r in result.log],
    )
    print(f"best epoch {result.best_epoch} (val_acc {result.best_val_acc:.4f})")
    print(f"wrote {out / 'best.ckpt'}, {out / 'config.json'}, {out / 'train_log.csv'}")
    return 0


def _load_models(cfg: RunConfig, header: DatasetHeader) -> list[tuple[str, WinPredictor]]:
    """(evaluator name, model) of each --models directory, from its
    `config.json` and `best.ckpt`; its `train.json` is a record of the run
    and is not read back. A model whose map size differs from the dataset
    header is a CorruptArtifact naming both. Output rows and files are
    keyed by evaluator name, so two directories of one name are a
    ConfigError naming both."""
    models, dirs = [], {}
    for d in map(Path, cfg.models):
        for needed in ("config.json", "best.ckpt"):
            if not (d / needed).exists():
                raise MissingArtifact(f"model artifact not found: {d / needed}")
        config = ModelConfig.load(d / "config.json")
        name = _model_name(config)
        if name in dirs:
            raise ConfigError(f"{dirs[name]} and {d} both hold evaluator {name!r}; "
                              "give each evaluator one model directory")
        dirs[name] = d
        try:
            model = WinPredictor.load(d / "best.ckpt", config)
        except ConfigError as exc:
            raise CorruptArtifact(f"{d / 'best.ckpt'} does not fit {d / 'config.json'}: {exc}") from None
        if (header.map_height, header.map_width) != (config.map_height, config.map_width):
            raise CorruptArtifact(
                f"{cfg.dataset} holds {header.map_height}x{header.map_width} maps but "
                f"{d / 'config.json'} expects {config.map_height}x{config.map_width}"
            )
        models.append((name, model))
    return models


def cmd_eval(cfg: RunConfig) -> int:
    if len(cfg.models) != 1:
        raise ConfigError(f"eval takes exactly one model directory in --models, got {len(cfg.models)}")
    header, records = _test_split(cfg)
    [(name, model)] = _load_models(cfg, header)
    out = _out_dir(cfg)
    table = progress_stratified_eval([(name, model)], records, (1.0,), None)
    [(_, metrics)] = stratified_metrics(table)[name]
    tp, fp, fn, tn = metrics.confusion
    _write_csv(
        out / "metrics_report.csv",
        ["model", "fraction", "accuracy", "precision", "recall", "f1", "op",
         "tp", "fp", "fn", "tn"],
        [[name, 1.0, metrics.accuracy, metrics.precision, metrics.recall,
          metrics.f1, metrics.op, tp, fp, fn, tn]],
    )
    print(
        f"{name}: accuracy {metrics.accuracy:.4f} precision {metrics.precision:.4f} "
        f"recall {metrics.recall:.4f} f1 {metrics.f1:.4f} op {metrics.op:.4f}"
    )
    print(f"wrote {out / 'metrics_report.csv'}")
    return 0


_STRAT_HEADER = [
    "model", "source", "fraction", "accuracy", "precision", "recall", "f1", "op",
]


def _paper_reference_rows() -> list[list]:
    out = []
    for model, by_frac in sorted(REFERENCE_ACCURACY.items()):
        for frac, acc in sorted(by_frac.items()):
            prec = REFERENCE_PRECISION.get(model, {}).get(frac)
            rec = REFERENCE_RECALL.get(model, {}).get(frac)
            out.append([model, "paper", frac, acc, prec, rec, None, None])
    return out


def cmd_compare(cfg: RunConfig) -> int:
    header, records = _test_split(cfg)
    models = _load_models(cfg, header)
    states = _last_visible_states(cfg, records)
    out = _out_dir(cfg)
    # every evaluator is scored before a file is written
    table = progress_stratified_eval(models, records, cfg.fractions, states)
    _write_csv(out / "predictions.csv", list(Prediction._fields),
               [row._replace(prediction="tie") if row.prediction is None else row
                for row in table])
    stability_rows: list[list] = []
    for name, rows in stratified_metrics(table).items():
        _write_csv(out / f"stratified_{name}.csv", _STRAT_HEADER,
                   [[name, "ours", rho, m.accuracy, m.precision, m.recall, m.f1, m.op]
                    for rho, m in rows])
        stds = op_stability(rows)
        stability_rows.append([name, "ours", stds["early"], stds["late"]])
        summary = " ".join(f"{rho:g}:{m.accuracy:.3f}" for rho, m in rows)
        print(f"{name}: {summary}")
    _write_csv(out / "stratified_paper_reference.csv", _STRAT_HEADER, _paper_reference_rows())
    for model, (early, late) in sorted(REFERENCE_OP_STD.items()):
        stability_rows.append([model, "paper", early, late])
    _write_csv(
        out / "op_stability.csv",
        ["model", "source", "op_std_early", "op_std_late"],
        stability_rows,
    )
    print(f"wrote {out / 'predictions.csv'}, stratified tables and {out / 'op_stability.csv'}")
    return 0


def cmd_timeline(cfg: RunConfig) -> int:
    ds_path = _require(cfg.dataset, "dataset")
    dataset = read_dataset(ds_path)
    if not 0 <= cfg.match_id < len(dataset.records):
        raise ConfigError(
            f"match_id {cfg.match_id} out of range (dataset has {len(dataset.records)} records)"
        )
    record = dataset.records[cfg.match_id]
    try:
        states = [decode_planes(planes) for _, planes in record.frames]
    except ValueError as exc:
        raise _undecodable(cfg.dataset, cfg.match_id + 2, exc) from None

    # the row at frame i sees frames[: i + 1] only: the record cut there,
    # where full progress ends at that frame's step
    cuts = [
        dataclasses.replace(record, frames=record.frames[: i + 1], duration=step)
        for i, (step, _) in enumerate(record.frames)
    ]
    models = _load_models(cfg, dataset.header)
    out = _out_dir(cfg)
    rows: list[list] = []
    for name, model in models:
        clips = (sample_timeline(cut, model.config.time_steps, 1.0) for cut in cuts)
        for cut, prob in zip(cuts, predict_probs(model, clips).tolist()):
            pred = "p1" if prob >= THRESHOLD else "p2"
            # neural scores are (P1, P2) = (y, 1-y), one probability split
            rows.append([name, cut.duration, prob, 1.0 - prob, pred])
    for name, evaluator in (("simple", simple_eval), ("lanchester", lanchester_eval)):
        for (step, _), state in zip(record.frames, states):
            s1, s2 = evaluator(state, 1), evaluator(state, 2)
            rows.append([name, step, s1, s2, winner_by_score(s1, s2)])
    path = out / f"timeline_match{cfg.match_id}.csv"
    note = (
        "# neural rows: p1_score,p2_score = (y, 1-y), one predicted probability split; "
        "classical rows: weighted state scores"
    )
    body = [",".join(str(v) for v in row) for row in rows]
    header = "evaluator,step,p1_score,p2_score,predicted_winner"
    path.write_text("\n".join([note, header] + body) + "\n")
    print(
        f"match {cfg.match_id}: {record.strategy_a} vs {record.strategy_b}, "
        f"winner {record.winner}, {len(record.frames)} frames"
    )
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def name_list(text: str) -> tuple[str, ...]:
    """A comma-separated list of names; empty items are skipped."""
    return tuple(x for x in text.split(",") if x)


def float_list(text: str) -> tuple[float, ...]:
    """A comma-separated list of numbers."""
    return tuple(float(x) for x in text.split(","))


# Every flag is declared once; COMMANDS lists the flags of each subcommand
# after the common ones.
FLAGS: dict[str, dict] = {
    "--config": {"help": "JSON run-config file; flags override it"},
    "--out": {"help": "output directory (default: out)"},
    "--seed": {"type": int, "help": "master seed (default: 0)"},
    "--threads": {"type": int, "help": "worker processes for match play (default: 1)"},
    "--roster": {"type": name_list, "help": "comma-separated strategy names "
                                            f"(default: all {len(DEFAULT_ROSTER)} built-ins)"},
    "--rounds": {"type": int, "dest": "rounds_per_pair",
                 "help": "matches per pair, half per side (default: 12)"},
    "--max-steps": {"type": int, "help": "step limit per match (default: 1000)"},
    "--capture-every": {"type": int, "help": "frame capture cadence in steps (default: 2)"},
    "--dataset": {"help": "path to dataset.jsonl (splits.json beside it)"},
    "--preset": {"help": f"model preset, one of {sorted(PRESETS)} (default: desk)"},
    "--variant": {"choices": VARIANTS, "help": "override the preset's attention variant"},
    "--epochs": {"type": int, "help": "training epochs (default: 30)"},
    "--batch-size": {"type": int, "help": "override the preset batch size"},
    "--lr": {"type": float, "help": f"learning rate (default: {TrainConfig.lr:g})"},
    "--models": {"type": name_list,
                 "help": "comma-separated trained model directories (eval takes exactly one)"},
    "--fractions": {"type": float_list, "help": "comma-separated progress fractions "
                                                "(default: 0.04,0.2,0.4,0.6,0.8,1.0)"},
    "--match-id": {"type": int, "help": "record index within the dataset (default: 0)"},
}
COMMON_FLAGS = ("--config", "--out")
COMMANDS = {
    "generate": (cmd_generate, "play a tournament and write the dataset",
                 ("--seed", "--threads", "--roster", "--rounds", "--max-steps",
                  "--capture-every")),
    "train": (cmd_train, "train a win predictor on a dataset",
              ("--seed", "--dataset", "--preset", "--variant", "--epochs", "--batch-size",
               "--lr")),
    "eval": (cmd_eval, "score a trained model on the test split",
             ("--dataset", "--models")),
    "compare": (cmd_compare, "stratified tables for all evaluators",
                ("--dataset", "--models", "--fractions")),
    "timeline": (cmd_timeline, "per-step evaluator scores for one match",
                 ("--dataset", "--models", "--match-id")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, so it ends like any
    other bad setting: one line, exit 3. --help still exits 0."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rtslab",
        description="Grid-war win-prediction lab: simulate, train, evaluate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in COMMON_FLAGS + flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        command, path = args.pop("command"), args.pop("config")
        overrides = {key: value for key, value in args.items() if value is not None}
        return COMMANDS[command][0](load_run_config(path, overrides))
    except (OSError, CorruptArtifact) as exc:  # OSError covers MissingArtifact
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
