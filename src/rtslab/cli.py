"""Command-line front end wiring the full pipeline.

Subcommands:

    generate   play a round-robin tournament, write dataset + split manifest
    train      fit a win predictor on a generated dataset
    eval       score a trained model on the test split (full progress)
    compare    progress-stratified tables for neural + classical evaluators
    timeline   per-step scores of every evaluator over one chosen match

Settings merge from a JSON config file (--config) and flag overrides;
unknown config keys are rejected by name. Every command is idempotent:
identical config + seed produces byte-identical output files. Errors end
in one line on stderr. Exit codes:

    0  success
    2  missing or unwritable artifact, or a corrupt one: a dataset.jsonl
       line that does not parse, lacks a key or disagrees with the header
       (no frames, frame shape, a plane value outside its range, a
       duration below 1, frame steps out of order or past the duration,
       winner value; named by file and line),
       a splits.json whose splits are not disjoint lists of in-range
       indices of decided matches, a model directory's config.json that
       does not parse or holds a bad key or value, a checkpoint that is
       truncated, padded, holds a NaN/Inf or does not fit its config.json,
       a model whose map size differs from the dataset header's
    3  configuration violation, including a --config file that is not
       UTF-8 JSON or holds a value of the wrong type, and a dataset whose
       map size the preset's patch does not divide
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from . import CorruptArtifact
from .baselines import lanchester_eval, simple_eval, winner_by_score
from .model import ConfigError, ModelConfig, WinPredictor, count_params, get_preset
from .model.config import PRESETS
from .sim import (
    Dataset,
    DatasetHeader,
    read_dataset,
    run_tournament,
    split_dataset,
    write_dataset,
)
from .sim.dataset import surviving_units_label, winner_label
from .sim.encode import decode_planes
from .sim.engine import sample_timeline
from .sim.state import MIN_MAP_SIZE
from .sim.strategies import DEFAULT_ROSTER, REGISTRY
from .train import (
    TrainConfig,
    classical_predictor,
    dataset_to_examples,
    neural_predictor,
    op_stability,
    predict_probs,
    progress_stratified_eval,
    train_model,
)
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


class ConfigViolation(ValueError):
    """Bad run configuration (exit code 3)."""


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
    lr: float | None = None
    weight_decay: float = 0.01
    threshold: float = 0.5
    relabel: str = "none"  # or "surviving-units"

    def validate(self) -> None:
        if self.relabel not in ("none", "surviving-units"):
            raise ConfigViolation(f"relabel must be 'none' or 'surviving-units', got {self.relabel!r}")
        if self.preset not in PRESETS:
            raise ConfigViolation(f"unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")
        for name in self.roster:
            if name not in REGISTRY:
                raise ConfigViolation(
                    f"unknown strategy {name!r}; registered: {sorted(REGISTRY)}"
                )
        if any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ConfigViolation(f"fractions must lie in (0, 1]: {self.fractions}")
        if self.threads < 1:
            raise ConfigViolation("threads must be >= 1")
        if self.max_steps < 1:
            raise ConfigViolation(f"max_steps must be >= 1, got {self.max_steps}")
        if self.capture_every < 1:
            raise ConfigViolation(f"capture_every must be >= 1, got {self.capture_every}")
        if self.map_size < MIN_MAP_SIZE:
            raise ConfigViolation(f"map_size must be >= {MIN_MAP_SIZE}, got {self.map_size}")


# A kind of config value: (description, check). type() is exact, so a JSON
# true/false is not an integer.
Kind = tuple[str, Callable[[object], bool]]
INT: Kind = ("an integer", lambda v: type(v) is int)
NUMBER: Kind = ("a number", lambda v: type(v) in (int, float) and math.isfinite(v))
STR: Kind = ("a string", lambda v: type(v) is str)


def _optional(kind: Kind) -> Kind:
    return f"{kind[0]} or null", lambda v: v is None or kind[1](v)


def _list_of(kind: Kind, what: str) -> Kind:
    return what, lambda v: isinstance(v, (list, tuple)) and all(map(kind[1], v))


# The kind of value each RunConfig field accepts.
FIELD_TYPES: dict[str, Kind] = {
    **dict.fromkeys(("out", "preset", "relabel"), STR),
    **dict.fromkeys(("variant", "dataset"), _optional(STR)),
    **dict.fromkeys(("roster", "models"), _list_of(STR, "a list of strings")),
    "fractions": _list_of(NUMBER, "a list of numbers"),
    **dict.fromkeys(("seed", "rounds_per_pair", "max_steps", "capture_every", "map_size",
                     "match_id", "threads", "epochs"), INT),
    "batch_size": _optional(INT),
    "lr": _optional(NUMBER),
    **dict.fromkeys(("weight_decay", "threshold"), NUMBER),
}


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    merged: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise MissingArtifact(f"config file not found: {path}")
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # a UnicodeDecodeError is a ValueError too
            raise ConfigViolation(f"config file {path} is not UTF-8 JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigViolation(f"config file {path} must hold a JSON object")
        for key in data:
            if key not in FIELD_TYPES:
                raise ConfigViolation(f"unknown config key {key!r}")
        merged.update(data)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        what, check = FIELD_TYPES[key]
        if not check(value):
            raise ConfigViolation(f"config key {key!r} must be {what}, got {value!r}")
    for key in ("roster", "models"):
        if key in merged:
            merged[key] = tuple(merged[key])
    if "fractions" in merged:
        merged["fractions"] = tuple(float(x) for x in merged["fractions"])
    cfg = RunConfig(**merged)
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
        raise ConfigViolation(f"{what} path is required")
    p = Path(path)
    if not p.exists():
        raise MissingArtifact(f"{what} not found: {path}")
    return p


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    roster = list(cfg.roster)
    records = run_tournament(
        roster,
        cfg.rounds_per_pair,
        cfg.seed,
        max_steps=cfg.max_steps,
        capture_every=cfg.capture_every,
        size=cfg.map_size,
        threads=cfg.threads,
    )
    dataset = Dataset(
        header=DatasetHeader(
            map_height=cfg.map_size,
            map_width=cfg.map_size,
            capture_every=cfg.capture_every,
            max_steps=cfg.max_steps,
            seed=cfg.seed,
            roster=roster,
            rounds_per_pair=cfg.rounds_per_pair,
        ),
        records=records,
    )
    write_dataset(out / "dataset.jsonl", dataset)

    decided = [i for i, r in enumerate(records) if r.winner != "draw"]
    draws = [i for i, r in enumerate(records) if r.winner == "draw"]
    train, test, val = split_dataset([records[i] for i in decided], seed=cfg.seed)
    # map split membership back to file indices via identity
    by_id = {id(r): i for i, r in enumerate(records)}
    manifest = {
        "train": [by_id[id(r)] for r in train],
        "test": [by_id[id(r)] for r in test],
        "validation": [by_id[id(r)] for r in val],
        "draws": draws,
    }
    (out / "splits.json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(f"matches: {len(records)} scheduled, {len(draws)} draws discarded")
    print(
        f"splits: train {len(manifest['train'])} / test {len(manifest['test'])}"
        f" / validation {len(manifest['validation'])}"
    )
    print(f"wrote {out / 'dataset.jsonl'} and {out / 'splits.json'}")
    return 0


def _load_split(cfg: RunConfig) -> tuple[DatasetHeader, dict[str, list]]:
    """The dataset header, and the records of each split in the
    splits.json beside the dataset.

    Every split must be a list of in-range record indices, no record may
    sit in two splits (or twice in one), and no split may hold a draw.
    """
    ds_path = _require(cfg.dataset, "dataset")
    dataset = read_dataset(ds_path)
    records = dataset.records
    path = ds_path.parent / "splits.json"
    if not path.exists():
        raise MissingArtifact(f"split manifest not found: {path}")
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
    return dataset.header, parts


def _label_fn(cfg: RunConfig):
    return surviving_units_label if cfg.relabel == "surviving-units" else winner_label


def _test_split(cfg: RunConfig) -> tuple[DatasetHeader, list, list[int]]:
    """The dataset header, the test records that carry a label under
    `cfg.relabel`, and those labels."""
    label_fn = _label_fn(cfg)
    header, parts = _load_split(cfg)
    labeled = [(r, label_fn(r)) for r in parts["test"]]
    labeled = [(r, y) for r, y in labeled if y is not None]
    if not labeled:
        raise ConfigViolation("empty dataset: test split has no usable records")
    return header, [r for r, _ in labeled], [y for _, y in labeled]


def _model_name(config: ModelConfig) -> str:
    stem = "tstf" if config.variant == "tstf" else "spacetime"
    return f"{stem}-{config.layers}"


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    header, parts = _load_split(cfg)
    try:  # the preset's model, sized to the dataset's maps
        model_config = dataclasses.replace(
            get_preset(cfg.preset), map_height=header.map_height, map_width=header.map_width
        )
    except ConfigError as exc:
        raise ConfigViolation(
            f"{cfg.dataset} holds {header.map_height}x{header.map_width} maps, which the "
            f"{cfg.preset} preset does not fit: {exc}"
        ) from None
    if cfg.variant is not None:
        model_config = dataclasses.replace(model_config, variant=cfg.variant)
    train_config = TrainConfig(
        lr=cfg.lr if cfg.lr is not None else TrainConfig.lr,
        weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size if cfg.batch_size is not None else PRESET_BATCH_SIZE[cfg.preset],
        epochs=cfg.epochs,
        seed=cfg.seed,
        threshold=cfg.threshold,
    )
    label_fn = _label_fn(cfg)
    frames = model_config.time_steps
    train_set = dataset_to_examples(parts["train"], frames, label_fn)
    val_set = dataset_to_examples(parts["validation"], frames, label_fn)
    if not train_set or not val_set:
        raise ConfigViolation("empty dataset: train or validation split has no usable records")

    model = WinPredictor.create(model_config, seed=cfg.seed)
    counts = count_params(model_config)
    print(f"model {_model_name(model_config)}: {counts.total_active:,} active parameters")
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
                "relabel": cfg.relabel,
                "best_epoch": result.best_epoch,
                "best_val_acc": result.best_val_acc,
                "train_config": dataclasses.asdict(train_config),
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


def _load_model(model_dir: str, header: DatasetHeader, dataset: str) -> tuple[str, WinPredictor]:
    """(evaluator name, model) from `config.json` and `best.ckpt`; the
    directory's `train.json` is a record of the run and is not read back.
    A model whose map size differs from the header of `dataset` is a
    CorruptArtifact naming both."""
    d = Path(model_dir)
    for needed in ("config.json", "best.ckpt"):
        if not (d / needed).exists():
            raise MissingArtifact(f"model artifact not found: {d / needed}")
    config = ModelConfig.load(d / "config.json")
    try:
        model = WinPredictor.load(d / "best.ckpt", config)
    except ConfigError as exc:
        raise CorruptArtifact(f"{d / 'best.ckpt'} does not fit {d / 'config.json'}: {exc}") from None
    if (header.map_height, header.map_width) != (config.map_height, config.map_width):
        raise CorruptArtifact(
            f"{dataset} holds {header.map_height}x{header.map_width} maps but "
            f"{d / 'config.json'} expects {config.map_height}x{config.map_width}"
        )
    return _model_name(config), model


def cmd_eval(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    if not cfg.models:
        raise ConfigViolation("eval requires --models pointing at one trained model directory")
    header, records, labels = _test_split(cfg)
    name, model = _load_model(cfg.models[0], header, cfg.dataset)
    predict = neural_predictor(model, model.config.time_steps, cfg.threshold)
    rows = progress_stratified_eval(predict, records, fractions=(1.0,), labels=labels)
    _, metrics = rows[0]
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


def _stratified_rows(name: str, rows) -> list[list]:
    return [
        [name, "ours", rho, m.accuracy, m.precision, m.recall, m.f1, m.op]
        for rho, m in rows
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
    out = _out_dir(cfg)
    header, records, labels = _test_split(cfg)

    evaluators: list[tuple[str, object]] = []
    for model_dir in cfg.models:
        name, model = _load_model(model_dir, header, cfg.dataset)
        evaluators.append((name, neural_predictor(model, model.config.time_steps, cfg.threshold)))
    evaluators.append(("simple", classical_predictor(simple_eval)))
    evaluators.append(("lanchester", classical_predictor(lanchester_eval)))

    stability_rows: list[list] = []
    for name, predict in evaluators:
        rows = progress_stratified_eval(predict, records, cfg.fractions, labels=labels)
        _write_csv(out / f"stratified_{name}.csv", _STRAT_HEADER, _stratified_rows(name, rows))
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
    print(f"wrote stratified tables and {out / 'op_stability.csv'}")
    return 0


def cmd_timeline(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    ds_path = _require(cfg.dataset, "dataset")
    dataset = read_dataset(ds_path)
    if not 0 <= cfg.match_id < len(dataset.records):
        raise ConfigViolation(
            f"match_id {cfg.match_id} out of range (dataset has {len(dataset.records)} records)"
        )
    record = dataset.records[cfg.match_id]

    # the row at frame i sees frames[: i + 1] only: the record cut there,
    # where full progress ends at that frame's step
    cuts = [
        dataclasses.replace(record, frames=record.frames[: i + 1], duration=step)
        for i, (step, _) in enumerate(record.frames)
    ]
    models = [_load_model(d, dataset.header, cfg.dataset) for d in cfg.models]
    rows: list[list] = []
    for name, model in models:
        clips = (sample_timeline(cut, model.config.time_steps, 1.0) for cut in cuts)
        for cut, prob in zip(cuts, predict_probs(model, clips).tolist()):
            pred = "p1" if prob >= cfg.threshold else "p2"
            # neural scores are (P1, P2) = (y, 1-y), one probability split
            rows.append([name, cut.duration, prob, 1.0 - prob, pred])
    states = [decode_planes(planes) for _, planes in record.frames]
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


# Every flag is declared once; COMMANDS lists the flags of each subcommand
# after the common ones.
FLAGS: dict[str, dict] = {
    "--config": {"help": "JSON run-config file; flags override it"},
    "--out": {"help": "output directory (default: out)"},
    "--seed": {"type": int, "help": "master seed (default: 0)"},
    "--threads": {"type": int, "help": "worker processes for match play (default: 1)"},
    "--roster": {"help": "comma-separated strategy names "
                         f"(default: all {len(DEFAULT_ROSTER)} built-ins)"},
    "--rounds": {"type": int, "dest": "rounds_per_pair",
                 "help": "matches per pair, half per side (default: 12)"},
    "--max-steps": {"type": int, "help": "step limit per match (default: 1000)"},
    "--capture-every": {"type": int, "help": "frame capture cadence in steps (default: 2)"},
    "--dataset": {"help": "path to dataset.jsonl (splits.json beside it)"},
    "--preset": {"help": f"model preset, one of {sorted(PRESETS)} (default: desk)"},
    "--variant": {"choices": ["tstf", "space_time_only"],
                  "help": "override the preset's attention variant"},
    "--epochs": {"type": int, "help": "training epochs (default: 30)"},
    "--batch-size": {"type": int, "help": "override the preset batch size"},
    "--lr": {"type": float, "help": "learning rate (default: 1e-4)"},
    "--relabel": {"choices": ["none", "surviving-units"],
                  "help": "relabel records by final-frame unit count (default: none)"},
    "--models": {"help": "comma-separated trained model directories (eval reads the first)"},
    "--threshold": {"type": float, "help": "decision threshold (default: 0.5)"},
    "--fractions": {"help": "comma-separated progress fractions "
                            "(default: 0.04,0.2,0.4,0.6,0.8,1.0)"},
    "--match-id": {"type": int, "help": "record index within the dataset (default: 0)"},
}
COMMON_FLAGS = ("--config", "--out", "--seed", "--threads")
COMMANDS = {
    "generate": (cmd_generate, "play a tournament and write the dataset",
                 ("--roster", "--rounds", "--max-steps", "--capture-every")),
    "train": (cmd_train, "train a win predictor on a dataset",
              ("--dataset", "--preset", "--variant", "--epochs", "--batch-size", "--lr",
               "--relabel")),
    "eval": (cmd_eval, "score a trained model on the test split",
             ("--dataset", "--models", "--relabel", "--threshold")),
    "compare": (cmd_compare, "stratified tables for all evaluators",
                ("--dataset", "--models", "--fractions", "--relabel", "--threshold")),
    "timeline": (cmd_timeline, "per-step evaluator scores for one match",
                 ("--dataset", "--models", "--match-id", "--threshold")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtslab",
        description="Grid-war win-prediction lab: simulate, train, evaluate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in COMMON_FLAGS + flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {}
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        if key in ("roster", "models"):
            value = tuple(x for x in value.split(",") if x)
        elif key == "fractions":
            value = tuple(float(x) for x in value.split(","))
        overrides[key] = value
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, _overrides_from_args(args))
        return COMMANDS[args.command][0](cfg)
    except (OSError, CorruptArtifact) as exc:  # OSError covers MissingArtifact
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigViolation, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
