"""Command-line front end wiring the full pipeline.

Subcommands:

    generate   play a round-robin tournament, write dataset + split manifest
    train      fit a win predictor on a generated dataset
    eval       score a trained model on the test split (full progress)
    compare    progress-stratified tables for neural + classical evaluators
    timeline   per-step scores of every evaluator over one chosen match

Settings merge from a JSON config file (--config) and flag overrides;
unknown config keys are rejected by name. Every command is idempotent:
identical config + seed produces byte-identical output files. Exit codes:
0 success, 2 missing, unwritable or corrupt artifact, 3 configuration
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .baselines import lanchester_eval, simple_eval
from .checkpoint import CorruptCheckpoint
from .model import ConfigError, ModelConfig, WinPredictor, count_params, get_preset
from .model.config import PRESETS
from .sim import (
    Dataset,
    DatasetHeader,
    TournamentSettings,
    read_dataset,
    split_dataset,
    write_dataset,
)
from .sim.dataset import surviving_units_label
from .sim.engine import sample_timeline
from .sim.strategies import DEFAULT_ROSTER, REGISTRY
from .train import (
    TrainConfig,
    classical_predictor,
    dataset_to_examples,
    neural_predictor,
    op_stability,
    progress_stratified_eval,
    train_model,
)
from .train.published import (
    REFERENCE_ACCURACY,
    REFERENCE_OP_STD,
    REFERENCE_PRECISION,
    REFERENCE_RECALL,
)
from .train.stratified import DEFAULT_FRACTIONS, prefix_state

# per-preset training bundles (batch size / learning rate as published;
# desk values are this lab's defaults)
TRAIN_PRESETS: dict[str, dict] = {
    "desk": {"batch_size": 2, "lr": 1e-4},
    "desk-4": {"batch_size": 2, "lr": 1e-4},
    "tstf-6": {"batch_size": 1, "lr": 1e-4},
    "tstf-8": {"batch_size": 1, "lr": 1e-4},
    "timesformer-12": {"batch_size": 2, "lr": 1e-4},
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


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    merged: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise MissingArtifact(f"config file not found: {path}")
        data = json.loads(p.read_text())
        if not isinstance(data, dict):
            raise ConfigViolation("config file must hold a JSON object")
        for key in data:
            if key not in known:
                raise ConfigViolation(f"unknown config key {key!r}")
        merged.update(data)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    for key in ("roster", "models"):
        if key in merged and isinstance(merged[key], (list, tuple)):
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
    from .sim.tournament import run_tournament

    out = _out_dir(cfg)
    settings = TournamentSettings(
        max_steps=cfg.max_steps, capture_every=cfg.capture_every, size=cfg.map_size
    )
    roster = list(cfg.roster)
    records = run_tournament(
        roster, cfg.rounds_per_pair, cfg.seed, settings=settings, threads=cfg.threads
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


def _load_split(cfg: RunConfig):
    ds_path = _require(cfg.dataset, "dataset")
    dataset = read_dataset(ds_path)
    manifest_path = ds_path.parent / "splits.json"
    if not manifest_path.exists():
        raise MissingArtifact(f"split manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    parts = {
        name: [dataset.records[i] for i in manifest[name]]
        for name in ("train", "test", "validation")
    }
    return dataset, parts


def _label_fn(cfg: RunConfig):
    if cfg.relabel == "surviving-units":
        return surviving_units_label
    return None


def _labels_for(records, label_fn):
    if label_fn is None:
        return [1 if r.winner == "p1" else 0 for r in records]
    return [label_fn(r) for r in records]


def _model_name(config: ModelConfig) -> str:
    stem = "tstf" if config.variant == "tstf" else "spacetime"
    return f"{stem}-{config.layers}"


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    _, parts = _load_split(cfg)
    model_config = get_preset(cfg.preset)
    if cfg.variant is not None:
        model_config = dataclasses.replace(model_config, variant=cfg.variant)
    bundle = TRAIN_PRESETS[cfg.preset]
    train_config = TrainConfig(
        lr=cfg.lr if cfg.lr is not None else bundle["lr"],
        weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size if cfg.batch_size is not None else bundle["batch_size"],
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


def _load_model(model_dir: str) -> tuple[WinPredictor, dict]:
    d = Path(model_dir)
    for needed in ("config.json", "best.ckpt", "train.json"):
        if not (d / needed).exists():
            raise MissingArtifact(f"model artifact not found: {d / needed}")
    config = ModelConfig.load(d / "config.json")
    meta = json.loads((d / "train.json").read_text())
    return WinPredictor.load(d / "best.ckpt", config), meta


def cmd_eval(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    if not cfg.models:
        raise ConfigViolation("eval requires --models pointing at one trained model directory")
    model, meta = _load_model(cfg.models[0])
    _, parts = _load_split(cfg)
    label_fn = _label_fn(cfg)
    records = parts["test"]
    if label_fn is not None:
        records = [r for r in records if label_fn(r) is not None]
    if not records:
        raise ConfigViolation("empty dataset: test split has no usable records")
    labels = _labels_for(records, label_fn)
    predict = neural_predictor(model, meta["frames"], cfg.threshold)
    rows = progress_stratified_eval(predict, records, fractions=(1.0,), labels=labels)
    _, metrics = rows[0]
    tp, fp, fn, tn = metrics.confusion
    _write_csv(
        out / "metrics_report.csv",
        ["model", "fraction", "accuracy", "precision", "recall", "f1", "op",
         "tp", "fp", "fn", "tn"],
        [[meta["name"], 1.0, metrics.accuracy, metrics.precision, metrics.recall,
          metrics.f1, metrics.op, tp, fp, fn, tn]],
    )
    print(
        f"{meta['name']}: accuracy {metrics.accuracy:.4f} precision {metrics.precision:.4f} "
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
    _, parts = _load_split(cfg)
    label_fn = _label_fn(cfg)
    records = parts["test"]
    if label_fn is not None:
        records = [r for r in records if label_fn(r) is not None]
    if not records:
        raise ConfigViolation("empty dataset: test split has no usable records")
    labels = _labels_for(records, label_fn)

    evaluators: list[tuple[str, object]] = []
    for model_dir in cfg.models:
        model, meta = _load_model(model_dir)
        evaluators.append((meta["name"], neural_predictor(model, meta["frames"], cfg.threshold)))
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

    rows: list[list] = []
    for model_dir in cfg.models:
        model, meta = _load_model(model_dir)
        for step_index, _ in record.frames:
            rho = max(min(step_index / record.duration, 1.0), 1e-9)
            clip = sample_timeline(record, meta["frames"], rho)
            prob = float(model.forward(clip[None]).data[0])
            pred = "p1" if prob >= cfg.threshold else "p2"
            # neural scores are (P1, P2) = (y, 1-y), one probability split
            rows.append([meta["name"], step_index, prob, 1.0 - prob, pred])
    for name, evaluator in (("simple", simple_eval), ("lanchester", lanchester_eval)):
        for step_index, _ in record.frames:
            rho = max(min(step_index / record.duration, 1.0), 1e-9)
            state = prefix_state(record, rho)
            s1, s2 = evaluator(state, 1), evaluator(state, 2)
            pred = "p1" if s1 > s2 else ("p2" if s2 > s1 else "tie")
            rows.append([name, step_index, s1, s2, pred])
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run-config file; flags override it")
    p.add_argument("--out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="master seed (default: 0)")
    p.add_argument("--threads", type=int, help="worker processes for match play (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtslab",
        description="Grid-war win-prediction lab: simulate, train, evaluate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="play a tournament and write the dataset")
    _add_common(g)
    g.add_argument("--roster", help="comma-separated strategy names "
                                    f"(default: all {len(DEFAULT_ROSTER)} built-ins)")
    g.add_argument("--rounds", type=int, dest="rounds_per_pair",
                   help="matches per pair, half per side (default: 12)")
    g.add_argument("--max-steps", type=int, dest="max_steps",
                   help="step limit per match (default: 1000)")
    g.add_argument("--capture-every", type=int, dest="capture_every",
                   help="frame capture cadence in steps (default: 2)")

    t = sub.add_parser("train", help="train a win predictor on a dataset")
    _add_common(t)
    t.add_argument("--dataset", help="path to dataset.jsonl (splits.json beside it)")
    t.add_argument("--preset", help=f"model preset, one of {sorted(PRESETS)} (default: desk)")
    t.add_argument("--variant", choices=["tstf", "space_time_only"],
                   help="override the preset's attention variant")
    t.add_argument("--epochs", type=int, help="training epochs (default: 30)")
    t.add_argument("--batch-size", type=int, dest="batch_size",
                   help="override the preset batch size")
    t.add_argument("--lr", type=float, help="override the preset learning rate")
    t.add_argument("--relabel", choices=["none", "surviving-units"],
                   help="relabel records by final-frame unit count (default: none)")

    e = sub.add_parser("eval", help="score a trained model on the test split")
    _add_common(e)
    e.add_argument("--dataset", help="path to dataset.jsonl")
    e.add_argument("--models", help="trained model directory")
    e.add_argument("--relabel", choices=["none", "surviving-units"])
    e.add_argument("--threshold", type=float, help="decision threshold (default: 0.5)")

    c = sub.add_parser("compare", help="stratified tables for all evaluators")
    _add_common(c)
    c.add_argument("--dataset", help="path to dataset.jsonl")
    c.add_argument("--models", help="comma-separated trained model directories")
    c.add_argument("--fractions", help="comma-separated progress fractions "
                                       "(default: 0.04,0.2,0.4,0.6,0.8,1.0)")
    c.add_argument("--relabel", choices=["none", "surviving-units"])
    c.add_argument("--threshold", type=float)

    m = sub.add_parser("timeline", help="per-step evaluator scores for one match")
    _add_common(m)
    m.add_argument("--dataset", help="path to dataset.jsonl")
    m.add_argument("--models", help="comma-separated trained model directories")
    m.add_argument("--match-id", type=int, dest="match_id",
                   help="record index within the dataset (default: 0)")
    m.add_argument("--threshold", type=float)
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


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "timeline": cmd_timeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, _overrides_from_args(args))
        return COMMANDS[args.command](cfg)
    except (MissingArtifact, CorruptCheckpoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing artifact: {exc}", file=sys.stderr)
        return 2
    except (ConfigViolation, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
