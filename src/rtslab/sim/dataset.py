"""Dataset container, line-delimited JSON persistence, and the split rule.

File layout: the first line is a header record

    {"kind":"header","format_version":1,"map_height":16,"map_width":16,
     "channels":5,"capture_every":2,"max_steps":1000,"seed":...,
     "roster":[...],"rounds_per_pair":...}

followed by one match record per line

    {"kind":"match","strategy_a":...,"strategy_b":...,"seed":...,
     "winner":"p1"|"p2"|"draw","duration":...,
     "frames":[[step,[5 x H x W ints]],...]}

Frames hold raw (unnormalized) integer plane values; normalization to
[0,1] happens at load time. Keys are sorted and separators fixed, so a
dataset is byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import CorruptArtifact
from ..rng import SplitMix64
from .encode import CHANNELS, PLANE_FACTION
from .engine import MatchRecord

FORMAT_VERSION = 1
WINNERS = ("p1", "p2", "draw")


@dataclass
class DatasetHeader:
    map_height: int = 16
    map_width: int = 16
    channels: int = CHANNELS
    capture_every: int = 2
    max_steps: int = 1000
    seed: int = 0
    roster: list[str] = field(default_factory=list)
    rounds_per_pair: int = 0
    format_version: int = FORMAT_VERSION


@dataclass
class Dataset:
    header: DatasetHeader
    records: list[MatchRecord]


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_dataset(path: str | Path, dataset: Dataset) -> None:
    lines = [_dump_line({"kind": "header", **asdict(dataset.header)})]
    for rec in dataset.records:
        lines.append(
            _dump_line(
                {
                    "kind": "match",
                    "strategy_a": rec.strategy_a,
                    "strategy_b": rec.strategy_b,
                    "seed": rec.seed,
                    "winner": rec.winner,
                    "duration": rec.duration,
                    "frames": [[step, planes.tolist()] for step, planes in rec.frames],
                }
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _check_frames(frames: list[tuple[int, np.ndarray]], shape: tuple[int, int, int]) -> None:
    """At least one frame; every frame holds planes of the header's shape;
    steps are strictly increasing ints."""
    if not frames:
        raise ValueError("record has no frames")
    last = None
    for i, (step, planes) in enumerate(frames):
        if type(step) is not int:
            raise ValueError(f"frame {i} step {step!r} is not an int")
        if last is not None and step <= last:
            raise ValueError(f"frame {i} step {step} does not follow step {last}")
        if planes.shape != shape:
            raise ValueError(f"frame {i} planes have shape {planes.shape}, header says {shape}")
        last = step


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset file; CorruptArtifact names the first bad line.

    The header must give CHANNELS channels. Each record is checked against
    the header: it has at least one frame, every frame's planes have shape
    (channels, map_height, map_width), frame steps are strictly increasing
    ints and the winner is one of WINNERS.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise CorruptArtifact(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if not lines:
        raise CorruptArtifact(f"{path}: empty dataset file")
    lineno = 1
    try:
        head = json.loads(lines[0])
        if head.get("kind") != "header":
            raise ValueError("first line is not a header record")
        if head.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {head.get('format_version')}")
        header = DatasetHeader(**{k: v for k, v in head.items() if k != "kind"})
        if header.channels != CHANNELS:  # decode_planes reads all CHANNELS planes
            raise ValueError(f"header channels {header.channels!r} is not {CHANNELS}")
        shape = (header.channels, header.map_height, header.map_width)
        records = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            obj = json.loads(line)
            if obj.get("kind") != "match":
                raise ValueError(f"unexpected record kind {obj.get('kind')!r}")
            if obj["winner"] not in WINNERS:
                raise ValueError(f"winner {obj['winner']!r} is not one of {WINNERS}")
            frames = [
                (step, np.asarray(planes, dtype=np.int64)) for step, planes in obj["frames"]
            ]
            _check_frames(frames, shape)
            records.append(
                MatchRecord(
                    strategy_a=obj["strategy_a"],
                    strategy_b=obj["strategy_b"],
                    seed=obj["seed"],
                    winner=obj["winner"],
                    duration=obj["duration"],
                    frames=frames,
                )
            )
    except json.JSONDecodeError as exc:
        raise CorruptArtifact(f"{path}:{lineno}: not valid JSON ({exc.msg})") from None
    except KeyError as exc:
        raise CorruptArtifact(f"{path}:{lineno}: record lacks key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise CorruptArtifact(f"{path}:{lineno}: {exc}") from None
    return Dataset(header=header, records=records)


def largest_remainder_sizes(total: int, ratios: tuple[float, ...]) -> list[int]:
    """Integer partition of `total` proportional to `ratios`.

    Floors the quotas, then hands leftover items to the largest fractional
    parts (ties to the earlier ratio), so sizes always sum to `total`.
    """
    weight = sum(ratios)
    quotas = [total * r / weight for r in ratios]
    sizes = [math.floor(q) for q in quotas]
    leftover = total - sum(sizes)
    order = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def split_dataset(
    records: list[MatchRecord],
    ratios: tuple[float, float, float] = (10.0, 5.0, 2.5),
    seed: int = 0,
) -> tuple[list[MatchRecord], list[MatchRecord], list[MatchRecord]]:
    """Disjoint, exhaustive (train, test, validation) partition.

    Draws are excluded before splitting (the label is binary); the shuffle
    is deterministic in `seed`; sizes follow largest-remainder rounding.
    """
    eligible = [r for r in records if r.winner != "draw"]
    if not eligible:
        raise ValueError("no decided matches to split")
    order = list(range(len(eligible)))
    SplitMix64(seed).shuffle(order)
    n_train, n_test, n_val = largest_remainder_sizes(len(eligible), ratios)
    train = [eligible[i] for i in order[:n_train]]
    test = [eligible[i] for i in order[n_train : n_train + n_test]]
    val = [eligible[i] for i in order[n_train + n_test :]]
    assert len(val) == n_val
    return train, test, val


def winner_label(record: MatchRecord) -> int | None:
    """Label by the recorded winner: 1 if p1 won, 0 if p2 won, None on a draw."""
    if record.winner == "draw":
        return None
    return 1 if record.winner == "p1" else 0


def surviving_units_label(record: MatchRecord) -> int | None:
    """Relabel by the final frame's unit count: 1 if p1 has more cells
    occupied than p2, 0 if fewer, None on a tie. Makes a toy dataset whose
    label is a function of the visible input."""
    faction = record.frames[-1][1][PLANE_FACTION]
    n1 = int((faction == 1).sum())
    n2 = int((faction == 2).sum())
    if n1 == n2:
        return None
    return 1 if n1 > n2 else 0
