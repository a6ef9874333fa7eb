"""Deterministic grid-war simulator: engine, strategies, datasets."""

from .dataset import Dataset, DatasetHeader, read_dataset, split_dataset, write_dataset
from .encode import decode_planes, raw_planes
from .engine import Action, MatchRecord, run_match, sample_timeline, step
from .rules import UnitKind
from .state import GameState, Unit, standard_start
from .strategies import DEFAULT_ROSTER, REGISTRY, Strategy, make_strategy
from .tournament import ScheduledMatch, run_tournament, schedule_round_robin

__all__ = [
    "Action",
    "Dataset",
    "DatasetHeader",
    "DEFAULT_ROSTER",
    "GameState",
    "MatchRecord",
    "REGISTRY",
    "ScheduledMatch",
    "Strategy",
    "Unit",
    "UnitKind",
    "decode_planes",
    "make_strategy",
    "raw_planes",
    "read_dataset",
    "run_match",
    "run_tournament",
    "sample_timeline",
    "schedule_round_robin",
    "split_dataset",
    "standard_start",
    "step",
    "write_dataset",
]
