"""Round-robin scheduling and tournament execution.

Every unordered strategy pair plays `rounds_per_pair` matches, the second
half with sides swapped, so C(n,2) * rounds_per_pair matches total with
exact side balance. Match seeds derive from (tournament seed, pair index,
round index), making the whole run a pure function of one seed. Matches
are independent, so execution may fan out over processes; results are
always merged back in schedule order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from ..rng import derive_seed
from .engine import MatchRecord, run_match
from .strategies import make_strategy


@dataclass(frozen=True)
class ScheduledMatch:
    first: str   # plays as p1
    second: str  # plays as p2
    seed: int


def schedule_round_robin(
    names: list[str], rounds_per_pair: int, seed: int
) -> list[ScheduledMatch]:
    if len(names) < 2:
        raise ValueError(f"need at least 2 strategies, got {len(names)}")
    if rounds_per_pair <= 0 or rounds_per_pair % 2 != 0:
        raise ValueError(
            f"rounds_per_pair must be even and positive (half per side), got {rounds_per_pair}"
        )
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    half = rounds_per_pair // 2
    out: list[ScheduledMatch] = []
    for pi, (i, j) in enumerate(pairs):
        for r in range(rounds_per_pair):
            first, second = (names[i], names[j]) if r < half else (names[j], names[i])
            out.append(
                ScheduledMatch(first=first, second=second, seed=derive_seed(seed, pi, r))
            )
    return out


def _play(slot: ScheduledMatch, **settings) -> MatchRecord:
    return run_match(
        make_strategy(slot.first), make_strategy(slot.second), seed=slot.seed, **settings
    )


def run_tournament(
    names: list[str],
    rounds_per_pair: int,
    seed: int,
    *,
    max_steps: int = 1000,
    capture_every: int = 2,
    size: int = 16,
    threads: int = 1,
) -> list[MatchRecord]:
    """Play the full schedule; records come back in schedule order.
    `max_steps`, `capture_every` and `size` go to every `run_match`."""
    play = partial(_play, max_steps=max_steps, capture_every=capture_every, size=size)
    sched = schedule_round_robin(names, rounds_per_pair, seed)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(play, sched, chunksize=4))
    return [play(slot) for slot in sched]
