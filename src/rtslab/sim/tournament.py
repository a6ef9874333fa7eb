"""Round-robin scheduling and tournament execution.

Every unordered strategy pair plays `rounds_per_pair` matches, the second
half with sides swapped, so C(n,2) * rounds_per_pair matches total with
exact side balance. Match seeds derive from (tournament seed, pair index,
round index), making the whole run a pure function of one seed. Matches
are independent, so execution may fan out over processes, a bounded
number of matches ahead of the caller; results always come back in
schedule order, one at a time, so a caller can write each record as it lands.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass
from functools import partial

from ..rng import derive_seed
from .engine import MatchRecord, run_match
from .strategies import Strategy, make_strategy

CHUNK = 4  # matches per pool task; one task per match ran slower at --threads 2
IN_FLIGHT_PER_WORKER = 8  # tasks submitted ahead of the consumer, per worker process


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


def _play(strategies: dict[str, Strategy], slot: ScheduledMatch, **settings) -> MatchRecord:
    return run_match(strategies[slot.first], strategies[slot.second], seed=slot.seed, **settings)


def _play_chunk(play: Callable, slots: list[ScheduledMatch]) -> list[MatchRecord]:
    return [play(slot) for slot in slots]


def _play_in_pool(
    play: Callable[[ScheduledMatch], MatchRecord], sched: list[ScheduledMatch], threads: int
) -> Generator[MatchRecord, None, None]:
    # at most IN_FLIGHT_PER_WORKER * threads tasks of CHUNK matches are not yet
    # yielded, so records the consumer has not taken cannot pile up here.
    # Imported here, so a command that plays in-process never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=threads)
    window = IN_FLIGHT_PER_WORKER * threads
    pending: deque = deque()
    try:
        for at in range(0, len(sched), CHUNK):
            pending.append(pool.submit(_play_chunk, play, sched[at : at + CHUNK]))
            if len(pending) == window:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    finally:  # a consumer that stops early leaves futures to cancel and workers to join
        pool.shutdown(cancel_futures=True)


def run_tournament(
    names: list[str],
    rounds_per_pair: int,
    seed: int,
    *,
    max_steps: int = 1000,
    capture_every: int = 2,
    size: int = 16,
    threads: int = 1,
) -> Generator[MatchRecord, None, None]:
    """A generator of the schedule's records, in schedule order, each
    played when it is asked for (by `threads` worker processes if above 1).
    `max_steps`, `capture_every` and `size` go to every `run_match`.

    The schedule and the strategies are built before this returns, so a
    bad `rounds_per_pair` or roster raises here. Closing the generator
    early cancels the matches not yet started and ends the workers.
    """
    sched = schedule_round_robin(names, rounds_per_pair, seed)
    strategies = {name: make_strategy(name) for name in names}
    play = partial(
        _play, strategies, max_steps=max_steps, capture_every=capture_every, size=size
    )
    if threads > 1:
        return _play_in_pool(play, sched, threads)
    return (play(slot) for slot in sched)
