"""Scripted strategies.

All decisions are deterministic given (state, rng stream): units are
scanned row-major, targets break ties by (distance, row, col), and the only
randomness comes from the per-player SplitMix64 stream handed to plan().
Strategy objects carry no mutable state, so one instance can serve any
number of concurrent matches.

Target search runs on a unit index (`_UnitIndex`) built in one pass over
the map by the first plan() on a state and kept in `state.unit_index`, so
both players' plans in a step share it. It lists the cells of each owner
in row-major order, and answers "nearest resource node with stock left"
and "nearest own base" from one memo per target set (`_NearestMemo`): a
dict from cell to target, filled on first ask by the same scan as an
enemy query. A small cache keyed by the tuple of target cells shares each
memo across every state with that target set; nodes run dry and bases
fall only rarely, so nearly every step reuses the last step's memos. An
enemy query scans only the enemy's cells. The key (manhattan distance,
row, col) is a total order on cells, so the nearest cell depends on the
target set alone, not on the order of the scan. Sharing the index relies
on the engine's contract that a state is not mutated once it has been
planned on.

EconomyRushLite looks for a threat to a worker only among the enemy cells
in the rows within its defense radius of the worker's row: one slice of
the row-major cell list, found by bisection. Any foe within the radius
lies in that slice, so the slice's nearest foe is within the radius
exactly when the nearest foe of all is, and is then that foe.

A combat unit makes one scan for the nearest enemy: it attacks that enemy
if it is within attack range and otherwise steps toward it. If the
nearest enemy is out of range, so is every other, so this is the same
decision as looking for the nearest enemy in range first.
RandomBiasedLite never steps toward an enemy, so it looks only at the
cells within reach, in (distance, row, col) order: the first enemy there
is the nearest enemy whenever that one is in reach, and there is none
otherwise. It looks at each neighbor of a unit once, and those looks also
give its move option and its harvest cycle's step.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from functools import lru_cache

from ..rng import SplitMix64
from .engine import Action
from .rules import (
    ATTACK_RANGE,
    BARRACKS,
    BASE,
    COST,
    HEAVY,
    LIGHT,
    RANGED,
    RESOURCE,
    TRAINABLE_AT_BARRACKS,
    WORKER,
    UnitKind,
)
from .state import GameState, Position, manhattan


class _UnitIndex:
    """A state's view of the map for planning, built in one row-major pass.

    `cells[owner]` lists the cells of owner 0 (resource nodes), 1 and 2;
    `nearest_node` maps a cell to the nearest resource node with stock
    left, `nearest_base[owner]` to the nearest base of that owner (see
    `_NearestMemo`). Built once per state by `_index_of` and kept on the
    state, not on the strategy, so strategies stay stateless.
    """

    __slots__ = ("cells", "nearest_node", "nearest_base")

    def __init__(self, state: GameState):
        cells: tuple[list[Position], ...] = ([], [], [])
        nodes: list[Position] = []
        bases: tuple[list[Position], ...] = ([], [], [])
        units = state.units
        for pos in sorted(units):
            u = units[pos]
            cells[u.owner].append(pos)
            if u.kind is BASE:
                bases[u.owner].append(pos)
            elif u.kind is RESOURCE and u.carried > 0:
                nodes.append(pos)
        self.cells = cells
        self.nearest_node = _memo_of(tuple(nodes))
        self.nearest_base = tuple(_memo_of(tuple(b)) for b in bases)


def _index_of(state: GameState) -> _UnitIndex:
    """The state's unit index, built by the first plan() on it."""
    index = state.unit_index
    if index is None:
        index = state.unit_index = _UnitIndex(state)
    return index


def _beyond_adjacent(reach: int) -> tuple[tuple[int, int], ...]:
    """Offsets at distance 2..reach, in (distance, row, col) order."""
    return tuple(sorted(
        ((dr, dc) for dr in range(-reach, reach + 1) for dc in range(-reach, reach + 1)
         if 2 <= abs(dr) + abs(dc) <= reach),
        key=lambda o: (abs(o[0]) + abs(o[1]), o),
    ))


# the cells a unit that attacks reaches beyond its four neighbors
_BEYOND_ADJACENT = {kind: _beyond_adjacent(reach) for kind, reach in ATTACK_RANGE.items()}


def _nearest(pos: Position, cells: Sequence[Position]) -> Position | None:
    """The cell of `cells` first by (manhattan distance to pos, row, col).

    Ties on distance go to the smaller (row, col), whatever the order of
    `cells`, so the answer is the same for any scan order; None if empty.
    """
    r, c = pos
    best = None
    best_d = 1 << 30  # farther than any cell
    for q in cells:
        qr, qc = q
        d = (qr - r if qr >= r else r - qr) + (qc - c if qc >= c else c - qc)
        if d < best_d or (d == best_d and q < best):
            best, best_d = q, d
    return best


class _NearestMemo(dict):
    """The nearest cell of `cells` to each cell asked for, by the rule of
    `_nearest`: a dict from cell to target (None if `cells` is empty),
    filled on first ask."""

    __slots__ = ("cells",)

    def __init__(self, cells: tuple[Position, ...]):
        super().__init__()
        self.cells = cells

    def __missing__(self, pos: Position) -> Position | None:
        target = self[pos] = _nearest(pos, self.cells)
        return target


@lru_cache(maxsize=64)
def _memo_of(cells: tuple[Position, ...]) -> _NearestMemo:
    """The one memo of a target set, shared by every state that holds it."""
    return _NearestMemo(cells)


@lru_cache(maxsize=8)
def _neighbors(height: int, width: int) -> dict[Position, tuple[Position, ...]]:
    """Each cell's in-map neighbors on a height x width map, in the
    canonical order up, left, right, down, which is (distance, row, col)
    order."""
    return {
        (r, c): tuple(
            q for q in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c))
            if 0 <= q[0] < height and 0 <= q[1] < width
        )
        for r in range(height)
        for c in range(width)
    }


def _free_neighbors(state: GameState, pos: Position) -> list[Position]:
    """Empty in-map neighbors in the canonical order up, left, right, down."""
    units = state.units
    return [q for q in _neighbors(state.height, state.width)[pos] if q not in units]


def _step_toward(state: GameState, src: Position, dst: Position) -> Action | None:
    """Greedy move: the first free neighbor, in canonical order, that is
    closer to dst. Every closer neighbor is exactly one nearer, so this is
    the free neighbor first by (distance to dst, row, col), taken only if
    it improves. dst is an occupied, hence in-bounds, cell, so a step
    toward it never leaves the map."""
    r, c = src
    dr, dc = dst[0] - r, dst[1] - c
    units = state.units
    if dr < 0 and (r - 1, c) not in units:
        return Action("move", src, (r - 1, c))
    if dc < 0 and (r, c - 1) not in units:
        return Action("move", src, (r, c - 1))
    if dc > 0 and (r, c + 1) not in units:
        return Action("move", src, (r, c + 1))
    if dr > 0 and (r + 1, c) not in units:
        return Action("move", src, (r + 1, c))
    return None


def _attack_or_advance(state: GameState, pos: Position, reach: int,
                       foe: Position | None) -> Action | None:
    """Attack `foe`, the nearest enemy, if it is within `reach`; else step toward it."""
    if foe is None:
        return None
    if manhattan(pos, foe) <= reach:
        return Action("attack", pos, foe)
    return _step_toward(state, pos, foe)


def _harvest_cycle(state: GameState, index: _UnitIndex, player: int, pos: Position,
                   carried: int) -> Action | None:
    """Carry cargo to the nearest own base, or fetch it from the nearest live node."""
    target = (index.nearest_base[player] if carried > 0 else index.nearest_node)[pos]
    if target is None:
        return None
    if manhattan(pos, target) == 1:
        return Action("deposit" if carried > 0 else "harvest", pos, target)
    return _step_toward(state, pos, target)


def _train_action(state: GameState, pos: Position, produce: UnitKind) -> Action | None:
    free = _free_neighbors(state, pos)
    if not free:
        return None
    return Action("train", pos, free[0], produce)


class Strategy:
    name = "Strategy"

    def plan(self, state: GameState, player: int, rng: SplitMix64) -> list[Action]:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class PassiveLite(Strategy):
    """Does nothing; the sparring dummy."""

    name = "PassiveLite"

    def plan(self, state, player, rng):
        return []


class WorkerRushLite(Strategy):
    """Pump workers nonstop; one harvests, the rest swarm the enemy."""

    name = "WorkerRushLite"

    def plan(self, state, player, rng):
        acts: list[Action] = []
        index = _index_of(state)
        units = state.units
        mine = index.cells[player]
        foes = index.cells[3 - player]
        workers = [p for p in mine if units[p].kind is WORKER]
        harvester: Position | None = None
        nearest_node = index.nearest_node
        if workers and nearest_node.cells:
            harvester = min(workers, key=lambda p: (manhattan(p, nearest_node[p]), p))
        can_train = state.store[player] >= COST[WORKER]
        for pos in mine:
            u = units[pos]
            act: Action | None = None
            if u.kind is BASE:
                if can_train:
                    act = _train_action(state, pos, WORKER)
            elif u.kind is WORKER:
                if pos == harvester:
                    act = _harvest_cycle(state, index, player, pos, u.carried)
                if act is None:
                    act = _attack_or_advance(
                        state, pos, ATTACK_RANGE[WORKER], _nearest(pos, foes)
                    )
            if act is not None:
                acts.append(act)
        return acts


class _BarracksRush(Strategy):
    """Two harvesters feed a barracks that streams one combat unit type."""

    produce: UnitKind = LIGHT
    worker_target = 2

    def plan(self, state, player, rng):
        acts: list[Action] = []
        index = _index_of(state)
        units = state.units
        mine = index.cells[player]
        foes = index.cells[3 - player]
        store = state.store[player]
        workers = [p for p in mine if units[p].kind is WORKER]
        has_barracks = any(units[p].kind is BARRACKS for p in mine)
        need_barracks = not has_barracks and store >= COST[BARRACKS]
        builder = workers[-1] if (need_barracks and workers) else None
        for pos in mine:
            u = units[pos]
            kind = u.kind
            act: Action | None = None
            if kind is BASE:
                if len(workers) < self.worker_target and store >= COST[WORKER]:
                    act = _train_action(state, pos, WORKER)
            elif kind is BARRACKS:
                if store >= COST[self.produce]:
                    act = _train_action(state, pos, self.produce)
            elif kind is WORKER:
                if pos == builder:
                    free = _free_neighbors(state, pos)
                    if free:
                        act = Action("build", pos, free[0], BARRACKS)
                if act is None:
                    act = _harvest_cycle(state, index, player, pos, u.carried)
                if act is None:  # mined out: join the fight
                    act = _attack_or_advance(
                        state, pos, ATTACK_RANGE[WORKER], _nearest(pos, foes)
                    )
            else:
                act = _attack_or_advance(
                    state, pos, ATTACK_RANGE.get(kind, 0), _nearest(pos, foes)
                )
            if act is not None:
                acts.append(act)
        return acts


class LightRushLite(_BarracksRush):
    """Fast, cheap melee pressure."""

    name = "LightRushLite"
    produce = LIGHT


class HeavyRushLite(_BarracksRush):
    """Slow buildup into high-damage units; weak to early harassment."""

    name = "HeavyRushLite"
    produce = HEAVY


class RangedRushLite(_BarracksRush):
    """Stand-off attackers that strike from range 3."""

    name = "RangedRushLite"
    produce = RANGED


class EconomyRushLite(Strategy):
    """Maximize harvest throughput; workers only fight in self-defense."""

    name = "EconomyRushLite"
    worker_target = 5
    defense_radius = 3

    def plan(self, state, player, rng):
        acts: list[Action] = []
        index = _index_of(state)
        units = state.units
        mine = index.cells[player]
        foes = index.cells[3 - player]
        radius = self.defense_radius
        n_workers = sum(1 for p in mine if units[p].kind is WORKER)
        can_train = n_workers < self.worker_target and state.store[player] >= COST[WORKER]
        for pos in mine:
            u = units[pos]
            act: Action | None = None
            if u.kind is BASE:
                if can_train:
                    act = _train_action(state, pos, WORKER)
            elif u.kind is WORKER:
                lo = bisect_left(foes, (pos[0] - radius, -1))
                hi = bisect_left(foes, (pos[0] + radius + 1, -1), lo)
                foe = _nearest(pos, foes[lo:hi])
                if foe is not None and manhattan(pos, foe) <= radius:
                    act = _attack_or_advance(state, pos, ATTACK_RANGE[WORKER], foe)
                else:
                    act = _harvest_cycle(state, index, player, pos, u.carried)
            if act is not None:
                acts.append(act)
        return acts


class RandomBiasedLite(Strategy):
    """Random actions with a bias toward obviously useful ones.

    A base or barracks trains with probability 1/2 (one `uniform` draw),
    picking uniformly (`choice`) among the kinds it can afford. Every other
    unit weighs its options: attack the nearest foe 5 if it is in range,
    the harvest/deposit cycle 3 for a worker that has one, a move to a free
    neighbor 2 if there is one, idle 1; it draws the neighbor (`choice`)
    before the option (`randrange` of the total weight), both as
    `next_u64() % n`, which is what `choice` and `randrange` draw. The
    cycle is decided first as a (kind, target) pair, since whether it is
    offered depends on its step; only the option drawn becomes an Action.
    """

    name = "RandomBiasedLite"

    def plan(self, state, player, rng):
        acts: list[Action] = []
        index = _index_of(state)
        units = state.units
        get = units.get
        store = state.store[player]
        enemy = 3 - player
        neighbors = _neighbors(state.height, state.width)
        nearest_node, nearest_base = index.nearest_node, index.nearest_base[player]
        draw = rng.next_u64
        for pos in index.cells[player]:
            u = units[pos]
            kind = u.kind
            if kind is BASE or kind is BARRACKS:
                if rng.uniform() < 0.5:
                    trainable = (WORKER,) if kind is BASE else TRAINABLE_AT_BARRACKS
                    choices = [k for k in trainable if store >= COST[k]]
                    if choices:
                        act = _train_action(state, pos, rng.choice(choices))
                        if act is not None:
                            acts.append(act)
                continue
            # One look at each in-map neighbor, in (distance, row, col) order,
            # finds the free cells and the first adjacent enemy; the free cells
            # serve both the move option and the cycle's step. Every unit here
            # attacks at reach 1 or more; the cells farther within reach are
            # looked at only if no enemy is adjacent.
            r, c = pos
            free = []
            foe = None
            for q in neighbors[pos]:
                v = get(q)
                if v is None:
                    free.append(q)
                elif foe is None and v.owner == enemy:
                    foe = q
            if foe is None:
                for dr, dc in _BEYOND_ADJACENT[kind]:
                    v = get((r + dr, c + dc))
                    if v is not None and v.owner == enemy:
                        foe = (r + dr, c + dc)
                        break
            cycle = None  # the cycle's (kind, target)
            if kind is WORKER:
                carried = u.carried
                target = (nearest_base if carried > 0 else nearest_node)[pos]
                if target is not None:
                    dr, dc = target[0] - r, target[1] - c
                    if (dr if dr >= 0 else -dr) + (dc if dc >= 0 else -dc) == 1:
                        cycle = ("deposit" if carried > 0 else "harvest", target)
                    else:  # `_step_toward`: the first free neighbor that is closer,
                        # which is one whose offset points toward the target
                        for q in free:
                            if (q[0] - r) * dr + (q[1] - c) * dc > 0:
                                cycle = ("move", q)
                                break
            dest = free[draw() % len(free)] if free else None
            # cumulative option weights: attack 5, cycle 3, move 2, then idle 1
            upto_attack = 5 if foe is not None else 0
            upto_cycle = upto_attack + 3 if cycle is not None else upto_attack
            upto_move = upto_cycle + 2 if free else upto_cycle
            pick = draw() % (upto_move + 1)
            if pick < upto_attack:
                acts.append(Action("attack", pos, foe))
            elif pick < upto_cycle:
                acts.append(Action(cycle[0], pos, cycle[1]))
            elif pick < upto_move:
                acts.append(Action("move", pos, dest))
        return acts


REGISTRY: dict[str, type[Strategy]] = {
    cls.name: cls
    for cls in (
        PassiveLite,
        RandomBiasedLite,
        WorkerRushLite,
        LightRushLite,
        HeavyRushLite,
        RangedRushLite,
        EconomyRushLite,
    )
}

DEFAULT_ROSTER = tuple(REGISTRY)


def make_strategy(name: str) -> Strategy:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown strategy {name!r}; registered: {known}")
    return REGISTRY[name]()
