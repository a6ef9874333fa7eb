"""Scripted strategies: the per-plan unit index against the full-map scan,
whole plans and their rng draws against the pre-rewrite plans, and a pin of
every decision through the hash of a generated dataset."""

import dataclasses
import hashlib

import pytest

from rtslab.cli import main
from rtslab.rng import SplitMix64
from rtslab.sim.rules import MAX_HP, NEUTRAL, P1, P2, UnitKind
from rtslab.sim.engine import Action, step
from rtslab.sim.state import Unit, standard_start
from rtslab.sim.strategies import (
    _attack_or_advance,
    _free_neighbors,
    _nearest,
    _step_toward,
    _UnitIndex,
    make_strategy,
)

from oracles import (
    ORACLE_PLANS,
    empty_state,
    oracle_attack_or_advance,
    oracle_free_neighbors,
    oracle_nearest,
    oracle_nearest_base,
    oracle_nearest_node,
    oracle_step_toward,
)

SIZE = 16


def random_state(rng: SplitMix64):
    """A 16x16 map with 0..60 units of random kind, owner, hp and carried."""
    s = empty_state(size=SIZE)
    kinds = list(UnitKind)
    for _ in range(rng.randrange(61)):
        pos = (rng.randrange(SIZE), rng.randrange(SIZE))
        kind = kinds[rng.randrange(len(kinds))]
        owner = NEUTRAL if kind == UnitKind.RESOURCE else rng.randrange(2) + 1
        s.units[pos] = Unit(
            kind=kind,
            hp=rng.randrange(MAX_HP[kind] + 1),
            owner=owner,
            carried=rng.randrange(26),
        )
    return s


def dist(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@pytest.mark.parametrize("seed", range(4))
def test_indexed_queries_match_the_full_scan(seed):
    rng = SplitMix64(1000 + seed)
    for _ in range(75):
        s = random_state(rng)
        # the same bases and nodes among fewer other units: `warm` shares the
        # memos of `s`, which the queries on `s` fill first
        t = s.clone()
        for pos, u in s.units.items():
            if u.kind not in (UnitKind.BASE, UnitKind.RESOURCE) and rng.randrange(2):
                del t.units[pos]
        index = _UnitIndex(s)
        for player in (P1, P2):
            assert index.cells[player] == sorted(
                p for p, u in s.units.items() if u.owner == player
            )
        for pos in s.units:
            for player in (P1, P2):
                enemy = 3 - player
                foe = _nearest(pos, index.cells[enemy])
                assert foe == oracle_nearest(s, pos, lambda q, u: u.owner == enemy)
                for reach in range(4):
                    in_reach = foe if foe is not None and dist(pos, foe) <= reach else None
                    assert in_reach == oracle_nearest(
                        s, pos, lambda q, u: u.owner == enemy and dist(pos, q) <= reach
                    )
                    assert _attack_or_advance(s, pos, reach, foe) == (
                        oracle_attack_or_advance(s, player, pos, reach)
                    )
                base = index.nearest_base[player][pos]
                assert base == oracle_nearest_base(s, player, pos)
                if base is not None:
                    assert _step_toward(s, pos, base) == oracle_step_toward(s, pos, base)
            node = index.nearest_node[pos]
            assert node == oracle_nearest_node(s, pos)
            if node is not None:
                assert _step_toward(s, pos, node) == oracle_step_toward(s, pos, node)
        warm = _UnitIndex(t)
        assert warm.nearest_node is index.nearest_node
        assert all(a is b for a, b in zip(warm.nearest_base, index.nearest_base))
        for r in range(SIZE):
            for c in range(SIZE):
                assert _free_neighbors(s, (r, c)) == oracle_free_neighbors(s, (r, c))
                assert warm.nearest_node[(r, c)] == oracle_nearest_node(t, (r, c))
                for player in (P1, P2):
                    assert warm.nearest_base[player][(r, c)] == (
                        oracle_nearest_base(t, player, (r, c))
                    )


def test_nearest_ignores_scan_order():
    # four cells tie at distance 1 of (4, 4); (3, 4) comes first by row, col
    cells = [(5, 4), (4, 5), (2, 4), (4, 3), (3, 4), (6, 6)]
    for k in range(len(cells)):
        assert _nearest((4, 4), cells[k:] + cells[:k]) == (3, 4)
        assert _nearest((4, 4), cells[k:][::-1] + cells[:k][::-1]) == (3, 4)
    assert _nearest((4, 4), []) is None


def match_states(name: str, start):
    """150 states of a match from `start`: `name` against RandomBiasedLite,
    where workers harvest and deposit."""
    s, streams = start, (SplitMix64(1), SplitMix64(2))
    for _ in range(150):
        yield s
        s = step(s, make_strategy(name), make_strategy("RandomBiasedLite"), streams)


def dry_start():
    """The standard start with 2 stock left in each node, so nodes run dry
    and plans switch target sets mid-match."""
    s = standard_start()
    for pos, u in s.units.items():
        if u.kind == UnitKind.RESOURCE:
            s.units[pos] = dataclasses.replace(u, carried=2)
    return s


def plan_states(name: str):
    """Seeded random maps with stores in 0..25, so the train and build
    branches run, then the states of a match from the standard start and
    one from `dry_start`."""
    rng = SplitMix64(3000)
    for _ in range(100):
        s = random_state(rng)
        s.store = {P1: rng.randrange(26), P2: rng.randrange(26)}
        yield s
    yield from match_states(name, standard_start())
    yield from match_states(name, dry_start())


@pytest.mark.parametrize("name", sorted(ORACLE_PLANS))
def test_plan_states_switch_node_sets(name):
    node_sets = {_UnitIndex(s).nearest_node.cells for s in match_states(name, dry_start())}
    assert len(node_sets) >= 2


def test_economy_plan_states_straddle_the_threat_rows():
    """EconomyRushLite looks for a threat only in the rows within its
    defense radius of a worker; its plan states hold workers whose nearest
    foe sits at distance 3 on either edge row of that slice, and at
    distance 4 on either row just outside it."""
    seen = set()
    for s in plan_states("EconomyRushLite"):
        for pos, u in s.units.items():
            if u.kind == UnitKind.WORKER:
                foe = oracle_nearest(s, pos, lambda q, v: v.owner == 3 - u.owner)
                if foe is not None:
                    seen.add((dist(pos, foe), foe[0] - pos[0]))
    assert {(3, -3), (3, 3), (4, -4), (4, 4)} <= seen


@pytest.mark.parametrize("name", sorted(ORACLE_PLANS))
def test_plan_matches_the_reference_plan(name):
    """Same actions, in order, and the same rng state after the call."""
    strategy, oracle = make_strategy(name), ORACLE_PLANS[name]
    rng = SplitMix64(4000)
    for s in plan_states(name):
        for player in (P1, P2):
            seed = rng.next_u64()
            ours, theirs = SplitMix64(seed), SplitMix64(seed)
            plan = strategy.plan(s, player, ours)
            assert plan == oracle(s, player, theirs)
            assert all(type(act) is Action for act in plan)
            assert ours.state == theirs.state


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_decisions_pinned_by_dataset_hash(tmp_path):
    """Every strategy decision feeds the dataset bytes. These hashes were
    recorded with the full-map target scan; any moved decision changes them."""
    out = tmp_path / "g"
    rc = main([
        "generate", "--out", str(out), "--seed", "7", "--rounds", "2",
        "--max-steps", "200", "--capture-every", "4",
    ])
    assert rc == 0
    assert sha(out / "dataset.jsonl") == (
        "f48c3e7b472432ac2e30c53de826614449eda7831d6d3e971b14335bf76696a2"
    )
    assert sha(out / "splits.json") == (
        "563ebefb09e6e69047b04840e110ef1effca6f0a5864c7bfb68c421a62033f07"
    )
