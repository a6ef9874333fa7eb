"""Simulator behavior: engine rules, encoding, strategies, determinism."""

import itertools
import logging
import re

import numpy as np
import pytest

from rtslab.rng import SplitMix64
from rtslab.sim import engine, strategies
from rtslab.sim.encode import (
    PLANE_FACTION,
    PLANE_FACTION_RES,
    PLANE_HEALTH,
    PLANE_MAX,
    PLANE_NEUTRAL_RES,
    PLANE_TYPE,
    decode_planes,
    normalize_planes,
    raw_planes,
)
from rtslab.sim.engine import (
    PHASES,
    Action,
    MatchRecord,
    check_winner,
    frames_until,
    run_match,
    sample_timeline,
    step,
    visible_prefix,
)
from rtslab.sim.rules import MAX_HP, NEUTRAL, P1, P2, RESOURCE_STOCK, STORE_CAP, UnitKind
from rtslab.sim.state import GameState, Unit, standard_start
from rtslab.sim.strategies import DEFAULT_ROSTER, make_strategy

from oracles import empty_state, oracle_decode_planes, oracle_raw_planes, oracle_run_match


def rngs(seed=0):
    return (SplitMix64(seed), SplitMix64(seed + 1))


def state_snapshot(s: GameState):
    return (sorted(s.units.items()), dict(s.store), s.step)


def drop_phases(records) -> list[str]:
    """The phase of each engine "dropping ..." record: the kind an invalid
    action names, or "merge" for one rejected while merging the plans."""
    return [
        str(r.args[0]) if r.msg.startswith("dropping invalid ") else "merge"
        for r in records
        if r.name == "rtslab.sim.engine" and r.msg.startswith("dropping")
    ]


class TestStep:
    def test_passive_pair_noop(self):
        s = empty_state()
        passive = make_strategy("PassiveLite")
        after = step(s, passive, passive, rngs())
        assert after.step == s.step + 1
        assert after.units == s.units and after.store == s.store

    def test_harvest_increments_cargo_and_exhausts_node(self):
        s = empty_state()
        s.units[(4, 4)] = Unit(UnitKind.WORKER, 1, P1)
        s.units[(4, 5)] = Unit(UnitKind.RESOURCE, 1, 0, carried=1)

        class Harvest:
            name = "Harvest"

            def plan(self, state, player, rng):
                return [Action("harvest", (4, 4), (4, 5))] if player == P1 else []

        after = step(s, Harvest(), make_strategy("PassiveLite"), rngs())
        assert after.units[(4, 4)].carried == 1
        assert (4, 5) not in after.units  # stock hit zero -> node removed

    def test_deterministic_successor(self):
        s = standard_start()
        worker = make_strategy("WorkerRushLite")
        econ = make_strategy("EconomyRushLite")
        a = step(s, worker, econ, rngs(7))
        b = step(s, worker, econ, rngs(7))
        assert state_snapshot(a) == state_snapshot(b)
        assert np.array_equal(raw_planes(a), raw_planes(b))

    def test_illegal_actions_dropped(self):
        s = empty_state()
        s.units[(4, 4)] = Unit(UnitKind.WORKER, 1, P1)

        class Illegal:
            name = "Illegal"

            def plan(self, state, player, rng):
                return [
                    Action("move", (4, 4), (9, 9)),        # not adjacent
                    Action("move", (0, 0), (0, 1)),        # empty actor cell
                    Action("attack", (4, 4), (4, 5)),      # no target
                    Action("train", (4, 4), (4, 5), UnitKind.WORKER),  # workers can't train
                ]

        after = step(s, Illegal(), make_strategy("PassiveLite"), rngs())
        assert state_snapshot(after)[:2] == (sorted(s.units.items()), s.store)

    def test_attacks_resolve_simultaneously(self):
        s = empty_state()
        s.units[(4, 4)] = Unit(UnitKind.WORKER, 1, P1)
        s.units[(4, 5)] = Unit(UnitKind.WORKER, 1, P2)

        class Duel:
            name = "Duel"

            def plan(self, state, player, rng):
                mine = state.units_of(player)
                return [
                    Action("attack", pos, (4, 5) if player == P1 else (4, 4))
                    for pos, _ in mine
                ]

        after = step(s, Duel(), Duel(), rngs())
        assert (4, 4) not in after.units and (4, 5) not in after.units

    def test_mutual_base_destruction_goes_to_the_larger_side(self):
        s = empty_state()
        s.units[(2, 2)] = Unit(UnitKind.BASE, 1, P1)
        s.units[(2, 3)] = Unit(UnitKind.WORKER, 1, P2)
        s.units[(9, 9)] = Unit(UnitKind.BASE, 1, P2)
        s.units[(9, 10)] = Unit(UnitKind.WORKER, 1, P1)
        s.units[(12, 12)] = Unit(UnitKind.WORKER, 1, P1)

        class RazeBase:
            name = "RazeBase"

            def plan(self, state, player, rng):
                actor, base = ((9, 10), (9, 9)) if player == P1 else ((2, 3), (2, 2))
                return [Action("attack", actor, base)]

        assert check_winner(s) is None
        after = step(s, RazeBase(), RazeBase(), rngs())
        assert all(u.kind != UnitKind.BASE for u in after.units.values())
        assert check_winner(after) == "p1"  # two units left against one

    @pytest.mark.parametrize(
        "orders, phase",
        [
            ([Action("attack", (4, 4), (4, 5))], "attack"),
            ([Action("train", (2, 2), (2, 3))], "train"),
            ([Action("move", (4, 4), (4, 5)), Action("move", (4, 4), (3, 4))], "merge"),
        ],
        ids=["attack-on-empty-cell", "train-without-produce", "second-order-for-a-unit"],
    )
    def test_each_drop_logs_one_line(self, orders, phase, caplog):
        s = empty_state()
        s.units[(4, 4)] = Unit(UnitKind.WORKER, 1, P1)
        s.units[(2, 2)] = Unit(UnitKind.BASE, 10, P1)

        class Scripted:
            name = "Scripted"

            def plan(self, state, player, rng):
                return list(orders) if player == P1 else []

        events = []
        with caplog.at_level(logging.DEBUG, logger="rtslab.sim.engine"):
            step(s, Scripted(), make_strategy("PassiveLite"), rngs(), events=events)
        assert drop_phases(caplog.records) == [phase]
        assert len(events) == len(orders) - 1


class RandomPlans:
    """Seeded random actions, mostly illegal (unknown kinds; foreign,
    neutral, empty and off-map actors; off-map, occupied and distant
    targets), shuffled into a scripted strategy's plan so the match moves."""

    name = "RandomPlans"
    kinds = PHASES + ("teleport", "")
    produce = (*UnitKind, None)

    def __init__(self, scripted: str):
        self.scripted = make_strategy(scripted)
        self.planned = 0

    def plan(self, state, player, rng):
        occupied = sorted(state.units)
        mine = [p for p in occupied if state.units[p].owner == player]
        acts = []
        for _ in range(rng.randrange(12)):
            roll = rng.randrange(4)
            if roll == 0 or not occupied:
                actor = (rng.randrange(20) - 2, rng.randrange(20) - 2)
            elif roll == 1 or not mine:
                actor = rng.choice(occupied)
            else:
                actor = rng.choice(mine)
            roll = rng.randrange(4)
            if roll == 0:
                target = (rng.randrange(20) - 2, rng.randrange(20) - 2)
            elif roll == 1:
                target = rng.choice(occupied) if occupied else None
            else:
                dr, dc = rng.choice(((-1, 0), (0, -1), (0, 1), (1, 0)))
                target = (actor[0] + dr, actor[1] + dc)
            acts.append(
                Action(rng.choice(self.kinds), actor, target, rng.choice(self.produce))
            )
        acts += self.scripted.plan(state, player, rng)
        rng.shuffle(acts)
        self.planned += len(acts)
        return acts


def resources_held(s: GameState) -> int:
    """Node stock + worker cargo + banked store."""
    return sum(u.carried for u in s.units.values()) + s.store[P1] + s.store[P2]


class TestEngineFuzz:
    @pytest.mark.parametrize(
        "seed, scripted",
        [(0, ("WorkerRushLite", "LightRushLite")), (1, ("EconomyRushLite", "RangedRushLite")),
         (2, ("RandomBiasedLite", "HeavyRushLite")), (3, ("LightRushLite", "EconomyRushLite"))],
    )
    def test_invariants_under_random_plans(self, seed, scripted, caplog):
        p1, p2 = (RandomPlans(name) for name in scripted)
        state = standard_start()
        streams = rngs(100 + seed)
        applied: set[str] = set()
        caplog.set_level(logging.DEBUG, logger="rtslab.sim.engine")
        for _ in range(300):
            forked = tuple(SplitMix64(r.state) for r in streams)
            before = state_snapshot(state)
            events = []
            caplog.clear()
            planned = p1.planned + p2.planned
            after = step(state, p1, p2, streams, events=events)
            # every planned action either applies or logs exactly one drop
            planned = p1.planned + p2.planned - planned
            assert planned == len(events) + len(drop_phases(caplog.records))
            assert state_snapshot(state) == before  # the input is not mutated
            twin = step(state, p1, p2, forked)
            assert state_snapshot(twin) == state_snapshot(after)
            for (r, c), u in after.units.items():
                assert 0 <= r < after.height and 0 <= c < after.width
                assert 1 <= u.hp <= MAX_HP[u.kind]
            for player in (P1, P2):
                assert 0 <= after.store[player] <= STORE_CAP
            assert resources_held(after) <= resources_held(state)
            applied.update(act.kind for _, act in events)
            state = after
        assert applied == set(PHASES)


class TestRunMatch:
    def test_worker_rush_beats_passive_across_seeds(self):
        for seed in range(10):
            rec = run_match(
                make_strategy("WorkerRushLite"), make_strategy("PassiveLite"), seed
            )
            assert rec.winner == "p1", f"seed {seed} gave {rec.winner}"
            assert rec.duration < 1000

    def test_passive_mirror_is_draw_at_limit(self):
        rec = run_match(
            make_strategy("PassiveLite"), make_strategy("PassiveLite"), 3
        )
        assert rec.winner == "draw"
        assert rec.duration == 1000

    def test_rerun_byte_identical(self):
        a = run_match(make_strategy("LightRushLite"), make_strategy("WorkerRushLite"), 11)
        b = run_match(make_strategy("LightRushLite"), make_strategy("WorkerRushLite"), 11)
        assert a.winner == b.winner and a.duration == b.duration
        assert len(a.frames) == len(b.frames)
        for (sa, fa), (sb, fb) in zip(a.frames, b.frames):
            assert sa == sb
            assert fa.tobytes() == fb.tobytes()

    def test_frames_strictly_increasing_and_capped(self):
        rec = run_match(
            make_strategy("RandomBiasedLite"), make_strategy("EconomyRushLite"), 5
        )
        steps = [s for s, _ in rec.frames]
        assert steps == sorted(set(steps))
        assert rec.duration <= 1000 and steps[-1] == rec.duration

    def test_unit_conservation(self):
        """Unit counts only rise via paid build/train, only fall via damage
        or resource exhaustion."""
        state = standard_start()
        strat1 = make_strategy("WorkerRushLite")
        strat2 = make_strategy("LightRushLite")
        streams = rngs(17)
        for _ in range(300):
            events = []
            after = step(state, strat1, strat2, streams, events=events)
            for player in (P1, P2):
                n_before = state.count_of(player)
                n_after = after.count_of(player)
                made_p = sum(
                    1 for who, act in events if act.kind in ("build", "train") and who == player
                )
                assert n_after <= n_before + made_p
            if check_winner(after):
                break
            state = after


def counted_steps(monkeypatch) -> list[int]:
    """Patch the engine's `step` to record the step count of each state
    `run_match` plays from."""
    played = []
    real = engine.step

    def counted(state, *args, **kwargs):
        played.append(state.step)
        return real(state, *args, **kwargs)

    monkeypatch.setattr(engine, "step", counted)
    return played


class Idle:
    """Plans nothing and draws nothing: the first step is a fixed point."""

    name = "Idle"

    def plan(self, state, player, rng):
        return []


class Dice:
    """Plans nothing but draws one number a step: the state never changes,
    the rng stream does, so no step is a fixed point."""

    name = "Dice"

    def plan(self, state, player, rng):
        rng.next_u64()
        return []


class Gauss:
    """Moves its workers up when a normal deviate exceeds 1.5. Every other
    step takes the spare of the last Box-Muller pair and draws no u64, so
    only the pending spare tells that step from a fixed point."""

    name = "Gauss"

    def plan(self, state, player, rng):
        if rng.normal() <= 1.5:
            return []
        return [Action("move", pos, (pos[0] - 1, pos[1]))
                for pos, u in state.units_of(player) if u.kind == UnitKind.WORKER]


def assert_same_record(ours: MatchRecord, ref: MatchRecord):
    assert (ours.winner, ours.duration) == (ref.winner, ref.duration)
    assert [k for k, _ in ours.frames] == [k for k, _ in ref.frames]
    for (_, a), (_, b) in zip(ours.frames, ref.frames):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFixedPoint:
    """`run_match` stops stepping a match whose state and rng streams a
    step left unchanged; the record is the one every step would give."""

    # 7 does not divide 120, so the last frame is the terminal-state rule's
    @pytest.mark.parametrize("capture_every", [2, 7])
    def test_every_pair_matches_the_every_step_loop(self, capture_every, monkeypatch):
        played = counted_steps(monkeypatch)
        for i, (a, b) in enumerate(itertools.product(DEFAULT_ROSTER, repeat=2)):
            played.clear()
            ours = run_match(make_strategy(a), make_strategy(b), 40 + i,
                             max_steps=120, capture_every=capture_every)
            assert_same_record(ours, oracle_run_match(
                make_strategy(a), make_strategy(b), 40 + i, 120, capture_every))
            if {a, b} == {"PassiveLite", "EconomyRushLite"}:
                # EconomyRushLite's workers block each other within a few steps
                assert ours.duration == 120 and len(played) < 20, (a, b)
            elif "RandomBiasedLite" in (a, b):  # it draws every step
                assert played == list(range(ours.duration)), (a, b)

    @pytest.mark.parametrize("capture_every", [2, 7])
    def test_idle_side_fast_forwards_after_one_step(self, capture_every, monkeypatch):
        played = counted_steps(monkeypatch)
        passive = make_strategy("PassiveLite")
        ours = run_match(Idle(), passive, 3, max_steps=120, capture_every=capture_every)
        assert played == [0]
        assert_same_record(ours, oracle_run_match(Idle(), passive, 3, 120, capture_every))
        assert ours.winner == "draw"

    def test_drawing_side_plays_every_step(self, monkeypatch):
        played = counted_steps(monkeypatch)
        passive = make_strategy("PassiveLite")
        ours = run_match(Dice(), passive, 3, max_steps=120, capture_every=7)
        assert played == list(range(120))
        assert_same_record(ours, oracle_run_match(Dice(), passive, 3, 120, 7))

    @pytest.mark.parametrize("seed", range(4))
    def test_taking_a_pending_spare_is_not_a_fixed_point(self, seed, monkeypatch):
        played = counted_steps(monkeypatch)
        passive = make_strategy("PassiveLite")
        ours = run_match(Gauss(), passive, seed, max_steps=200, capture_every=2)
        assert played == list(range(ours.duration))
        assert_same_record(ours, oracle_run_match(Gauss(), passive, seed, 200, 2))

    def test_tail_frames_share_one_read_only_array(self):
        rec = run_match(Idle(), make_strategy("PassiveLite"), 3, max_steps=120)
        tail = [planes for k, planes in rec.frames if k > 1]
        assert len(tail) == 60 and all(planes is tail[0] for planes in tail)
        assert not tail[0].flags.writeable
        with pytest.raises(ValueError):
            tail[0][0, 0, 0] = 1


class TestUnitIndexSharing:
    """Both plans of a step share the pre-step state's unit index."""

    def test_one_index_per_step(self, monkeypatch):
        builds = []

        class CountedIndex(strategies._UnitIndex):
            def __init__(self, state):
                builds.append(state.step)
                super().__init__(state)

        monkeypatch.setattr(strategies, "_UnitIndex", CountedIndex)
        rec = run_match(
            make_strategy("RandomBiasedLite"), make_strategy("EconomyRushLite"), 5,
            max_steps=300,
        )
        assert builds == list(range(rec.duration))

    def test_stepped_state_starts_without_an_index(self):
        s = standard_start()
        assert s.unit_index is None
        after = step(s, make_strategy("RandomBiasedLite"), make_strategy("WorkerRushLite"),
                     rngs())
        assert s.unit_index is not None
        assert after.unit_index is None and after.clone().unit_index is None
        assert s.clone().unit_index is None and s.clone() == s


class TestEncode:
    def test_empty_map_all_zero(self):
        raw = raw_planes(empty_state())
        assert raw.dtype == np.uint8 and raw.shape == (5, 16, 16)
        assert np.array_equal(raw, oracle_raw_planes(empty_state()))
        planes = normalize_planes(raw)
        assert planes.shape == (5, 16, 16)
        assert np.all(planes == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_raw_planes_match_per_unit_reference(self, seed):
        # non-square maps; every kind carries random cargo, which only
        # resources and workers paint, and each side has a random store
        rng = SplitMix64(700 + seed)
        h, w = 4 + rng.randrange(9), 4 + rng.randrange(9)
        s = GameState(h, w, {}, {P1: rng.randrange(26), P2: rng.randrange(26)})
        kinds = list(UnitKind)
        for _ in range(rng.randrange(h * w)):
            kind = rng.choice(kinds)
            owner = NEUTRAL if kind == UnitKind.RESOURCE else rng.randrange(2) + 1
            s.units[(rng.randrange(h), rng.randrange(w))] = Unit(
                kind, rng.randrange(MAX_HP[kind] + 1), owner, rng.randrange(26)
            )
        raw = raw_planes(s)
        assert raw.dtype == np.uint8 and raw.shape == (5, h, w)
        assert np.array_equal(raw, oracle_raw_planes(s))

    def test_single_worker_plane_values(self):
        s = empty_state()
        s.units[(3, 4)] = Unit(UnitKind.WORKER, 1, P1)
        planes = normalize_planes(raw_planes(s))
        assert planes[PLANE_TYPE, 3, 4] == pytest.approx(4 / 7)
        assert planes[PLANE_HEALTH, 3, 4] == pytest.approx(1 / 10)
        assert planes[PLANE_FACTION, 3, 4] == pytest.approx(1 / 2)
        mask = np.ones((5, 16, 16), dtype=bool)
        mask[:, 3, 4] = False
        assert np.all(planes[mask] == 0.0)

    def test_full_resource_node_hits_range_endpoint(self):
        s = empty_state()
        s.units[(0, 0)] = Unit(UnitKind.RESOURCE, 1, 0, carried=25)
        planes = normalize_planes(raw_planes(s))
        assert planes[PLANE_NEUTRAL_RES, 0, 0] == 1.0

    def test_worker_cargo_counts_as_neutral(self):
        s = empty_state()
        s.units[(2, 2)] = Unit(UnitKind.WORKER, 1, P2, carried=3)
        raw = raw_planes(s)
        assert raw[PLANE_NEUTRAL_RES, 2, 2] == 3

    def test_store_painted_on_owned_cells(self):
        s = empty_state()
        s.store[P1] = 7
        s.units[(1, 1)] = Unit(UnitKind.BASE, 10, P1)
        s.units[(1, 2)] = Unit(UnitKind.WORKER, 1, P1)
        raw = raw_planes(s)
        assert raw[PLANE_FACTION_RES, 1, 1] == 7
        assert raw[PLANE_FACTION_RES, 1, 2] == 7

    def test_round_trip_recovers_units_exactly(self):
        rec = run_match(make_strategy("LightRushLite"), make_strategy("EconomyRushLite"), 9)
        # replay a few frames through encode->decode
        for _, raw in rec.frames[::10]:
            back = decode_planes(raw)
            again = raw_planes(back)
            assert np.array_equal(raw, again)

    def test_decode_of_encoded_state(self):
        s = standard_start()
        back = decode_planes(raw_planes(s))
        assert sorted(back.units.items()) == sorted(s.units.items())
        assert back.store == s.store

    @pytest.mark.parametrize("seed", range(20))
    def test_decode_matches_per_cell_reference(self, seed):
        # about half the cells hold a random legal unit (resources neutral,
        # cargo only on resources and workers, one store per player on each
        # of its cells), the rest are zero in every plane; the unit dict
        # must match the per-cell decode in order
        rng = SplitMix64(500 + seed)
        h, w = 4 + rng.randrange(9), 4 + rng.randrange(9)
        stores = (0, rng.randrange(26), rng.randrange(26))
        raw = np.zeros((5, h, w), dtype=np.uint8)
        for r in range(h):
            for c in range(w):
                if not rng.randrange(2):
                    continue
                kind = UnitKind(rng.randrange(7) + 1)
                owner = NEUTRAL if kind == UnitKind.RESOURCE else rng.randrange(2) + 1
                carried = rng.randrange(26) if kind in (UnitKind.RESOURCE, UnitKind.WORKER) else 0
                hp = rng.randrange(MAX_HP[kind] + 1)
                raw[:, r, c] = (kind, hp, owner, carried, stores[owner])
        back = decode_planes(raw)
        ref = oracle_decode_planes(raw)
        assert list(back.units.items()) == list(ref.units.items())
        assert back.store == ref.store
        assert (back.height, back.width, back.step) == (ref.height, ref.width, 0)

    # each edit of the opening's planes is a frame no state encodes to;
    # the error names the first cell, row-major, that differs
    @pytest.mark.parametrize("plane,cell,value,named", [
        (PLANE_FACTION, (0, 0), P1, (0, 0)),  # an owned resource node
        (PLANE_NEUTRAL_RES, (2, 2), 7, (2, 2)),  # cargo on a base
        (PLANE_FACTION_RES, (3, 3), 9, (2, 2)),  # P1's worker paints 9, its base 5
        (PLANE_FACTION_RES, (5, 5), 3, (5, 5)),  # a store on an empty cell
    ], ids=["owned-resource", "cargo-on-base", "two-stores", "store-on-empty-cell"])
    def test_decode_rejects_planes_no_state_encodes_to(self, plane, cell, value, named):
        raw = raw_planes(standard_start())
        raw[(plane, *cell)] = value
        with pytest.raises(ValueError, match=re.escape(f"cell {named}:")):
            decode_planes(raw)

    def test_every_plane_limit_is_reached(self):
        # every kind at full hp on both sides, a full node, both stores full
        s = empty_state(store=STORE_CAP)
        for col, kind in enumerate(UnitKind):
            for row, owner in ((0, P1), (1, P2)):
                if kind == UnitKind.RESOURCE:
                    owner = NEUTRAL
                s.units[(row, col)] = Unit(kind, MAX_HP[kind], owner,
                                           RESOURCE_STOCK if kind == UnitKind.RESOURCE else 0)
        raw = raw_planes(s)
        assert np.array_equal(raw.max(axis=(1, 2)), PLANE_MAX[:, 0, 0])
        at_limit = raw == PLANE_MAX
        assert at_limit.any(axis=(1, 2)).all()
        assert np.all(normalize_planes(raw)[at_limit] == 1.0)
        back = decode_planes(raw)
        assert sorted(back.units.items()) == sorted(s.units.items()) and back.store == s.store
        assert np.array_equal(raw_planes(back), raw)

    def test_all_values_normalized(self):
        rec = run_match(make_strategy("RandomBiasedLite"), make_strategy("WorkerRushLite"), 4)
        for _, raw in rec.frames:
            planes = normalize_planes(raw)
            assert planes.min() >= 0.0 and planes.max() <= 1.0


def synthetic_record(n_frames: int, duration: int) -> MatchRecord:
    frames = []
    for i in range(n_frames):
        planes = np.zeros((5, 4, 4), dtype=np.uint8)
        planes[PLANE_HEALTH, 0, 0] = i  # tag each frame with its index
        step_index = round((i + 1) * duration / n_frames)
        frames.append((step_index, planes))
    return MatchRecord("A", "B", 0, "p1", duration, frames)


class TestSampleTimeline:
    def test_identity_selection(self):
        rec = synthetic_record(6, 12)
        out = sample_timeline(visible_prefix(rec, 1.0), 6)
        assert list(out[:, PLANE_HEALTH, 0, 0]) == [0, 1, 2, 3, 4, 5]

    def test_single_frame_takes_prefix_end(self):
        rec = synthetic_record(6, 12)
        out = sample_timeline(visible_prefix(rec, 1.0), 1)
        assert out[0, PLANE_HEALTH, 0, 0] == 5
        half = sample_timeline(visible_prefix(rec, 0.5), 1)
        assert half[0, PLANE_HEALTH, 0, 0] == 2  # frames at steps 2..12
        # rho = 0.5 of 12 steps is the cut at step 6
        assert sample_timeline(frames_until(rec, 6), 1).tobytes() == half.tobytes()

    def test_ten_frames_to_five_uses_half_up_rounding(self):
        rec = synthetic_record(10, 10)
        out = sample_timeline(visible_prefix(rec, 1.0), 5)
        assert list(out[:, PLANE_HEALTH, 0, 0]) == [0, 2, 5, 7, 9]

    def test_short_prefix_repeats(self):
        rec = synthetic_record(2, 10)
        out = sample_timeline(visible_prefix(rec, 1.0), 4)
        assert list(out[:, PLANE_HEALTH, 0, 0]) == [0, 0, 1, 1]
        assert out.shape == (4, 5, 4, 4) and out.dtype == np.uint8

    def test_contract_errors(self):
        rec = synthetic_record(3, 6)
        with pytest.raises(ValueError, match="frame_count"):
            sample_timeline(visible_prefix(rec, 1.0), 0)
        with pytest.raises(ValueError, match="progress"):
            visible_prefix(rec, 0.0)
        with pytest.raises(ValueError, match="progress"):
            visible_prefix(rec, 1.5)
        with pytest.raises(ValueError, match="no frames"):
            frames_until(MatchRecord("A", "B", 0, "p1", 6, []), 6)

    def test_tiny_progress_still_yields_a_frame(self):
        rec = synthetic_record(5, 100)  # the first frame is at step 20
        out = sample_timeline(visible_prefix(rec, 0.001), 3)
        assert out.shape[0] == 3
        for cut in (visible_prefix(rec, 0.001), frames_until(rec, 0)):
            assert len(cut) == 1 and cut[0] is rec.frames[0]

    def test_a_step_cut_does_not_read_the_duration(self):
        # two records that share their frames up to step 6 but differ in
        # duration: one clip at the step cut, two at one fraction
        short = synthetic_record(4, 8)  # frames at steps 2, 4, 6, 8
        tail = short.frames[3][1]
        later = [(20, tail + 4), (40, tail + 6)]
        long = MatchRecord("A", "B", 0, "p1", 40, short.frames[:3] + later)
        clip = sample_timeline(frames_until(short, 6), 4)
        assert sample_timeline(frames_until(long, 6), 4).tobytes() == clip.tobytes()
        assert list(clip[:, PLANE_HEALTH, 0, 0]) == [0, 1, 1, 2]
        at_half = [sample_timeline(visible_prefix(r, 0.5), 4) for r in (short, long)]
        assert at_half[0].tobytes() != at_half[1].tobytes()
