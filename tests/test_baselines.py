"""Classical evaluator correctness against hand values and an independent oracle."""

import numpy as np
import pytest

from oracles import empty_state, oracle_lanchester, oracle_simple, random_small_state

from rtslab.baselines import BASE_WEIGHT, lanchester_eval, simple_eval, winner_by_score
from rtslab.rng import SplitMix64
from rtslab.sim import UnitKind, standard_start
from rtslab.sim.rules import MAX_HP, P1, P2
from rtslab.sim.state import Unit


class TestSimpleEval:
    def test_empty_is_zero(self):
        assert simple_eval(empty_state(), P1) == 0.0

    def test_hand_computed_example(self):
        s = empty_state()
        s.store[P1] = 2
        s.units[(4, 4)] = Unit(UnitKind.WORKER, 1, P1, carried=3)
        # 20*2 + 10*3 + 40*1*(1/1) = 110
        assert simple_eval(s, P1) == pytest.approx(110.0, abs=1e-12)

    def test_mirror_symmetry(self):
        s = standard_start()
        assert simple_eval(s, P1) == simple_eval(s, P2)
        assert lanchester_eval(s, P1) == lanchester_eval(s, P2)


class TestLanchesterEval:
    def test_no_combat_units_no_combat_term(self):
        s = empty_state()
        s.units[(1, 1)] = Unit(UnitKind.BASE, 10, P1)
        expect = BASE_WEIGHT  # full-health base only
        assert lanchester_eval(s, P1) == pytest.approx(expect, abs=1e-12)

    def test_single_light_unit(self):
        s = empty_state()
        s.units[(1, 1)] = Unit(UnitKind.LIGHT, MAX_HP[UnitKind.LIGHT], P1)
        # alpha_light * 1 * 1^0.7 = 4
        assert lanchester_eval(s, P1) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_duplication_law(self, k):
        def army(n: int) -> float:
            s = empty_state()
            for i in range(n):
                s.units[(i // 8, i % 8)] = Unit(UnitKind.HEAVY, MAX_HP[UnitKind.HEAVY], P1)
            return lanchester_eval(s, P1)

        assert army(2 * k) == pytest.approx(army(k) * 2 ** 1.7, abs=1e-9)

    def test_mixed_army_strength_coefficients_inside_sum(self):
        s = empty_state()
        s.units[(0, 0)] = Unit(UnitKind.LIGHT, 4, P1)
        s.units[(0, 1)] = Unit(UnitKind.HEAVY, 4, P1)  # half health
        expect = (4.0 * 1.0 + 8.0 * 0.5) * 2 ** 0.7
        assert lanchester_eval(s, P1) == pytest.approx(expect, abs=1e-12)


def verdict(state, evaluator) -> str:
    return winner_by_score(evaluator(state, P1), evaluator(state, P2))


class TestPredictWinner:
    def test_symmetric_state_is_tie(self):
        s = standard_start()
        assert verdict(s, simple_eval) == "tie"
        assert verdict(s, lanchester_eval) == "tie"

    def test_strict_dominance(self):
        s = standard_start()
        s.store[P1] += 3
        s.units[(5, 5)] = Unit(UnitKind.LIGHT, 4, P1)
        assert verdict(s, simple_eval) == "p1"
        assert verdict(s, lanchester_eval) == "p1"

    def test_matches_independent_oracle_on_random_states(self):
        rng = SplitMix64(99)
        for _ in range(300):
            s = random_small_state(rng)
            for player in (P1, P2):
                assert simple_eval(s, player) == oracle_simple(s, player)
                assert lanchester_eval(s, player) == oracle_lanchester(s, player)


class TestProperties:
    def test_adding_units_monotone(self):
        rng = SplitMix64(5)
        for _ in range(50):
            s = random_small_state(rng)
            before_s = simple_eval(s, P1)
            before_l = lanchester_eval(s, P1)
            spot = next(
                (r, c) for r in range(8) for c in range(8) if (r, c) not in s.units
            )
            s.units[spot] = Unit(UnitKind.HEAVY, MAX_HP[UnitKind.HEAVY], P1)
            assert simple_eval(s, P1) >= before_s
            assert lanchester_eval(s, P1) >= before_l
            s.store[P1] = min(25, s.store[P1] + 1)
            assert simple_eval(s, P1) >= before_s

    def test_pure_functions_do_not_mutate(self):
        s = standard_start()
        snapshot = (dict(s.units), dict(s.store), s.step)
        simple_eval(s, P1)
        lanchester_eval(s, P2)
        verdict(s, simple_eval)
        assert (s.units, s.store, s.step) == snapshot
