"""Unit roster and the combat/economy rule table.

Unit kinds and hit points follow the fixed encoding (types 1..7, hp 0..10).
Everything else — costs, damage, attack range, harvest rates — exists to
make matches decidable. That rule table is the module constants below
(COST through RESOURCE_STOCK), one fixed set that every match plays under.
Distances are Manhattan; movement is 4-directional, one cell per step.
"""

from __future__ import annotations

from enum import IntEnum

NEUTRAL = 0
P1 = 1
P2 = 2


class UnitKind(IntEnum):
    BASE = 1
    BARRACKS = 2
    RESOURCE = 3
    WORKER = 4
    LIGHT = 5
    HEAVY = 6
    RANGED = 7


# The members as module constants for per-unit loops: a global name is
# cheaper than an enum class attribute, and members compare with `is`.
BASE, BARRACKS, RESOURCE, WORKER, LIGHT, HEAVY, RANGED = UnitKind

MAX_HP: dict[UnitKind, int] = {
    UnitKind.BASE: 10,
    UnitKind.BARRACKS: 4,
    UnitKind.RESOURCE: 1,
    UnitKind.WORKER: 1,
    UnitKind.LIGHT: 4,
    UnitKind.HEAVY: 8,
    UnitKind.RANGED: 1,
}

COMBAT_KINDS = (UnitKind.WORKER, UnitKind.LIGHT, UnitKind.HEAVY, UnitKind.RANGED)
MOBILE_KINDS = COMBAT_KINDS
TRAINABLE_AT_BARRACKS = (UnitKind.LIGHT, UnitKind.HEAVY, UnitKind.RANGED)


COST: dict[UnitKind, int] = {
    UnitKind.WORKER: 1,
    UnitKind.LIGHT: 2,
    UnitKind.HEAVY: 3,
    UnitKind.RANGED: 2,
    UnitKind.BARRACKS: 4,
}
DAMAGE: dict[UnitKind, int] = {
    UnitKind.WORKER: 1,
    UnitKind.LIGHT: 2,
    UnitKind.HEAVY: 4,
    UnitKind.RANGED: 1,
}
ATTACK_RANGE: dict[UnitKind, int] = {
    UnitKind.WORKER: 1,
    UnitKind.LIGHT: 1,
    UnitKind.HEAVY: 1,
    UnitKind.RANGED: 3,
}
HARVEST_AMOUNT = 1
CARRY_CAPACITY = 1
STORE_CAP = 25
STARTING_STORE = 5
RESOURCE_STOCK = 25
