"""Grid-war game state: units on a square map plus per-player stores."""

from __future__ import annotations

from dataclasses import dataclass, field

from .rules import CARRY_CAPACITY, MAX_HP, NEUTRAL, P1, P2, RESOURCE_STOCK, STARTING_STORE, UnitKind

Position = tuple[int, int]  # (row, col)
MAX_CARRIED = max(RESOURCE_STOCK, CARRY_CAPACITY)  # a node's stock or a worker's cargo


@dataclass(frozen=True)
class Unit:
    """One occupant of a cell.

    `carried` is the unit's held resources: cargo for a worker, remaining
    stock for a resource node. Resource nodes are always neutral.
    """

    kind: UnitKind
    hp: int
    owner: int  # NEUTRAL, P1 or P2
    carried: int = 0

    def __post_init__(self):
        if not 0 <= self.hp <= MAX_HP[self.kind]:
            raise ValueError(f"{self.kind.name} hp {self.hp} outside 0..{MAX_HP[self.kind]}")
        if self.kind == UnitKind.RESOURCE and self.owner != NEUTRAL:
            raise ValueError("resource nodes must be neutral")
        if self.kind != UnitKind.RESOURCE and self.owner not in (P1, P2):
            raise ValueError(f"{self.kind.name} must belong to a player")
        if not 0 <= self.carried <= MAX_CARRIED:
            raise ValueError(f"carried {self.carried} outside 0..{MAX_CARRIED}")


@dataclass
class GameState:
    """Sparse map of occupied cells; at most one unit per cell by construction.

    `unit_index` is the scripted strategies' view of the units
    (`strategies._UnitIndex`), built by the first plan() on this state and
    shared by every later one. A state is therefore not mutated once it has
    been planned on: the engine plans on the pre-step state and applies the
    step to a clone, which starts without an index.
    """

    height: int
    width: int
    units: dict[Position, Unit]
    store: dict[int, int]
    step: int = 0
    unit_index: object = field(default=None, init=False, compare=False, repr=False)

    def clone(self) -> "GameState":
        return GameState(
            height=self.height,
            width=self.width,
            units=dict(self.units),  # Units are frozen; sharing them is safe
            store=dict(self.store),
            step=self.step,
        )

    def in_bounds(self, pos: Position) -> bool:
        return 0 <= pos[0] < self.height and 0 <= pos[1] < self.width

    def units_of(self, player: int) -> list[tuple[Position, Unit]]:
        """Player's units in row-major order (the canonical iteration order)."""
        return sorted(
            ((p, u) for p, u in self.units.items() if u.owner == player),
            key=lambda item: item[0],
        )

    def count_of(self, player: int) -> int:
        return sum(1 for u in self.units.values() if u.owner == player)


# The smallest map on which standard_start's cells and their mirror images
# are distinct and in bounds: player 1's worker at (3, 3) must sit above
# and left of player 2's at (size - 4, size - 4).
MIN_MAP_SIZE = 8


def standard_start(size: int = 16) -> GameState:
    """Mirror-symmetric opening: one base and worker per side, corner resources."""
    if size < MIN_MAP_SIZE:
        raise ValueError(f"map size must be >= {MIN_MAP_SIZE}, got {size}")
    h = w = size
    units: dict[Position, Unit] = {}

    def place(pos: Position, kind: UnitKind, owner: int, carried: int = 0):
        units[pos] = Unit(kind=kind, hp=MAX_HP[kind], owner=owner, carried=carried)

    def mirror(pos: Position) -> Position:
        return (h - 1 - pos[0], w - 1 - pos[1])

    for pos in ((0, 0), (0, 1)):
        place(pos, UnitKind.RESOURCE, NEUTRAL, carried=RESOURCE_STOCK)
        place(mirror(pos), UnitKind.RESOURCE, NEUTRAL, carried=RESOURCE_STOCK)
    place((2, 2), UnitKind.BASE, P1)
    place(mirror((2, 2)), UnitKind.BASE, P2)
    place((3, 3), UnitKind.WORKER, P1)
    place(mirror((3, 3)), UnitKind.WORKER, P2)

    return GameState(
        height=h,
        width=w,
        units=units,
        store={P1: STARTING_STORE, P2: STARTING_STORE},
    )


def manhattan(a: Position, b: Position) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])
