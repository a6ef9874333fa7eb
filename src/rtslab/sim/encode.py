"""Feature-plane encoding of game states.

A state maps to 5 planes of H x W values, each limit read from `rules.py`:

    plane 0  unit type        raw 0..7   normalized /7
    plane 1  health           raw 0..10  normalized /10
    plane 2  faction          raw 0..2   normalized /2
    plane 3  neutral resources raw 0..25 normalized /25
             (node stock, and cargo in worker transport counts as neutral)
    plane 4  faction resources raw 0..25 normalized /25
             (owner's accumulated store, painted on every owned cell)

Empty cells are 0 in every plane. Planes hold one scalar per cell rather
than per-value one-hot layers: the model's feature attention needs exactly
C=5 channel groups, so the compact integer encoding is the one used
throughout.
"""

from __future__ import annotations

import numpy as np

from .rules import MAX_HP, P1, P2, RESOURCE, STORE_CAP, WORKER, UnitKind
from .state import MAX_CARRIED, GameState, Unit

PLANE_TYPE = 0
PLANE_HEALTH = 1
PLANE_FACTION = 2
PLANE_NEUTRAL_RES = 3
PLANE_FACTION_RES = 4
CHANNELS = 5

# each plane's raw values lie in 0..PLANE_MAX; normalization divides by it
PLANE_MAX = np.array([max(UnitKind), max(MAX_HP.values()), P2, MAX_CARRIED, STORE_CAP])[:, None, None]


def raw_planes(state: GameState) -> np.ndarray:
    """uint8 planes, the serialization form of a frame.

    Each unit writes its cell of the five planes straight into one zeroed
    byte buffer; a value outside 0..255 raises ValueError. The result is a
    copy that owns its bytes, so a kept frame holds no second object.
    """
    h, w = state.height, state.width
    area = h * w
    buf = bytearray(CHANNELS * area)
    stores = (0, state.store[P1], state.store[P2])  # painted by owner; neutral 0
    for (r, c), u in state.units.items():
        i = r * w + c
        kind = u.kind
        buf[PLANE_TYPE * area + i] = kind
        buf[PLANE_HEALTH * area + i] = u.hp
        buf[PLANE_FACTION * area + i] = u.owner
        if kind is RESOURCE or kind is WORKER:
            buf[PLANE_NEUTRAL_RES * area + i] = u.carried
        buf[PLANE_FACTION_RES * area + i] = stores[u.owner]
    return np.ndarray((CHANNELS, h, w), np.uint8, buf).copy()


def normalize_planes(raw: np.ndarray) -> np.ndarray:
    return raw.astype(np.float64) / PLANE_MAX


def decode_planes(raw: np.ndarray) -> GameState:
    """The exact inverse of `raw_planes`, on integer planes (uint8 from
    `raw_planes` and `read_dataset`); the step is not encoded and comes
    back as 0. Planes no legal state encodes to (an illegal unit, cargo on
    a unit that carries none, two stores for one player, a nonzero plane on
    an empty cell) raise ValueError naming the first such cell, row-major.
    """
    _, h, w = raw.shape
    units: dict[tuple[int, int], Unit] = {}
    store = {P1: 0, P2: 0}
    rows, cols = np.nonzero(raw[PLANE_TYPE])  # occupied cells, row-major
    cells = raw[:, rows, cols].T.tolist()
    for r, c, (kind_val, hp, owner, carried, owner_store) in zip(
        rows.tolist(), cols.tolist(), cells
    ):
        try:
            units[(r, c)] = Unit(kind=UnitKind(kind_val), hp=hp, owner=owner, carried=carried)
        except ValueError as exc:
            raise ValueError(f"cell ({r}, {c}): {exc}") from None
        if owner in (P1, P2):
            store[owner] = owner_store
    state = GameState(height=h, width=w, units=units, store=store, step=0)
    again = raw_planes(state)
    if not np.array_equal(again, raw):
        r, c = np.argwhere((again != raw).any(axis=0))[0].tolist()
        raise ValueError(f"cell ({r}, {c}): no legal state encodes to planes {raw[:, r, c].tolist()}")
    return state
