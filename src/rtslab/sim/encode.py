"""Feature-plane encoding of game states.

A state maps to 5 planes of H x W values:

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

from .rules import NEUTRAL, P1, P2, RESOURCE, WORKER, UnitKind
from .state import GameState, Unit

PLANE_TYPE = 0
PLANE_HEALTH = 1
PLANE_FACTION = 2
PLANE_NEUTRAL_RES = 3
PLANE_FACTION_RES = 4
CHANNELS = 5

# each plane's raw values lie in 0..PLANE_MAX; normalization divides by it
PLANE_MAX = np.array([7, 10, 2, 25, 25]).reshape(CHANNELS, 1, 1)


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
    """Rebuild a GameState from integer planes (uint8 from `raw_planes`
    and `read_dataset`).

    Exact inverse for kind/hp/owner/carried of every occupied cell. Player
    stores are recovered from any owned cell (0 if a player has no units);
    the step counter is not part of the encoding and comes back as 0.
    """
    _, h, w = raw.shape
    units: dict[tuple[int, int], Unit] = {}
    store = {P1: 0, P2: 0}
    rows, cols = np.nonzero(raw[PLANE_TYPE])  # occupied cells, row-major
    cells = raw[:, rows, cols].T.tolist()
    for r, c, (kind_val, hp, owner, carried, owner_store) in zip(
        rows.tolist(), cols.tolist(), cells
    ):
        kind = UnitKind(kind_val)
        units[(r, c)] = Unit(
            kind=kind,
            hp=hp,
            owner=owner if kind != UnitKind.RESOURCE else NEUTRAL,
            carried=carried if kind in (UnitKind.RESOURCE, UnitKind.WORKER) else 0,
        )
        if owner in (P1, P2):
            store[owner] = owner_store
    return GameState(height=h, width=w, units=units, store=store, step=0)
