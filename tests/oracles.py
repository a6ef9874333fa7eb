"""Independent re-implementations used as test oracles, and the helpers
only tests use.

The oracles deliberately re-derive each formula from scratch instead of
calling the library code they check. Accumulation runs in the same
row-major order as the library so exact float equality is meaningful.

`OracleSplitMix64` is the generator drawn one value at a time with Python
ints, the oracle of the block-computed `rtslab.rng.SplitMix64`.

The helpers are code no command runs: the elementwise product, mean and
softmax tape ops and the central-difference gradient check that the
tensor tests compose, the empty-board state and the toy label of
criterion 03.
"""

import json
import math
import re
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from rtslab import tensor as T
from rtslab.baselines import (
    BARRACKS_WEIGHT,
    BASE_WEIGHT,
    CARGO_WEIGHT,
    COMBAT_STRENGTH,
    CONCENTRATION_EXPONENT,
    RESOURCE_WEIGHT,
    UNIT_WEIGHT,
)
from rtslab.rng import SplitMix64, derive_seed
from rtslab.sim import UnitKind
from rtslab.sim.dataset import _INT64_MAX, _NOT_LAYOUT, _check_match, _match_pieces
from rtslab.sim.engine import Action, MatchRecord, check_winner, step
from rtslab.sim.encode import CHANNELS, PLANE_FACTION
from rtslab.sim.rules import ATTACK_RANGE, COST, MAX_HP, P1, P2, TRAINABLE_AT_BARRACKS
from rtslab.sim.state import GameState, Unit, manhattan, standard_start
from rtslab.sim.strategies import (
    _attack_or_advance,
    _free_neighbors,
    _nearest,
    _train_action,
    _UnitIndex,
)
from rtslab.tensor import Tape, Tensor, _result, _softmax, _sum_to_shape

COMBAT = (UnitKind.WORKER, UnitKind.LIGHT, UnitKind.HEAVY, UnitKind.RANGED)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class OracleSplitMix64:
    """SplitMix64 one draw at a time, the state kept as a Python int."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare_normal = None

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return mean + std * z
        u1 = self.uniform()
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mean + std * r * math.cos(2.0 * math.pi * u2)


def oracle_derive_seed(root: int, *parts: int) -> int:
    h = root & _MASK64
    for p in parts:
        h = OracleSplitMix64((h ^ ((p + _GAMMA) & _MASK64)) & _MASK64).next_u64()
    return h


# ---------------------------------------------------------------------------
# helpers only tests use


def empty_state(size: int = 16, store: int = 0) -> GameState:
    return GameState(height=size, width=size, units={}, store={P1: store, P2: store})


def surviving_units_label(record: MatchRecord) -> int | None:
    """Relabel by the final frame's unit count: 1 if p1 has more cells
    occupied than p2, 0 if fewer, None on a tie. Makes a toy dataset whose
    label is a function of the visible input."""
    faction = record.frames[-1][1][PLANE_FACTION]
    n1 = int((faction == 1).sum())
    n2 = int((faction == 2).sum())
    if n1 == n2:
        return None
    return 1 if n1 > n2 else 0


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def mul(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_sum_to_shape(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_sum_to_shape(g * a.data, b.shape))

    return _result(data, (a, b), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else a.shape[axis]

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a.accumulate_grad(np.full(a.shape, float(g.reshape(())) / count))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(gg, a.shape) / count)

    return _result(np.asarray(data), (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`, max-subtracted before exponentiation."""
    if not -a.ndim <= axis < a.ndim:
        raise ValueError(f"softmax axis {axis} out of range for shape {a.shape}")
    data = _softmax(a.data, axis)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            a.accumulate_grad((g - dot) * data)

    return _result(data, (a,), backward)


@dataclass
class GradCheckResult:
    """Outcome of a central-difference check over a parameter set."""

    passed: bool
    tol: float
    h: float
    checked: int
    worst_rel_err: float
    worst_param: str
    worst_index: int
    failures: list[tuple[str, int, float]] = field(default_factory=list)

    def summary(self) -> str:
        status = "OK" if self.passed else "FAIL"
        return (
            f"grad_check {status}: {self.checked} components, worst rel err "
            f"{self.worst_rel_err:.3e} at {self.worst_param}[{self.worst_index}] "
            f"(tol {self.tol:g})"
        )


def grad_check(f, params: dict[str, Tensor], h: float = 1e-5, tol: float = 1e-4) -> GradCheckResult:
    """Compare tape gradients of `f()` against central differences.

    `f` must return a scalar Tensor computed from the current values of
    `params`. Each component is perturbed in place by ±h (and restored);
    relative error is |analytic - numeric| / max(1, |analytic|).
    """
    with Tape() as tape:
        out = f()
        if not isinstance(out, Tensor) or out.data.size != 1:
            raise ValueError("grad_check requires f() to return a scalar Tensor")
        tape.backward(out)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    def eval_scalar() -> float:
        return float(f().data.reshape(()))

    worst = (0.0, "", -1)
    failures: list[tuple[str, int, float]] = []
    checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = eval_scalar()
            flat[i] = orig - h
            down = eval_scalar()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = grad_flat[i]
            rel = abs(a - numeric) / max(1.0, abs(a))
            checked += 1
            if rel > worst[0]:
                worst = (rel, name, i)
            if rel > tol:
                failures.append((name, i, rel))
    return GradCheckResult(
        passed=not failures,
        tol=tol,
        h=h,
        checked=checked,
        worst_rel_err=worst[0],
        worst_param=worst[1],
        worst_index=worst[2],
        failures=failures,
    )


# ---------------------------------------------------------------------------
# oracles


def oracle_simple(state: GameState, player: int) -> float:
    total = RESOURCE_WEIGHT * state.store[player]
    for pos in sorted(state.units):
        u = state.units[pos]
        if u.owner != player:
            continue
        if u.kind == UnitKind.WORKER:
            total += CARGO_WEIGHT * u.carried
        total += UNIT_WEIGHT * COST.get(u.kind, 0) * (u.hp / MAX_HP[u.kind])
    return total


def oracle_lanchester(state: GameState, player: int) -> float:
    total = RESOURCE_WEIGHT * state.store[player]
    army = 0.0
    n = 0
    for pos in sorted(state.units):
        u = state.units[pos]
        if u.owner != player:
            continue
        frac = u.hp / MAX_HP[u.kind]
        if u.kind == UnitKind.WORKER:
            total += CARGO_WEIGHT * u.carried
        if u.kind == UnitKind.BASE:
            total += BASE_WEIGHT * frac
        elif u.kind == UnitKind.BARRACKS:
            total += BARRACKS_WEIGHT * frac
        elif u.kind in COMBAT:
            army += COMBAT_STRENGTH[u.kind] * frac
            n += 1
    return total + army * n ** CONCENTRATION_EXPONENT


_ATTENTION_PARAMS = ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")

# every parameter name, with any `layers.{l}.` prefix removed, and its group
PARAM_GROUPS = {
    "embed.weight": "embedding",
    "embed.bias": "embedding",
    "pos": "positional",
    "cls": "cls_token",
    **{f"sa.{w}": "spatial" for w in _ATTENTION_PARAMS},
    **{f"ta.{w}": "temporal" for w in _ATTENTION_PARAMS},
    **{f"fa.{w}": "feature" for w in _ATTENTION_PARAMS},
    **{f"cls_attn.{w}": "cls_route" for w in _ATTENTION_PARAMS},
    "cls_norm.gamma": "cls_route",
    "cls_norm.beta": "cls_route",
    "norm.gamma": "norms",
    "norm.beta": "norms",
    "head.w1": "head",
    "head.b1": "head",
    "head.w2": "head",
    "head.b2": "head",
}


def oracle_group_of(name: str) -> str:
    """The accounting group of a parameter, looked up in PARAM_GROUPS; a
    name the table does not hold raises KeyError."""
    return PARAM_GROUPS[re.sub(r"^layers\.\d+\.", "", name)]

def oracle_read_dataset(path):
    """(header, matches) of a dataset file read with plain json.loads per
    line; each match's frames become (step, np.asarray(planes)) pairs."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    matches = []
    for line in lines[1:]:
        match = json.loads(line)
        match["frames"] = [(step, np.asarray(planes)) for step, planes in match["frames"]]
        matches.append(match)
    return json.loads(lines[0]), matches


_JOINED = re.compile(rb"\d[\[\]]+\d")  # digits that deleting the brackets would join


def oracle_read_match(line: bytes, shape: tuple[int, int, int]) -> MatchRecord:
    """The record of a match line with frames of `shape`, which must be in
    the writer's layout.

    The line is split around its frames text: the rest goes through
    json.loads, and numpy parses the frames text as int64 values that must
    fill whole frames. The record passes the writer's checks, then must
    render back to the line's bytes in `_match_pieces`. So json.loads of
    an accepted line gives the values read, and writing the record gives
    the line back. Frames are views into one uint8 (F, C, H, W) array.
    """
    line.decode("utf-8")  # names the first byte that is not UTF-8
    a = line.find(b',"frames":[')
    b = line.find(b'],"kind":', a) if a >= 0 else -1
    if b < 0:
        json.loads(line.decode("utf-8"))  # names the fault of a line that is not JSON
        raise ValueError(_NOT_LAYOUT)
    fields = json.loads((line[:a] + line[b + 1 :]).decode("utf-8"))
    if not isinstance(fields, dict):
        raise ValueError(_NOT_LAYOUT)
    if fields.get("kind") != "match":
        raise ValueError(f"unexpected record kind {fields.get('kind')!r}")
    frames = line[a + 10 : b + 1]
    try:
        values = np.fromstring(frames.translate(None, b"[]"), dtype=np.int64, sep=",")
        values = values.reshape(-1, 1 + math.prod(shape))
    except ValueError:  # not ints between commas, or not whole frames
        raise ValueError(_NOT_LAYOUT) from None
    if not len(values):
        raise ValueError("record has no frames")
    steps, planes = values[:, 0].tolist(), values[:, 1:].reshape(-1, *shape)
    try:
        _check_match(fields["winner"], fields["duration"], steps, planes)
    except ValueError:
        # the check would name a number the file does not hold: np.fromstring
        # reads any number past int64 as _INT64_MAX, and a bracket between
        # digits joins them
        if (values == _INT64_MAX).any() or _JOINED.search(frames):
            raise ValueError(_NOT_LAYOUT) from None
        raise
    planes = planes.astype(np.uint8)
    record = MatchRecord(fields["strategy_a"], fields["strategy_b"], fields["seed"],
                         fields["winner"], fields["duration"], list(zip(steps, planes)))
    if b"".join(_match_pieces(record, steps, planes)) != line:
        raise ValueError(_NOT_LAYOUT)
    return record


def oracle_write_dataset(path, dataset) -> None:
    """A dataset file written with plain json.dumps per line: sorted keys,
    (",", ":") separators, frame planes through tolist()."""

    def dump(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    with open(path, "w", encoding="utf-8") as f:
        f.write(dump({"kind": "header", **asdict(dataset.header)}) + "\n")
        for rec in dataset.records:
            line = dump(
                {
                    "kind": "match",
                    "strategy_a": rec.strategy_a,
                    "strategy_b": rec.strategy_b,
                    "seed": rec.seed,
                    "winner": rec.winner,
                    "duration": rec.duration,
                    "frames": [[step, planes.tolist()] for step, planes in rec.frames],
                }
            )
            f.write(line + "\n")


def oracle_decode_planes(raw) -> GameState:
    """Per-cell decode of integer planes, visiting every cell row-major."""
    _, h, w = raw.shape
    units = {}
    store = {P1: 0, P2: 0}
    for r in range(h):
        for c in range(w):
            kind_val = int(raw[0, r, c])
            if kind_val == 0:
                continue
            kind = UnitKind(kind_val)
            owner = int(raw[2, r, c])
            carried = 0
            if kind in (UnitKind.RESOURCE, UnitKind.WORKER):
                carried = int(raw[3, r, c])
            units[(r, c)] = Unit(
                kind=kind,
                hp=int(raw[1, r, c]),
                owner=0 if kind == UnitKind.RESOURCE else owner,
                carried=carried,
            )
            if owner in (P1, P2):
                store[owner] = int(raw[4, r, c])
    return GameState(height=h, width=w, units=units, store=store, step=0)


def random_small_state(rng: SplitMix64) -> GameState:
    s = empty_state(size=8)
    s.store[P1] = rng.randrange(26)
    s.store[P2] = rng.randrange(26)
    kinds = list(UnitKind)
    for _ in range(rng.randrange(12) + 1):
        pos = (rng.randrange(8), rng.randrange(8))
        kind = kinds[rng.randrange(len(kinds))]
        owner = 0 if kind == UnitKind.RESOURCE else rng.randrange(2) + 1
        hp = rng.randrange(MAX_HP[kind]) + 1
        carried = rng.randrange(26) if kind in (UnitKind.WORKER, UnitKind.RESOURCE) else 0
        s.units[pos] = Unit(kind=kind, hp=hp, owner=owner, carried=carried)
    return s


def composed_attention(xq, xkv, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Multi-head attention built from primitive tape ops, one node per step.

    The textbook order of the fused ``T.attention``'s math: projections,
    head split, scaled scores, row-max softmax, mix, output projection.
    """
    g, sq, e = xq.shape
    sk = xkv.shape[1]
    dh = e // heads
    q = T.add(T.matmul(xq, wq), bq).reshape(g, sq, heads, dh).permute(0, 2, 1, 3)
    k = T.add(T.matmul(xkv, wk), bk).reshape(g, sk, heads, dh).permute(0, 2, 1, 3)
    v = T.add(T.matmul(xkv, wv), bv).reshape(g, sk, heads, dh).permute(0, 2, 1, 3)
    scores = mul(T.matmul(q, k.permute(0, 1, 3, 2)), 1.0 / math.sqrt(dh))
    mix = T.matmul(softmax(scores, axis=-1), v).permute(0, 2, 1, 3).reshape(g, sq, e)
    return T.add(T.matmul(mix, wo), bo)


# canonical neighbor order of the scripted strategies: up, left, right, down
_DIRS = ((-1, 0), (0, -1), (0, 1), (1, 0))


def _dist(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def oracle_nearest(state: GameState, pos, pred):
    """Strategy target search as a full scan of the map: the cell of the
    unit that passes pred(cell, unit), first by (manhattan, row, col)."""
    best = None
    best_key = None
    for q, u in state.units.items():
        if not pred(q, u):
            continue
        key = (_dist(pos, q), q[0], q[1])
        if best_key is None or key < best_key:
            best, best_key = q, key
    return best


def oracle_free_neighbors(state: GameState, pos):
    out = []
    for dr, dc in _DIRS:
        q = (pos[0] + dr, pos[1] + dc)
        if 0 <= q[0] < state.height and 0 <= q[1] < state.width and q not in state.units:
            out.append(q)
    return out


def oracle_step_toward(state: GameState, src, dst):
    """The free neighbor first by (distance to dst, row, col), if it is closer."""
    options = oracle_free_neighbors(state, src)
    if not options:
        return None
    best = min(options, key=lambda q: (_dist(q, dst), q[0], q[1]))
    if _dist(best, dst) >= _dist(src, dst):
        return None
    return Action("move", src, best)


def oracle_attack_or_advance(state: GameState, player: int, pos, reach: int):
    """Two scans: the nearest enemy in reach to attack, else the nearest
    enemy to step toward."""
    enemy = 3 - player
    in_reach = oracle_nearest(
        state, pos, lambda q, u: u.owner == enemy and _dist(pos, q) <= reach
    )
    if in_reach is not None:
        return Action("attack", pos, in_reach)
    target = oracle_nearest(state, pos, lambda q, u: u.owner == enemy)
    if target is None:
        return None
    return oracle_step_toward(state, pos, target)


def oracle_nearest_node(state: GameState, pos):
    return oracle_nearest(
        state, pos, lambda q, u: u.kind == UnitKind.RESOURCE and u.carried > 0
    )


def oracle_nearest_base(state: GameState, player: int, pos):
    return oracle_nearest(
        state, pos, lambda q, u: u.owner == player and u.kind == UnitKind.BASE
    )


def oracle_harvest_cycle(state: GameState, player: int, pos, carried: int):
    """Deposit at or step toward the nearest own base while carrying, else
    harvest at or step toward the nearest live node; both found by full scans."""
    if carried > 0:
        target = oracle_nearest_base(state, player, pos)
    else:
        target = oracle_nearest_node(state, pos)
    if target is None:
        return None
    if _dist(pos, target) == 1:
        return Action("deposit" if carried > 0 else "harvest", pos, target)
    return oracle_step_toward(state, pos, target)


def oracle_raw_planes(state: GameState) -> np.ndarray:
    """Per-unit encode: five scalar writes into uint8 planes for each unit."""
    planes = np.zeros((CHANNELS, state.height, state.width), dtype=np.uint8)
    for (r, c), u in state.units.items():
        planes[0, r, c] = int(u.kind)
        planes[1, r, c] = u.hp
        planes[2, r, c] = u.owner
        if u.kind in (UnitKind.RESOURCE, UnitKind.WORKER):
            planes[3, r, c] = u.carried
        if u.owner in (P1, P2):
            planes[4, r, c] = state.store[u.owner]
    return planes


def oracle_run_match(strat_a, strat_b, seed: int, max_steps: int,
                     capture_every: int) -> MatchRecord:
    """`run_match` with every step played: a frame after every
    `capture_every`-th step and after the last one, a fallen base ending
    the match, and a timeout going to the side with more units."""
    state = standard_start()
    rngs = (SplitMix64(derive_seed(seed, P1)), SplitMix64(derive_seed(seed, P2)))
    frames = []
    winner = None
    while state.step < max_steps and winner is None:
        state = step(state, strat_a, strat_b, rngs)
        winner = check_winner(state)
        if state.step % capture_every == 0 or state.step == max_steps or winner is not None:
            frames.append((state.step, oracle_raw_planes(state)))
    if winner is None:
        n1, n2 = (sum(u.owner == p for u in state.units.values()) for p in (P1, P2))
        winner = "p1" if n1 > n2 else "p2" if n2 > n1 else "draw"
    return MatchRecord(strat_a.name, strat_b.name, seed, winner, state.step, frames)


# Whole-plan references: each scripted strategy's plan() as it read before
# the per-unit rewrite, on the library's enemy-target helpers (checked on
# their own against the full-map scans above); harvest targets come from
# the full-map scans themselves, not from the library's memos.
# RandomBiasedLite builds every option as an Action in a weighted list,
# then draws one.


def oracle_plan_worker_rush(state, player, rng):
    acts = []
    index = _UnitIndex(state)
    units = state.units
    mine = index.cells[player]
    foes = index.cells[3 - player]
    workers = [p for p in mine if units[p].kind == UnitKind.WORKER]
    harvester = None
    if workers and any(
        u.kind == UnitKind.RESOURCE and u.carried > 0 for u in state.units.values()
    ):
        harvester = min(
            workers, key=lambda p: (manhattan(p, oracle_nearest_node(state, p)), p)
        )
    for pos in mine:
        u = units[pos]
        act = None
        if u.kind == UnitKind.BASE:
            if state.store[player] >= COST[UnitKind.WORKER]:
                act = _train_action(state, pos, UnitKind.WORKER)
        elif u.kind == UnitKind.WORKER:
            if pos == harvester:
                act = oracle_harvest_cycle(state, player, pos, u.carried)
            if act is None:
                act = _attack_or_advance(
                    state, pos, ATTACK_RANGE.get(u.kind, 0), _nearest(pos, foes)
                )
        if act is not None:
            acts.append(act)
    return acts


def oracle_plan_barracks_rush(produce, state, player, rng, worker_target=2):
    acts = []
    index = _UnitIndex(state)
    units = state.units
    mine = index.cells[player]
    foes = index.cells[3 - player]
    workers = [p for p in mine if units[p].kind == UnitKind.WORKER]
    has_barracks = any(units[p].kind == UnitKind.BARRACKS for p in mine)
    need_barracks = not has_barracks and state.store[player] >= COST[UnitKind.BARRACKS]
    builder = workers[-1] if (need_barracks and workers) else None
    for pos in mine:
        u = units[pos]
        act = None
        if u.kind == UnitKind.BASE:
            if len(workers) < worker_target and state.store[player] >= COST[UnitKind.WORKER]:
                act = _train_action(state, pos, UnitKind.WORKER)
        elif u.kind == UnitKind.BARRACKS:
            if state.store[player] >= COST[produce]:
                act = _train_action(state, pos, produce)
        elif u.kind == UnitKind.WORKER:
            if pos == builder:
                free = _free_neighbors(state, pos)
                if free:
                    act = Action("build", pos, free[0], UnitKind.BARRACKS)
            if act is None:
                act = oracle_harvest_cycle(state, player, pos, u.carried)
            if act is None:
                act = _attack_or_advance(
                    state, pos, ATTACK_RANGE.get(u.kind, 0), _nearest(pos, foes)
                )
        else:
            act = _attack_or_advance(
                state, pos, ATTACK_RANGE.get(u.kind, 0), _nearest(pos, foes)
            )
        if act is not None:
            acts.append(act)
    return acts


def oracle_plan_economy_rush(state, player, rng, worker_target=5, defense_radius=3):
    acts = []
    index = _UnitIndex(state)
    units = state.units
    mine = index.cells[player]
    foes = index.cells[3 - player]
    n_workers = sum(1 for p in mine if units[p].kind == UnitKind.WORKER)
    for pos in mine:
        u = units[pos]
        act = None
        if u.kind == UnitKind.BASE:
            if n_workers < worker_target and state.store[player] >= COST[UnitKind.WORKER]:
                act = _train_action(state, pos, UnitKind.WORKER)
        elif u.kind == UnitKind.WORKER:
            foe = _nearest(pos, foes)
            if foe is not None and manhattan(pos, foe) <= defense_radius:
                act = _attack_or_advance(state, pos, ATTACK_RANGE.get(u.kind, 0), foe)
            else:
                act = oracle_harvest_cycle(state, player, pos, u.carried)
        if act is not None:
            acts.append(act)
    return acts


def oracle_plan_random_biased(state, player, rng):
    acts = []
    index = _UnitIndex(state)
    units = state.units
    foes = index.cells[3 - player]
    for pos in index.cells[player]:
        u = units[pos]
        if u.kind in (UnitKind.BASE, UnitKind.BARRACKS):
            if rng.uniform() < 0.5:
                trainable = (
                    (UnitKind.WORKER,) if u.kind == UnitKind.BASE else TRAINABLE_AT_BARRACKS
                )
                choices = [k for k in trainable if state.store[player] >= COST[k]]
                if choices:
                    act = _train_action(state, pos, rng.choice(choices))
                    if act is not None:
                        acts.append(act)
            continue
        weighted = []
        foe = _nearest(pos, foes)
        if foe is not None and manhattan(pos, foe) <= ATTACK_RANGE.get(u.kind, 0):
            weighted.append((Action("attack", pos, foe), 5))
        if u.kind == UnitKind.WORKER:
            cycle = oracle_harvest_cycle(state, player, pos, u.carried)
            if cycle is not None:
                weighted.append((cycle, 3))
        free = _free_neighbors(state, pos)
        if free:
            weighted.append((Action("move", pos, rng.choice(free)), 2))
        weighted.append((None, 1))
        total = sum(w for _, w in weighted)
        pick = rng.randrange(total)
        for option, w in weighted:
            if pick < w:
                if option is not None:
                    acts.append(option)
                break
            pick -= w
    return acts


ORACLE_PLANS = {
    "WorkerRushLite": oracle_plan_worker_rush,
    "LightRushLite": partial(oracle_plan_barracks_rush, UnitKind.LIGHT),
    "HeavyRushLite": partial(oracle_plan_barracks_rush, UnitKind.HEAVY),
    "RangedRushLite": partial(oracle_plan_barracks_rush, UnitKind.RANGED),
    "EconomyRushLite": oracle_plan_economy_rush,
    "RandomBiasedLite": oracle_plan_random_biased,
}
