"""Dataset container, line-delimited JSON persistence, and the split rule.

File layout: the first line is a header record

    {"kind":"header","format_version":1,"map_height":16,"map_width":16,
     "channels":5,"capture_every":2,"max_steps":1000,"seed":...,
     "roster":[...],"rounds_per_pair":...}

followed by one match record per line

    {"kind":"match","strategy_a":...,"strategy_b":...,"seed":...,
     "winner":"p1"|"p2"|"draw","duration":...,
     "frames":[[step,[5 x H x W ints]],...]}

Frames hold raw (unnormalized) integer plane values, each within its
plane's range (encode.PLANE_MAX), so they are uint8 in memory;
normalization to [0,1] happens at load time. Keys are sorted and
separators fixed, so a dataset is byte-identical across reruns of the
same configuration. Both ends handle the frames text with numpy, in the
one layout `_frame_skeleton` spells out; the writer checks each record as
the reader does, so it never writes a line the reader rejects.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .. import CorruptArtifact
from ..rng import SplitMix64
from .encode import CHANNELS, PLANE_FACTION, PLANE_MAX
from .engine import MatchRecord

FORMAT_VERSION = 1
WINNERS = ("p1", "p2", "draw")


@dataclass
class DatasetHeader:
    map_height: int = 16
    map_width: int = 16
    channels: int = CHANNELS
    capture_every: int = 2
    max_steps: int = 1000
    seed: int = 0
    roster: list[str] = field(default_factory=list)
    rounds_per_pair: int = 0
    format_version: int = FORMAT_VERSION


@dataclass
class Dataset:
    header: DatasetHeader
    records: list[MatchRecord]


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_DIGITS = b"0123456789"
_DIGITS_TO_ZERO = bytes.maketrans(_DIGITS, b"0" * 10)
_IS_INT = np.frompyfunc(lambda v: type(v) is int, 1, 1)


def _frame_skeleton(shape: tuple[int, int, int]) -> bytes:
    """One `[step,planes]` frame in the writer's layout, every number written as 0."""
    c, h, w = shape
    row = b"[" + b",".join([b"0"] * w) + b"]"
    plane = b"[" + b",".join([row] * h) + b"]"
    return b"[0,[" + b",".join([plane] * c) + b"]]"


# Cell v: the digits of v right-aligned in three bytes, padded with spaces,
# then a zero byte that a value's separator code is or-ed into.
_DIGIT_CELLS = np.frombuffer(b"".join([b"%3d\0" % v for v in range(256)]), dtype=np.uint32)


# Frames formatted per write, so a long match holds a few hundred KB of
# cells and text at a time rather than several MB: on 16x16 maps, writing
# the 42-match perfbench dataset added 3 MB to peak RSS this way and 10 MB
# with whole records.
_FRAMES_PER_WRITE = 32


def _frame_layout(shape: tuple[int, int, int]):
    """How `_frames_text` writes frames of `shape` in `_frame_skeleton`'s
    layout: the separator code after each value as (C, H, W) cells to or
    into digit cells (code 0 ends a frame), a translation of the one-byte
    codes, the (code, separator) pairs of the longer ones, and a
    `%`-template of one frame taking its step and its values text."""
    head, after_step, *between, tail = _frame_skeleton(shape).split(b"0")
    separators = list(dict.fromkeys(between))
    codes = [separators.index(sep) + 1 for sep in between] + [0]
    cells = np.frombuffer(b"".join([b"\0\0\0%c" % code for code in codes]), dtype=np.uint32)
    table, longer = bytearray(range(256)), []
    for code, sep in enumerate(separators, start=1):
        if len(sep) == 1:
            table[code] = sep[0]
        else:
            longer.append((bytes([code]), sep))
    return cells.reshape(shape), bytes(table), longer, head + b"%d" + after_step + b"%s" + tail


def _frames_text(steps: list[int], planes: np.ndarray, layout) -> bytes:
    """The `[step,planes],...` text of checked (F, C, H, W) planes, as
    json.dumps with (",", ":") separators writes it."""
    codes, table, longer, frame = layout
    text = (np.take(_DIGIT_CELLS, planes) | codes).tobytes().translate(table, b" ")
    for code, sep in longer:
        text = text.replace(code, sep)
    return b",".join([frame % pair for pair in zip(steps, text.split(b"\0"))])


def write_dataset(path: str | Path, dataset: Dataset) -> None:
    """Write the header, then one line per record, in the layout
    `read_dataset` parses: json.dumps with sorted keys and (",", ":")
    separators.

    The header and each record first pass the reader's checks; a failure
    is a ValueError naming the record, and no file is left behind. The
    frames text is written by numpy in `_frame_skeleton`'s layout, at most
    _FRAMES_PER_WRITE frames at a time, and the other fields go through
    json.dumps.
    """
    header = dataset.header
    _check_header(header)
    shape = (header.channels, header.map_height, header.map_width)
    layout = _frame_layout(shape)
    try:
        with open(path, "wb") as f:
            f.write(_dump_line({"kind": "header", **asdict(header)}).encode() + b"\n")
            for i, rec in enumerate(dataset.records):
                steps = [step for step, _ in rec.frames]
                try:
                    planes = _stack_frames([frame for _, frame in rec.frames], shape)
                    _check_match(rec.winner, rec.duration, steps, planes)
                except ValueError as exc:
                    raise ValueError(f"record {i}: {exc}") from None
                # keys sort as duration, frames, then these, so the line is
                # what json.dumps of the whole record would write
                rest = _dump_line({
                    "kind": "match",
                    "seed": rec.seed,
                    "strategy_a": rec.strategy_a,
                    "strategy_b": rec.strategy_b,
                    "winner": rec.winner,
                })
                f.write(b'{"duration":%d,"frames":[' % rec.duration)
                for at in range(0, len(steps), _FRAMES_PER_WRITE):
                    if at:
                        f.write(b",")
                    chunk = slice(at, at + _FRAMES_PER_WRITE)
                    f.write(_frames_text(steps[chunk], planes[chunk], layout))
                f.write(b"]," + rest[1:].encode() + b"\n")
    except ValueError:
        Path(path).unlink(missing_ok=True)
        raise


def _canonical_match(line: bytes, shape: tuple[int, int, int]):
    """(fields other than frames, frame steps, (F, C, H, W) int64 planes) of
    a match line in the writer's layout, or None when the line is not
    provably in it.

    The writer sorts keys and uses (",", ":") separators, so a match line
    is `{"duration":D,"frames":[...],"kind":...}`. The small part around the
    frames goes through json.loads; the frames text is read by numpy. That
    is taken only when it gives the values json.loads would: the text with
    each run of digits written as one 0 must be the frame skeleton repeated
    F times, every number must be below 10**18 (np.fromstring clamps an
    int64 overflow to 2**63 - 1), and the digit count must equal that of
    the values written without leading zeros.
    """
    text = line[:-1] if line.endswith(b"\n") else line
    if not text.startswith(b'{"duration":'):
        return None
    a = text.find(b',"frames":[', 12)
    b = text.find(b'],"kind":', a)
    if a < 0 or b < 0 or not text[12:a].isdigit():
        return None
    try:
        fields = json.loads((text[:a] + text[b + 1 :]).decode("utf-8"))
    except ValueError:
        return None
    if not isinstance(fields, dict) or "frames" in fields:
        return None
    frames = text[a + 10 : b + 1]
    c, h, w = shape
    if 2 * c * h * w > len(frames):  # too short for one frame; spares building the skeleton
        return None
    frame = _frame_skeleton(shape)
    skeleton = frames.translate(_DIGITS_TO_ZERO)
    while b"00" in skeleton:  # halves every run of digits
        skeleton = skeleton.replace(b"00", b"0")
    count = (len(skeleton) - 1) // (len(frame) + 1)
    if count < 1 or skeleton != b"[" + b",".join([frame] * count) + b"]":
        return None
    values = np.fromstring(frames.translate(None, b"[]"), dtype=np.int64, sep=",")
    stride = 1 + c * h * w
    if values.size != count * stride or values.max() >= 10**18:
        return None
    digits, power = values.size, 10
    while n := np.count_nonzero(values >= power):  # values of more than log10(power) digits
        digits, power = digits + n, power * 10
    if digits != len(frames) - len(frames.translate(None, _DIGITS)):
        return None
    values = values.reshape(count, stride)
    return fields, values[:, 0].tolist(), values[:, 1:].reshape(count, c, h, w)


def _json_match(line: bytes, shape: tuple[int, int, int]):
    """The same triple as `_canonical_match` for any line, through
    json.loads; planes are an object array holding the JSON values."""
    obj = json.loads(line.decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    frames = obj.pop("frames")
    if not isinstance(frames, list):
        raise ValueError("record has no frames")
    steps = [step for step, _ in frames]
    planes = [np.array(planes, dtype=object) for _, planes in frames]
    return obj, steps, _stack_frames(planes, shape)


def _stack_frames(frames: list[np.ndarray], shape: tuple[int, int, int]) -> np.ndarray:
    """One (F, C, H, W) array of a record's frame planes; there must be at
    least one frame, and each must have the header's `shape`."""
    if not frames:
        raise ValueError("record has no frames")
    for i, planes in enumerate(frames):
        if planes.shape != shape:
            raise ValueError(f"frame {i} planes have shape {planes.shape}, header says {shape}")
    return np.stack(frames)


def _check_planes(planes: np.ndarray) -> None:
    """Every value is an int in its plane's range 0..PLANE_MAX."""
    values = planes
    if planes.dtype.kind not in "iu":  # JSON values from json.loads, or not ints
        values = np.where(_IS_INT(planes).astype(bool), planes, -1)
    bad = (values < 0) | (values > PLANE_MAX)
    if bad.any():
        f, p, r, c = np.argwhere(bad)[0]
        raise ValueError(
            f"frame {f} plane {p} holds {planes[f, p, r, c]} at ({r}, {c}), "
            f"not an int in 0..{PLANE_MAX[p, 0, 0]}"
        )


def _check_header(header: DatasetHeader) -> None:
    """The header's checks on read and on write: CHANNELS channels and
    map sizes that are ints >= 1."""
    if header.channels != CHANNELS:  # decode_planes reads all CHANNELS planes
        raise ValueError(f"header channels {header.channels!r} is not {CHANNELS}")
    for size in (header.map_height, header.map_width):
        if type(size) is not int or size < 1:
            raise ValueError(f"header map size {size!r} is not an int >= 1")


def _check_match(winner, duration, steps: list, planes: np.ndarray) -> None:
    """The checks of a match record on read and on write: the winner is
    one of WINNERS, the duration an int >= 1, frame steps strictly
    increasing ints in 0..duration, and planes in range (`_check_planes`)."""
    if winner not in WINNERS:
        raise ValueError(f"winner {winner!r} is not one of {WINNERS}")
    if type(duration) is not int or duration < 1:
        raise ValueError(f"duration {duration!r} is not an int >= 1")
    last = -1
    for i, step in enumerate(steps):
        if type(step) is not int:
            raise ValueError(f"frame {i} step {step!r} is not an int")
        if not 0 <= step <= duration:
            raise ValueError(f"frame {i} step {step} is outside 0..{duration}")
        if step <= last:
            raise ValueError(f"frame {i} step {step} does not follow step {last}")
        last = step
    _check_planes(planes)


def _match_record(fields: dict, steps: list, planes: np.ndarray) -> MatchRecord:
    """Check a parsed match line and build its record: frames are views
    into one uint8 (F, C, H, W) array."""
    if fields.get("kind") != "match":
        raise ValueError(f"unexpected record kind {fields.get('kind')!r}")
    _check_match(fields["winner"], fields["duration"], steps, planes)
    return MatchRecord(
        strategy_a=fields["strategy_a"],
        strategy_b=fields["strategy_b"],
        seed=fields["seed"],
        winner=fields["winner"],
        duration=fields["duration"],
        frames=list(zip(steps, planes.astype(np.uint8))),
    )


def _read_header(line: bytes) -> DatasetHeader:
    head = json.loads(line.decode("utf-8"))
    if head.get("kind") != "header":
        raise ValueError("first line is not a header record")
    if head.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {head.get('format_version')}")
    header = DatasetHeader(**{k: v for k, v in head.items() if k != "kind"})
    _check_header(header)
    return header


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset file one line at a time; CorruptArtifact names the
    first bad line.

    The header must give CHANNELS channels and int map sizes. Each match
    line is checked against it: its duration is an int >= 1; it has at
    least one frame; every frame's planes have shape (channels, map_height,
    map_width) and hold ints in the plane's range (PLANE_MAX); frame steps
    are strictly increasing ints in 0..duration; the winner is one of
    WINNERS. Lines in the writer's layout are read by `_canonical_match`,
    any other line by json.loads.
    """
    records = []
    lineno = 1
    with open(path, "rb") as f:
        first = f.readline()
        if not first:
            raise CorruptArtifact(f"{path}: empty dataset file")
        try:
            header = _read_header(first)
            shape = (header.channels, header.map_height, header.map_width)
            for lineno, line in enumerate(f, start=2):
                if line.strip():
                    parsed = _canonical_match(line, shape) or _json_match(line, shape)
                    records.append(_match_record(*parsed))
        except UnicodeDecodeError as exc:
            raise CorruptArtifact(f"{path}:{lineno}: not UTF-8 text (byte {exc.start})") from None
        except json.JSONDecodeError as exc:
            raise CorruptArtifact(f"{path}:{lineno}: not valid JSON ({exc.msg})") from None
        except KeyError as exc:
            raise CorruptArtifact(f"{path}:{lineno}: record lacks key {exc}") from None
        except (ValueError, TypeError, AttributeError, RecursionError) as exc:
            raise CorruptArtifact(f"{path}:{lineno}: {exc}") from None
    return Dataset(header=header, records=records)


def largest_remainder_sizes(total: int, ratios: tuple[float, ...]) -> list[int]:
    """Integer partition of `total` proportional to `ratios`.

    Floors the quotas, then hands leftover items to the largest fractional
    parts (ties to the earlier ratio), so sizes always sum to `total`.
    """
    weight = sum(ratios)
    quotas = [total * r / weight for r in ratios]
    sizes = [math.floor(q) for q in quotas]
    leftover = total - sum(sizes)
    order = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def split_dataset(
    records: list[MatchRecord],
    ratios: tuple[float, float, float] = (10.0, 5.0, 2.5),
    seed: int = 0,
) -> tuple[list[MatchRecord], list[MatchRecord], list[MatchRecord]]:
    """Disjoint, exhaustive (train, test, validation) partition.

    Draws are excluded before splitting (the label is binary); the shuffle
    is deterministic in `seed`; sizes follow largest-remainder rounding.
    """
    eligible = [r for r in records if r.winner != "draw"]
    if not eligible:
        raise ValueError("no decided matches to split")
    order = list(range(len(eligible)))
    SplitMix64(seed).shuffle(order)
    n_train, n_test, n_val = largest_remainder_sizes(len(eligible), ratios)
    train = [eligible[i] for i in order[:n_train]]
    test = [eligible[i] for i in order[n_train : n_train + n_test]]
    val = [eligible[i] for i in order[n_train + n_test :]]
    assert len(val) == n_val
    return train, test, val


def winner_label(record: MatchRecord) -> int | None:
    """Label by the recorded winner: 1 if p1 won, 0 if p2 won, None on a draw."""
    if record.winner == "draw":
        return None
    return 1 if record.winner == "p1" else 0


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
