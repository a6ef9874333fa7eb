"""Dataset container, line-delimited JSON persistence, and the split rule.

File layout: the first line is a header record

    {"kind":"header","format_version":1,"map_height":16,"map_width":16,
     "channels":5,"capture_every":2,"max_steps":1000,"seed":...,
     "roster":[...],"rounds_per_pair":...}

which must give every key, each of its field's type and in its range, as
the one schema reader checks it (`schema.from_json`, one range table for
these keys and a run config's); a header that does not is named with its
key and line 1. It is followed by one match record per line

    {"kind":"match","strategy_a":...,"strategy_b":...,"seed":...,
     "winner":"p1"|"p2"|"draw","duration":...,
     "frames":[[step,[5 x H x W ints]],...]}

Frames hold raw (unnormalized) integer plane values, each within its
plane's range (encode.PLANE_MAX), so they are uint8 in memory. They stay
raw: normalization to [0,1] happens once, on each batch a model forwards
(train.loop). Keys are sorted and separators fixed, so a dataset is
byte-identical across reruns of the same configuration.

The writer's code is the one definition of a match line: `_match_pieces`
renders it, formatting the frames text with numpy (`_frames_text`). The
reader renders nothing: it accepts a match line only once the line's own
bytes show it is in that layout (the fields around the frames as
json.dumps writes them, the frames text the writer's separators of whole
frames with one int, as json.dumps writes it, in each value slot), so an
accepted line is byte for byte what the writer writes for the record
read. It reports a layout fault before any value fault. Both run the same
checks on a record, so the writer never writes a line the reader rejects.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .. import CorruptArtifact
from ..rng import SplitMix64
from ..schema import FORMAT_VERSION, RANGES, from_json
from .encode import CHANNELS, PLANE_MAX
from .engine import MatchRecord

WINNERS = ("p1", "p2", "draw")
_INT64_MAX = 2**63 - 1
_INT = re.compile(rb"-?[1-9][0-9]{0,18}|0")  # json.dumps of an int of at most 19 digits
_VALUE_BYTES = b"0123456789-"
_NOT_LAYOUT = "match line is not in the writer's layout"
SPLIT_RATIOS = (10.0, 5.0, 2.5)  # train : test : validation


@dataclass
class DatasetHeader:
    map_height: int = 16
    map_width: int = 16
    channels: int = CHANNELS
    capture_every: int = 2
    max_steps: int = 1000
    seed: int = 0
    roster: tuple[str, ...] = ()
    rounds_per_pair: int = 0
    format_version: int = FORMAT_VERSION


@dataclass
class Dataset:
    """A header and its records. `read_dataset` gives a list; `write_dataset`
    walks `records` once, so it may be a generator that plays each match
    as the writer asks for it."""

    header: DatasetHeader
    records: Iterable[MatchRecord]


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Cell v: the digits of v right-aligned in three bytes, padded with spaces,
# then a zero byte that a value's separator code is or-ed into.
_DIGIT_CELLS = np.frombuffer(b"".join([b"%3d\0" % v for v in range(256)]), dtype=np.uint32)
# Cell k: separator code k in that byte. The separator after a value is
# code 1 "," within a row, 2 "],[" after a row, 3 "]],[[" after a plane,
# and 0 after the frame's last value.
_CODE_CELLS = np.frombuffer(b"".join([b"\0\0\0%c" % k for k in range(4)]), dtype=np.uint32)
_COMMA = bytes.maketrans(b"\1", b",")


# Frames formatted per write, so a long match holds a few hundred KB of
# cells and text at a time rather than several MB: on 16x16 maps, writing
# the 42-match perfbench dataset added 3 MB to peak RSS this way and 10 MB
# with whole records.
_FRAMES_PER_WRITE = 32


@functools.lru_cache(maxsize=4)
def _separator_cells(shape: tuple[int, int, int]) -> np.ndarray:
    """The (C, H, W) code cells of the separators after the values of a
    frame of `shape`, cached per shape and read-only."""
    codes = np.ones(shape, dtype=np.intp)
    codes[:, :, -1] = 2
    codes[:, -1, -1] = 3
    codes[-1, -1, -1] = 0
    cells = _CODE_CELLS[codes]
    cells.flags.writeable = False
    return cells


def _frames_text(steps: list[int], planes: np.ndarray) -> bytes:
    """The `[step,planes],...` text of checked (F, C, H, W) planes, as
    json.dumps with (",", ":") separators writes it."""
    cells = np.take(_DIGIT_CELLS, planes) | _separator_cells(planes.shape[1:])
    text = cells.tobytes().translate(_COMMA, b" ")
    text = text.replace(b"\2", b"],[").replace(b"\3", b"]],[[")
    return b",".join([b"[%d,[[[%s]]]]" % pair for pair in zip(steps, text.split(b"\0"))])


def _match_pieces(rec: MatchRecord, steps: list[int], planes: np.ndarray):
    """The bytes of a checked record's line, in pieces: joined, they are
    what json.dumps of the whole record with sorted keys and (",", ":")
    separators writes, plus a newline. Frames go _FRAMES_PER_WRITE at a
    time through `_frames_text`."""
    # keys sort as duration, frames, then the rest
    yield b'{"duration":%d,"frames":[' % rec.duration
    for at in range(0, len(steps), _FRAMES_PER_WRITE):
        if at:
            yield b","
        chunk = slice(at, at + _FRAMES_PER_WRITE)
        yield _frames_text(steps[chunk], planes[chunk])
    rest = {"kind": "match", "seed": rec.seed, "strategy_a": rec.strategy_a,
            "strategy_b": rec.strategy_b, "winner": rec.winner}
    yield b"]," + _dump_line(rest)[1:].encode() + b"\n"


@contextmanager
def replaced_on_success(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that becomes `path` only if the block ends without an
    exception. It is written under a temporary name in `path`'s directory
    and moved onto `path` with `os.replace`; on an exception it is removed,
    so `path` keeps what it held before and never holds half a file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.partial")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(path: str | Path, dataset: Dataset) -> None:
    """Write the header, then one line per record, in the layout
    `read_dataset` parses: json.dumps with sorted keys and (",", ":")
    separators. `dataset.records` is walked once, each record written
    before the next is asked for.

    The header and each record first pass the reader's checks; a failure
    is a ValueError naming the record. The file appears at `path` only
    once every record is written (`replaced_on_success`). Each match line
    is written in `_match_pieces`.
    """
    header = dataset.header
    from_json(DatasetHeader, asdict(header), "header")  # the reader's check
    shape = (header.channels, header.map_height, header.map_width)
    with replaced_on_success(path) as f:
        f.write(_dump_line({"kind": "header", **asdict(header)}).encode() + b"\n")
        for i, rec in enumerate(dataset.records):
            steps = [step for step, _ in rec.frames]
            try:
                planes = _stack_frames([frame for _, frame in rec.frames], shape)
                _check_match(rec, steps, planes)
            except ValueError as exc:
                raise ValueError(f"record {i}: {exc}") from None
            f.writelines(_match_pieces(rec, steps, planes))


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
    """Every value of the (F, C, H, W) planes is an int in its plane's
    range 0..PLANE_MAX; each plane's min and max show it without an array
    of the planes' size."""
    if planes.dtype.kind in "iu":
        low, high = planes.min(axis=(0, 2, 3)), planes.max(axis=(0, 2, 3))
        if (low >= 0).all() and (high <= PLANE_MAX[:, 0, 0]).all():
            return
        bad = (planes < 0) | (planes > PLANE_MAX)
    else:  # float or bool planes, say: every cell is bad
        bad = np.ones(planes.shape, dtype=bool)
    f, p, r, c = np.argwhere(bad)[0]
    raise ValueError(
        f"frame {f} plane {p} holds {planes[f, p, r, c]} at ({r}, {c}), "
        f"not an int in 0..{PLANE_MAX[p, 0, 0]}"
    )


def _check_match(rec: MatchRecord, steps: list, planes: np.ndarray) -> None:
    """The checks of a match record on read and on write: the winner is
    one of WINNERS, the duration an int >= 1, the seed an int in the
    shared `seed` range, each strategy name a string, frame steps
    (`steps`) strictly increasing ints in 0..duration and below 2**63
    (the reader parses them as int64), and `planes` in range
    (`_check_planes`)."""
    winner, duration = rec.winner, rec.duration
    if winner not in WINNERS:
        raise ValueError(f"winner {winner!r} is not one of {WINNERS}")
    if type(duration) is not int or duration < 1:
        raise ValueError(f"duration {duration!r} is not an int >= 1")
    if type(rec.seed) is not int or not RANGES["seed"].holds(rec.seed):
        raise ValueError(f"seed {rec.seed!r} is not an int {RANGES['seed']}")
    for key in ("strategy_a", "strategy_b"):
        if type(getattr(rec, key)) is not str:
            raise ValueError(f"{key} {getattr(rec, key)!r} is not a string")
    last, top = -1, min(duration, _INT64_MAX)
    for i, step in enumerate(steps):
        if type(step) is not int:
            raise ValueError(f"frame {i} step {step!r} is not an int")
        if not 0 <= step <= top:
            raise ValueError(f"frame {i} step {step} is outside 0..{top}")
        if step <= last:
            raise ValueError(f"frame {i} step {step} does not follow step {last}")
        last = step
    _check_planes(planes)


@functools.lru_cache(maxsize=4)
def _frame_separators(shape: tuple[int, int, int]) -> bytes:
    """The writer's text of one zero frame of `shape`, less its value bytes."""
    return _frames_text([0], np.zeros((1, *shape), np.uint8)).translate(None, _VALUE_BYTES)


def _frame_count(frames: bytes, shape: tuple[int, int, int]) -> int:
    """The number of frames in the text `[[step,planes],...]`, which with its
    value bytes (digits and "-") deleted must be the separators of whole
    frames of `shape`."""
    if frames == b"[]":
        return 0  # rejected as a record with no frames once its fields are read
    if len(frames) < 2 * math.prod(shape):
        # a frame's text holds a value and a separator for each plane value:
        # a shorter text cannot hold one, and is rejected before anything of
        # the header's size is made, so the line's length bounds the work
        raise ValueError(_NOT_LAYOUT)
    separators = _frame_separators(shape)
    skeleton = frames.translate(None, _VALUE_BYTES)
    count = (len(skeleton) - 1) // (len(separators) + 1)
    if skeleton != b"[" + b",".join([separators] * count) + b"]":
        raise ValueError(_NOT_LAYOUT)
    return count


def _read_int(frames: bytes, last: int) -> int:
    """The int64 of the value run whose last byte is at `last`, written as
    json.dumps writes an int; anything else is not in the writer's layout."""
    start = max(frames.rfind(b",", 0, last), frames.rfind(b"[", 0, last)) + 1
    text = frames[start : last + 1]
    if _INT.fullmatch(text) and -_INT64_MAX - 1 <= int(text) <= _INT64_MAX:
        return int(text)
    raise ValueError(_NOT_LAYOUT)


def _run_ends(text: np.ndarray, slots: int) -> np.ndarray:
    """The index, less 2, of the last byte of each run of value bytes
    (digits and "-") in the frames text. Each run must sit in a value slot,
    never just before a "[" or just after a "]", and there must be one run
    per slot."""
    value = (text - ord("0") < 10) | (text == ord("-"))
    if (value[:-1] & (text[1:] == ord("["))).any() or ((text[:-1] == ord("]")) & value[1:]).any():
        raise ValueError(_NOT_LAYOUT)
    ends = np.flatnonzero(value[2:-1] > value[3:])
    if len(ends) != slots:
        raise ValueError(_NOT_LAYOUT)
    return ends


def _read_frames(frames: bytes, shape: tuple[int, int, int]) -> tuple[list[int], np.ndarray]:
    """The steps and (F, C, H, W) planes of the text `[[step,planes],...]`
    of a match line, which must be the writer's text of some int64 values.

    The text must hold the separators of whole frames (`_frame_count`) and
    one run of value bytes in each value slot (`_run_ends`). numpy reads
    each plane run of one digit, or two without a leading zero (every plane
    value the writer writes), from its last two bytes as uint8. Steps and
    every other run are read exactly by `_read_int`. Planes come back as
    uint8, or as int64 when a plane run was read exactly: such a run is
    signed or at least 100, outside every plane's range.
    """
    count = _frame_count(frames, shape)
    text = np.frombuffer(frames, dtype=np.uint8)
    runs = 1 + math.prod(shape)  # per frame: its step, then its plane values
    # the array kept is made before the scratch arrays, so that freeing
    # them leaves no hole below it in the heap to hold RSS after the read
    planes = np.empty((count, runs - 1), dtype=np.uint8)
    ends = _run_ends(text, count * runs)
    steps = [_read_int(frames, end + 2) for end in ends[::runs].tolist()]
    # the last three bytes of each plane run as digit values ("-" is 253)
    ones, tens, hundreds = (
        a[ends].reshape(count, runs)[:, 1:] - ord("0") for a in (text[2:], text[1:], text))
    del ends  # 8 bytes a value, the largest array here: gone before the flags below
    two = tens < 10
    # three or more bytes, a "-" or a leading zero
    exact = ((hundreds < 10) | (hundreds == 253)) & two | (tens == 0) | (tens == 253) | (ones > 9)
    np.add(ones, 10 * (tens * two), out=planes)
    if exact.any():
        planes = planes.astype(np.int64)
        ends = _run_ends(text, count * runs).reshape(count, runs)
        for f, i in zip(*np.nonzero(exact)):
            planes[f, i] = _read_int(frames, ends[f, i + 1] + 2)
    return steps, planes.reshape(count, *shape)


def _read_match(line: bytes, shape: tuple[int, int, int]) -> MatchRecord:
    """The record of a match line with frames of `shape`, which must be in
    the writer's layout.

    The line is split around its frames text. The rest goes through
    json.loads and must be what json.dumps of the fields it holds, with
    sorted keys and (",", ":") separators, writes; `_read_frames` reads the
    frames text. A line that is not in the writer's layout is rejected as
    such before any value is checked; then the record must pass the
    writer's checks. So an accepted line is, byte for byte, the line
    `write_dataset` writes for the record read. Frames are views into one
    uint8 (F, C, H, W) array.
    """
    line.decode("utf-8")  # names the first byte that is not UTF-8
    a = line.find(b',"frames":[')
    b = line.rfind(b'],"kind":', a) if a >= 0 else -1  # from the short tail of fields
    if b < 0:
        json.loads(line.decode("utf-8"))  # names the fault of a line that is not JSON
        raise ValueError(_NOT_LAYOUT)
    rest = line[:a] + line[b + 1 :]
    fields = json.loads(rest.decode("utf-8"))
    if not isinstance(fields, dict):
        raise ValueError(_NOT_LAYOUT)
    if fields.get("kind") != "match":
        raise ValueError(f"unexpected record kind {fields.get('kind')!r}")
    steps, planes = _read_frames(line[a + 10 : b + 1], shape)
    # a key no record has, or fields json.dumps would write otherwise; a
    # missing key is a KeyError below
    if len(fields) > 6 or _dump_line(fields).encode() + b"\n" != rest:
        raise ValueError(_NOT_LAYOUT)
    if not steps:
        raise ValueError("record has no frames")
    rec = MatchRecord(fields["strategy_a"], fields["strategy_b"], fields["seed"],
                      fields["winner"], fields["duration"], list(zip(steps, planes)))
    _check_match(rec, steps, planes)
    return rec


def _read_header(line: bytes) -> DatasetHeader:
    """The header of the first line: a JSON object of kind "header" whose
    other keys are DatasetHeader's, all of them, as `from_json` checks."""
    head = json.loads(line.decode("utf-8"))
    if not isinstance(head, dict):
        raise ValueError("header is not a JSON object")
    if head.pop("kind", None) != "header":
        raise ValueError("first line is not a header record")
    return from_json(DatasetHeader, head, "header")


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset file one line at a time; CorruptArtifact names the
    first bad line.

    The header must pass `_read_header`. Each match
    line must hold at least one frame of the header's shape and pass
    `_check_match`. It is read only in the writer's layout, which
    `_read_match` checks from the line's own bytes, so an accepted line is
    the bytes the writer writes for its record; any other line is "not in
    the writer's layout", reported before any value check.
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
                records.append(_read_match(line, shape))
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
    records: list[MatchRecord], seed: int = 0
) -> tuple[list[MatchRecord], list[MatchRecord], list[MatchRecord]]:
    """Disjoint, exhaustive (train, test, validation) partition.

    Draws are excluded before splitting (the label is binary); the shuffle
    is deterministic in `seed`; sizes follow SPLIT_RATIOS, largest-remainder rounded.
    """
    eligible = [r for r in records if r.winner != "draw"]
    if not eligible:
        raise ValueError("no decided matches to split")
    order = list(range(len(eligible)))
    SplitMix64(seed).shuffle(order)
    n_train, n_test, n_val = largest_remainder_sizes(len(eligible), SPLIT_RATIOS)
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

