"""Tournament protocol arithmetic, splits, and dataset persistence."""

import json
import multiprocessing
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from oracles import (
    oracle_read_dataset,
    oracle_read_match,
    oracle_write_dataset,
    surviving_units_label,
)

from rtslab import CorruptArtifact
from rtslab.cli import main
from rtslab.rng import SplitMix64
from rtslab.sim import (
    Dataset,
    DatasetHeader,
    read_dataset,
    run_tournament,
    schedule_round_robin,
    split_dataset,
    write_dataset,
)
from rtslab.sim import dataset as dataset_module
from rtslab.sim.dataset import WINNERS, _read_match, largest_remainder_sizes
from rtslab.sim.encode import PLANE_MAX
from rtslab.sim.engine import MatchRecord


def fake_records(n: int, draws: int = 0) -> list[MatchRecord]:
    recs = []
    for i in range(n):
        winner = "draw" if i < draws else ("p1" if i % 2 == 0 else "p2")
        planes = np.zeros((5, 4, 4), dtype=np.int64)
        recs.append(MatchRecord("A", "B", i, winner, 10, [(10, planes)]))
    return recs


class TestSchedule:
    def test_full_scale_protocol_arithmetic(self):
        names = [f"S{i}" for i in range(10)]
        sched = schedule_round_robin(names, 70, seed=1)
        assert len(sched) == 3150  # C(10,2) * 70

    def test_two_strategies_two_rounds(self):
        sched = schedule_round_robin(["A", "B"], 2, seed=0)
        assert len(sched) == 2
        assert (sched[0].first, sched[0].second) == ("A", "B")
        assert (sched[1].first, sched[1].second) == ("B", "A")

    def test_three_strategies_four_rounds(self):
        assert len(schedule_round_robin(["A", "B", "C"], 4, seed=0)) == 12

    def test_exact_side_balance_per_pair(self):
        names = [f"S{i}" for i in range(10)]
        sched = schedule_round_robin(names, 70, seed=9)
        counts: dict[tuple[str, str], int] = {}
        for m in sched:
            counts[(m.first, m.second)] = counts.get((m.first, m.second), 0) + 1
        for (a, b), n in counts.items():
            assert counts[(b, a)] == n == 35

    def test_seeds_distinct_and_deterministic(self):
        names = ["A", "B", "C"]
        s1 = schedule_round_robin(names, 4, seed=5)
        s2 = schedule_round_robin(names, 4, seed=5)
        assert s1 == s2
        assert len({m.seed for m in s1}) == len(s1)

    def test_odd_rounds_rejected(self):
        with pytest.raises(ValueError, match="even"):
            schedule_round_robin(["A", "B"], 3, seed=0)

    def test_single_strategy_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            schedule_round_robin(["A"], 2, seed=0)


class TestSplit:
    def test_full_scale_split_sizes(self):
        train, test, val = split_dataset(fake_records(3150), seed=4)
        assert (len(train), len(test), len(val)) == (1800, 900, 450)

    def test_seven_records_largest_remainder(self):
        train, test, val = split_dataset(fake_records(7), seed=4)
        assert (len(train), len(test), len(val)) == (4, 2, 1)

    def test_largest_remainder_always_sums(self):
        for total in range(1, 60):
            sizes = largest_remainder_sizes(total, (10.0, 5.0, 2.5))
            assert sum(sizes) == total

    def test_deterministic_and_disjoint(self):
        recs = fake_records(40)
        a = split_dataset(recs, seed=7)
        b = split_dataset(recs, seed=7)
        for pa, pb in zip(a, b):
            assert [r.seed for r in pa] == [r.seed for r in pb]
        seen = [r.seed for part in a for r in part]
        assert len(seen) == len(set(seen)) == 40

    def test_draws_excluded_before_split(self):
        recs = fake_records(20, draws=6)
        train, test, val = split_dataset(recs, seed=1)
        assert len(train) + len(test) + len(val) == 14
        assert all(r.winner != "draw" for part in (train, test, val) for r in part)


class TestTournamentRun:
    def test_small_tournament_runs_and_orders(self):
        recs = list(run_tournament(
            ["WorkerRushLite", "PassiveLite"], 2, seed=3, max_steps=60, capture_every=4
        ))
        assert len(recs) == 2
        assert recs[0].strategy_a == "WorkerRushLite" and recs[1].strategy_a == "PassiveLite"

    def test_parallel_matches_serial_output(self):
        settings = dict(max_steps=40, capture_every=4)
        serial = list(run_tournament(["WorkerRushLite", "EconomyRushLite"], 2, seed=8, **settings))
        parallel = list(run_tournament(
            ["WorkerRushLite", "EconomyRushLite"], 2, seed=8, **settings, threads=2
        ))
        assert [r.winner for r in serial] == [r.winner for r in parallel]
        for a, b in zip(serial, parallel):
            for (sa, fa), (sb, fb) in zip(a.frames, b.frames):
                assert sa == sb and fa.tobytes() == fb.tobytes()

    def test_bad_schedule_or_roster_raises_at_the_call(self):
        # the generator is returned only once the schedule and strategies exist
        with pytest.raises(ValueError, match="rounds_per_pair"):
            run_tournament(["WorkerRushLite", "PassiveLite"], 3, seed=1)
        with pytest.raises(ValueError, match="unknown strategy 'Nope'"):
            run_tournament(["WorkerRushLite", "Nope"], 2, seed=1)

    def test_closing_early_ends_the_workers(self):
        recs = run_tournament(
            ["WorkerRushLite", "EconomyRushLite", "PassiveLite"], 8, seed=8,
            max_steps=40, capture_every=4, threads=2,
        )
        first = next(recs)
        recs.close()
        assert not multiprocessing.active_children()
        assert (first.strategy_a, first.strategy_b) == ("WorkerRushLite", "EconomyRushLite")


class TestPersistence:
    def test_round_trip(self, tmp_path):
        recs = list(run_tournament(
            ["WorkerRushLite", "PassiveLite"], 2, seed=6, max_steps=50, capture_every=5
        ))
        ds = Dataset(
            header=DatasetHeader(
                capture_every=5, max_steps=50, seed=6,
                roster=("WorkerRushLite", "PassiveLite"), rounds_per_pair=2,
            ),
            records=recs,
        )
        path = tmp_path / "d.jsonl"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert back.header == ds.header
        assert len(back.records) == len(recs)
        for a, b in zip(recs, back.records):
            assert a.winner == b.winner and a.duration == b.duration
            for (sa, fa), (sb, fb) in zip(a.frames, b.frames):
                assert sa == sb and np.array_equal(fa, fb)

    def test_write_is_deterministic(self, tmp_path):
        ds = Dataset(header=DatasetHeader(map_height=4, map_width=4), records=fake_records(3))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(p1, ds)
        write_dataset(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_non_dataset_file(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"kind":"match"}\n')
        with pytest.raises(ValueError, match="header"):
            read_dataset(p)


FUZZ_BYTES = b'0123456789,[]-.e :{}"t\xff'


def _canonical_lines(tmp_path) -> tuple[bytes, bytes]:
    """The header line and the one match line `write_dataset` writes for a
    random in-range record on 8x8 maps, with steps of up to four digits."""
    rng = SplitMix64(3)
    step, frames = 0, []
    for _ in range(3):
        step += 1 + rng.randrange(400)
        planes = [[[rng.randrange(top + 1) for _ in range(8)] for _ in range(8)]
                  for top in (7, 10, 2, 25, 25)]
        frames.append((step, np.array(planes, dtype=np.uint8)))
    record = MatchRecord("A", "B", 1, "p2", step + rng.randrange(3), frames)
    path = tmp_path / "canonical.jsonl"
    write_dataset(path, Dataset(DatasetHeader(map_height=8, map_width=8), [record]))
    header, line = path.read_bytes().splitlines()
    return header, line


def _mutate(line: bytes, rng: SplitMix64) -> bytes:
    """One seeded byte insertion, deletion or replacement."""
    at = rng.randrange(len(line))
    byte = FUZZ_BYTES[rng.randrange(len(FUZZ_BYTES)):][:1]
    op = rng.randrange(3)
    if op == 0:
        return line[:at] + byte + line[at:]
    return line[:at] + (byte if op == 1 else b"") + line[at + 1:]


def _read_round_trip(path) -> bool:
    """read_dataset rejects the file with CorruptArtifact, or returns records
    that write_dataset writes back to the file's bytes, holding what the
    json.loads oracle reads, as uint8 planes; True when it accepted."""
    try:
        got = read_dataset(path)
    except CorruptArtifact:
        return False
    rewritten = path.with_name("rewritten.jsonl")
    write_dataset(rewritten, got)
    assert rewritten.read_bytes() == path.read_bytes()
    header, matches = oracle_read_dataset(path)
    assert {"kind": "header", **asdict(got.header), "roster": list(got.header.roster)} == header
    assert len(got.records) == len(matches)
    for record, match in zip(got.records, matches):
        assert type(match["duration"]) is int
        assert (record.winner, record.duration) == (match["winner"], match["duration"])
        assert all(type(step) is int for step, _ in match["frames"])
        assert [step for step, _ in record.frames] == [step for step, _ in match["frames"]]
        for (_, planes), (_, want) in zip(record.frames, match["frames"]):
            assert planes.dtype == np.uint8 and want.dtype.kind == "i"
            assert np.array_equal(planes, want)
    return True


LAYOUT = "match line is not in the writer's layout"


def _edit_record(edit):
    """A line edit that changes the parsed record and writes it back canonically."""
    def line_edit(line):
        record = json.loads(line)
        edit(record)
        return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return line_edit


def _big_first_step(record):
    # one frame at step 2**63 of a match that long: in range, and past int64
    record["frames"] = [[2**63, record["frames"][0][1]]]
    record["duration"] = 2**63


def _empty_slot(line):
    at = line.index(b",", line.index(b"[[["))
    return line[:at] + b"," + line[at:]


def _first_value(text):
    """A line edit that writes `text` in place of frame 0's first plane value."""
    def line_edit(line):
        at = line.index(b"[[[") + 3
        return line[:at] + text + line[line.index(b",", at):]
    return line_edit


def _move_first_value(line, to):
    """Frame 0's first plane value moved to just before `to`, the first
    bracket pair after it: each slot but the first still holds one value."""
    at = line.index(b"[[[") + 3
    end = line.index(b",", at)
    after = line.index(to, end) + 1
    return line[:at] + line[end:after] + line[at:end] + line[after:]


def _set_first_cell(value):
    return _edit_record(lambda r: r["frames"][0][1][0][0].__setitem__(0, value))


def _leading_zero_and_300(line):
    # plane 0 holds 300 at (0, 1), and its value at (0, 0) gains a leading zero
    line = _edit_record(lambda r: r["frames"][0][1][0][0].__setitem__(1, 300))(line)
    return line.replace(b"[[[", b"[[[0", 1)


class TestReadParity:
    """read_dataset round-trips through its own writer: it either raises
    CorruptArtifact or returns records that write back to the same bytes,
    holding what a plain json.loads reader reads."""

    def test_seeded_mutations_of_canonical_lines(self, tmp_path):
        header, line = _canonical_lines(tmp_path)
        rng = SplitMix64(2024)
        path = tmp_path / "d.jsonl"
        path.write_bytes(header + b"\n" + line + b"\n")
        assert _read_round_trip(path)
        tally = {"accepted": 0, "rejected": 0}
        for _ in range(1000):
            mutated = _mutate(line, rng)
            path.write_bytes(header + b"\n" + mutated + b"\n")
            tally["accepted" if _read_round_trip(path) else "rejected"] += 1
        assert min(tally.values()) > 0, tally  # every outcome occurs

    @pytest.mark.parametrize("edit,words", [
        (lambda line: line.replace(b"[[[", b"[[[0", 1), LAYOUT),
        (lambda line: line.replace(b"]", b"]7", 1), LAYOUT),
        (_empty_slot, LAYOUT),
        (lambda line: line.replace(b",", b", "), LAYOUT),
        (_edit_record(lambda r: r["frames"][0][1][3][0].__setitem__(0, 10**18)),
         "frame 0 plane 3 holds 1000000000000000000 at (0, 0)"),
        (_edit_record(_big_first_step), LAYOUT),
        (lambda line: line.replace(b"[[[", b"[7[[", 1), LAYOUT),
        (_first_value(b"-0"), LAYOUT),
        (_first_value(b"+5"), LAYOUT),
        (_set_first_cell(2**63), LAYOUT),
        (_edit_record(lambda r: r["frames"][0][1][0][0].pop()), LAYOUT),
        (_edit_record(lambda r: r["frames"][0][1][0][0].append(1)), LAYOUT),
        (_set_first_cell(300), "frame 0 plane 0 holds 300 at (0, 0)"),
        (_edit_record(lambda r: r.__setitem__("frames", [])), "record has no frames"),
        (_leading_zero_and_300, LAYOUT),
        (_first_value(b""), LAYOUT),
        (lambda line: _move_first_value(line, b"],"), LAYOUT),
        (lambda line: _move_first_value(line, b",["), LAYOUT),
        (_edit_record(lambda r: r.__setitem__("other", 1)), LAYOUT),
        (lambda line: line[:-1] + b',"zz":[0],"kind":"match"}', LAYOUT),
        (_edit_record(lambda r: r.__setitem__("seed", "x")),
         "seed 'x' is not an int in 0..18446744073709551615"),
        (_edit_record(lambda r: r.__setitem__("seed", -1)), "seed -1 is not an int in 0.."),
        (_edit_record(lambda r: r.__setitem__("seed", 2**64)),
         "seed 18446744073709551616 is not an int in 0.."),
        (_edit_record(lambda r: r.__setitem__("strategy_a", 5)), "strategy_a 5 is not a string"),
    ], ids=["leading-zero", "digit-after-bracket", "empty-slot", "whitespace",
            "19-digit-value", "2**63-step", "digit-inside-brackets", "minus-zero",
            "plus-sign", "2**63-value", "value-missing", "value-extra", "300-in-plane-0",
            "no-frames", "leading-zero-and-300", "empty-first-slot", "value-after-bracket",
            "value-before-bracket", "extra-key", "second-kind-after-frames", "str-seed",
            "negative-seed", "2**64-seed", "int-strategy"])
    def test_fixed_edits(self, tmp_path, edit, words):
        header, line = _canonical_lines(tmp_path)
        path = tmp_path / "d.jsonl"
        path.write_bytes(header + b"\n" + edit(line) + b"\n")
        with pytest.raises(CorruptArtifact, match=re.escape(f"d.jsonl:2: {words}")):
            read_dataset(path)

    def test_frame_size_past_the_line_is_not_allocated(self, tmp_path):
        # one zero frame of a 10**9 x 8 header would take 40 GB; the line is
        # too short to hold a frame of that shape, so it is rejected first
        header, line = _canonical_lines(tmp_path)
        head = json.loads(header)
        head["map_height"] = 10**9
        path = tmp_path / "d.jsonl"
        path.write_bytes(json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
                         + b"\n" + line + b"\n")
        with pytest.raises(CorruptArtifact, match=re.escape(f"d.jsonl:2: {LAYOUT}")):
            read_dataset(path)


NAMES = ('Rush "A"', "back\\slash", "\u00dcn\u00efc\u00f8d\u00e9 \u03bb", 'mix\\"\u2603')


def _steps(rng: SplitMix64, count: int) -> list[int]:
    """`count` distinct increasing steps of 1 to 5 digits."""
    seen: set[int] = set()
    while len(seen) < count:
        seen.add(rng.randrange(10 ** (1 + rng.randrange(5))))
    return sorted(seen)


def _seeded_record(rng: SplitMix64, shape, frames: int, dtype) -> MatchRecord:
    """Planes drawn over each plane's full range, with 0 and the plane's
    maximum in every frame; strategy names that json.dumps escapes."""
    planes = np.random.default_rng(rng.next_u64()).integers(
        0, PLANE_MAX + 1, size=(frames, *shape)).astype(dtype)
    planes[:, :, 0, 0] = 0
    planes.reshape(frames, shape[0], -1)[:, :, 1] = PLANE_MAX[:, 0, 0]  # cell (0, 1) on wide maps
    steps = _steps(rng, frames)
    return MatchRecord(
        NAMES[rng.randrange(len(NAMES))], NAMES[rng.randrange(len(NAMES))], rng.next_u64(),
        WINNERS[rng.randrange(3)], max(1, steps[-1] + rng.randrange(3)),
        list(zip(steps, planes)),
    )


class TestWriteParity:
    """write_dataset writes the bytes of a plain json.dumps writer, and every
    file it writes reads back to records it writes to the same bytes."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64], ids=["uint8", "int64"])
    @pytest.mark.parametrize("frames", [1, 300])
    # on 1x6 every row ends a plane, on 6x1 every value ends a row
    @pytest.mark.parametrize("shape", [(5, 8, 8), (5, 16, 16), (5, 8, 12), (5, 1, 6), (5, 6, 1)],
                             ids=["8x8", "16x16", "8x12", "1x6", "6x1"])
    def test_bytes_equal_json_dumps(self, tmp_path, shape, frames, dtype):
        rng = SplitMix64(1000 * frames + shape[1] * shape[2])
        records = [_seeded_record(rng, shape, frames, dtype) for _ in range(3)]
        if frames > 1:
            assert {len(str(step)) for step, _ in records[0].frames} == {1, 2, 3, 4, 5}
        dataset = Dataset(DatasetHeader(map_height=shape[1], map_width=shape[2]), records)
        ours, oracle = tmp_path / "ours.jsonl", tmp_path / "oracle.jsonl"
        write_dataset(ours, dataset)
        oracle_write_dataset(oracle, dataset)
        assert ours.read_bytes() == oracle.read_bytes()
        back = tmp_path / "back.jsonl"
        write_dataset(back, read_dataset(ours))
        assert back.read_bytes() == ours.read_bytes()


def _assert_same_records(got, want):
    """Equal fields, steps and plane values, with uint8 planes on both sides."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.strategy_a, a.strategy_b, a.seed, a.winner, a.duration) == (
            b.strategy_a, b.strategy_b, b.seed, b.winner, b.duration)
        assert [step for step, _ in a.frames] == [step for step, _ in b.frames]
        for (_, pa), (_, pb) in zip(a.frames, b.frames):
            assert pa.dtype == pb.dtype == np.uint8 and np.array_equal(pa, pb)


def _drawn_record(rng: SplitMix64, shape, frames: int) -> MatchRecord:
    """uint8 planes drawn over each plane's full range, steps of 1 to 5
    digits, strategy names that json.dumps escapes."""
    planes = np.random.default_rng(rng.next_u64()).integers(
        0, PLANE_MAX + 1, size=(frames, *shape)).astype(np.uint8)
    steps = _steps(rng, frames)
    return MatchRecord(
        NAMES[rng.randrange(len(NAMES))], NAMES[rng.randrange(len(NAMES))], rng.next_u64(),
        WINNERS[rng.randrange(3)], max(1, steps[-1] + rng.randrange(3)),
        list(zip(steps, planes)),
    )


DIFF_BYTES = b'0123456789,[]-+ .e"'
# what read_dataset turns into CorruptArtifact
REJECTED = (ValueError, KeyError, TypeError, AttributeError, RecursionError)


def _read_or_none(read, line, shape):
    try:
        return read(line, shape)
    except REJECTED:
        return None


class TestReadOracle:
    """The reader accepts exactly the lines the render-back reader
    (`oracle_read_match`) accepts, and reads the same records from them."""

    @pytest.mark.parametrize("shape", [(5, 1, 1), (5, 2, 3), (5, 16, 16)],
                             ids=["1x1", "2x3", "16x16"])
    def test_seeded_mutations_agree_with_render_back(self, tmp_path, shape):
        rng = SplitMix64(77 + shape[1] * shape[2])
        records = [_drawn_record(rng, shape, 1 + rng.randrange(4)) for _ in range(6)]
        assert {len(str(step)) for r in records for step, _ in r.frames} == {1, 2, 3, 4, 5}
        path = tmp_path / "d.jsonl"
        write_dataset(path, Dataset(DatasetHeader(map_height=shape[1], map_width=shape[2]),
                                    records))
        lines = path.read_bytes().splitlines(keepends=True)[1:]
        tally = {"accepted": 0, "rejected": 0}
        for _ in range(1000):
            line = lines[rng.randrange(len(lines))]
            at = rng.randrange(len(line) - 1)  # the newline stays
            byte = DIFF_BYTES[rng.randrange(len(DIFF_BYTES)):][:1]
            op = rng.randrange(3)
            mutated = line[:at] + (byte if op < 2 else b"") + line[at + (op > 0):]
            got = _read_or_none(_read_match, mutated, shape)
            want = _read_or_none(oracle_read_match, mutated, shape)
            assert (got is None) == (want is None), mutated
            if got is not None:
                _assert_same_records([got], [want])
            tally["accepted" if got is not None else "rejected"] += 1
        assert min(tally.values()) > 0, tally  # every outcome occurs

    def test_reading_renders_nothing(self, tmp_path, monkeypatch):
        assert main(["generate", "--out", str(tmp_path), "--seed", "5", "--rounds", "2",
                     "--roster", "WorkerRushLite,LightRushLite,PassiveLite"]) == 0
        path = tmp_path / "dataset.jsonl"
        want = read_dataset(path)

        def render(*args):
            raise AssertionError("the reader rendered a line")

        monkeypatch.setattr(dataset_module, "_frames_text", render)
        monkeypatch.setattr(dataset_module, "_match_pieces", render)
        got = read_dataset(path)
        assert got.header == want.header
        _assert_same_records(got.records, want.records)


def _frames(*steps, dtype=np.int64, shape=(5, 4, 4)):
    return [(step, np.zeros(shape, dtype=dtype)) for step in steps]


def _with_value(value, plane, dtype=np.int64):
    """Frames at steps 2 and 6 where the second holds `value` in `plane`."""
    frames = _frames(2, 6, dtype=dtype)
    frames[1][1][plane, 3, 2] = value
    return frames


class TestWriterChecks:
    """write_dataset rejects, with a ValueError naming the record, every
    value the reader rejects, and leaves no file behind."""

    @pytest.mark.parametrize("changes,words", [
        ({"frames": _with_value(-1, 3)}, "frame 1 plane 3 holds -1"),
        ({"frames": _with_value(26, 4)}, "frame 1 plane 4 holds 26"),
        ({"frames": _with_value(8, 0, dtype=np.uint8)}, "frame 1 plane 0 holds 8"),
        ({"frames": _frames(2, 6, dtype=np.float64)}, "frame 0 plane 0 holds 0.0"),
        ({"frames": _frames(2) + [(np.int64(6), np.zeros((5, 4, 4), np.int64))]},
         "frame 1 step np.int64(6) is not an int"),
        ({"frames": _frames(2, 6.0)}, "frame 1 step 6.0 is not an int"),
        ({"frames": _frames(-1, 6)}, "frame 0 step -1 is outside 0..10"),
        ({"frames": _frames(2, 11)}, "frame 1 step 11 is outside 0..10"),
        ({"frames": _frames(6, 6)}, "frame 1 step 6 does not follow step 6"),
        ({"frames": _frames(6, 2)}, "frame 1 step 2 does not follow step 6"),
        ({"frames": []}, "record has no frames"),
        ({"frames": _frames(2, 6) + _frames(8, shape=(5, 4, 3))},
         "frame 2 planes have shape (5, 4, 3)"),
        ({"duration": 0}, "duration 0 is not an int >= 1"),
        ({"duration": True}, "duration True is not an int >= 1"),
        ({"duration": 10.0}, "duration 10.0 is not an int >= 1"),
        ({"winner": "p3"}, "winner 'p3' is not one of"),
        ({"seed": "x"}, "seed 'x' is not an int in 0..18446744073709551615"),
        ({"seed": -1}, "seed -1 is not an int in 0.."),
        ({"seed": 2**64}, "seed 18446744073709551616 is not an int in 0.."),
        ({"strategy_a": 5}, "strategy_a 5 is not a string"),
        ({"duration": 2**63, "frames": _frames(2**63)},
         "frame 0 step 9223372036854775808 is outside 0..9223372036854775807"),
    ], ids=["negative", "26-in-plane-4", "uint8-8-in-plane-0", "float-planes",
            "numpy-int-step", "float-step", "negative-step", "step-past-duration",
            "repeated-step", "decreasing-step", "no-frames", "frame-shape",
            "zero-duration", "bool-duration", "float-duration", "unknown-winner",
            "2**63-step", "str-seed", "negative-seed", "2**64-seed", "int-strategy"])
    def test_rejected_naming_record_and_frame(self, tmp_path, changes, words):
        good = MatchRecord("A", "B", 0, "p1", 10, _frames(2, 6))
        bad = replace(good, **{"seed": 1, **changes})
        path = tmp_path / "d.jsonl"
        header = DatasetHeader(map_height=4, map_width=4)
        with pytest.raises(ValueError) as caught:
            write_dataset(path, Dataset(header, [good, bad]))
        assert str(caught.value).startswith("record 1: ")
        assert words in str(caught.value)
        assert not path.exists()

    @pytest.mark.parametrize("header,words", [
        (DatasetHeader(map_height=4, map_width=4, channels=4),
         "header key 'channels' must be 5, got 4"),
        (DatasetHeader(map_height=4, map_width="4"),
         "header key 'map_width' must be an integer, got '4'"),
    ], ids=["four-channels", "str-map-size"])
    def test_bad_header_rejected(self, tmp_path, header, words):
        path = tmp_path / "d.jsonl"
        record = MatchRecord("A", "B", 0, "p1", 10, _frames(2, 6))
        with pytest.raises(ValueError, match=words):
            write_dataset(path, Dataset(header, [record]))
        assert not path.exists()


class TestRelabel:
    def test_surviving_units_label(self):
        planes = np.zeros((5, 4, 4), dtype=np.int64)
        planes[2, 0, 0] = 1
        planes[2, 0, 1] = 1
        planes[2, 3, 3] = 2
        rec = MatchRecord("A", "B", 0, "p2", 10, [(10, planes)])
        assert surviving_units_label(rec) == 1  # relabel ignores recorded winner
        planes2 = planes.copy()
        planes2[2, 3, 2] = 2
        rec2 = MatchRecord("A", "B", 0, "p1", 10, [(10, planes2)])
        assert surviving_units_label(rec2) is None
