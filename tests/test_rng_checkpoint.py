"""Determinism of the RNG stream and the parameter container round-trip."""

import numpy as np
import pytest

from rtslab import CorruptArtifact, rng as rng_module
from rtslab.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from rtslab.rng import SplitMix64, derive_seed
from rtslab.tensor import Tensor

from oracles import OracleSplitMix64, oracle_derive_seed

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
EDGE_SEEDS = (0, 1, MASK64)


class TestSplitMix64:
    def test_known_first_output(self):
        # splitmix64(0) reference value, fixed by the documented transition
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF

    def test_streams_reproducible(self):
        a = [SplitMix64(123).next_u64() for _ in range(1)]
        b = SplitMix64(123)
        assert a[0] == b.next_u64()
        xs = [SplitMix64(9).uniform() for _ in range(3)]
        assert xs[0] == xs[1] == xs[2]

    def test_uniform_range(self):
        rng = SplitMix64(42)
        vals = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_normal_moments(self):
        rng = SplitMix64(7)
        vals = np.array([rng.normal() for _ in range(20000)])
        assert abs(vals.mean()) < 0.05
        assert abs(vals.std() - 1.0) < 0.05

    def test_shuffle_deterministic(self):
        a, b = list(range(10)), list(range(10))
        SplitMix64(5).shuffle(a)
        SplitMix64(5).shuffle(b)
        assert a == b
        assert sorted(a) == list(range(10))

    def test_derive_seed_varies_by_part(self):
        s = {derive_seed(1, p, r) for p in range(10) for r in range(10)}
        assert len(s) == 100
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)


def block_starts(monkeypatch, draws: int) -> list[int]:
    """The draw counts after which a stream computes its next block,
    recorded by wrapping the block function over `draws` draws."""
    starts = []
    real = rng_module._outputs

    def recording(origin, first, n):
        starts.append(first - 1)
        return real(origin, first, n)

    with monkeypatch.context() as patch:
        patch.setattr(rng_module, "_outputs", recording)
        r = SplitMix64(0)
        for _ in range(draws):
            r.next_u64()
    return starts


class TestBlockStream:
    """The block-computed stream against the one-draw-at-a-time oracle."""

    def test_blocks_start_small_and_grow(self, monkeypatch):
        starts = block_starts(monkeypatch, 5000)
        assert starts[:4] == [0, 32, 96, 224]
        sizes = [b - a for a, b in zip(starts, starts[1:])]
        assert sizes == sorted(sizes) and sizes[-1] > 100

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_outputs_and_state_match_the_oracle(self, seed):
        ours, oracle = SplitMix64(seed), OracleSplitMix64(seed)
        for k in range(1, 5001):
            assert ours.next_u64() == oracle.next_u64()
            assert ours.state == oracle.state == (seed + k * GAMMA) & MASK64

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_fresh_streams_around_every_block_edge(self, monkeypatch, seed):
        counts = sorted({
            n for start in block_starts(monkeypatch, 10000) if start > 0
            for n in (start - 1, start, start + 1)
        })
        assert len(counts) >= 30
        full = OracleSplitMix64(seed)
        expected = [full.next_u64() for _ in range(counts[-1])]
        for n in counts:
            r = SplitMix64(seed)
            assert [r.next_u64() for _ in range(n)] == expected[:n]
            assert r.state == (seed + n * GAMMA) & MASK64

    @pytest.mark.parametrize("drawn", [1, 2, 40, 1100])
    def test_fork_from_state_continues_the_stream(self, drawn):
        r = SplitMix64(99)
        for _ in range(drawn):
            r.next_u64()
        fork = SplitMix64(r.state)
        assert [fork.next_u64() for _ in range(3000)] == [r.next_u64() for _ in range(3000)]

    def test_normal_spare_and_mixed_draws(self):
        ours, oracle = SplitMix64(17), OracleSplitMix64(17)
        for i in range(1501):  # odd, so a spare is pending at the end
            assert ours.normal(2.0) == oracle.normal(0.0, 2.0)
            if i % 7 == 0:
                assert ours.uniform() == oracle.uniform()
        assert ours.normal() == oracle.normal()  # the pending spare
        assert ours.next_u64() == oracle.next_u64()
        assert ours.state == oracle.state

    def test_short_streams_make_no_numpy_call(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used")

        monkeypatch.setattr(rng_module, "np", NoNumpy())
        assert derive_seed(3, 20, 1) == oracle_derive_seed(3, 20, 1)

    def test_derive_seed_pinned(self):
        pins = {
            (0,): 0x0,
            (0, 0): 0x6E789E6AA1B965F4,
            (7, 1, 2): 0x024E3158AE35EAF0,
            (3, 0, 0): 0x514EC2BA90F34D3C,
            (3, 20, 1): 0x98385DC136BC0F12,
            (MASK64, 5): 0x93FAE6B03BB63E47,
            (5, 1): 0xBA56949915DCF9E9,
            (5, 2): 0xEC779C3693F88501,
            (123456789, -1, 2 ** 70): 0xCA1B43810DCA64B0,
        }
        for args, value in pins.items():
            assert derive_seed(*args) == value == oracle_derive_seed(*args)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = SplitMix64(1)
        params = {
            "layer.w": Tensor(np.array([rng.normal() for _ in range(6)]).reshape(2, 3)),
            "layer.b": Tensor(np.zeros(3)),
            "scalar": Tensor(np.array(2.5)),
            "transposed": np.arange(6.0).reshape(2, 3).T,  # not C-contiguous
        }
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for k in params:
            data = params[k].data if isinstance(params[k], Tensor) else params[k]
            assert loaded[k].shape == data.shape
            assert np.array_equal(loaded[k], data)

    def test_bytes_independent_of_insertion_order(self, tmp_path):
        a = {"x": np.ones(2), "y": np.zeros(3)}
        b = {"y": np.zeros(3), "x": np.ones(2)}
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(pa, a)
        save_checkpoint(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_layout_is_as_documented(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.array([1.0, 2.0])})
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        assert raw[8:12] == (1).to_bytes(4, "little")
        assert raw[12:16] == (1).to_bytes(4, "little")  # name length
        assert raw[16:17] == b"a"
        assert raw[17:21] == (1).to_bytes(4, "little")  # ndim
        assert raw[21:29] == (2).to_bytes(8, "little")  # dim 0
        assert raw[29:] == np.array([1.0, 2.0], dtype="<f8").tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    # keep the first n bytes: cut inside the magic, the entry count, the
    # first entry's header and its payload; -1 appends one stray byte
    @pytest.mark.parametrize("keep", [4, 10, 20, 30, -1])
    def test_truncated_or_padded_file_is_corrupt(self, tmp_path, keep):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.array([1.0, 2.0]), "b": np.zeros((2, 2))})
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" if keep == -1 else raw[:keep])
        with pytest.raises(CorruptArtifact):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_is_corrupt(self, tmp_path, value):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"a": np.array([1.0, value])})
        with pytest.raises(CorruptArtifact, match="non-finite value in a"):
            load_checkpoint(path)
