"""Determinism of the RNG stream and the parameter container round-trip."""

import numpy as np
import pytest

from rtslab.checkpoint import MAGIC, CorruptCheckpoint, load_checkpoint, save_checkpoint
from rtslab.rng import SplitMix64, derive_seed
from rtslab.tensor import Tensor


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


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = SplitMix64(1)
        params = {
            "layer.w": Tensor(np.array([rng.normal() for _ in range(6)]).reshape(2, 3)),
            "layer.b": Tensor(np.zeros(3)),
            "scalar": Tensor(np.array(2.5)),
        }
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for k in params:
            assert loaded[k].shape == params[k].data.shape
            assert np.array_equal(loaded[k], params[k].data)

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
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)
