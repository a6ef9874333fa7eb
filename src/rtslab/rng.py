"""Deterministic 64-bit random number generation.

Every stochastic component in this package (parameter init, match seeds,
biased strategies, batch shuffling) draws from :class:`SplitMix64` so that
identical seeds give bit-identical runs on any platform.

The state transition, written out so the stream is reproducible from the
docs alone (SplitMix64; Steele, Lea & Flood, OOPSLA 2014):

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      <- ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z xor (z >> 31)

The state after n draws from seed s is therefore (s + n * 0x9E3779B97F4A7C15)
mod 2^64, so output n depends on n alone. A stream computes its outputs
ahead in blocks with numpy's wrapping uint64 arithmetic, which gives the
formula's values one for one; only when they are computed changes. The
first block holds 32 values and each next one twice as many, up to
`_MAX_BLOCK`, so blocks start after 0, 32, 96, 224, ... draws. Seeding
with `derive_seed` makes no stream and no numpy call.

Doubles in [0, 1) take the top 53 bits of the output; normal deviates use
Box-Muller on two such doubles (one spare cached per pair).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FIRST_BLOCK = 32
_MAX_BLOCK = 1024


def _mix(z: int) -> int:
    """The output for state z (Python ints: cheaper than numpy for one value)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _outputs(origin: int, first: int, n: int) -> list[int]:
    """Outputs first .. first + n - 1 (counted from 1) of the stream seeded
    with `origin`, as Python ints."""
    z = np.arange(first, first + n, dtype=np.uint64)
    z *= np.uint64(_GAMMA)  # uint64 arrays wrap mod 2^64
    z += np.uint64(origin)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z.tolist()


class SplitMix64:
    """64-bit generator with the splitmix state transition above."""

    __slots__ = ("_origin", "_drawn", "_block", "_next", "_spare_normal")

    def __init__(self, seed: int):
        self._origin = seed & _MASK64
        self._drawn = 0  # outputs handed out before the current block
        self._block: list[int] = []
        self._next = 0  # index in _block of the next output
        self._spare_normal: float | None = None

    @property
    def state(self) -> int:
        """The splitmix state after the u64 draws made so far: SplitMix64(state)
        continues the u64 stream, but without a pending `normal` spare."""
        return (self._origin + (self._drawn + self._next) * _GAMMA) & _MASK64

    @property
    def position(self) -> tuple[int, float | None]:
        """`state` and the pending `normal` spare: all that the next draws depend on."""
        return self.state, self._spare_normal

    def next_u64(self) -> int:
        i = self._next
        try:
            out = self._block[i]
        except IndexError:
            self._refill()
            i = 0
            out = self._block[0]
        self._next = i + 1
        return out

    def _refill(self) -> None:
        n = len(self._block)
        self._drawn += n
        self._block = _outputs(
            self._origin, self._drawn + 1, min(2 * n, _MAX_BLOCK) if n else _FIRST_BLOCK
        )

    def uniform(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self, std: float = 1.0) -> float:
        """Zero-mean Gaussian deviate via Box-Muller; pairs share one radius draw."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return std * z
        u1 = self.uniform()
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return std * r * math.cos(2.0 * math.pi * u2)

    def randrange(self, n: int) -> int:
        """Integer in [0, n). Plain modulo; the <2^-50 bias is irrelevant here."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        return self.next_u64() % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(root: int, *parts: int) -> int:
    """Fold integer parts into a root seed, one splitmix scramble per part:
    each part p turns h into the first output of SplitMix64(h xor (p + gamma)).

    Used to give every (pair, round) match its own independent stream while
    keeping the whole tournament a pure function of one seed.
    """
    h = root & _MASK64
    for p in parts:
        h = _mix(((h ^ ((p + _GAMMA) & _MASK64)) + _GAMMA) & _MASK64)
    return h
