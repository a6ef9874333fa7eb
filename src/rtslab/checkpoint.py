"""Flat binary container for named float64 parameter arrays.

Byte-exact layout (all integers little-endian, no padding anywhere):

    offset  size          field
    0       8             magic: the ASCII bytes "RTSLABP1"
    8       4             u32 entry count
    --- per entry, in ascending name order (bytewise UTF-8) ---
    +0      4             u32 byte length of the UTF-8 name
    +4      n             name bytes
    +       4             u32 ndim
    +       8*ndim        u64 dims, outermost first
    +       8*prod(dims)  float64 payload, row-major, little-endian

Sorting entries by name makes the file a pure function of the mapping, so
identical parameters always serialize to identical bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import CorruptArtifact
from .tensor import Tensor

MAGIC = b"RTSLABP1"


def save_checkpoint(path: str | Path, params: dict[str, Tensor | np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = params[name]
        data = np.asarray(arr.data if isinstance(arr, Tensor) else arr, dtype="<f8")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}Q", *data.shape))
        chunks.append(data.tobytes())  # row-major whatever the array's layout
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Every named array of a container; CorruptArtifact if it is malformed
    or holds a NaN/Inf."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CorruptArtifact(f"{path}: not a parameter container (bad magic)")
    try:
        out, offset = _parse_entries(raw)
    except (struct.error, ValueError, OverflowError) as exc:
        raise CorruptArtifact(f"{path}: truncated or malformed container ({exc})") from None
    if offset != len(raw):
        raise CorruptArtifact(f"{path}: {len(raw) - offset} trailing bytes")
    for name, arr in out.items():
        if not np.isfinite(arr).all():
            raise CorruptArtifact(f"{path}: non-finite value in {name}")
    return out


def _parse_entries(raw: bytes) -> tuple[dict[str, np.ndarray], int]:
    """Every entry after the magic, and the offset where parsing stopped."""
    (count,) = struct.unpack_from("<I", raw, 8)
    offset = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        name = raw[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (ndim,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        dims = struct.unpack_from(f"<{ndim}Q", raw, offset)
        offset += 8 * ndim
        n = 1
        for d in dims:
            n *= d
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(dims)
        offset += 8 * n
        out[name] = arr.astype(np.float64)
    return out, offset
