"""Output fingerprints and their comparison with committed references.

Integer artifacts must match exactly: the dataset and split manifest by
sha256, and every classical-evaluator row, header and comment line of a CSV
through the sha256 of those lines. Model outputs are floats: neural rows of
the CSVs, every row of ``train_log.csv`` and the floats of ``train.json``
must match the reference within ``ATOL``, while their integers and strings
(``best_epoch``, predicted winners, step indices) must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ATOL = 1e-6  # absolute tolerance on every floating-point model output
CLASSICAL = ("simple", "lanchester")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _exact_row(cells: list[str], index: int, name: str) -> bool:
    if index == 0 or cells[0].startswith("#"):
        return True  # header or comment
    if name == "train_log.csv":
        return False
    return cells[0] in CLASSICAL or (len(cells) > 1 and cells[1] == "paper")


def fingerprint(path: Path) -> dict:
    """What a reference records about one output file."""
    if path.suffix == ".csv":
        exact, approx = [], []
        for i, line in enumerate(path.read_text().splitlines()):
            cells = line.split(",")
            if _exact_row(cells, i, path.name):
                exact.append(line)
            else:
                approx.append([_number(c) for c in cells])
        digest = hashlib.sha256("\n".join(exact).encode()).hexdigest()
        return {"exact_sha256": digest, "approx": approx}
    if path.name == "train.json":
        return {"json": json.loads(path.read_text())}
    return {"sha256": sha256_file(path)}


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            return math.isfinite(a) and abs(a - b) <= ATOL
        return False
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def mismatches(actual: dict[str, dict], expected: dict[str, dict]) -> list[str]:
    """Names of the files whose fingerprint differs from the reference."""
    bad = sorted(set(actual) ^ set(expected))
    for name in sorted(set(actual) & set(expected)):
        if not _close(actual[name], expected[name]):
            bad.append(name)
    return bad

