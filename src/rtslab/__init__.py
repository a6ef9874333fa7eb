"""Desk-scale laboratory for RTS win prediction.

Pieces: a deterministic grid-war simulator with scripted strategies, a
tri-axis (space/time/feature) attention transformer built on an in-house
autodiff tape, classical weighted-scoring evaluators, and a
progress-stratified evaluation harness, all wired together by a CLI.
"""

__version__ = "0.1.0"


class CorruptArtifact(ValueError):
    """An input file exists but its content is malformed (CLI exit code 2)."""


class ConfigError(ValueError):
    """Bad configuration: a model config, a run config or a command line
    (CLI exit code 3)."""
