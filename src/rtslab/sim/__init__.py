"""Deterministic grid-war simulator: engine, strategies, datasets."""
