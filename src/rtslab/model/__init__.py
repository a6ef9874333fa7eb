"""Tri-axis attention win predictor: config, parameters, network."""

# Import each name from the module that defines it. These two stay
# importable from the package only because perfbench/probe.py and
# perfbench/tracer.py import them by this path, and perfbench is kept
# fixed so that its runs compare across commits.
from .config import get_preset
from .network import WinPredictor
