"""Published full-scale reference results.

These numbers come from the original full-scale study (3,150 matches,
500-frame inputs, GPU training). They are NOT reproduced by this
desk-scale lab and appear in outputs only as rows flagged `paper`, for
context next to locally computed values. The published parameter totals
sit with the census they are compared to, in docs/parameter_counts.py.
"""

# accuracy by game-progress fraction, per model preset
REFERENCE_ACCURACY: dict[str, dict[float, float]] = {
    "tstf-8": {0.04: 0.587, 0.20: 0.833, 0.40: 0.976},
    "tstf-6": {0.04: 0.582, 0.20: 0.782, 0.40: 0.938},
    "timesformer-12": {0.04: 0.418, 0.20: 0.773, 0.40: 0.962},
}

# the one fraction where precision/recall were published (tstf-8 @ 20%)
REFERENCE_PRECISION = {"tstf-8": {0.20: 0.829}}
REFERENCE_RECALL = {"tstf-8": {0.20: 0.827}}

# combined-index standard deviation, (early <=40%, late >40%)
REFERENCE_OP_STD: dict[str, tuple[float, float]] = {
    "tstf-8": (0.947, 0.114),
    "tstf-6": (1.253, 0.167),
    "timesformer-12": (1.842, 0.186),
    "simple": (0.324, 0.283),
    "lanchester": (0.298, 0.271),
}
