"""Print docs/parameter_counts.md: the exact parameter census of every
model preset, next to the published full-scale totals.

The census (each parameter's group) and the published totals live here,
with their one reader; the package itself counts only the active total
(`rtslab.model.params.count_params`). Regenerate the file from the repository
root with

    PYTHONPATH=src python3 docs/parameter_counts.py > docs/parameter_counts.md
"""

import numpy as np

from rtslab.model.config import PRESETS, ModelConfig
from rtslab.model.params import count_params, parameter_spec

# full-scale parameter counts as published (counting basis unknown)
REFERENCE_PARAM_COUNTS: dict[str, int] = {
    "timesformer-12": 5_542_146,
    "tstf-6": 3_565_314,
    "tstf-8": 4_750_082,
}

# the group of a parameter by its scope: the first part of its name, or
# the part after `layers.{l}.` for a layer's parameters
SCOPE_GROUPS = {
    "embed": "embedding",
    "pos": "positional",
    "cls": "cls_token",
    "sa": "spatial",
    "ta": "temporal",
    "fa": "feature",
    "cls_attn": "cls_route",
    "cls_norm": "cls_route",
    "norm": "norms",
    "head": "head",
}
GROUPS = tuple(dict.fromkeys(SCOPE_GROUPS.values()))  # the table's row order


def group_of(name: str) -> str:
    parts = name.split(".")
    return SCOPE_GROUPS[parts[2] if parts[0] == "layers" else parts[0]]


def census(config: ModelConfig) -> tuple[dict[str, int], dict[str, int]]:
    """(parameters per group, parameters per group in layer 0), over every
    allocated array."""
    groups = dict.fromkeys(GROUPS, 0)
    per_layer = dict.fromkeys(GROUPS, 0)
    for name, shape, _ in parameter_spec(config):
        n = int(np.prod(shape))
        groups[group_of(name)] += n
        if name.startswith("layers.0."):
            per_layer[group_of(name)] += n
    return groups, per_layer


def accounting_report() -> str:
    """Markdown census of every preset vs the published full-scale counts."""
    lines = [
        "# Parameter accounting",
        "",
        "Exact counts from shape algebra, per group and preset. `active` excludes",
        "groups a variant never touches (the feature scope for space/time-only",
        "models). Published totals use an unknown counting basis, so deltas are",
        "reported, not forced to zero.",
        "",
    ]
    for name in ("desk", "tstf-6", "tstf-8", "timesformer-12"):
        cfg = PRESETS[name]
        groups, per_layer = census(cfg)
        active = count_params(cfg)
        lines.append(f"## {name}")
        lines.append("")
        lines.append("| group | parameters | per layer |")
        lines.append("|---|---:|---:|")
        for group in GROUPS:
            per = per_layer[group]
            per_str = f"{per:,}" if per else ""
            lines.append(f"| {group} | {groups[group]:,} | {per_str} |")
        lines.append(f"| **allocated** | **{sum(groups.values()):,}** | |")
        lines.append(f"| **active** | **{active:,}** | |")
        lines.append("")
        published = REFERENCE_PARAM_COUNTS.get(name)
        if published is not None:
            delta = active - published
            pct = 100.0 * delta / published
            lines.append(
                f"Published total: {published:,}. Delta (active - published): "
                f"{delta:+,} ({pct:+.1f}%)."
            )
            lines.append("")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(accounting_report(), end="")
