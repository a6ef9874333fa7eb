"""Print docs/parameter_counts.md: the exact parameter census of every
model preset, next to the published full-scale totals.

Regenerate the file from the repository root with

    PYTHONPATH=src python3 docs/parameter_counts.py > docs/parameter_counts.md
"""

from rtslab.model.config import PRESETS
from rtslab.model.params import GROUP_ORDER, count_params
from rtslab.train.published import REFERENCE_PARAM_COUNTS


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
        counts = count_params(cfg)
        lines.append(f"## {name}")
        lines.append("")
        lines.append("| group | parameters | per layer |")
        lines.append("|---|---:|---:|")
        for group in GROUP_ORDER:
            per = counts.per_layer.get(group, 0)
            per_str = f"{per:,}" if per else ""
            lines.append(f"| {group} | {counts.groups.get(group, 0):,} | {per_str} |")
        lines.append(f"| **allocated** | **{counts.total_allocated:,}** | |")
        lines.append(f"| **active** | **{counts.total_active:,}** | |")
        lines.append("")
        published = REFERENCE_PARAM_COUNTS.get(name)
        if published is not None:
            delta = counts.total_active - published
            pct = 100.0 * delta / published
            lines.append(
                f"Published total: {published:,}. Delta (active - published): "
                f"{delta:+,} ({pct:+.1f}%)."
            )
            lines.append("")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(accounting_report(), end="")
