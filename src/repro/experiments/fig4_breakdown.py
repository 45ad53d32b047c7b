"""Figure 4: breakdown of microVM options removed for lupine-base."""

from __future__ import annotations

from typing import Dict

from repro.core.classification import CATEGORY_LABELS, classify_microvm_options
from repro.metrics.reporting import Table


def run() -> Dict[str, int]:
    classification = classify_microvm_options()
    counts = classification.category_counts()
    return {
        "microvm": len(classification.microvm),
        "removed": len(classification.removed),
        "app": counts["app"],
        "mp": counts["mp"],
        "hw": counts["hw"],
        "lupine-base": len(classification.lupine_base),
    }


def subcategories() -> Dict[str, int]:
    classification = classify_microvm_options()
    return {
        f"{category}:{subcategory}": count
        for (category, subcategory), count in sorted(
            classification.subcategory_counts().items()
        )
    }


def table(results: Dict[str, int]) -> Table:
    output = Table(
        title="Figure 4: kernel configuration option breakdown",
        headers=["category", "options"],
    )
    output.add_row("microVM configuration", results["microvm"])
    for category in ("app", "mp", "hw"):
        output.add_row(f"  removed: {CATEGORY_LABELS[category]}",
                       results[category])
    output.add_row("lupine-base (remaining)", results["lupine-base"])
    for name, count in subcategories().items():
        output.add_row(f"    {name}", count)
    return output
