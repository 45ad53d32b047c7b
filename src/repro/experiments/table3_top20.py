"""Table 3: top-20 Docker Hub applications and options atop lupine-base."""

from __future__ import annotations

from typing import Dict

from repro.apps.registry import top20_in_popularity_order
from repro.core.specialization import app_option_requirements
from repro.metrics.reporting import Table


def run() -> Dict[str, int]:
    """App -> option count, derived through the manifest pipeline."""
    return {
        app.name: len(app_option_requirements(app))
        for app in top20_in_popularity_order()
    }


def table(counts: Dict[str, int]) -> Table:
    output = Table(
        title="Table 3: top-20 Docker Hub applications",
        headers=["Name", "Downloads (B)", "Description",
                 "# options atop lupine-base"],
    )
    for app in top20_in_popularity_order():
        output.add_row(
            app.name, app.downloads_billions, app.description,
            counts[app.name],
        )
    return output
