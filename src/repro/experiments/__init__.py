"""Experiment drivers: one module per paper table/figure.

Each module exposes a ``run()`` returning structured results plus a
``figure(results)``/``table(results)`` renderer that turns that result into
the rows/series the paper reports without simulating anything again.  The
benchmark harness, the CLI and EXPERIMENTS.md all consume these, so there
is exactly one implementation of every experiment and each use of it runs
the simulation once.
"""

from repro.experiments import (  # noqa: F401
    ext_coldstart,
    ext_derived,
    ext_security,
    fig3_config_options,
    fig4_breakdown,
    fig5_growth,
    fig6_image_size,
    fig7_boot_time,
    fig8_memory,
    fig9_syscalls,
    fig10_kml,
    fig11_control,
    fig12_ctxsw,
    sec5_smp,
    table1_syscall_options,
    table3_top20,
    table4_apps,
    table5_lmbench,
)

#: The paper's own tables and figures.
PAPER_EXPERIMENTS = {
    "fig3": fig3_config_options,
    "fig4": fig4_breakdown,
    "table1": table1_syscall_options,
    "table3": table3_top20,
    "fig5": fig5_growth,
    "fig6": fig6_image_size,
    "fig7": fig7_boot_time,
    "fig8": fig8_memory,
    "fig9": fig9_syscalls,
    "fig10": fig10_kml,
    "table4": table4_apps,
    "fig11": fig11_control,
    "fig12": fig12_ctxsw,
    "sec5": sec5_smp,
    "table5": table5_lmbench,
}

#: Extension studies (DESIGN.md §6), runnable through the same harness.
EXTENSION_EXPERIMENTS = {
    "ext-coldstart": ext_coldstart,
    "ext-derived": ext_derived,
    "ext-security": ext_security,
}

ALL_EXPERIMENTS = {**PAPER_EXPERIMENTS, **EXTENSION_EXPERIMENTS}
