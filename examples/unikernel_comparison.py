#!/usr/bin/env python3
"""Head-to-head: Lupine vs microVM vs OSv, HermiTux and Rumprun.

Regenerates the evaluation's headline comparison across all four unikernel
dimensions -- image size (Figure 6), boot time (Figure 7), memory footprint
(Figure 8) and syscall latency (Figure 9) -- and prints the normalized
application throughput table (Table 4).

Run: ``python examples/unikernel_comparison.py``
"""

from repro.experiments import (
    fig6_image_size,
    fig7_boot_time,
    fig8_memory,
    fig9_syscalls,
    table4_apps,
)
from repro.metrics.reporting import render_figure, render_table


def main() -> None:
    results = {}
    for module in (fig6_image_size, fig7_boot_time, fig8_memory,
                   fig9_syscalls):
        results[module] = module.run()
        print(render_figure(module.figure(results[module])))
        print()
    print(render_table(table4_apps.table(table4_apps.run())))

    image_mb = results[fig6_image_size]
    lupine_fraction = image_mb["lupine"] / image_mb["microvm"]
    print(f"\nheadline: lupine kernel is {lupine_fraction:.0%} of microVM's "
          "image and beats at least one reference unikernel on every "
          "dimension above.")


if __name__ == "__main__":
    main()
