"""Memory substrate: demand-paged address spaces and footprint measurement.

Implements the mechanisms behind Figure 8: Linux loads binaries lazily, so
the minimum memory needed by a guest tracks the kernel's resident code and
static allocations, not application binary size -- which is why microVM and
Lupine show no variation across hello/nginx/redis while unikernels do.
"""
