"""Memory model: a guest's page-granular boot requirement and footprint search.

Implements the mechanism behind Figure 8: Linux loads binaries lazily, so
the minimum memory needed by a guest tracks the kernel's resident code and
static allocations plus the application's resident set, not application
binary size -- which is why microVM and Lupine show no variation across
hello/nginx/redis while unikernels do.
"""
