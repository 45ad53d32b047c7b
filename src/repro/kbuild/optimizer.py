"""Compiler optimization model: -O2 vs -Os.

The paper's ``-tiny`` variants are "compiled to optimize for space with -Os
rather than for performance with -O2" (Section 4); the size/speed factors
here reproduce the ~6% image shrink and the up-to-10-point throughput cost
observed in Table 4.
"""

from __future__ import annotations

import enum


class OptLevel(enum.Enum):
    """Compiler optimization level for the kernel build."""

    O2 = "-O2"
    OS = "-Os"

    @property
    def size_factor(self) -> float:
        """Multiplier on object size relative to -O2."""
        return 1.0 if self is OptLevel.O2 else 0.93

    @property
    def speed_factor(self) -> float:
        """Multiplier on in-kernel execution time relative to -O2."""
        return 1.0 if self is OptLevel.O2 else 1.10
