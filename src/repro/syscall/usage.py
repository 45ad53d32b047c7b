"""Usage recording: which syscalls and config options a guest exercises.

Loupe (PAPERS.md) showed that *measured* syscall usage beats static
analysis for deciding what an OS layer must support.  A
:class:`UsageTrace` rides on a
:class:`~repro.syscall.dispatch.SyscallEngine` and records,
deterministically, every syscall invoked (with counts), every
config-gated option exercised, and every ENOSYS miss (syscall name ->
missing option) -- including through ``invoke_batch`` closed-form folds,
which attribute usage per distinct name without stepping the loop.

The recorder is pure bookkeeping: attaching one never changes engine
timing, call counters, or manifest digests.  Facilities (socket
families, mounts, kernel crypto) are recorded by the workload layer via
:meth:`UsageTrace.record_facility`, since the engine itself only sees
syscall names.

Traces feed :mod:`repro.kconfig.derive`, which turns an observed usage
set into a concrete kernel configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set



@dataclass
class UsageTrace:
    """Deterministic record of one guest's syscall/config-option usage.

    ``syscall_counts`` and ``option_counts`` count successful
    invocations (options via the Table 1 gating of each syscall);
    ``misses`` maps syscalls that returned ENOSYS to the option whose
    absence caused it (``None`` for unknown syscalls).  ``facilities``
    holds runtime facilities touched by the workload layer.
    """

    owner: str = ""
    syscall_counts: Dict[str, int] = field(default_factory=dict)
    option_counts: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, Optional[str]] = field(default_factory=dict)
    facilities: Set[str] = field(default_factory=set)

    # -- recording ---------------------------------------------------------

    def record(self, name: str, option: Optional[str], repeats: int = 1) -> None:
        """Record *repeats* successful invocations of *name*.

        *option* is the syscall's gating option (``None`` for ungated
        syscalls).  ``invoke_batch`` calls this once per distinct name
        with the full repeat count -- attribution without stepping.
        """
        if repeats <= 0:
            return
        self.syscall_counts[name] = self.syscall_counts.get(name, 0) + repeats
        if option is not None:
            self.option_counts[option] = (
                self.option_counts.get(option, 0) + repeats
            )

    def record_miss(self, name: str, missing_option: Optional[str]) -> None:
        """Record an ENOSYS failure of *name* (gated out or unknown)."""
        self.misses[name] = missing_option

    def record_facility(self, facility: str) -> None:
        """Record a touched runtime facility (e.g. ``socket:inet``)."""
        self.facilities.add(facility)

    # -- views -------------------------------------------------------------

    @property
    def syscalls(self) -> FrozenSet[str]:
        """Distinct syscalls observed to succeed."""
        return frozenset(self.syscall_counts)

    @property
    def options(self) -> FrozenSet[str]:
        """Config-gated options exercised by successful syscalls."""
        return frozenset(self.option_counts)

    @property
    def missing_options(self) -> FrozenSet[str]:
        """Options whose absence produced an observed ENOSYS."""
        return frozenset(
            option for option in self.misses.values() if option is not None
        )

    @property
    def call_count(self) -> int:
        return sum(self.syscall_counts.values())

    def __bool__(self) -> bool:
        return bool(self.syscall_counts or self.misses or self.facilities)

    # -- merging -----------------------------------------------------------

    def merge(self, other: "UsageTrace") -> None:
        """Fold *other*'s observations into this trace (order-insensitive)."""
        for name, count in other.syscall_counts.items():
            self.syscall_counts[name] = (
                self.syscall_counts.get(name, 0) + count
            )
        for option, count in other.option_counts.items():
            self.option_counts[option] = (
                self.option_counts.get(option, 0) + count
            )
        for name, option in other.misses.items():
            self.misses.setdefault(name, option)
        self.facilities.update(other.facilities)

    @classmethod
    def merged(
        cls, traces: Iterable["UsageTrace"], owner: str = ""
    ) -> "UsageTrace":
        """Merge many traces (e.g. every worker that served one app)."""
        out = cls(owner=owner)
        for trace in traces:
            out.merge(trace)
        return out

    # -- interchange -------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Canonical (sorted) dict form; the digest is computed over it."""
        return {
            "owner": self.owner,
            "syscalls": dict(sorted(self.syscall_counts.items())),
            "options": dict(sorted(self.option_counts.items())),
            "misses": {
                name: option or ""
                for name, option in sorted(self.misses.items())
            },
            "facilities": sorted(self.facilities),
        }

    def digest(self) -> str:
        """sha256 over the canonical JSON form (hash-seed independent)."""
        payload = json.dumps(
            self.as_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()
