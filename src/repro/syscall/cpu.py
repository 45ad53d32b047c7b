"""CPU cost model for kernel entry/exit and per-syscall overheads.

All values are simulated nanoseconds, calibrated so the *ratios* the paper
reports fall out of the mechanism:

- a ``syscall``/``sysret`` pair (ring 3 -> ring 0 -> ring 3) costs
  ``SYSCALL_ENTRY_NS``;
- a KML same-privilege ``call`` costs ``KML_CALL_NS`` -- the only thing KML
  changes (kernel execution paths are identical, Section 3.2);
- the legacy ``int 0x80`` entry is modelled for completeness;
- KPTI adds a CR3 switch + TLB flush per entry *and* exit, reproducing the
  paper's observed 10x null-syscall slowdown (Section 3.1.2);
- per-syscall overheads are charged for configured-in auditing/seccomp, and
  data-path overheads for debug/hardening options on VFS/allocator paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping

#: Cost of a hardware privilege transition round trip (syscall + sysret).
SYSCALL_ENTRY_NS = 30.0

#: Cost of a same-privilege call/ret used by KML kernel-mode processes
#: (still runs the kernel's syscall prologue: stack switch, register save).
KML_CALL_NS = 17.0

#: Cost of the legacy ``int 0x80`` soft-interrupt entry.
INT80_ENTRY_NS = 110.0

#: Extra cost per kernel entry AND exit when KPTI is active (CR3 write +
#: TLB flush).  Two charges per syscall give the paper's ~10x null-call hit.
KPTI_SWITCH_NS = 145.0

#: Per-syscall overhead of syscall-entry hooks, by config option.
SYSCALL_HOOK_NS: Mapping[str, float] = {
    "AUDITSYSCALL": 6.5,
    "SECCOMP": 2.5,
    "SECCOMP_FILTER": 4.0,
    "FTRACE_SYSCALLS": 1.5,
    "SECURITY": 2.0,
}

#: Per-syscall overhead on data-path syscalls (VFS, allocator), by option.
DATA_PATH_HOOK_NS: Mapping[str, float] = {
    "SLUB_DEBUG": 8.0,
    "DEBUG_LIST": 4.0,
    "DEBUG_SG": 2.0,
    "DEBUG_MUTEXES": 3.0,
    "DEBUG_SPINLOCK": 3.0,
    "DEBUG_PAGEALLOC": 3.5,
    "SECURITY_SELINUX": 5.0,
    "AUDIT": 2.0,
}

#: Direct cost of a thread context switch (same address space), excluding
#: config-dependent overheads and cache-refill effects.
THREAD_SWITCH_NS = 380.0

#: How strongly data-path debug/hardening options inflate a context switch
#: (they instrument the runqueue/stack bookkeeping the switch touches).
SWITCH_HOOK_FACTOR = 5.0

#: Additional cost for switching between different address spaces (CR3 write
#: plus TLB refill amortization).  The paper (Figure 12) finds process
#: switching is *not* slower than thread switching on modern tagged TLBs, so
#: this is nearly zero; lazy TLB handling can even make it slightly cheaper.
ADDRESS_SPACE_SWITCH_NS = -10.0

#: Cost multiplier applied to in-kernel work when compiled with -Os.
OS_SIZE_OPT_SLOWDOWN = 1.10


class EntryMechanism(enum.Enum):
    """How user code enters the kernel for a system call."""

    SYSCALL = "syscall"
    INT80 = "int80"
    KML_CALL = "kml-call"

    @property
    def entry_ns(self) -> float:
        return _ENTRY_NS[self]

    @property
    def crosses_privilege(self) -> bool:
        return self is not EntryMechanism.KML_CALL


#: Round-trip cost of each entry mechanism (``EntryMechanism.entry_ns``).
_ENTRY_NS: Mapping[EntryMechanism, float] = {
    EntryMechanism.SYSCALL: SYSCALL_ENTRY_NS,
    EntryMechanism.INT80: INT80_ENTRY_NS,
    EntryMechanism.KML_CALL: KML_CALL_NS,
}


@dataclass(frozen=True)
class CpuCostModel:
    """Aggregated per-configuration CPU costs.

    Built once from a set of enabled options; the dispatch engine then only
    does additions per simulated syscall.  The entry/exit cost and the
    kernel work factor are computed once, at construction.
    """

    entry: EntryMechanism
    kpti: bool
    size_optimized: bool
    syscall_hook_ns: float
    data_path_hook_ns: float

    def __post_init__(self) -> None:
        entry_exit = self.entry.entry_ns
        if self.kpti and self.entry.crosses_privilege:
            entry_exit += 2.0 * KPTI_SWITCH_NS
        # Frozen: the derived values are set past the dataclass guard.
        object.__setattr__(self, "_entry_exit_ns", entry_exit)
        object.__setattr__(
            self, "_work_factor",
            OS_SIZE_OPT_SLOWDOWN if self.size_optimized else 1.0,
        )

    @classmethod
    def for_options(
        cls,
        enabled_options: Iterable[str],
        entry: EntryMechanism = EntryMechanism.SYSCALL,
        kpti: bool = False,
        size_optimized: bool = False,
    ) -> "CpuCostModel":
        enabled: FrozenSet[str] = frozenset(enabled_options)
        hook = sum(
            cost for option, cost in SYSCALL_HOOK_NS.items() if option in enabled
        )
        data = sum(
            cost for option, cost in DATA_PATH_HOOK_NS.items() if option in enabled
        )
        if kpti and "PAGE_TABLE_ISOLATION" not in enabled:
            raise ValueError("KPTI requested but PAGE_TABLE_ISOLATION not enabled")
        return cls(
            entry=entry,
            kpti=kpti,
            size_optimized=size_optimized,
            syscall_hook_ns=hook,
            data_path_hook_ns=data,
        )

    @property
    def kernel_work_factor(self) -> float:
        """Multiplier on in-kernel work (``-Os`` slows kernel paths)."""
        return self._work_factor

    def entry_exit_ns(self) -> float:
        """Cost to get into and out of the kernel for one syscall."""
        return self._entry_exit_ns

    def syscall_ns(self, handler_ns: float, data_path: bool) -> float:
        """Total simulated latency of one syscall."""
        work = handler_ns + self.syscall_hook_ns
        if data_path:
            work += self.data_path_hook_ns
        return self._entry_exit_ns + work * self._work_factor

    def context_switch_ns(self, same_address_space: bool) -> float:
        """Cost of one scheduler context switch."""
        cost = THREAD_SWITCH_NS + SWITCH_HOOK_FACTOR * self.data_path_hook_ns
        if not same_address_space:
            cost += ADDRESS_SPACE_SWITCH_NS
            if self.kpti:
                cost += KPTI_SWITCH_NS
        return cost * self.kernel_work_factor
