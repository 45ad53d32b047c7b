"""Syscall dispatch: resolve a syscall against a kernel config and charge time.

The :class:`SyscallEngine` is the meeting point of the three things that
determine syscall latency in the paper:

1. which syscalls are compiled in (config gating, Table 1) -- calling a
   compiled-out syscall returns ``ENOSYS``, which is exactly the
   "function not implemented" failure mode used to derive per-app configs;
2. the entry mechanism (``syscall`` vs KML ``call``); and
3. config-dependent per-syscall overheads (audit, seccomp, debug options).

The engine is deterministic: no wall clock; simulated nanoseconds accumulate
on an internal counter.  A small deterministic jitter (derived from the call
sequence number) models measurement noise without breaking reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.simcore.clock import VirtualClock
from repro.syscall.cpu import CpuCostModel, EntryMechanism
from repro.syscall.table import SYSCALLS, Syscall
from repro.syscall.usage import UsageTrace

#: The call jitter's period: call number ``count`` draws phase
#: ``(count * 2654435761) % 1000``, a function of ``count % 1000`` only.
JITTER_PERIOD = 1000


def _jitter_table(entry: EntryMechanism) -> Tuple[float, ...]:
    """+/-1.5% of *entry*'s round trip at each phase of the call count.

    ``table[count % JITTER_PERIOD]`` is call number ``count``'s jitter,
    computed by the one copy of the expression ``invoke`` and
    ``invoke_batch`` both charge.
    """
    entry_ns = entry.entry_ns
    return tuple(
        ((((count * 2654435761) % 1000) / 1000.0) - 0.5) * 0.03 * entry_ns
        for count in range(JITTER_PERIOD)
    )


#: One immutable jitter table per entry mechanism, shared by every engine.
JITTER: Dict[EntryMechanism, Tuple[float, ...]] = {
    entry: _jitter_table(entry) for entry in EntryMechanism
}


class SyscallError(Exception):
    """Base class for simulated syscall failures."""

    errno_name = "EINVAL"


class SyscallNotImplemented(SyscallError):
    """ENOSYS: the syscall is not compiled into this kernel.

    Carries the gating option so callers (and the manifest-derivation loop
    of Section 4.1) can report *which* option is missing, mirroring error
    messages like "the futex facility returned an unexpected error code".
    """

    errno_name = "ENOSYS"

    def __init__(self, syscall_name: str, missing_option: Optional[str]):
        self.syscall_name = syscall_name
        self.missing_option = missing_option
        hint = (
            f" (enable CONFIG_{missing_option})" if missing_option else ""
        )
        super().__init__(f"{syscall_name}: function not implemented{hint}")


@dataclass
class SyscallResult:
    """Outcome of one simulated syscall."""

    name: str
    latency_ns: float
    value: int = 0


@dataclass
class SyscallEngine:
    """Dispatches simulated syscalls for one kernel instance.

    ``enabled_options`` comes from a resolved config; ``cost_model`` from
    :class:`~repro.syscall.cpu.CpuCostModel`.  The engine counts calls and
    accumulates simulated time, which the lmbench and workload layers read;
    per-syscall counts are the attached :attr:`usage` recorder's.

    The options and the cost model are fixed for the engine's life, so every cost that depends
    only on them is computed once per engine: each syscall's resolution
    and base latency on the first call of that name (the *cost vector*,
    see :meth:`_costed`).  ``invoke``, ``invoke_batch`` and
    ``latency_ns`` all read it.  The call jitter depends only on the
    entry mechanism, so engines share its table (:data:`JITTER`).
    """

    enabled_options: FrozenSet[str]
    cost_model: CpuCostModel
    clock: VirtualClock = field(default_factory=VirtualClock)
    call_count: int = 0
    #: Optional usage recorder (see :mod:`repro.syscall.usage`).  Pure
    #: bookkeeping: attaching one never changes timing or counters.
    usage: Optional[UsageTrace] = None
    #: The cost vector: ``name -> (syscall, base latency)`` for every
    #: supported name called so far.
    _costs: Dict[str, Tuple[Syscall, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: ``JITTER[cost_model.entry]``: call ``count``'s jitter is entry
    #: ``count % JITTER_PERIOD``.
    _jitter_ns: Tuple[float, ...] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        self._jitter_ns = JITTER[self.cost_model.entry]

    @property
    def clock_ns(self) -> float:
        """Simulated nanoseconds accumulated on this engine's clock."""
        return self.clock.now_ns

    @classmethod
    def for_config(
        cls,
        enabled_options: Iterable[str],
        entry: EntryMechanism = EntryMechanism.SYSCALL,
        kpti: bool = False,
        size_optimized: bool = False,
        clock: Optional[VirtualClock] = None,
    ) -> "SyscallEngine":
        enabled = frozenset(enabled_options)
        return cls(
            enabled_options=enabled,
            cost_model=CpuCostModel.for_options(
                enabled, entry=entry, kpti=kpti, size_optimized=size_optimized
            ),
            clock=clock if clock is not None else VirtualClock(),
        )

    # -- availability ------------------------------------------------------

    def lookup(self, name: str) -> Syscall:
        """Resolve *name*; raise :class:`SyscallNotImplemented` if gated out."""
        syscall = SYSCALLS.get(name)
        if syscall is None:
            raise SyscallNotImplemented(name, None)
        if syscall.option is not None and syscall.option not in self.enabled_options:
            raise SyscallNotImplemented(name, syscall.option)
        return syscall

    def supports(self, name: str) -> bool:
        try:
            self.lookup(name)
        except SyscallNotImplemented:
            return False
        return True

    def _costed(self, name: str) -> Tuple[Syscall, float]:
        """``(syscall, base latency)`` of *name*: the engine's cost vector.

        The base latency is ``cost_model.syscall_ns`` with no extra
        work, a pure function of the syscall and this engine's cost
        model, so each name is looked up and priced on its first call
        only.  A gated name is never stored: each call raises ENOSYS.
        """
        costed = self._costs.get(name)
        if costed is None:
            syscall = self.lookup(name)
            costed = (syscall, self.cost_model.syscall_ns(
                syscall.handler_ns, syscall.data_path
            ))
            self._costs[name] = costed
        return costed

    def _costed_recorded(self, name: str) -> Tuple[Syscall, float]:
        """``_costed`` that reports ENOSYS misses to the usage recorder.

        Only invocation paths use this; ``supports`` probes stay
        unrecorded (a capability check is not an exercised syscall).
        """
        try:
            return self._costed(name)
        except SyscallNotImplemented as exc:
            if self.usage is not None:
                self.usage.record_miss(exc.syscall_name, exc.missing_option)
            raise

    def _latency(self, syscall: Syscall, base: float,
                 work_ns: float) -> float:
        """``cost_model.syscall_ns(handler + work_ns)``, to the bit.

        Without extra work the handler sum is exact (``h + 0.0 == h``),
        so the vector's base latency is the answer.
        """
        if not work_ns:
            return base
        return self.cost_model.syscall_ns(
            syscall.handler_ns + work_ns, syscall.data_path
        )

    # -- invocation --------------------------------------------------------

    def invoke(self, name: str, work_ns: float = 0.0) -> SyscallResult:
        """Invoke syscall *name*, charging entry + handler + *work_ns*.

        *work_ns* models data-dependent handler work (e.g. copied bytes).
        """
        syscall, base = self._costed_recorded(name)
        latency = self._latency(syscall, base, work_ns)
        latency += self._jitter()
        self.clock.advance(latency)
        self.call_count += 1
        if self.usage is not None:
            self.usage.record(name, syscall.option)
        return SyscallResult(name=name, latency_ns=latency)

    def latency_ns(self, name: str, work_ns: float = 0.0) -> float:
        """Latency of *name* without mutating engine state (no jitter)."""
        syscall, base = self._costed(name)
        return self._latency(syscall, base, work_ns)

    def cpu_work(self, duration_ns: float) -> None:
        """Charge userspace CPU time (busy-wait loops in Figure 10)."""
        if duration_ns < 0:
            raise ValueError("cannot perform negative work")
        self.clock.advance(duration_ns)

    def invoke_batch(self, names: Sequence[str], work_ns: float,
                     repeats: int) -> float:
        """Drive ``repeats`` rounds of ``invoke(name) for name in names``
        followed by ``cpu_work(work_ns)``, bit-for-bit equivalent to the
        stepped calls but without per-call dispatch overhead.

        The per-call cost is closed-form: base latency is a pure function
        of the syscall, and the jitter a table lookup at the call number
        modulo :data:`JITTER_PERIOD`.  The full addend series therefore
        repeats every ``lcm(len(names), 1000) / len(names)`` rounds, so
        one period is materialized and the fold replayed from it; one
        round (every served request) adds each call's latency straight
        onto the local clock.  The fold itself must stay element-wise --
        IEEE-754 addition is not associative, and golden parity requires
        the exact same additions in the exact same order as the stepped
        loop -- but it runs over a local float with precomputed addends,
        which is what makes ``LinuxServerStack.run`` cheap at fleet
        scale.

        Returns the new ``clock_ns``.  Raises
        :class:`SyscallNotImplemented` (before charging anything) if any
        name is config-gated; callers needing the stepped loop's
        partial-charge semantics must fall back to per-call ``invoke``.
        """
        if repeats < 0:
            raise ValueError("cannot run a negative number of rounds")
        if work_ns < 0:
            raise ValueError("cannot perform negative work")
        # Vector hits inline; a first call or a gated name goes the
        # long way (pricing it, or recording the miss and raising).
        costs = self._costs
        jitter = self._jitter_ns
        count = self.call_count
        clock = self.clock.now_ns
        if repeats == 1:
            # Same additions as invoke(): ``base + jitter`` per call,
            # then the call's latency onto the clock.
            for name in names:
                _, base = costs.get(name) or self._costed_recorded(name)
                clock += base + jitter[count % JITTER_PERIOD]
                count += 1
            clock += work_ns
        else:
            bases = [(costs.get(name) or self._costed_recorded(name))[1]
                     for name in names]
            if repeats == 0:
                return clock
            stride = len(names)
            # Distinct jitter phases recur after period(stride) rounds.
            period = min(JITTER_PERIOD // math.gcd(stride, JITTER_PERIOD)
                         if stride else 1, repeats)
            addends: List[float] = []
            for _ in range(period):
                for base in bases:
                    addends.append(base + jitter[count % JITTER_PERIOD])
                    count += 1
                addends.append(work_ns)
            full_periods, tail_rounds = divmod(repeats, period)
            for _ in range(full_periods):
                for addend in addends:
                    clock += addend
            for addend in addends[: tail_rounds * (stride + 1)]:
                clock += addend
        self.clock.advance_to(clock)
        self.call_count += repeats * len(names)
        if self.usage is not None:
            # Closed-form attribution: one record per position with the
            # full repeat count -- no stepping, same totals as the loop.
            for name in names:
                self.usage.record(name, costs[name][0].option, repeats)
        return clock

    def _jitter(self) -> float:
        # +/-1.5% deterministic jitter keyed on the call sequence number.
        return self._jitter_ns[self.call_count % JITTER_PERIOD]

    # -- reporting ---------------------------------------------------------

    def reset_clock(self) -> None:
        self.clock.jump_to(0.0)
        self.call_count = 0
