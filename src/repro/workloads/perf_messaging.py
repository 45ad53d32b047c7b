"""perf sched messaging: the Figure 12 context-switch benchmark.

2^i groups (10 senders, 10 receivers per group) message each other over
UNIX sockets, implemented with either threads (pthread: shared address
space) or processes (fork: one address space each).  The measurement is the
mean time for one sender->receiver message exchange, in milliseconds, as
groups scale -- the paper's finding is that process switching is *not*
slower than thread switching (within a few percent either way).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.sched.task import Task
from repro.syscall.dispatch import SyscallEngine

SENDERS_PER_GROUP = 10
RECEIVERS_PER_GROUP = 10

#: Userspace work per message (format, checksum).
MESSAGE_WORK_NS = 240.0

#: Messages each sender sends per loop (perf default sends to all receivers).
_MESSAGES_PER_SENDER = RECEIVERS_PER_GROUP


@dataclass
class MessagingResult:
    """One perf-messaging run."""

    groups: int
    use_processes: bool
    kml: bool
    total_ms: float
    messages: int

    @property
    def ms_per_batch(self) -> float:
        """Milliseconds per 100-message group batch (the Figure 12 y-axis)."""
        return self.total_ms / max(1, self.messages // 100)


def _noise_factor(groups: int, use_processes: bool, kml: bool) -> float:
    """+/-2% deterministic measurement noise, stable per configuration."""
    key = f"perf:{groups}:{use_processes}:{kml}".encode()
    digest = hashlib.md5(key).digest()
    fraction = int.from_bytes(digest[:4], "big") / float(1 << 32)
    return 1.0 + (fraction - 0.5) * 0.04


def run_messaging(
    engine: SyscallEngine,
    groups: int,
    use_processes: bool,
    smp: SmpModel = SmpModel(smp_enabled=False),
    loops: int = 4,
) -> MessagingResult:
    """Run the benchmark on one simulated kernel."""
    if groups < 1:
        raise ValueError("need at least one group")
    scheduler = Scheduler(cost_model=engine.cost_model, smp=smp)

    senders: List[Task] = []
    receivers: List[Task] = []
    for group in range(groups):
        if use_processes:
            leader = scheduler.spawn(f"group{group}", working_set_kb=16)
            make = lambda name: scheduler.fork(leader)  # noqa: E731
        else:
            leader = scheduler.spawn(f"group{group}", working_set_kb=16)
            make = lambda name: scheduler.create_thread(leader, name)  # noqa: E731
        senders.extend(make(f"snd{group}.{i}") for i in range(SENDERS_PER_GROUP))
        receivers.extend(
            make(f"rcv{group}.{i}") for i in range(RECEIVERS_PER_GROUP)
        )

    scheduler.clock.reset()  # setup cost excluded, as perf does
    start_engine_ns = engine.clock_ns
    messages = 0
    for _ in range(loops):
        for sender_index, sender in enumerate(senders):
            # Sender writes one message to each receiver in its group.
            group = sender_index // SENDERS_PER_GROUP
            for receiver_offset in range(_MESSAGES_PER_SENDER):
                receiver = receivers[
                    group * RECEIVERS_PER_GROUP + receiver_offset
                ]
                engine.invoke("sendto", work_ns=MESSAGE_WORK_NS)
                scheduler.wake(receiver)
                scheduler.schedule()
                engine.invoke("recvfrom", work_ns=MESSAGE_WORK_NS)
                scheduler.sleep(receiver)
                messages += 1
    elapsed_ns = (
        scheduler.clock_ns + (engine.clock_ns - start_engine_ns)
    ) * _noise_factor(groups, use_processes, engine.cost_model.entry.name == "KML_CALL")
    return MessagingResult(
        groups=groups,
        use_processes=use_processes,
        kml=engine.cost_model.entry.name == "KML_CALL",
        total_ms=elapsed_ns / 1e6,
        messages=messages,
    )
