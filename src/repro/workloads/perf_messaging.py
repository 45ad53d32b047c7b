"""perf sched messaging: the Figure 12 context-switch benchmark.

2^i groups (10 senders, 10 receivers per group) message each other over
UNIX sockets, implemented with either threads (pthread: shared address
space) or processes (fork: one address space each).  The measurement is the
mean time for one sender->receiver message exchange, in milliseconds, as
groups scale -- the paper's finding is that process switching is *not*
slower than thread switching (within a few percent either way).

Each message is a ``sendto``/``recvfrom`` pair on the kernel's syscall
engine and one wake/schedule/sleep round on a private
:class:`~repro.sched.scheduler.Scheduler`.  The two sequences run on
separate clocks and never read each other, so a run computes them apart
and reports ``(scheduler_ns + engine_ns) * noise``: the same additions in
the same order on each clock as sending one message at a time.

- :func:`scheduler_ns` reads the kernel only through
  ``cost_model.context_switch_ns``, so two kernels whose thread and process
  switches cost the same share every round (Figure 12's sweep runs each
  distinct round sequence once).
- :func:`engine_ns` sends the same pair for every message, so a run of *m*
  messages is the first *m* messages of any longer run on a like engine:
  one run to the largest count reads every smaller count's clock delta on
  the way, as :mod:`repro.workloads.smp_stress` reads worker counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence

from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.sched.task import Task
from repro.syscall.cpu import CpuCostModel, EntryMechanism
from repro.syscall.dispatch import SyscallEngine

SENDERS_PER_GROUP = 10
RECEIVERS_PER_GROUP = 10

#: Userspace work per message (format, checksum).
MESSAGE_WORK_NS = 240.0

#: Messages each sender sends per loop (perf default sends to all receivers).
_MESSAGES_PER_SENDER = RECEIVERS_PER_GROUP

#: perf runs on a uniprocessor kernel unless told otherwise.
UP = SmpModel(smp_enabled=False)


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


def messages_sent(groups: int, loops: int = 4) -> int:
    """Messages in one run: per loop, every sender writes to each receiver
    of its group."""
    return max(loops, 0) * groups * SENDERS_PER_GROUP * _MESSAGES_PER_SENDER


def scheduler_ns(cost_model: CpuCostModel, groups: int, use_processes: bool,
                 smp: SmpModel = UP, loops: int = 4) -> float:
    """Simulated ns of one run's wake/schedule/sleep rounds.

    *cost_model* is read only through ``context_switch_ns``.
    """
    if groups < 1:
        raise ValueError("need at least one group")
    scheduler = Scheduler(cost_model=cost_model, smp=smp)
    receivers: List[Task] = []
    for group in range(groups):
        leader = scheduler.spawn(f"group{group}", working_set_kb=16)
        if use_processes:
            make = lambda name: scheduler.fork(leader)  # noqa: E731
        else:
            make = lambda name: scheduler.create_thread(leader, name)  # noqa: E731
        # The scheduler never sees a sender send, but each sender takes
        # its turns on the run queue.
        for i in range(SENDERS_PER_GROUP):
            make(f"snd{group}.{i}")
        receivers.extend(
            make(f"rcv{group}.{i}") for i in range(RECEIVERS_PER_GROUP)
        )

    scheduler.clock.reset()  # setup cost excluded, as perf does
    wake, schedule, sleep = scheduler.wake, scheduler.schedule, scheduler.sleep
    for _ in range(loops):
        for group in range(groups):
            first = group * RECEIVERS_PER_GROUP
            inbox = receivers[first:first + _MESSAGES_PER_SENDER]
            for _ in range(SENDERS_PER_GROUP):
                for receiver in inbox:
                    wake(receiver)
                    schedule()
                    sleep(receiver)
    return scheduler.clock_ns


def engine_ns(engine: SyscallEngine,
              message_counts: Sequence[int]) -> List[float]:
    """Simulated ns *engine* charges for each of the sorted
    *message_counts*, from one run to the largest.
    """
    if list(message_counts) != sorted(message_counts):
        raise ValueError(f"message counts must be sorted: {message_counts}")
    invoke = engine.invoke
    start_ns = engine.clock_ns
    charged: List[float] = []
    sent = 0
    for count in message_counts:
        for _ in range(count - sent):
            invoke("sendto", work_ns=MESSAGE_WORK_NS)
            invoke("recvfrom", work_ns=MESSAGE_WORK_NS)
        sent = max(sent, count)
        charged.append(engine.clock_ns - start_ns)
    return charged


def messaging_result(engine: SyscallEngine, groups: int, use_processes: bool,
                     scheduled_ns: float, charged_ns: float,
                     messages: int) -> MessagingResult:
    """The run on *engine* whose parts took *scheduled_ns* and
    *charged_ns*."""
    kml = engine.cost_model.entry is EntryMechanism.KML_CALL
    elapsed_ns = (scheduled_ns + charged_ns) * _noise_factor(
        groups, use_processes, kml
    )
    return MessagingResult(
        groups=groups,
        use_processes=use_processes,
        kml=kml,
        total_ms=elapsed_ns / 1e6,
        messages=messages,
    )


def run_messaging(
    engine: SyscallEngine,
    groups: int,
    use_processes: bool,
    smp: SmpModel = UP,
    loops: int = 4,
) -> MessagingResult:
    """Run the benchmark on one simulated kernel."""
    scheduled = scheduler_ns(engine.cost_model, groups, use_processes, smp,
                             loops)
    messages = messages_sent(groups, loops)
    (charged,) = engine_ns(engine, (messages,))
    return messaging_result(engine, groups, use_processes, scheduled,
                            charged, messages)
