"""perf sched messaging as one interleaved loop.

This is the loop :mod:`repro.workloads.perf_messaging` split into a
scheduler part and an engine part: each message invokes ``sendto`` on the
engine, runs one wake/schedule/sleep round on the scheduler, then invokes
``recvfrom``.  The split path, and Figure 12's sweep that shares its parts
across cells, must equal it float for float
(``tests/test_workloads.py::TestMessagingSplit``).
"""

from __future__ import annotations

from typing import List

from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.sched.task import Task
from repro.syscall.dispatch import SyscallEngine
from repro.workloads.perf_messaging import (
    _MESSAGES_PER_SENDER,
    MESSAGE_WORK_NS,
    RECEIVERS_PER_GROUP,
    SENDERS_PER_GROUP,
    MessagingResult,
    _noise_factor,
)


def run_messaging_interleaved(
    engine: SyscallEngine,
    groups: int,
    use_processes: bool,
    smp: SmpModel = SmpModel(smp_enabled=False),
    loops: int = 4,
) -> MessagingResult:
    """``run_messaging`` the way it ran before the split."""
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
