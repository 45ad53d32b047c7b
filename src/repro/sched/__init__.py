"""Process/scheduling substrate.

A small but real process model: tasks with address spaces, fork/exec/thread
creation, a run queue with deterministic round-robin scheduling, context
switch cost accounting (threads vs processes, Figure 12), SMP lock overhead
(Section 5), and futex/POSIX-semaphore wait queues.

No shipped path steps the futex model (:mod:`repro.sched.futex`): the
Section 5 stresses fold each round into the clock charges stepping it
would make, read from the scheduler and the futex model's op-charge
formulas.  The model stays in ``src/`` as what that fold replays: the
stepped oracle in ``tests/oracles/smp_stress.py`` drives it, and
perfbench's traced run wraps ``FutexTable`` by name.
"""
