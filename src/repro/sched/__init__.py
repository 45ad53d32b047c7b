"""Process/scheduling substrate.

A small but real process model: tasks with address spaces, fork/exec/thread
creation, a run queue with deterministic round-robin scheduling, context
switch cost accounting (threads vs processes, Figure 12), SMP lock overhead
(Section 5), and futex/POSIX-semaphore wait queues used by the stress
workloads.
"""
