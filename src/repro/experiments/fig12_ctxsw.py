"""Figure 12: perf context-switch benchmark, threads vs processes.

Each (variant, groups, mode) cell is what
:func:`~repro.workloads.perf_messaging.run_messaging` gives on a fresh
:class:`~repro.simcore.guest.Guest`'s engine.  :func:`sweep` computes the
two parts of every run (see :mod:`repro.workloads.perf_messaging`) once
wherever cells share them, and the sharing is exact:

- The scheduler part runs once per distinct (groups, mode, thread and
  process switch cost).  It reads nothing else that varies within a
  sweep: the SMP model is perf's uniprocessor one and ``loops`` is fixed
  per call.  LUPINE and LUPINE_NOKML charge the same switches, so both
  kernels share each round sequence.
- Each variant's engine runs once, to the largest group count's
  messages, and the engine clock is read at each count on the way: a
  fresh engine's run of *m* messages is the first *m* messages of that
  run, and both modes send the same messages.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.variants import Variant
from repro.metrics.reporting import Figure
from repro.simcore import variant_guest
from repro.syscall.dispatch import SyscallEngine
from repro.workloads.perf_messaging import (
    MessagingResult,
    engine_ns,
    messages_sent,
    messaging_result,
    scheduler_ns,
)

GROUP_COUNTS = (1, 2, 4, 8, 16)
VARIANTS = (("KML", Variant.LUPINE), ("NOKML", Variant.LUPINE_NOKML))
MODES = (("Thread", False), ("Process", True))


def sweep(
    engines: Mapping[str, SyscallEngine],
    group_counts: Sequence[int] = GROUP_COUNTS,
    loops: int = 4,
) -> Dict[Tuple[str, int, bool], MessagingResult]:
    """``(label, groups, use_processes) -> result`` for every engine of
    *engines*, sorted group count and mode, driving each engine once."""
    scheduled: Dict[tuple, float] = {}
    cells: Dict[Tuple[str, int, bool], MessagingResult] = {}
    for label, engine in engines.items():
        cost_model = engine.cost_model
        switches = (cost_model.context_switch_ns(True),
                    cost_model.context_switch_ns(False))
        counts = [messages_sent(groups, loops) for groups in group_counts]
        charged = engine_ns(engine, counts)
        for groups, messages, charged_ns in zip(group_counts, counts, charged):
            for _, use_processes in MODES:
                key = (groups, use_processes, switches)
                if key not in scheduled:
                    scheduled[key] = scheduler_ns(
                        cost_model, groups, use_processes, loops=loops
                    )
                cells[label, groups, use_processes] = messaging_result(
                    engine, groups, use_processes, scheduled[key],
                    charged_ns, messages,
                )
    return cells


def run() -> Dict[str, List[tuple]]:
    """series -> [(groups, ms per 100-message batch), ...]."""
    cells = sweep({label: variant_guest(variant).engine
                   for label, variant in VARIANTS})
    return {
        f"{label} {mode}": [
            (groups, cells[label, groups, use_processes].ms_per_batch)
            for groups in GROUP_COUNTS
        ]
        for label, _ in VARIANTS
        for mode, use_processes in MODES
    }


def max_process_penalty(results: Dict[str, List[tuple]]) -> float:
    """Worst-case slowdown of processes vs threads across the sweep of a
    :func:`run` result."""
    worst = 0.0
    for label in ("KML", "NOKML"):
        threads = dict(results[f"{label} Thread"])
        processes = dict(results[f"{label} Process"])
        for groups in GROUP_COUNTS:
            worst = max(worst, processes[groups] / threads[groups] - 1.0)
    return worst


def figure(series: Dict[str, List[tuple]]) -> Figure:
    output = Figure(
        title="Figure 12: perf messaging, threads vs processes",
        x_label="# groups (10 senders + 10 receivers each)",
        y_label="ms per 100-message batch",
    )
    for name, points in series.items():
        output.add_series(name, points)
    return output
