"""Table 1: Linux configuration options that enable/disable system calls."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.metrics.reporting import Table
from repro.syscall.table import OPTION_SYSCALLS

#: The twelve rows of the paper's Table 1 (the mapping has a few more
#: entries used elsewhere in the evaluation, e.g. SYSVIPC for postgres).
PAPER_TABLE1_OPTIONS: Tuple[str, ...] = (
    "ADVISE_SYSCALLS",
    "AIO",
    "BPF_SYSCALL",
    "EPOLL",
    "EVENTFD",
    "FANOTIFY",
    "FHANDLE",
    "FILE_LOCKING",
    "FUTEX",
    "INOTIFY_USER",
    "SIGNALFD",
    "TIMERFD",
)


def run() -> Dict[str, Tuple[str, ...]]:
    return {
        option: OPTION_SYSCALLS[option] for option in PAPER_TABLE1_OPTIONS
    }


def table(rows: Dict[str, Tuple[str, ...]]) -> Table:
    output = Table(
        title="Table 1: config options that enable/disable system calls",
        headers=["Option", "Enabled system call(s)"],
    )
    for option, syscalls in rows.items():
        output.add_row(option, ", ".join(syscalls))
    return output
