"""The Linux 4.0 syscall table with Kconfig gating.

Reproduces the paper's Table 1: the configuration options that compile
individual system calls in or out of the kernel.  Syscalls without a gating
option are always present.  Handler costs are simulated nanoseconds of
in-kernel *CPU* work, excluding entry/exit (charged by the CPU model),
config-dependent overheads (charged by the dispatch engine), and time
on the wire (charged by :mod:`repro.netstack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class Syscall:
    """One system call.

    ``data_path`` marks syscalls that traverse the VFS/allocator data path
    and therefore pay the data-path overhead of debug/hardening options
    (e.g. ``SLUB_DEBUG``, ``DEBUG_LIST``) when those are configured in.
    """

    name: str
    number: int
    handler_ns: float
    option: Optional[str] = None
    data_path: bool = False
    blocking: bool = False


#: Paper Table 1 verbatim: option -> syscalls enabled by it.
OPTION_SYSCALLS: Dict[str, Tuple[str, ...]] = {
    "ADVISE_SYSCALLS": ("madvise", "fadvise64"),
    "AIO": ("io_setup", "io_destroy", "io_submit", "io_cancel", "io_getevents"),
    "BPF_SYSCALL": ("bpf",),
    "EPOLL": ("epoll_ctl", "epoll_create", "epoll_create1", "epoll_wait",
              "epoll_pwait"),
    "EVENTFD": ("eventfd", "eventfd2"),
    "FANOTIFY": ("fanotify_init", "fanotify_mark"),
    "FHANDLE": ("open_by_handle_at", "name_to_handle_at"),
    "FILE_LOCKING": ("flock",),
    "FUTEX": ("futex", "set_robust_list", "get_robust_list"),
    "INOTIFY_USER": ("inotify_init", "inotify_init1", "inotify_add_watch",
                     "inotify_rm_watch"),
    "SIGNALFD": ("signalfd", "signalfd4"),
    "TIMERFD": ("timerfd_create", "timerfd_gettime", "timerfd_settime"),
    # Beyond Table 1: other option-gated syscall families the evaluation
    # touches (postgres needs SYSVIPC, Section 4.1).
    "SYSVIPC": ("shmget", "shmat", "shmdt", "shmctl", "semget", "semop",
                "semctl", "msgget", "msgsnd", "msgrcv", "msgctl"),
    "POSIX_MQUEUE": ("mq_open", "mq_unlink", "mq_timedsend",
                     "mq_timedreceive", "mq_notify", "mq_getsetattr"),
    "MEMBARRIER": ("membarrier",),
    "SYSCTL_SYSCALL": ("_sysctl",),
    "KEXEC": ("kexec_load", "kexec_file_load"),
    "USERFAULTFD": ("userfaultfd",),
    "SWAP": ("swapon", "swapoff"),
    "MODULES": ("init_module", "finit_module", "delete_module"),
    "CHECKPOINT_RESTORE": ("kcmp",),
}

_SYSCALL_OPTION: Dict[str, str] = {
    syscall: option
    for option, syscalls in OPTION_SYSCALLS.items()
    for syscall in syscalls
}

# (name, number, handler_ns, data_path, blocking). Numbers follow the x86_64
# ABI where the call exists there; family extensions use the kernel's values.
_TABLE_ROWS = (
    ("read", 0, 9.0, True, True),
    ("write", 1, 7.0, True, True),
    ("open", 2, 55.0, True, False),
    ("close", 3, 18.0, True, False),
    ("stat", 4, 32.0, True, False),
    ("fstat", 5, 16.0, True, False),
    ("lstat", 6, 33.0, True, False),
    ("poll", 7, 45.0, False, True),
    ("lseek", 8, 6.0, False, False),
    ("mmap", 9, 95.0, True, False),
    ("mprotect", 10, 60.0, True, False),
    ("munmap", 11, 70.0, True, False),
    ("brk", 12, 40.0, True, False),
    ("rt_sigaction", 13, 12.0, False, False),
    ("rt_sigprocmask", 14, 10.0, False, False),
    ("rt_sigreturn", 15, 25.0, False, False),
    ("ioctl", 16, 30.0, False, False),
    ("pread64", 17, 11.0, True, True),
    ("pwrite64", 18, 9.0, True, True),
    ("readv", 19, 14.0, True, True),
    ("writev", 20, 12.0, True, True),
    ("access", 21, 40.0, True, False),
    ("pipe", 22, 80.0, True, False),
    ("select", 23, 50.0, False, True),
    ("sched_yield", 24, 20.0, False, False),
    ("mremap", 25, 85.0, True, False),
    ("msync", 26, 50.0, True, True),
    ("mincore", 27, 30.0, False, False),
    ("madvise", 28, 35.0, True, False),
    ("shmget", 29, 70.0, False, False),
    ("shmat", 30, 75.0, False, False),
    ("shmctl", 31, 45.0, False, False),
    ("dup", 32, 15.0, False, False),
    ("dup2", 33, 18.0, False, False),
    ("pause", 34, 15.0, False, True),
    ("nanosleep", 35, 45.0, False, True),
    ("getitimer", 36, 15.0, False, False),
    ("alarm", 37, 15.0, False, False),
    ("setitimer", 38, 20.0, False, False),
    ("getpid", 39, 2.0, False, False),
    ("sendfile", 40, 60.0, True, True),
    ("socket", 41, 110.0, False, False),
    ("connect", 42, 250.0, False, True),
    ("accept", 43, 220.0, False, True),
    ("sendto", 44, 95.0, True, True),
    ("recvfrom", 45, 90.0, True, True),
    ("sendmsg", 46, 100.0, True, True),
    ("recvmsg", 47, 95.0, True, True),
    ("shutdown", 48, 40.0, False, False),
    ("bind", 49, 60.0, False, False),
    ("listen", 50, 35.0, False, False),
    ("getsockname", 51, 20.0, False, False),
    ("getpeername", 52, 20.0, False, False),
    ("socketpair", 53, 120.0, False, False),
    ("setsockopt", 54, 25.0, False, False),
    ("getsockopt", 55, 22.0, False, False),
    ("clone", 56, 1400.0, True, False),
    ("fork", 57, 1600.0, True, False),
    ("vfork", 58, 900.0, True, False),
    ("execve", 59, 5200.0, True, False),
    ("exit", 60, 300.0, False, False),
    ("wait4", 61, 120.0, False, True),
    ("kill", 62, 40.0, False, False),
    ("uname", 63, 8.0, False, False),
    ("semget", 64, 60.0, False, False),
    ("semop", 65, 45.0, False, True),
    ("semctl", 66, 40.0, False, False),
    ("shmdt", 67, 55.0, False, False),
    ("msgget", 68, 55.0, False, False),
    ("msgsnd", 69, 60.0, False, True),
    ("msgrcv", 70, 60.0, False, True),
    ("msgctl", 71, 40.0, False, False),
    ("fcntl", 72, 14.0, False, False),
    ("flock", 73, 35.0, True, True),
    ("fsync", 74, 200.0, True, True),
    ("fdatasync", 75, 160.0, True, True),
    ("truncate", 76, 60.0, True, False),
    ("ftruncate", 77, 45.0, True, False),
    ("getdents", 78, 70.0, True, False),
    ("getcwd", 79, 25.0, False, False),
    ("chdir", 80, 35.0, True, False),
    ("fchdir", 81, 20.0, False, False),
    ("rename", 82, 90.0, True, False),
    ("mkdir", 83, 85.0, True, False),
    ("rmdir", 84, 80.0, True, False),
    ("creat", 85, 95.0, True, False),
    ("link", 86, 80.0, True, False),
    ("unlink", 87, 75.0, True, False),
    ("symlink", 88, 80.0, True, False),
    ("readlink", 89, 35.0, True, False),
    ("chmod", 90, 45.0, True, False),
    ("fchmod", 91, 30.0, False, False),
    ("chown", 92, 45.0, True, False),
    ("fchown", 93, 30.0, False, False),
    ("umask", 95, 6.0, False, False),
    ("gettimeofday", 96, 15.0, False, False),
    ("getrlimit", 97, 10.0, False, False),
    ("getrusage", 98, 25.0, False, False),
    ("sysinfo", 99, 30.0, False, False),
    ("times", 100, 12.0, False, False),
    ("ptrace", 101, 150.0, False, False),
    ("getuid", 102, 2.0, False, False),
    ("syslog", 103, 60.0, False, False),
    ("getgid", 104, 2.0, False, False),
    ("setuid", 105, 25.0, False, False),
    ("setgid", 106, 25.0, False, False),
    ("geteuid", 107, 2.0, False, False),
    ("getegid", 108, 2.0, False, False),
    ("getppid", 110, 2.0, False, False),
    ("setsid", 112, 35.0, False, False),
    ("setreuid", 113, 25.0, False, False),
    ("setregid", 114, 25.0, False, False),
    ("getgroups", 115, 10.0, False, False),
    ("setgroups", 116, 20.0, False, False),
    ("setresuid", 117, 25.0, False, False),
    ("getresuid", 118, 8.0, False, False),
    ("setresgid", 119, 25.0, False, False),
    ("getresgid", 120, 8.0, False, False),
    ("capget", 125, 20.0, False, False),
    ("capset", 126, 25.0, False, False),
    ("sigaltstack", 131, 15.0, False, False),
    ("mknod", 133, 85.0, True, False),
    ("personality", 135, 8.0, False, False),
    ("statfs", 137, 40.0, True, False),
    ("fstatfs", 138, 30.0, False, False),
    ("getpriority", 140, 12.0, False, False),
    ("setpriority", 141, 15.0, False, False),
    ("sched_setparam", 142, 25.0, False, False),
    ("sched_getparam", 143, 15.0, False, False),
    ("sched_setscheduler", 144, 30.0, False, False),
    ("sched_getscheduler", 145, 12.0, False, False),
    ("sched_get_priority_max", 146, 6.0, False, False),
    ("sched_get_priority_min", 147, 6.0, False, False),
    ("mlock", 149, 70.0, True, False),
    ("munlock", 150, 55.0, True, False),
    ("mlockall", 151, 90.0, True, False),
    ("munlockall", 152, 70.0, True, False),
    ("prctl", 157, 20.0, False, False),
    ("arch_prctl", 158, 10.0, False, False),
    ("setrlimit", 160, 15.0, False, False),
    ("chroot", 161, 40.0, True, False),
    ("sync", 162, 300.0, True, True),
    ("mount", 165, 450.0, True, False),
    ("umount2", 166, 350.0, True, False),
    ("swapon", 167, 500.0, True, False),
    ("swapoff", 168, 600.0, True, False),
    ("reboot", 169, 1000.0, False, False),
    ("sethostname", 170, 15.0, False, False),
    ("setdomainname", 171, 15.0, False, False),
    ("init_module", 175, 5000.0, False, False),
    ("delete_module", 176, 2000.0, False, False),
    ("kexec_load", 246, 3000.0, False, False),
    ("gettid", 186, 2.0, False, False),
    ("readahead", 187, 50.0, True, False),
    ("setxattr", 188, 60.0, True, False),
    ("getxattr", 191, 45.0, True, False),
    ("listxattr", 194, 45.0, True, False),
    ("removexattr", 197, 55.0, True, False),
    ("tkill", 200, 35.0, False, False),
    ("time", 201, 4.0, False, False),
    ("futex", 202, 28.0, False, True),
    ("sched_setaffinity", 203, 30.0, False, False),
    ("sched_getaffinity", 204, 15.0, False, False),
    ("io_setup", 206, 120.0, False, False),
    ("io_destroy", 207, 100.0, False, False),
    ("io_getevents", 208, 60.0, False, True),
    ("io_submit", 209, 80.0, True, True),
    ("io_cancel", 210, 50.0, False, False),
    ("epoll_create", 213, 90.0, False, False),
    ("getdents64", 217, 70.0, True, False),
    ("set_tid_address", 218, 6.0, False, False),
    ("restart_syscall", 219, 10.0, False, False),
    ("semtimedop", 220, 50.0, False, True),
    ("fadvise64", 221, 30.0, True, False),
    ("timer_create", 222, 45.0, False, False),
    ("timer_settime", 223, 30.0, False, False),
    ("timer_gettime", 224, 20.0, False, False),
    ("timer_getoverrun", 225, 12.0, False, False),
    ("timer_delete", 226, 30.0, False, False),
    ("clock_settime", 227, 25.0, False, False),
    ("clock_gettime", 228, 12.0, False, False),
    ("clock_getres", 229, 8.0, False, False),
    ("clock_nanosleep", 230, 45.0, False, True),
    ("exit_group", 231, 350.0, False, False),
    ("epoll_wait", 232, 35.0, False, True),
    ("epoll_ctl", 233, 30.0, False, False),
    ("tgkill", 234, 35.0, False, False),
    ("utimes", 235, 40.0, True, False),
    ("mbind", 237, 60.0, False, False),
    ("set_mempolicy", 238, 40.0, False, False),
    ("get_mempolicy", 239, 30.0, False, False),
    ("mq_open", 240, 90.0, False, False),
    ("mq_unlink", 241, 70.0, False, False),
    ("mq_timedsend", 242, 60.0, False, True),
    ("mq_timedreceive", 243, 60.0, False, True),
    ("mq_notify", 244, 40.0, False, False),
    ("mq_getsetattr", 245, 25.0, False, False),
    ("waitid", 247, 110.0, False, True),
    ("inotify_init", 253, 70.0, False, False),
    ("inotify_add_watch", 254, 50.0, False, False),
    ("inotify_rm_watch", 255, 40.0, False, False),
    ("openat", 257, 58.0, True, False),
    ("mkdirat", 258, 85.0, True, False),
    ("mknodat", 259, 85.0, True, False),
    ("fchownat", 260, 45.0, True, False),
    ("newfstatat", 262, 34.0, True, False),
    ("unlinkat", 263, 75.0, True, False),
    ("renameat", 264, 90.0, True, False),
    ("linkat", 265, 80.0, True, False),
    ("symlinkat", 266, 80.0, True, False),
    ("readlinkat", 267, 35.0, True, False),
    ("fchmodat", 268, 45.0, True, False),
    ("faccessat", 269, 40.0, True, False),
    ("pselect6", 270, 55.0, False, True),
    ("ppoll", 271, 50.0, False, True),
    ("set_robust_list", 273, 8.0, False, False),
    ("get_robust_list", 274, 8.0, False, False),
    ("splice", 275, 70.0, True, True),
    ("tee", 276, 50.0, True, False),
    ("sync_file_range", 277, 90.0, True, True),
    ("vmsplice", 278, 65.0, True, False),
    ("utimensat", 280, 40.0, True, False),
    ("epoll_pwait", 281, 38.0, False, True),
    ("signalfd", 282, 55.0, False, False),
    ("timerfd_create", 283, 60.0, False, False),
    ("eventfd", 284, 45.0, False, False),
    ("fallocate", 285, 120.0, True, False),
    ("timerfd_settime", 286, 30.0, False, False),
    ("timerfd_gettime", 287, 18.0, False, False),
    ("accept4", 288, 225.0, False, True),
    ("signalfd4", 289, 55.0, False, False),
    ("eventfd2", 290, 45.0, False, False),
    ("epoll_create1", 291, 85.0, False, False),
    ("dup3", 292, 20.0, False, False),
    ("pipe2", 293, 82.0, True, False),
    ("inotify_init1", 294, 68.0, False, False),
    ("preadv", 295, 15.0, True, True),
    ("pwritev", 296, 13.0, True, True),
    ("rt_tgsigqueueinfo", 297, 30.0, False, False),
    ("perf_event_open", 298, 300.0, False, False),
    ("recvmmsg", 299, 120.0, True, True),
    ("fanotify_init", 300, 80.0, False, False),
    ("fanotify_mark", 301, 55.0, False, False),
    ("prlimit64", 302, 18.0, False, False),
    ("name_to_handle_at", 303, 50.0, True, False),
    ("open_by_handle_at", 304, 60.0, True, False),
    ("clock_adjtime", 305, 30.0, False, False),
    ("syncfs", 306, 250.0, True, True),
    ("sendmmsg", 307, 110.0, True, True),
    ("getcpu", 309, 8.0, False, False),
    ("kcmp", 312, 25.0, False, False),
    ("finit_module", 313, 4500.0, False, False),
    ("sched_setattr", 314, 30.0, False, False),
    ("sched_getattr", 315, 20.0, False, False),
    ("renameat2", 316, 92.0, True, False),
    ("seccomp", 317, 80.0, False, False),
    ("getrandom", 318, 60.0, False, False),
    ("memfd_create", 319, 90.0, True, False),
    ("kexec_file_load", 320, 3000.0, False, False),
    ("bpf", 321, 150.0, False, False),
    ("execveat", 322, 5200.0, True, False),
    ("membarrier", 324, 35.0, False, False),
    ("mlock2", 325, 72.0, True, False),
    ("_sysctl", 156, 50.0, False, False),
    ("userfaultfd", 323, 95.0, False, False),
)


def _build_table() -> Dict[str, Syscall]:
    table: Dict[str, Syscall] = {}
    for name, number, handler_ns, data_path, blocking in _TABLE_ROWS:
        table[name] = Syscall(
            name=name,
            number=number,
            handler_ns=handler_ns,
            option=_SYSCALL_OPTION.get(name),
            data_path=data_path,
            blocking=blocking,
        )
    # Option-gated syscalls that the rows above don't cover explicitly get a
    # family-default entry so every Table 1 syscall resolves.
    next_number = 400
    for option, names in OPTION_SYSCALLS.items():
        for name in names:
            if name not in table:
                table[name] = Syscall(
                    name=name,
                    number=next_number,
                    handler_ns=40.0,
                    option=option,
                    data_path=False,
                    blocking=False,
                )
                next_number += 1
    return table


#: The full syscall table, keyed by syscall name.
SYSCALLS: Dict[str, Syscall] = _build_table()


def option_for_syscall(name: str) -> Optional[str]:
    """The Kconfig option gating *name*, or ``None`` if always present."""
    syscall = SYSCALLS.get(name)
    return syscall.option if syscall else None


def syscalls_for_option(option: str) -> Tuple[str, ...]:
    """The syscalls enabled by *option* (empty if it gates none)."""
    return OPTION_SYSCALLS.get(option, ())


def gated_syscalls() -> FrozenSet[str]:
    """All syscalls that some config option gates."""
    return frozenset(_SYSCALL_OPTION)


def available_syscalls(enabled_options) -> FrozenSet[str]:
    """Syscall names available under a given set of enabled options."""
    enabled = set(enabled_options)
    return frozenset(
        name
        for name, syscall in SYSCALLS.items()
        if syscall.option is None or syscall.option in enabled
    )
