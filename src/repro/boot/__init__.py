"""Boot substrate: phase-based simulation of guest kernel boot.

Reproduces the mechanisms behind Figure 7: boot time is dominated by which
phases a configuration runs -- clock calibration is ~2 ms with
``CONFIG_PARAVIRT`` (kvm-clock) and ~50 ms without (TSC calibration loop),
device initcalls scale with the configured-in subsystems, and the root
filesystem mount cost depends on the filesystem (OSv's zfs vs read-only
rootfs difference, Section 4.3).
"""
