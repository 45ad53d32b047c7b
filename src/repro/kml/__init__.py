"""Kernel Mode Linux (KML) substrate.

Models the two halves of the paper's syscall-overhead elimination
(Section 3.2): the KML kernel patch (which adds ``CONFIG_KERNEL_MODE_LINUX``
and runs processes in ring 0) and the patched musl libc (which replaces
``syscall`` instructions with same-privilege ``call``s through the
vsyscall-exported entry point).
"""
