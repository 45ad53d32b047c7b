"""Root filesystem substrate.

Models the right half of the paper's Figure 2: a Docker container image
(metadata + layers of files) is converted into an ext2 root filesystem
containing the unmodified application binary, a (possibly KML-patched) libc,
and a generated application-specific startup script that replaces a
general-purpose init system.
"""
