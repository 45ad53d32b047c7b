"""Application models: the top-20 Docker Hub applications of Table 3.

Each application carries the knowledge the paper's manual derivation process
produced: which configuration options it needs beyond ``lupine-base``, which
system calls it issues, its process model (single- vs multi-process), and a
success criterion used to judge a boot (Section 4.1).
"""
