"""Network stack substrate: per-packet path costs derived from kernel config.

The paper's application results (Table 4) are dominated by how much work the
guest kernel does per packet: a general-purpose microVM kernel runs netfilter
hooks, connection tracking, qdisc scheduling, LSM socket hooks and cgroup
accounting on every packet, none of which a specialized Lupine kernel
compiles in.
"""
