"""Virtual machine monitors.

Models the monitors the paper evaluates on: AWS Firecracker (used for
microVM and all Lupine variants, and for OSv), and the unikernel monitors
solo5-hvt (Rumprun) and uhyve (HermiTux), descendants of ukvm.  QEMU is
included as the traditional heavyweight baseline the paper contrasts in
Section 2.2.
"""
