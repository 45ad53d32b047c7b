"""Kernel build substrate: from resolved config to kernel image artifact.

Models what ``make bzImage`` does with a configuration: collect the object
contributions of every built-in option, apply the optimizer (-O2/-Os, LTO),
link, and compress.  The resulting :class:`~repro.kbuild.image.KernelImage`
carries the sizes the paper measures in Figure 6 and the metadata the boot
and memory simulators consume.
"""
