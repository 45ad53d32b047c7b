"""The per-category ablation: what each Figure 4 removal category buys.

Starting from microVM, remove one category of Figure 4 at a time and
measure image size and boot time: the hardware-management options pay
for boot time, the application-specific options for image size, and
removing all three categories (lupine-base) beats microVM on both.
"""

import pytest

from repro.boot.bootsim import BootSimulator
from repro.core.classification import classify_microvm_options
from repro.kbuild.builder import KernelBuilder
from repro.kconfig.database import microvm_option_names
from repro.kconfig.resolver import Resolver
from repro.vmm.monitor import firecracker


@pytest.fixture(scope="module")
def ablation(tree):
    """Label -> (image MB, boot ms) for microVM, microVM minus each
    category, and lupine-base."""
    classification = classify_microvm_options()
    simulator = BootSimulator(monitor_setup_ms=firecracker().setup_ms)
    builder = KernelBuilder()

    def measure(label, names):
        image = builder.build(Resolver(tree).resolve_names(names, name=label))
        return image.size_mb, simulator.boot(image).total_ms

    microvm_names = microvm_option_names()
    rows = {"microvm": measure("microvm", microvm_names)}
    for category in ("app", "mp", "hw"):
        removed = classification.removed_by_category[category]
        rows[category] = measure(
            f"microvm-{category}",
            [name for name in microvm_names if name not in removed],
        )
    rows["lupine-base"] = measure("lupine-base",
                                  sorted(classification.lupine_base))
    return rows


class TestCategoryAblation:
    def test_lupine_base_smaller_and_faster_than_microvm(self, ablation):
        size_mb, boot_ms = ablation["lupine-base"]
        assert size_mb < ablation["microvm"][0]
        assert boot_ms < ablation["microvm"][1]

    def test_hardware_management_buys_more_boot_time_than_mp(self,
                                                             ablation):
        full_boot = ablation["microvm"][1]
        assert (full_boot - ablation["hw"][1]
                > full_boot - ablation["mp"][1])

    def test_app_specific_buys_more_size_than_mp(self, ablation):
        full_size = ablation["microvm"][0]
        assert (full_size - ablation["app"][0]
                > full_size - ablation["mp"][0])
