"""End-to-end tests of the Figure 2 pipeline and graceful degradation."""

import pytest

from repro.apps.registry import get_app
from repro.boot.console import dmesg
from repro.core.lupine import LupineBuilder
from repro.core.variants import Variant
from repro.rootfs.init import INIT_SCRIPT_PATH
from repro.simcore.context import default_clock
from repro.simcore.guest import GuestState
from repro.syscall.dispatch import SyscallNotImplemented
from repro.vmm.monitor import solo5_hvt


@pytest.fixture(scope="module")
def redis_unikernel():
    return LupineBuilder(variant=Variant.LUPINE).build_for_app(
        get_app("redis")
    )


class TestBuildPipeline:
    def test_kernel_is_application_specific(self, redis_unikernel):
        config = redis_unikernel.build.config
        assert "EPOLL" in config and "FUTEX" in config
        assert "AIO" not in config  # nginx-only

    def test_rootfs_contains_app_libc_and_init(self, redis_unikernel):
        rootfs = redis_unikernel.rootfs
        assert rootfs.exists("/usr/bin/redis-server")
        assert rootfs.exists("/lib/ld-musl-x86_64.so.1")
        assert rootfs.exists(INIT_SCRIPT_PATH)
        assert rootfs.lookup(INIT_SCRIPT_PATH).executable

    def test_kml_variant_ships_patched_libc(self, redis_unikernel):
        assert redis_unikernel.libc.kml_patched

    def test_init_script_mounts_proc_for_redis(self, redis_unikernel):
        assert "mount -t proc" in redis_unikernel.init_script
        assert "exec /usr/bin/redis-server" in redis_unikernel.init_script

    def test_nokml_variant_ships_plain_libc(self):
        unikernel = LupineBuilder(variant=Variant.LUPINE_NOKML).build_for_app(
            get_app("redis")
        )
        assert not unikernel.libc.kml_patched

    def test_bare_build(self):
        unikernel = LupineBuilder().build_for_app(get_app("hello-world"))
        assert unikernel.app.name == "hello-world"
        assert "INET" not in unikernel.build.config
        assert unikernel.kernel_image_mb < 4.5

    def test_artifact_sizes(self, redis_unikernel):
        assert 3.5 <= redis_unikernel.kernel_image_mb <= 5.0
        assert redis_unikernel.rootfs_size_mb > 2.0


class TestBoot:
    def test_boot_succeeds_on_firecracker(self, redis_unikernel):
        guest = redis_unikernel.boot()
        assert guest.ran_successfully
        assert guest.boot_report.total_ms > 0
        assert "redis: ready" in guest.console

    def test_boot_rejected_on_incompatible_monitor(self, redis_unikernel):
        from repro.vmm.monitor import MonitorError

        with pytest.raises(MonitorError):
            redis_unikernel.boot(monitor=solo5_hvt())

    def test_guest_is_kernel_mode_under_kml(self, redis_unikernel):
        guest = redis_unikernel.boot()
        assert guest.app_task.kernel_mode

    def test_min_memory_in_paper_range(self, redis_unikernel):
        assert 18 <= redis_unikernel.min_memory_mb() <= 25  # paper: ~21


class TestBootClock:
    """A booted unikernel runs on one clock: its guest's."""

    @pytest.mark.parametrize("name", ["redis", "hello-world"])
    def test_boot_runs_on_the_guest_clock_only(self, name):
        unikernel = LupineBuilder(variant=Variant.LUPINE).build_for_app(
            get_app(name)
        )
        before = default_clock().now_ns
        guest = unikernel.boot()
        assert default_clock().now_ns == before
        assert guest.state is GuestState.BOOTED
        assert guest.engine.clock is guest.clock
        assert guest.scheduler.clock is guest.clock
        if guest.tcp is not None:
            assert guest.tcp.clock is guest.clock
        # Boot phases, then the init step's execve, on the same timeline.
        assert guest.clock.now_ns >= guest.boot_report.total_ms * 1e6
        assert guest.engine.call_count >= 1


class TestGracefulDegradation:
    def test_fork_just_works(self, redis_unikernel):
        """Section 5: 'rather than crashing on fork, Lupine continues'."""
        guest = redis_unikernel.boot()
        child = guest.fork_app()
        assert child.pid != guest.app_task.pid
        assert guest.ran_successfully

    def test_missing_syscall_is_enosys_not_crash(self, redis_unikernel):
        guest = redis_unikernel.boot()
        with pytest.raises(SyscallNotImplemented):
            guest.engine.invoke("io_submit")  # redis kernel has no AIO
        # The guest is still alive and serving:
        assert guest.engine.invoke("epoll_wait").latency_ns > 0

    def test_control_processes_spawnable(self, redis_unikernel):
        guest = redis_unikernel.boot()
        scheduler = guest.scheduler
        control = [scheduler.spawn(f"sleep-{index}", working_set_kb=4)
                   for index in range(64)]
        for task in control:
            scheduler.sleep(task)
        assert len({task.pid for task in control}) == 64
        assert scheduler.sleeping_count() == 64
        assert guest.ran_successfully

    def test_multiprocess_postgres_runs_on_lupine(self):
        """The app every unikernel rejects boots fine here."""
        postgres = get_app("postgres")
        unikernel = LupineBuilder(variant=Variant.LUPINE).build_for_app(
            postgres
        )
        assert "SYSVIPC" in unikernel.build.config
        guest = unikernel.boot()
        assert guest.ran_successfully
        guest.fork_app()


class TestGuestDmesg:
    def test_dmesg_reflects_config(self, redis_unikernel):
        guest = redis_unikernel.boot()
        text = dmesg(guest.kernel.image, guest.boot_report)
        assert "TCP: Hash tables configured" in text  # redis needs INET
        assert "SELinux" not in text
        assert "boot complete" in text


class TestBootFailureInjection:
    def test_rootfs_without_init_cannot_boot(self, redis_unikernel):
        import dataclasses

        from repro.rootfs.container import FileEntry
        from repro.rootfs.ext2 import build_ext2

        broken = dataclasses.replace(
            redis_unikernel,
            rootfs=build_ext2([FileEntry("/usr/bin/redis-server", 2100,
                                         executable=True)]),
        )
        with pytest.raises(RuntimeError, match="startup script"):
            broken.boot()
