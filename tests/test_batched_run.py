"""Property tests: the batched throughput fast path is bit-exact.

``LinuxServerStack.run`` folds whole request batches through
``SyscallEngine.invoke_batch`` (closed-form addends, jitter applied
analytically).  Float addition is not associative, so "bit-exact" is a
real claim: for every profile, request count, engine, and pre-existing
jitter phase, the batched fold must reproduce the stepped reference loop
:func:`run_stepped` exactly -- same final clock, same rps bits, same
jitter call count.
"""

from collections import Counter

import pytest

from repro.core.variants import Variant, build_microvm, build_variant
from repro.apps.registry import get_app
from repro.syscall.cpu import CpuCostModel, EntryMechanism
from repro.syscall.dispatch import JITTER, JITTER_PERIOD, SyscallEngine
from repro.syscall.table import SYSCALLS
from repro.syscall.usage import UsageTrace
from repro.workloads.memcached import MEMCACHED_GET, MEMCACHED_SET
from repro.workloads.nginx import NGINX_CONN, NGINX_SESS
from repro.workloads.redis import REDIS_GET, REDIS_SET
from repro.workloads.server import LinuxServerStack

PROFILES = (REDIS_GET, REDIS_SET, NGINX_CONN, NGINX_SESS,
            MEMCACHED_GET, MEMCACHED_SET)

#: Spans the jitter period boundaries: the phase sequence repeats every
#: 1000 calls, so counts near multiples of the per-profile round period
#: are the interesting edges.
REQUEST_COUNTS = (1, 2, 3, 7, 99, 100, 101, 250, 999, 1000, 1001, 2500)


def run_stepped(stack: LinuxServerStack, profile, requests: int) -> float:
    """The reference per-request loop ``LinuxServerStack.run`` must match
    bit-for-bit: every syscall invoked, then the request's network and
    app work charged, one request at a time."""
    engine = stack.engine
    start = engine.clock_ns
    for _ in range(requests):
        for name in profile.syscalls:
            engine.invoke(name)
        engine.cpu_work(stack._work_ns(profile, profile.app_ns))
    elapsed_s = (engine.clock_ns - start) / 1e9
    return requests / elapsed_s


def _builds():
    app = get_app("redis")
    return (
        ("microvm", build_microvm()),
        ("lupine", build_variant(Variant.LUPINE, app)),
        ("lupine-nokml", build_variant(Variant.LUPINE_NOKML, app)),
        ("lupine-tiny", build_variant(Variant.LUPINE_TINY, app)),
    )


def _pair(build):
    """Two stacks on fresh engines of the same kernel."""
    return (
        LinuxServerStack(engine=build.syscall_engine(),
                         netpath=build.network_path()),
        LinuxServerStack(engine=build.syscall_engine(),
                         netpath=build.network_path()),
    )


class TestBatchedEqualsStepped:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("requests", REQUEST_COUNTS)
    def test_bit_exact_across_profiles_and_counts(self, profile, requests):
        batched, stepped = _pair(build_microvm())
        rate_batched = batched.run(profile, requests)
        rate_stepped = run_stepped(stepped, profile, requests)
        assert batched.engine.clock_ns == stepped.engine.clock_ns
        assert rate_batched == rate_stepped  # identical bits, not approx
        assert batched.engine.call_count == stepped.engine.call_count

    @pytest.mark.parametrize("label,build", _builds(), ids=lambda v: (
        v if isinstance(v, str) else ""))
    def test_bit_exact_across_kernels(self, label, build):
        for profile in (REDIS_GET, NGINX_SESS):
            batched, stepped = _pair(build)
            assert (batched.run(profile, 137)
                    == run_stepped(stepped, profile, 137))
            assert batched.engine.clock_ns == stepped.engine.clock_ns

    @pytest.mark.parametrize("offset", (1, 17, 500, 999, 1000, 12345))
    def test_bit_exact_from_any_jitter_phase(self, offset):
        # A prior workload leaves the engine mid-jitter-period; the
        # batched fold must continue from that phase, not restart it.
        batched, stepped = _pair(build_microvm())
        for stack in (batched, stepped):
            for _ in range(offset):
                stack.engine.invoke("read")
        rate_batched = batched.run(REDIS_GET, 77)
        rate_stepped = run_stepped(stepped, REDIS_GET, 77)
        assert rate_batched == rate_stepped
        assert batched.engine.clock_ns == stepped.engine.clock_ns

    def test_consecutive_batches_compose(self):
        batched, stepped = _pair(build_microvm())
        for profile, requests in ((REDIS_GET, 33), (REDIS_SET, 41),
                                  (NGINX_CONN, 250)):
            assert (batched.run(profile, requests)
                    == run_stepped(stepped, profile, requests))
        assert batched.engine.clock_ns == stepped.engine.clock_ns

    def test_per_syscall_counts_match(self):
        batched, stepped = _pair(build_microvm())
        for stack in (batched, stepped):
            stack.engine.usage = UsageTrace()
        batched.run(NGINX_SESS, 211)
        run_stepped(stepped, NGINX_SESS, 211)
        expected = Counter(NGINX_SESS.syscalls * 211)
        assert batched.engine.usage.syscall_counts == expected
        assert stepped.engine.usage.syscall_counts == expected

    def test_zero_requests_is_zero_division_like_stepped(self):
        batched, stepped = _pair(build_microvm())
        with pytest.raises(ZeroDivisionError):
            batched.run(REDIS_GET, 0)
        with pytest.raises(ZeroDivisionError):
            run_stepped(stepped, REDIS_GET, 0)

    def test_unsupported_syscall_falls_back_to_stepped_semantics(self):
        from repro.netstack.path import NetworkPath
        from repro.syscall.dispatch import SyscallNotImplemented
        from repro.workloads.server import RequestProfile

        # The bare hello-world kernel drops EPOLL: run() must take the
        # stepped fallback and surface ENOSYS exactly as the loop does.
        hello = build_variant(Variant.LUPINE_NOKML)
        profile = RequestProfile(
            name="epoll-heavy", syscalls=("read", "epoll_wait"),
            app_ns=100.0,
        )
        stack = LinuxServerStack(
            engine=hello.syscall_engine(),
            netpath=NetworkPath.for_options(("INET",)),
        )
        assert not stack.engine.supports("epoll_wait")
        with pytest.raises(SyscallNotImplemented):
            stack.run(profile, 5)
        # Charge-then-raise: the supported syscall before the missing
        # one was still billed before ENOSYS surfaced.
        assert stack.engine.clock_ns > 0


def _engine_settings():
    """Engines that differ in config, entry mechanism, KPTI and -Os."""
    microvm = build_microvm().config.enabled
    lupine = build_variant(Variant.LUPINE, get_app("redis")).config.enabled
    tiny = build_variant(Variant.LUPINE_TINY, get_app("redis")).config.enabled
    pti = microvm | {"PAGE_TABLE_ISOLATION"}
    return {
        "microvm-syscall": (microvm, EntryMechanism.SYSCALL, False, False),
        "lupine-kml": (lupine, EntryMechanism.KML_CALL, False, False),
        "microvm-int80": (microvm, EntryMechanism.INT80, False, False),
        "microvm-kpti": (pti, EntryMechanism.SYSCALL, True, False),
        "kml-kpti": (pti, EntryMechanism.KML_CALL, True, False),
        "tiny-os": (tiny, EntryMechanism.SYSCALL, False, True),
        "int80-kpti-os": (pti, EntryMechanism.INT80, True, True),
    }


SETTINGS = _engine_settings()

#: Pairs of engines run side by side, interleaved.
ENGINE_PAIRS = [
    ("microvm-syscall", "lupine-kml"),
    ("microvm-syscall", "microvm-int80"),
    ("microvm-syscall", "microvm-kpti"),
    ("microvm-kpti", "kml-kpti"),
    ("lupine-kml", "tiny-os"),
    ("tiny-os", "int80-kpti-os"),
]


def _engine(label):
    options, entry, kpti, size_optimized = SETTINGS[label]
    return SyscallEngine.for_config(options, entry=entry, kpti=kpti,
                                    size_optimized=size_optimized)


def _fresh_model(label):
    options, entry, kpti, size_optimized = SETTINGS[label]
    return CpuCostModel.for_options(options, entry=entry, kpti=kpti,
                                    size_optimized=size_optimized)


#: Engines whose entry cost carries KPTI or whose kernel work runs -Os.
KPTI_AND_OS = ("microvm-kpti", "kml-kpti", "tiny-os", "int80-kpti-os")

#: One served request's syscalls, up to six (a repeat included).
ROUND_NAMES = ("epoll_wait", "read", "write", "writev", "close", "close")


def _fresh_latency(label, name, work_ns, call_count=None):
    """One call's latency from a cost model built just now: the stepped
    ``invoke`` latency at *call_count*, or ``latency_ns`` without one."""
    syscall = SYSCALLS[name]
    latency = _fresh_model(label).syscall_ns(syscall.handler_ns + work_ns,
                                             syscall.data_path)
    if call_count is None:
        return latency
    phase = (call_count * 2654435761) % 1000
    entry_ns = SETTINGS[label][1].entry_ns
    return latency + ((phase / 1000.0) - 0.5) * 0.03 * entry_ns


class TestPerEngineCostVectors:
    """Each engine prices a syscall once and keeps it; engines that
    differ in any cost input must never see each other's prices."""

    @pytest.mark.parametrize("first,second", ENGINE_PAIRS)
    def test_interleaved_engines_keep_batched_stepped_parity(self, first,
                                                             second):
        netpath = build_microvm().network_path()
        stacks = {
            label: tuple(LinuxServerStack(engine=_engine(label),
                                          netpath=netpath)
                         for _ in range(2))
            for label in (first, second)
        }
        # Redis profiles: every kernel here, the redis-specialized ones
        # included, compiles their syscalls in.
        for profile, requests in ((REDIS_GET, 7), (REDIS_SET, 31),
                                  (REDIS_GET, 1), (REDIS_SET, 250)):
            for label in (first, second):
                batched, stepped = stacks[label]
                assert (batched.run(profile, requests)
                        == run_stepped(stepped, profile, requests))
                assert batched.engine.clock_ns == stepped.engine.clock_ns
        one, two = (stacks[label][0].engine for label in (first, second))
        assert one._costs is not two._costs
        assert one.clock_ns != two.clock_ns
        # The jitter table is the one thing shared: per entry mechanism.
        assert one._jitter_ns is JITTER[SETTINGS[first][1]]
        assert two._jitter_ns is JITTER[SETTINGS[second][1]]

    @pytest.mark.parametrize("entry", list(EntryMechanism),
                             ids=lambda entry: entry.value)
    def test_jitter_table_equals_the_expression(self, entry):
        table = JITTER[entry]
        assert len(table) == JITTER_PERIOD == 1000
        for count in range(JITTER_PERIOD):
            phase = (count * 2654435761) % 1000
            assert table[count] == (
                ((phase / 1000.0) - 0.5) * 0.03 * entry.entry_ns
            )

    @pytest.mark.parametrize("label", KPTI_AND_OS)
    @pytest.mark.parametrize("stride", range(1, len(ROUND_NAMES) + 1))
    def test_one_round_batch_equals_one_stepped_round(self, label, stride):
        """``invoke_batch(names, work, 1)``, the one-round path every
        served request takes, across the jitter table's wrap."""
        names = ROUND_NAMES[:stride]
        for start in range(995, 1005):
            batched, stepped = _engine(label), _engine(label)
            for engine in (batched, stepped):
                engine.cpu_work(1e6 / 3.0)  # an inexact starting clock
                engine.call_count = start
                engine.usage = UsageTrace()
            batched.invoke_batch(names, 40.0, 1)
            for name in names:
                count = stepped.call_count
                assert stepped.invoke(name).latency_ns == (
                    _fresh_latency(label, name, 0.0, count)
                )
            stepped.cpu_work(40.0)
            assert batched.clock_ns == stepped.clock_ns
            assert batched.call_count == stepped.call_count == start + stride
            assert (batched.usage.syscall_counts
                    == stepped.usage.syscall_counts == Counter(names))

    @pytest.mark.parametrize("label", sorted(SETTINGS))
    def test_vector_equals_the_unmemoized_cost_model(self, label):
        other_label = ("int80-kpti-os" if label == "lupine-kml"
                       else "lupine-kml")
        engines = {label: _engine(label), other_label: _engine(other_label)}
        for name in ("read", "write", "epoll_wait", "sendto", "read"):
            for work_ns in (0.0, 40.0, 0.0):
                for engine_label, engine in engines.items():
                    count = engine.call_count
                    assert engine.invoke(name, work_ns).latency_ns == (
                        _fresh_latency(engine_label, name, work_ns, count)
                    )
                    assert engine.latency_ns(name, work_ns) == (
                        _fresh_latency(engine_label, name, work_ns)
                    )
        for engine_label, engine in engines.items():
            for name, (syscall, base) in engine._costs.items():
                assert base == _fresh_latency(engine_label, name, 0.0)
