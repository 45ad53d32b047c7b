"""One measured benchmark process: set-up, then timed repeats.

``run.py`` starts one of these per sample.  Each is a fresh interpreter,
so set-up time includes the imports and nothing carries over from the
previous child.  The result is one JSON object on the last stdout line::

    python3 perfbench/child.py --workload serve_warm --seed 2020 --repeats 2
    python3 perfbench/child.py --workload serve_cold --trace-out trace.json

With ``--trace-out`` the layer wrappers (``layers.py``) are installed
after the imports and one repeat runs traced; without it no wrapper is
ever installed in the process.

An untraced child measures the host's speed throughout (:class:`HostSpeed`)
and reports, for its set-up and each repeat, the program's seconds and
the mean time of the reference loop over the same interval.
"""

import argparse
import json
import os
import resource
import signal
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

_perf = time.perf_counter

#: Iterations of the host-speed reference loop (about 0.5 ms).
REFERENCE_ITERATIONS = 10_000

#: Wall seconds between two timings of the reference loop.
SAMPLE_INTERVAL_S = 0.05


class HostSpeed:
    """Times the reference loop every :data:`SAMPLE_INTERVAL_S` seconds.

    A SIGALRM handler runs the loop between two bytecodes of whatever the
    process is doing, so the samples spread evenly over the wall time of
    an interval and their mean is the host's speed over all of it; loop
    timings taken only before and after a repeat miss the host's changes
    of speed during it.  The handler's own time is taken out of the
    interval.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.loop_s = 0.0
        self.handler_s = 0.0

    def _sample(self, signum: int, frame: Any) -> None:
        entered = _perf()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i % 7
        looped = _perf()
        self.samples += 1
        self.loop_s += looped - entered
        self.handler_s += _perf() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> Tuple[int, float, float]:
        return self.samples, self.loop_s, self.handler_s

    def interval(self, mark: Tuple[int, float, float],
                 wall_s: float) -> Tuple[float, float]:
        """(program seconds, mean loop seconds) of the interval that
        started at *mark* and lasted *wall_s* seconds."""
        samples, loop_s, handler_s = mark
        program_s = wall_s - (self.handler_s - handler_s)
        if self.samples == samples:  # shorter than the sampling interval
            self._sample(signal.SIGALRM, None)
        return program_s, (self.loop_s - loop_s) / (self.samples - samples)


#: Program counters the traced run reads, as deltas over its window.
_COUNTERS = (
    "eventcore.events_dispatched",
    "eventcore.kicks",
    "kconfig.resolve.visited_options",
    "kconfig.resolve.cache_hits",
    "kconfig.resolve.cache_misses",
    "buildcache.hits",
)


def _counters() -> Dict[str, int]:
    from repro.observe import METRICS, TRACER

    values = {name: METRICS.counter(name).value for name in _COUNTERS}
    values["observe.spans"] = TRACER.mark()
    return values


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in after}


def _timed_repeats(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up (the program's imports included), then the timed repeats."""
    host = HostSpeed()
    host.start()
    try:
        mark, start = host.mark(), _perf()
        workload.load()
        workload.prepare(args.size, args.seed)
        setup_s, setup_ref_s = host.interval(mark, _perf() - start)
        repeats: List[Dict[str, Any]] = []
        for _ in range(args.repeats):
            mark, start = host.mark(), _perf()
            result = workload.run_once()
            wall_s, ref_s = host.interval(mark, _perf() - start)
            repeats.append({"wall_s": wall_s, "ref_s": ref_s,
                            **asdict(workload.check(result))})
    finally:
        host.stop()
    return {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
            "repeats": repeats, "wrapped": layers.wrapped_boundaries()}


def _traced_repeat(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up plus one repeat under the wrappers; the check runs after.

    The host is not sampled here: the handler's time would land in the
    self time of whichever boundary it interrupted.
    """
    start = _perf()
    workload.load()
    trace = layers.LayerTrace()
    trace.install()
    try:
        wrapped = layers.wrapped_boundaries()
        window_start = _perf()
        before = _counters()
        workload.prepare(args.size, args.seed)
        setup_end = _perf()
        setup_calls = trace.call_counts()
        mid = _counters()
        result = workload.run_once()
        window_end = _perf()
        after = _counters()
    finally:
        trace.uninstall()
    check = workload.check(result)
    trace.write_chrome_trace(args.trace_out, window_start)
    calls = trace.call_counts()
    return {
        "setup_s": setup_end - start,
        "repeats": [{"wall_s": window_end - setup_end, **asdict(check)}],
        "window_s": window_end - window_start,
        "calls": calls,
        "repeat_calls": {name: calls[name] - setup_calls[name]
                         for name in calls},
        "self_s": trace.self_times(),
        "root_s": trace.root_s[0],
        "counters": _delta(after, before),
        "repeat_counters": _delta(after, mid),
        "requests_served": check.completed if workload.serves_requests else 0,
        "spans_kept": len(trace.spans),
        "spans_dropped": trace.spans_dropped,
        "wrapped": wrapped,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--trace-out", default=None,
                        help="trace one repeat; write its Chrome trace here")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace_out:
        result = _traced_repeat(workload, args)
    else:
        result = _timed_repeats(workload, args)
    result["seed"] = args.seed
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
