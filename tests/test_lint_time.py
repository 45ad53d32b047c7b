"""Tests for tools/lint_time.py: the no-threads and no-clock-internals
rules in particular."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "lint_time.py"


def _load():
    spec = importlib.util.spec_from_file_location("lint_time", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLintTime:
    def test_tree_lints_clean(self):
        completed = subprocess.run(
            [sys.executable, str(SCRIPT)],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "one thread" in completed.stdout

    @pytest.mark.parametrize("source", [
        "import threading\n",
        "import _thread\n",
        "from threading import Lock\n",
        "from concurrent.futures import ThreadPoolExecutor\n",
        "import concurrent.futures\n"
        "pool = concurrent.futures.ThreadPoolExecutor(2)\n",
        "from multiprocessing import dummy\n",
        "import multiprocessing.dummy\n",
        "from multiprocessing.pool import ThreadPool\n",
    ])
    def test_no_threads_flags_thread_apis(self, source):
        module = _load()
        for time_rules in (True, False):  # simcore/observe included
            violations = module.lint_source(source, "mod.py",
                                            time_rules=time_rules)
            assert len(violations) == 1, violations
            assert "[no-threads]" in violations[0]

    @pytest.mark.parametrize("source", [
        "from concurrent.futures import ProcessPoolExecutor\n",
        "import concurrent.futures\n"
        "pool = concurrent.futures.ProcessPoolExecutor(2)\n",
        "import multiprocessing\n"
        "context = multiprocessing.get_context('fork')\n",
    ])
    def test_no_threads_allows_processes(self, source):
        module = _load()
        assert module.lint_source(source, "mod.py") == []

    @pytest.mark.parametrize("source", [
        "clock._now_ns = target\n",
        "now = guest.clock._now_ns\n",
    ])
    def test_no_clock_internals_flags_accumulator_and_loop(self, source):
        module = _load()
        for time_rules in (True, False):  # observe included
            violations = module.lint_source(source, "mod.py",
                                            time_rules=time_rules)
            assert len(violations) == 1, violations
            assert "[no-clock-internals]" in violations[0]
        # repro/simcore owns the accumulator.
        assert module.lint_source(source, "mod.py", time_rules=False,
                                  clock_internals=False) == []

    @pytest.mark.parametrize("source", [
        "clock.advance_to(target)\n",
        "now = clock.now_ns\n",
        "clock.jump_to(0.0)\n",
        "self._now = 1\n",
    ])
    def test_no_clock_internals_allows_the_clock_api(self, source):
        module = _load()
        assert module.lint_source(source, "mod.py") == []
