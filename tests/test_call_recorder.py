"""Tests for tools/call_recorder.py, run on a tiny package."""

import importlib.util
import subprocess
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "call_recorder.py"


def _load():
    spec = importlib.util.spec_from_file_location("call_recorder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


call_recorder = _load()


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(textwrap.dedent('''\
        import functools


        def used():
            return helper()


        def helper():
            return 1


        @functools.lru_cache()
        def cached():
            return 2


        def unused():
            def nested():
                return 3

            return nested()


        class Thing:
            def method(self):
                return 4

            def other(self):
                return 5
        '''))
    return root


def _names(missed):
    return sorted(function.name for function in missed)


def test_reports_only_functions_no_run_entered(package):
    missed = call_recorder.never_entered(
        package,
        ["import pkg.mod\npkg.mod.used()\npkg.mod.cached()",
         "import pkg.mod\npkg.mod.Thing().method()"],
        [package.parent],
    )
    assert _names(missed) == ["nested", "other", "unused"]
    # unused (5 lines, nested included), nested (2) and other (2).
    assert call_recorder._lines(missed) == 5 + 2 + 2


def test_every_def_is_counted(package):
    names = _names(call_recorder.functions(package))
    assert names == ["cached", "helper", "method", "nested", "other",
                     "unused", "used"]


def test_functions_entered_in_forked_workers_count(package):
    """A pool worker leaves through ``os._exit``; what it entered still
    counts, and each worker's record is merged."""
    missed = call_recorder.never_entered(
        package,
        ["import multiprocessing\n"
         "from concurrent.futures import ProcessPoolExecutor\n"
         "import pkg.mod\n"
         "context = multiprocessing.get_context('fork')\n"
         "with ProcessPoolExecutor(2, mp_context=context) as pool:\n"
         "    assert pool.submit(pkg.mod.helper).result() == 1\n"
         "    assert pool.submit(pkg.mod.cached).result() == 2"],
        [package.parent],
    )
    assert _names(missed) == ["method", "nested", "other", "unused", "used"]


def test_failing_run_raises(package):
    with pytest.raises(subprocess.CalledProcessError):
        call_recorder.never_entered(package, ["raise SystemExit(1)"],
                                    [package.parent])
