"""Tests for tools/check_reachability.py, the static reachability gate."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_reachability.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_reachability",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    """Write {relative path: source} under *root*; returns *root*."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


class TestCheckReachability:
    def test_tree_is_clean(self):
        completed = subprocess.run(
            [sys.executable, str(SCRIPT)],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "check_reachability: ok" in completed.stdout

    def test_unimported_module_is_flagged(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/__init__.py": '"""The package."""\n',
            "src/repro/cli.py": "from repro.used import run\n",
            "src/repro/used.py": "def run():\n    pass\n",
            "src/repro/dead.py": "VALUE = 1\n",
        })
        assert _load().unreached(root) == ["src/repro/dead.py"]

    def test_docstring_only_init_and_string_named_module_pass(self,
                                                              tmp_path):
        root = _tree(tmp_path, {
            "src/repro/__init__.py": '"""The package."""\n',
            "src/repro/cli.py": 'BENCHES = {"b": "repro.pkg.bench"}\n',
            "src/repro/pkg/__init__.py": '"""Only a docstring."""\n',
            "src/repro/pkg/bench.py": "def run_bench():\n    pass\n",
        })
        assert _load().unreached(root) == []

    def test_reexports_do_not_keep_modules_alive(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/__init__.py": '"""The package."""\n',
            "src/repro/cli.py": "import repro.pkg.live\n",
            "src/repro/pkg/__init__.py": "from repro.pkg.dead import X\n",
            "src/repro/pkg/live.py": "",
            "src/repro/pkg/dead.py": "X = 1\n",
        })
        assert _load().unreached(root) == [
            "src/repro/pkg/__init__.py", "src/repro/pkg/dead.py",
        ]

    def test_local_imports_and_every_entry_point_count(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/__init__.py": '"""The package."""\n',
            "src/repro/cli.py": (
                "def main():\n"
                "    from repro.pkg import tool\n"
                "    return tool\n"
            ),
            "src/repro/pkg/__init__.py": '"""Only a docstring."""\n',
            "src/repro/pkg/tool.py": "from . import helper\n",
            "src/repro/pkg/helper.py": "",
            "src/repro/pkg/named.py": "NAME = 1\n",
            "src/repro/bench.py": "",
            "src/repro/example.py": "",
            "tools/gate.py": "from repro.pkg.named import NAME\n",
            "perfbench/run.py": "import repro.bench\n",
            "examples/demo.py": "import repro.example\n",
        })
        assert _load().unreached(root) == []
