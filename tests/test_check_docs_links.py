"""Tests for tools/check_docs_links.py, the backticked-path check."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_docs_links.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_docs_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _repo(root, readme, roadmap=""):
    (root / "tools").mkdir()
    (root / "tools" / "gate.py").write_text("")
    (root / "docs").mkdir()
    (root / "README.md").write_text(readme)
    (root / "ROADMAP.md").write_text(roadmap)
    return root


class TestBacktickedPaths:
    def test_repository_docs_are_clean(self):
        module = _load()
        assert module.check_links() == []
        assert module.check_paths() == []

    def test_stale_path_fails(self, tmp_path):
        root = _repo(tmp_path, "Run `tools/gate.py`, then `tools/gone.py`.\n")
        failures = _load().check_paths(root)
        assert failures == ["README.md:1: stale path -> tools/gone.py"]

    def test_path_inside_a_command_is_checked(self, tmp_path):
        root = _repo(tmp_path, "Run `python tools/gone.py --check`.\n")
        assert len(_load().check_paths(root)) == 1

    def test_placeholders_outputs_and_test_ids_pass(self, tmp_path):
        root = _repo(tmp_path, (
            "`tools/<name>.py`, `tools/*.py`, `tools/{a,b}.py`,\n"
            "`benchmarks/output/fig3.txt`, `perfbench/out/trace.json`,\n"
            "`tools/gate.py::TestGate::test_it`\n"
        ))
        assert _load().check_paths(root) == []

    def test_roadmap_may_name_files_to_be_written(self, tmp_path):
        root = _repo(tmp_path, "", roadmap="Add `tools/mutants.py`.\n")
        assert _load().check_paths(root) == []
