#!/usr/bin/env python3
"""Dead-link check for the repo's markdown documentation.

Walks the navigable docs -- ``README.md``, ``DESIGN.md``,
``EXPERIMENTS.md``, ``ROADMAP.md`` and everything under ``docs/`` -- and
verifies that every *relative* markdown link resolves to a real file or
directory in the repository.  External links (``http://``, ``https://``,
``mailto:``) and pure in-page anchors (``#section``) are skipped; a
``path#fragment`` link is checked for the path only.

It also checks backticked paths: in the same docs except ``ROADMAP.md``
(which names files still to be written), every word of an inline code
span that starts with a repository directory (:data:`PATH_PREFIXES`)
must name an existing file or directory.  A ``::test`` suffix is
stripped first; placeholders (containing ``<``, ``*`` or ``{``) and run
outputs (:data:`RUN_OUTPUTS`) are skipped.

The point: the README/docs cross-link mesh is the system's navigation
surface, and a rename or deletion that strands a link or a path should
fail CI the same way a broken import does.  Run
``python tools/check_docs_links.py`` (exit 1 on dead links or paths);
wired into ``tools/check.sh``.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Iterable, Iterator, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Documents whose links must stay alive.  ``docs/`` is globbed whole.
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")
DOC_DIRS = ("docs",)

#: Inline markdown links: ``[text](target)``.  Good enough for our docs
#: -- no reference-style links, no angle-bracket targets.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Targets that are not repo-relative paths.
EXTERNAL = re.compile(r"^(https?|mailto|ftp):")

#: Documents whose backticked paths must exist: ROADMAP.md is left out,
#: since it names files that are still to be written.
PATH_DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: Inline code spans.
CODE_SPAN = re.compile(r"`([^`]+)`")

#: A word in a code span starting with one of these is a repository path.
PATH_PREFIXES = ("src/", "tests/", "tools/", "examples/", "benchmarks/",
                 "perfbench/", "docs/")

#: Generated by runs rather than committed; their names are examples.
RUN_OUTPUTS = ("benchmarks/output/", "perfbench/out/")


def doc_paths(files: Iterable[str] = DOC_FILES,
              root: pathlib.Path = REPO_ROOT) -> Iterator[pathlib.Path]:
    for name in files:
        path = root / name
        if path.is_file():
            yield path
    for name in DOC_DIRS:
        yield from sorted((root / name).glob("*.md"))


def relative_links(path: pathlib.Path) -> Iterator[Tuple[int, str]]:
    """(line number, target) for each relative link in *path*."""
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for match in LINK.finditer(line):
            target = match.group(1)
            if EXTERNAL.match(target) or target.startswith("#"):
                continue
            yield lineno, target


def backticked_paths(path: pathlib.Path) -> Iterator[Tuple[int, str]]:
    """(line number, repository path) for each checkable backticked path."""
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for match in CODE_SPAN.finditer(line):
            for word in match.group(1).split():
                target = word.split("::", 1)[0]
                if (not target.startswith(PATH_PREFIXES)
                        or any(mark in target for mark in "<*{")
                        or target.startswith(RUN_OUTPUTS)):
                    continue
                yield lineno, target


def check_paths(root: pathlib.Path = REPO_ROOT) -> List[str]:
    """Backticked paths in the docs under *root* that do not exist."""
    failures: List[str] = []
    checked = 0
    for path in doc_paths(PATH_DOC_FILES, root):
        for lineno, target in backticked_paths(path):
            checked += 1
            if not (root / target).exists():
                failures.append(
                    f"{path.relative_to(root)}:{lineno}: stale path "
                    f"-> {target}"
                )
    if not failures:
        print(f"check_docs_links: ok ({checked} backticked paths exist)")
    return failures


def check_links() -> List[str]:
    failures: List[str] = []
    checked = 0
    for path in doc_paths():
        for lineno, target in relative_links(path):
            checked += 1
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                failures.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: dead link "
                    f"-> {target}"
                )
    if not failures:
        print(f"check_docs_links: ok ({checked} relative links resolve)")
    return failures


def main() -> int:
    failures = check_links() + check_paths()
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        print(f"check_docs_links: {len(failures)} dead link(s) or "
              "stale path(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
