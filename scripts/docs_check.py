#!/usr/bin/env python
"""Documentation checks: module docstrings, runnable README examples, live references.

Three lightweight gates, run by ``make docs-check``:

1. every public module under ``src/repro`` has a module docstring;
2. every ```python code block in README.md actually executes (blocks share
   one namespace, top to bottom, so later blocks may use earlier results);
3. every `` `path/file.py` `` and every `` `repro.dotted.name` `` written in
   README.md and ``docs/*.md`` names a file that exists (relative to the
   repo root, ``src/``, ``src/repro/`` or one of the top-level code
   directories; ``*`` globs) or an importable attribute — prose cannot keep
   naming what a change deleted.

Exits non-zero with a per-failure listing when any gate fails.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)
FILE_REFERENCE = re.compile(r"`([\w./*-]+\.py)`")
DOTTED_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")
#: Where a `` `path/file.py` `` in prose may be rooted (benchmark, test and
#: example files are usually written bare).
FILE_ROOTS = (
    REPO_ROOT,
    SRC_ROOT,
    SRC_ROOT / "repro",
    *(REPO_ROOT / name for name in ("benchmarks", "tests", "examples", "scripts")),
)


def check_module_docstrings() -> list[str]:
    """Paths of public modules lacking a module docstring."""
    failures = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if any(part.startswith("_") and part != "__init__.py" for part in path.parts):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            failures.append(str(path.relative_to(REPO_ROOT)))
    return failures


def check_readme_blocks() -> list[str]:
    """Error descriptions for README python blocks that fail to execute."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = PYTHON_BLOCK.findall(readme)
    failures = []
    namespace: dict[str, object] = {"__name__": "__readme__"}
    for number, block in enumerate(blocks, start=1):
        try:
            exec(compile(block, f"README.md block {number}", "exec"), namespace)
        except Exception:
            failures.append(
                f"README.md python block {number} failed:\n{traceback.format_exc()}"
            )
    if not blocks:
        failures.append("README.md contains no ```python blocks to check")
    return failures


def resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.c`` is a module, or an attribute chain off one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


def check_references() -> list[str]:
    """``document: reference`` for every file or dotted name that is gone."""
    failures = []
    for document in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        text = document.read_text(encoding="utf-8")
        dead = [
            reference
            for reference in sorted(set(FILE_REFERENCE.findall(text)))
            if not any(any(root.glob(reference)) for root in FILE_ROOTS)
        ]
        dead += [
            dotted
            for dotted in sorted(set(DOTTED_REFERENCE.findall(text)))
            if not resolves(dotted)
        ]
        failures += [f"{document.relative_to(REPO_ROOT)}: `{name}`" for name in dead]
    return failures


def main() -> int:
    sys.path.insert(0, str(SRC_ROOT))
    missing = check_module_docstrings()
    for path in missing:
        print(f"missing module docstring: {path}")
    broken = check_readme_blocks()
    for failure in broken:
        print(failure)
    dead = check_references()
    for reference in dead:
        print(f"dead reference: {reference}")
    problems = len(missing) + len(broken) + len(dead)
    if problems:
        print(f"docs-check: FAILED ({problems} problem(s))")
        return 1
    print(
        "docs-check: OK (all modules documented, README examples run, "
        "file and dotted references resolve)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
