"""List the ``src/`` definitions nothing outside the tests refers to.

    python3 scripts/unused_defs.py

A definition is a module-level function or class, or a method of a
module-level class.  It is listed when its name occurs nowhere in ``src/``,
``benchmarks/``, ``scripts/`` or ``examples/`` other than where a function or
class of that name is defined and where a package ``__init__.py`` re-exports
it (its imports and ``__all__``).  Uses in the definition's own file count,
so a helper its module calls is not listed.  Each line gives the place, the
qualified name and how many times ``tests/`` names it.

The count is by name: a method sharing its name with anything else in use
(``plan``, ``run``) is never listed, and a name that only a docstring or a
comment mentions counts as used.  The listing is a starting point for
deleting code, not a verdict, and it gates nothing.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Directories whose code counts as a use besides ``src/``.
USER_DIRS = ("benchmarks", "scripts", "examples")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
WORD = re.compile(r"\w+")


def definitions(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(name, qualified name, line)`` of every module-level function and
    class of a module and every method of those classes."""
    found = []
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        found.append((node.name, node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (method.name, f"{node.name}.{method.name}", method.lineno)
                for method in node.body
                if isinstance(method, DEFINITIONS[:2])
            )
    return found


def without_reexports(text: str, tree: ast.Module) -> str:
    """A package ``__init__``'s text without its imports and ``__all__``."""
    dropped: set[int] = set()
    for node in tree.body:
        exports = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        )
        if isinstance(node, (ast.Import, ast.ImportFrom)) or exports:
            dropped.update(range(node.lineno - 1, node.end_lineno))
    return "\n".join(line for index, line in enumerate(text.splitlines()) if index not in dropped)


def words_in(directory: str) -> Counter[str]:
    """How often each word occurs in the Python files under ``directory``."""
    counts: Counter[str] = Counter()
    for path in sorted((ROOT / directory).rglob("*.py")):
        counts.update(WORD.findall(path.read_text(encoding="utf-8")))
    return counts


def main() -> int:
    used: Counter[str] = Counter()
    defined: Counter[str] = Counter()
    found: list[tuple[Path, int, str, str]] = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        if path.name == "__init__.py":
            text = without_reexports(text, tree)
        used.update(WORD.findall(text))
        for name, qualified, line in definitions(tree):
            defined[name] += 1
            found.append((path, line, name, qualified))
    for directory in USER_DIRS:
        used.update(words_in(directory))
    in_tests = words_in("tests")

    unused = [
        (path, line, qualified, in_tests[name])
        for path, line, name, qualified in found
        if not (name.startswith("__") and name.endswith("__")) and used[name] <= defined[name]
    ]
    for path, line, qualified, test_refs in unused:
        print(f"{path.relative_to(ROOT)}:{line}\t{qualified}\ttests={test_refs}")
    print(f"{len(unused)} definitions unused outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
