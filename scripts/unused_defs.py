"""List the ``src/`` definitions nothing outside the tests refers to.

    python3 scripts/unused_defs.py

A definition is a module-level function or class, or a method of a
module-level class.  It is listed when its name occurs nowhere in ``src/``,
``benchmarks/``, ``scripts/`` or ``examples/`` other than where a function or
class of that name is defined and where a package ``__init__.py`` re-exports
it (its imports and ``__all__``), or inside that definition's own body: a
function that only calls itself, or a class that only names itself, is
listed.  Uses elsewhere in the definition's own file count, so a helper its
module calls is not listed.  Each line gives the place, the qualified name
and how many times ``tests/`` names it.

The count is by name: a method sharing its name with anything else in use
(``plan``, ``run``) is never listed, and a name that only a docstring or a
comment mentions counts as used.  Definitions in :data:`KEPT`, public API
kept on purpose, are not listed.  The listing is a starting point for
deleting code, not a verdict; it gates one thing, its length: the script
exits 1 when more than :data:`MAX_UNUSED` definitions are listed, so a new
test-only definition has to be used, deleted or kept on purpose.
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

#: The most listed definitions the script accepts; lower it as they go.
MAX_UNUSED = 16

#: Qualified name -> why it stays although only ``tests/`` use it.
KEPT = {
    "AccessPathManager.drop_index": "the inverse of create_index, which disk.py calls",
    "Gauge.dec": "a gauge moves both ways; inc alone would be a counter",
    "MutationBatch.abort": "the way out of a batch that is not committed",
    "QueryResult.to_dicts": "the keyed-row view of a result for callers of the library",
    "Table.from_rows": "the row-oriented twin of Table.from_dict",
    "clear_parse_cache": "the one reset of the process-wide parse memo",
    "scalar_and": "the scalar truth table the vectorised three-valued AND is tested against",
    "scalar_not": "the scalar truth table the vectorised three-valued NOT is tested against",
    "scalar_or": "the scalar truth table the vectorised three-valued OR is tested against",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
WORD = re.compile(r"\w+")


def definitions(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """``(name, qualified name, node)`` of every module-level function and
    class of a module and every method of those classes."""
    found = []
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        found.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (method.name, f"{node.name}.{method.name}", method)
                for method in node.body
                if isinstance(method, DEFINITIONS[:2])
            )
    return found


def occurrences(lines: list[str], node: ast.AST, name: str) -> int:
    """How often ``name`` occurs in ``node``'s source lines, its own
    ``def``/``class`` line included."""
    text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
    return WORD.findall(text).count(name)


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
    """How often each word occurs in the Python files under ``directory``
    (this script aside: naming a definition in :data:`KEPT` is no use)."""
    counts: Counter[str] = Counter()
    for path in sorted((ROOT / directory).rglob("*.py")):
        if path == Path(__file__).resolve():
            continue
        counts.update(WORD.findall(path.read_text(encoding="utf-8")))
    return counts


def main() -> int:
    used: Counter[str] = Counter()
    defined: Counter[str] = Counter()
    found: list[tuple[Path, int, str, str]] = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        lines = text.splitlines()
        if path.name == "__init__.py":
            text = without_reexports(text, tree)
        used.update(WORD.findall(text))
        for name, qualified, node in definitions(tree):
            defined[name] += occurrences(lines, node, name)
            found.append((path, node.lineno, name, qualified))
    for directory in USER_DIRS:
        used.update(words_in(directory))
    in_tests = words_in("tests")

    candidates = [
        (path, line, qualified, in_tests[name])
        for path, line, name, qualified in found
        if not (name.startswith("__") and name.endswith("__")) and used[name] <= defined[name]
    ]
    unused = [entry for entry in candidates if entry[2] not in KEPT]
    for path, line, qualified, test_refs in unused:
        print(f"{path.relative_to(ROOT)}:{line}\t{qualified}\ttests={test_refs}")
    kept = KEPT.keys() & {qualified for _, _, qualified, _ in candidates}
    for qualified in sorted(KEPT.keys() - kept):
        print(f"KEPT names {qualified}, which is no longer an unused definition")
    print(f"{len(unused)} definitions unused outside tests/, {len(kept)} kept on purpose")
    if len(unused) > MAX_UNUSED:
        print(f"more than MAX_UNUSED = {MAX_UNUSED}: use, delete or keep the new ones")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
