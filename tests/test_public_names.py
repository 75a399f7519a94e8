"""Every module-level public name in ``src/repro`` is used outside the tests.

A public ``def`` or ``class`` at module level must be referenced by name
somewhere in ``src/``, ``ruler/``, ``benchmarks/`` or ``examples/`` — a
word-boundary match, as a grep would see it.  Its own ``def``/``class`` line
does not count, and neither does a package ``__init__`` re-export (its
imports and ``__all__``).  ``tests/`` does not count: a name only the tests
call is dead code with a test.

The exceptions are read from API.md, so the document is the list: every
identifier it puts in backticks (inline spans and fenced blocks) is a
documented entry point.  Methods are out of scope; protocols and duck typing
make a method scan noisy.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
SEARCHED_DIRS = ("src", "ruler", "benchmarks", "examples")
#: modules exempt from the scan, each with its reason.
EXEMPT_MODULES = {
    "repro.testing": "test-support helpers: the tests are their callers by design",
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _reexport_lines(tree: ast.Module) -> set:
    """Line numbers of a package ``__init__``'s imports and ``__all__``."""
    lines = set()
    for node in tree.body:
        reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        )
        if reexport:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _references(path: Path) -> Counter:
    """Word counts of one searched file, ``__init__`` re-exports left out."""
    text = path.read_text()
    if path.name == "__init__.py":
        skip = _reexport_lines(ast.parse(text))
        text = "\n".join(
            line for number, line in enumerate(text.splitlines(), 1) if number not in skip
        )
    return Counter(_WORD.findall(text))


def documented_names(root: Path) -> set:
    """Every identifier API.md puts in backticks."""
    text = (root / "API.md").read_text()
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return {word for span in spans for word in _WORD.findall(span)}


def unused_names(root: Path) -> List[str]:
    """``module:name`` of every public module-level def or class nobody uses."""
    src = root / "src"
    counts = Counter()
    for directory in SEARCHED_DIRS:
        for path in (root / directory).rglob("*.py"):
            counts.update(_references(path))
    public = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = _module_name(path, src)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
                public.append((module, node.name))
    # every def/class line of a name is one occurrence that uses nothing
    definitions = Counter(name for _, name in public)
    documented = documented_names(root)
    return [
        f"{module}:{name}"
        for module, name in public
        if module not in EXEMPT_MODULES
        and name not in documented
        and counts[name] <= definitions[name]
    ]


def test_every_public_name_is_used():
    unused = unused_names(ROOT)
    assert not unused, (
        "public names used nowhere in src/, ruler/, benchmarks/ or examples/ "
        f"(delete them, or document them in API.md): {unused}"
    )


def test_the_scan_flags_what_only_tests_or_reexports_name(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from repro.mod import documented, exported\n__all__ = ["documented", "exported"]\n'
    )
    (package / "mod.py").write_text(
        "def exported(): ...\ndef used(): ...\ndef documented(): ...\n"
        "class Unused: ...\ndef _private(): ...\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from repro.mod import used\nused()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from repro.mod import Unused\n")
    (tmp_path / "API.md").write_text("Call `repro.mod.documented()`.\n")
    assert unused_names(tmp_path) == ["repro.mod:exported", "repro.mod:Unused"]
