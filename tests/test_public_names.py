"""Every public name and method in ``src/repro`` is driven by code outside the tests.

A public module-level ``def`` or ``class``, and every public method or
property of a module-level class, must be referenced by code somewhere in
``src/``, ``ruler/``, ``benchmarks/`` or ``examples/``.  A reference is what
``ast`` sees: a name, an attribute, an imported name, or a string constant
that is exactly one identifier (so ``getattr`` and registry dispatch count).
Docstrings, comments and the ``def``/``class`` statement itself do not count,
and neither does a package ``__init__`` re-export (its imports and
``__all__``).  A method counts as driven by any reference with its name, so
duck typing and protocol calls are covered.  ``tests/`` does not count: a
name only the tests call is dead code with a test.

The exceptions are read from API.md, so the document is the list: every
identifier it puts in backticks (inline spans and fenced blocks) is a
documented entry point.  ``TEST_ORACLES`` names the methods kept only as a
reference that a test compares kept behaviour against.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import List

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED_DIRS = ("src", "ruler", "benchmarks", "examples")
#: modules exempt from the scan, each with its reason.
EXEMPT_MODULES = {
    "repro.testing": "test-support helpers: the tests are their callers by design",
}
#: ``Class.method`` -> the test (``file::[Class::]test``) that checks kept
#: behaviour against it.
TEST_ORACLES = {
    "EcmpRouter.all_paths": (
        "tests/test_routing_ecmp.py::TestReverseAndEnumeration::"
        "test_routed_path_is_among_all_paths"
    ),
    "ClosTopology.expected_hop_count": (
        "tests/test_routing_ecmp.py::TestRouteStructure::test_hop_count_matches_expectation"
    ),
    "VoteTally.support_of": (
        "tests/test_core_arrays.py::TestArrayVoteTally::test_matches_dict_tally_on_small_example"
    ),
    "ArrayVoteTally.support_of": (
        "tests/test_core_engine_equivalence.py::"
        "test_support_counts_a_flow_once_per_link_however_often_it_crosses_it"
    ),
    "FleetAgentClient.sever": (
        "tests/test_fleet_chaos.py::test_sever_and_reconnect_redelivers_without_loss"
    ),
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_reexport(node: ast.stmt) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
    )


def _references(path: Path) -> Counter:
    """Identifiers one searched file's code refers to."""
    tree = ast.parse(path.read_text())
    skipped = set()
    if path.name == "__init__.py":
        for node in tree.body:
            if _is_reexport(node):
                skipped.update(map(id, ast.walk(node)))
    # a bare string statement is a docstring (or does nothing)
    skipped.update(
        id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)
    )
    counts = Counter()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.match(node.value):
                counts[node.value] += 1
    return counts


def documented_names(root: Path) -> set:
    """Every identifier API.md puts in backticks."""
    text = (root / "API.md").read_text()
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return {word for span in spans for word in _WORD.findall(span)}


def _public_definitions(src: Path):
    """``(module, qualified name, name)`` of every public module-level def or
    class, and of every public method or property of a module-level class."""
    for path in sorted((src / "repro").rglob("*.py")):
        module = _module_name(path, src)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                continue
            yield module, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _FUNCTIONS) and not method.name.startswith("_"):
                        yield module, f"{node.name}.{method.name}", method.name


def unused_names(root: Path, oracles=TEST_ORACLES) -> List[str]:
    """``module:name`` of every public name or method no code outside the
    tests refers to."""
    counts = Counter()
    for directory in SEARCHED_DIRS:
        for path in (root / directory).rglob("*.py"):
            counts.update(_references(path))
    documented = documented_names(root)
    return [
        f"{module}:{qualified}"
        for module, qualified, name in _public_definitions(root / "src")
        if module not in EXEMPT_MODULES
        and name not in documented
        and qualified not in oracles
        and not counts[name]
    ]


def test_every_public_name_is_used():
    unused = unused_names(ROOT)
    assert not unused, (
        "public names and methods no code in src/, ruler/, benchmarks/ or "
        "examples/ uses (delete them, document them in API.md, or name the "
        f"test they are an oracle for in TEST_ORACLES): {unused}"
    )


def _test_function(path: Path, qualified: str):
    scope = ast.parse(path.read_text()).body
    node = None
    for part in qualified.split("::"):
        node = next((n for n in scope if getattr(n, "name", None) == part), None)
        if node is None:
            return None
        scope = node.body
    return node


def test_every_test_oracle_exists_and_is_compared_against():
    defined = {qualified for _, qualified, _ in _public_definitions(ROOT / "src")}
    for oracle, test in TEST_ORACLES.items():
        assert oracle in defined, f"TEST_ORACLES names a missing method: {oracle}"
        file, _, qualified = test.partition("::")
        function = _test_function(ROOT / file, qualified)
        assert function is not None, f"{oracle}'s test is gone: {test}"
        method = oracle.rpartition(".")[2]
        calls = {n.attr for n in ast.walk(function) if isinstance(n, ast.Attribute)}
        assert method in calls, f"{test} no longer calls {oracle}"


def test_the_scan_flags_what_only_tests_or_reexports_name(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        'from repro.mod import documented, exported\n__all__ = ["documented", "exported"]\n'
    )
    (package / "mod.py").write_text(
        "def exported(): ...\ndef used(): ...\ndef documented(): ...\n"
        "class Unused: ...\ndef _private(): ...\n"
        'def in_docstring():\n    """Not `used`: see mentioned_only."""\n'
        "def mentioned_only(): ...  # used by in_docstring\n"
        "class Box:\n"
        "    def test_only(self): ...\n"
        "    def duck(self): ...\n"
        "    def by_name(self): ...\n"
        "    def oracle(self): ...\n"
        "    def _helper(self): ...\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import used, in_docstring, Box\nused()\n"
        "def call(thing):\n    thing.duck()\n"
        'getattr(Box(), "by_name")()\n'
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import Unused, Box, mentioned_only\nBox().test_only()\n"
    )
    (tmp_path / "API.md").write_text("Call `repro.mod.documented()`.\n")
    assert unused_names(tmp_path, oracles={"Box.oracle": "tests/test_mod.py"}) == [
        "repro.mod:exported",
        "repro.mod:Unused",
        "repro.mod:mentioned_only",
        "repro.mod:Box.test_only",
    ]


@pytest.mark.parametrize(
    "definition, target",
    [
        ("def target(): ...\n", "repro.mod:target"),
        ("class Box:\n    def target(self): ...\n", "repro.mod:Box.target"),
    ],
)
@pytest.mark.parametrize(
    "code, driven",
    [
        ("target()\n", True),  # a call by name
        ("def call(thing):\n    thing.target()\n", True),  # duck typing
        ("from repro.mod import target\n", True),
        ('getattr(object(), "target", None)\n', True),  # dispatch by name
        ('REGISTRY = {"entry": "target"}\n', True),
        ("def g(f=target): ...\n", True),
        ('"""Call target() for it."""\n', False),  # a docstring
        ("# target()\n", False),  # a comment
        ('NOTE = "see target"\n', False),  # a sentence, not an identifier
        ("def target(): ...\n", False),  # a definition uses nothing
    ],
)
def test_each_kind_of_reference(tmp_path, definition, target, code, driven):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(definition)
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(code)
    (tmp_path / "API.md").write_text("")
    flagged = set(unused_names(tmp_path, oracles={})) - {"repro.mod:Box"}
    assert flagged == (set() if driven else {target})
