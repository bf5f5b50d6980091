"""Every public name has a caller in the package itself.

A name that ``fedspike/__init__.py`` exports must be referenced somewhere in
``src/fedspike`` other than ``__init__.py`` and the line that defines it (a
call, a use, a mention in another docstring, or a module's ``__all__``), so
that a function or option that only the tests reach does not come back.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedspike"

# Names kept only because the benchmark's tracer or its environment block
# still reads them; ROADMAP item 1 (the benchmark change) frees each one.
KNOWN_UNCALLED = {
    "cov_weights",  # named in perfbench/tracer.py LAYERS; ROADMAP item 1 frees it
    "using_numba",  # read by the perfbench environment block; ROADMAP item 1 frees it
}


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _references(name: str) -> list[str]:
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*=")
    return [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if word.search(line) and not definition.search(line)
    ]


def test_every_public_name_has_a_caller_in_the_package():
    uncalled = [n for n in _exported_names() if n not in KNOWN_UNCALLED and not _references(n)]
    assert not uncalled, f"public names that nothing in src/fedspike references: {uncalled}"


def test_the_known_exceptions_are_still_exported_and_still_uncalled():
    # Once ROADMAP item 1 lands and one of them gains a caller or goes, drop it here.
    exported = set(_exported_names())
    for name in KNOWN_UNCALLED:
        assert name in exported
        assert not _references(name), f"{name} now has a caller; remove it from KNOWN_UNCALLED"
