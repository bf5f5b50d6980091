"""Every public name has a caller in the package itself.

A name that ``fedspike/__init__.py`` exports must be used in the code of
some other module of ``src/fedspike``: read as a name or as an attribute,
according to ``ast``. A mention in a docstring, a comment or ``__all__``
does not count, so a function or option that only the tests reach does not
come back.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedspike"

# Exported names with no caller in the package, each with the reason it stays.
KNOWN_UNCALLED = {
    "using_numba": "read by the perfbench environment block",
    "cov_weights": "named in perfbench/tracer.py LAYERS",
    "sample_symmetric_noise": "named in perfbench/tracer.py LAYERS",
    "FileTransport": "user API: a README transport, traced by perfbench/tracer.py",
    "TcpTransport": "user API: a README transport, run by perfbench's session_tcp",
}


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _used_names() -> set[str]:
    """Every name that the code of a module other than ``__init__.py`` reads."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    used = _used_names()
    uncalled = [n for n in _exported_names() if n not in KNOWN_UNCALLED and n not in used]
    assert not uncalled, f"public names that no code in src/fedspike uses: {uncalled}"


def test_the_known_exceptions_are_still_exported_and_still_uncalled():
    # Once one of them gains a caller or goes, drop it here.
    exported, used = set(_exported_names()), _used_names()
    for name in KNOWN_UNCALLED:
        assert name in exported
        assert name not in used, f"{name} now has a caller; remove it from KNOWN_UNCALLED"
