"""Every module-level definition has a reader in the package itself.

Each function, class and assignment at the top level of a module of
``src/fedspike``, private or public, must be used in the package's code:
read as a name or as an attribute, according to ``ast``, in a module other
than ``__init__.py``. A mention in a docstring, a comment, ``__all__`` or
an import in ``__init__.py`` does not count, so a function or option that
only the tests reach does not come back, and a helper a refactor leaves
behind does not stay.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedspike"

# Definitions with no reader in the package, each with the reason it stays.
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


def _defined_names() -> list[str]:
    """Every function, class and assigned name at the top level of a module,
    dunder names such as ``__all__`` and ``__version__`` aside."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


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


def test_every_module_level_definition_has_a_reader_in_the_package():
    used = _used_names()
    unread = [n for n in _defined_names() if n not in KNOWN_UNCALLED and n not in used]
    assert not unread, f"definitions that no code in src/fedspike reads: {unread}"


def test_every_exported_name_is_defined_at_module_level():
    # So the check above covers the whole public API.
    assert set(_exported_names()) <= set(_defined_names())


def test_the_known_exceptions_are_still_exported_and_still_uncalled():
    # Once one of them gains a caller or goes, drop it here.
    exported, used = set(_exported_names()), _used_names()
    for name in KNOWN_UNCALLED:
        assert name in exported
        assert name not in used, f"{name} now has a caller; remove it from KNOWN_UNCALLED"
