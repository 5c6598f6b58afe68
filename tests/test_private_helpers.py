"""Every module-level private helper in ``src/salemk3`` has a caller in ``src/``.

A ``_name`` function or class defined at module level is private to the
package, so a helper that nothing in ``src/`` refers to (outside its own
body) is dead code, whatever the tests do with it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "salemk3"


def _references(tree):
    """(name, line) for every name, attribute and imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced_private_helpers(src=SRC):
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    refs = {name: list(_references(tree)) for name, tree in modules.items()}
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            used = any(
                ref == name and (other != module or not node.lineno <= line <= node.end_lineno)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            )
            if not used:
                unused.append(f"{module}:{node.lineno} {name}")
    return unused


def test_every_private_helper_is_referenced_in_src():
    assert unreferenced_private_helpers() == []


def test_an_unreferenced_helper_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n\n\n"
        "def public():\n    return _used()\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import public\n", encoding="utf-8")
    assert unreferenced_private_helpers(tmp_path) == ["a.py:5 _dead"]
