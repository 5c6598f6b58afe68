"""Every module-level helper in ``src/salemk3`` that is not exported, and
every method other than a dunder, has a caller in ``src/``.

A ``_name`` function or class defined at module level is private to the
package, and so is a public one that ``salemk3.__all__`` does not export.
Either kind that nothing in ``src/`` refers to (outside its own body) is
dead code, whatever the tests do with it. So is a method whose name no
attribute or name in ``src/`` mentions outside the method itself, and so
is a name that a module other than ``__init__`` imports and never uses.
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


def _exported(modules):
    """The names listed in ``__all__`` of the package's ``__init__.py``."""
    for node in modules.get("__init__.py", ast.Module(body=[])).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _definitions(tree, methods):
    """Module-level functions and classes, or else the methods of the
    module-level classes."""
    for node in tree.body:
        if not methods and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        elif methods and isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def _unreferenced(src, wanted, methods=False):
    """Definitions other than dunders whose name passes ``wanted(name,
    exported)`` and that nothing in ``src`` refers to outside their own body."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    refs = {name: list(_references(tree)) for name, tree in modules.items()}
    exported = _exported(modules)
    unused = []
    for module, tree in modules.items():
        for node in _definitions(tree, methods):
            name = node.name
            if name.startswith("__") or not wanted(name, exported):
                continue
            used = any(
                ref == name and (other != module or not node.lineno <= line <= node.end_lineno)
                for other, module_refs in refs.items()
                for ref, line in module_refs
            )
            if not used:
                unused.append(f"{module}:{node.lineno} {name}")
    return unused


def unreferenced_private_helpers(src=SRC):
    return _unreferenced(src, lambda name, exported: name.startswith("_"))


def unreferenced_unexported_names(src=SRC):
    return _unreferenced(
        src, lambda name, exported: not name.startswith("_") and name not in exported
    )


def unreferenced_methods(src=SRC):
    return _unreferenced(src, lambda name, exported: True, methods=True)


def _imported_names(tree):
    """(name, line) for every name an import statement binds in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(src=SRC):
    """Imported names that their module, other than ``__init__``, never reads."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in _imported_names(tree) if name not in used
        ]
    return unused


def test_every_private_helper_is_referenced_in_src():
    assert unreferenced_private_helpers() == []


def test_every_unexported_public_name_is_referenced_in_src():
    assert unreferenced_unexported_names() == []


def test_every_method_is_referenced_in_src():
    assert unreferenced_methods() == []


def test_an_unreferenced_helper_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else 0\n\n\n"
        "def public():\n    return _used()\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import public\n", encoding="utf-8")
    assert unreferenced_private_helpers(tmp_path) == ["a.py:5 _dead"]


def test_an_unreferenced_unexported_name_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import exported\n\n__all__ = [\"exported\"]\n", encoding="utf-8"
    )
    (tmp_path / "a.py").write_text(
        "def exported():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def dead(n):\n    return dead(n - 1) if n else 0\n\n\n"
        "class Unused:\n    pass\n",
        encoding="utf-8",
    )
    assert unreferenced_unexported_names(tmp_path) == ["a.py:9 dead", "a.py:13 Unused"]


def test_an_unreferenced_method_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Form:\n"
        "    def __init__(self):\n        self.n = self._size()\n\n"
        "    def _size(self):\n        return 1\n\n"
        "    @property\n    def rank(self):\n        return self.n\n\n"
        "    def dual(self, k):\n        return self.dual(k - 1) if k else self\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("from .a import Form\n\n\ndef rank():\n    return Form().rank\n", encoding="utf-8")
    assert unreferenced_methods(tmp_path) == ["a.py:12 dual"]


def test_every_import_is_used():
    assert unused_imports() == []


def test_an_unused_import_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "import os.path\nimport re as regex\nfrom math import gcd, lcm\n\n\n"
        "def f(a, b):\n    from fractions import Fraction\n    return os.path.sep, gcd(a, b)\n",
        encoding="utf-8",
    )
    assert unused_imports(tmp_path) == ["a.py:2 regex", "a.py:3 lcm", "a.py:7 Fraction"]
