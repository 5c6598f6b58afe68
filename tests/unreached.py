"""List the statements of src/salemk3 that the test suite never runs.

Run from the repository root: ``python tests/unreached.py [pytest args]``.
It runs pytest in this process under a ``sys.settrace`` line tracer limited
to src/salemk3 (standard library only; subprocesses are not followed) and
prints each unreached statement as ``file:line: text``, then a count. It
exits 1 when it lists any statement, and otherwise with pytest's status.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "salemk3"
ran = defaultdict(set)


def local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return local


def tracer(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(str(SRC)) else None


def statements(tree):
    """(line, header lines) of each statement that runs code, docstrings and
    ``global`` declarations left out; a compound header ends at its body."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docstrings.add(body[0])
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        yield node.lineno, range(first, max(end, node.lineno) + 1)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.settrace(tracer)
    status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    sys.settrace(None)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines, hit = path.read_text().splitlines(), ran[str(path)]
        for lineno, header in sorted(statements(ast.parse("\n".join(lines)))):
            total += 1
            if hit.isdisjoint(header):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missed} of {total} statements unreached (pytest exit {status})")
    sys.exit(1 if missed else status)
