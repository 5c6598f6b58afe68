"""Every script in demos/ runs to completion against the library in src/ and
prints exactly its recorded stdout in tests/demo_stdout/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT = Path(__file__).resolve().parent / "demo_stdout"  # what each demo prints


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(script):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    expected = (STDOUT / f"{script.stem}.txt").read_text(encoding="utf-8")
    assert proc.stdout == expected
