"""Every output that tests/outputs.py digests is byte-identical to the digests
recorded in tests/outputs.txt: the S4 certificate, verify in both formats,
each demo's stdout and each benchmark workload item. An intended output
change shows up as an edit of that file."""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_outputs_match_the_recorded_digests():
    proc = subprocess.run(
        [sys.executable, str(TESTS / "outputs.py")], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == (TESTS / "outputs.txt").read_text(encoding="utf-8").splitlines()
