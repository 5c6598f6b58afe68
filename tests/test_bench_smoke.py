"""The benchmark still runs on the library: each of its workloads builds,
and its first item runs and passes the workload's own check. Every item of
the positivity workload runs, so a wrong status on any S4 twist or corpus
lattice fails here too.

The benchmark reaches the library through names it looks up at run time,
so a changed signature there shows up only as failed operations when the
benchmark runs. This test loads ``bench/run.py`` and ``bench/workloads.py``
by path and edits nothing under ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load(name, monkeypatch):
    # run.py puts src/ and bench/ at the front of sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["certificate", "powering", "decisions", "positivity"])
def test_workload_builds_runs_and_checks(name, tmp_path, monkeypatch):
    run = _load("run", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name](run.load_library(), run.CRITERION3_SEED, ROOT, tmp_path)
    # at run.py's default seed the first decisions item has a split prime
    items = workload.items if name == "positivity" else workload.items[:1]
    for item in items:
        result, _ = workload.run(item)
        assert workload.check(item, result) == []
    assert len(items) == (45 if name == "positivity" else 1)


def test_decisions_round_certifies_each_salem_number_at_most_124_times(tmp_path, monkeypatch):
    # a work count over one round of the decisions workload: 9 or 10
    # certifications per item, none of them on a power_min_poly result
    run = _load("run", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    lib = run.load_library()
    workload = workloads.WORKLOADS["decisions"](lib, run.CRITERION3_SEED, ROOT, tmp_path)
    calls = [0]
    original = lib.polynomials.is_salem

    def counted(p):
        calls[0] += 1
        return original(p)

    for module in (lib.polynomials, lib.realize):
        monkeypatch.setattr(module, "is_salem", counted)
    for item in workload.items:
        result, _ = workload.run(item)
        assert workload.check(item, result) == []
    assert len(workload.items) == 13
    assert 0 < calls[0] <= 124
