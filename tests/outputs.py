"""Print one ``name sha256`` line per output of the program, to compare two
checkouts byte for byte.

Run from the root of a checkout: ``python tests/outputs.py``. It reads the
library from that checkout's src/ and prints digests of

- ``certificate``: the S4 certificate, ``build-certificate --format json``;
- ``verify.text`` and ``verify.json``: ``verify`` on that certificate;
- ``demo.NAME``: the stdout of each script in demos/;
- ``WORKLOAD.NN``: the ``repr`` of the result of item NN of each benchmark
  workload, in the order of a round at the benchmark's default seed;
- ``norm_element.DD``: the ``repr`` of the split-prime evidence of
  ``find_split_prime(s, 1, lower_bound=2)`` and of the (t, l) that
  ``find_norm_element`` returns for it, for the corpus polynomial s of
  degree DD = 14 and 16 in tests/salem_corpus.py, which no workload searches;
- ``discriminant.NN``: ``discriminant(s)`` of corpus polynomial NN, in
  corpus order.

Each line digests stdout alone, so ``certificate`` is the digest that
tests/test_cli.py pins and ``demo.NAME`` that of tests/demo_stdout/NAME.txt.
The commands run in this process through ``cli.run``, the demos in child
interpreters. The workloads come from ``bench/workloads.py``, loaded by path
as ``tests/test_bench_smoke.py`` does; nothing under bench/ is written. It
uses the standard library only. Two checkouts print identical lines exactly
when these outputs agree, and ``tests/test_outputs.py`` compares the lines
with those recorded in ``tests/outputs.txt``.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
S4_JSON = '["1", "-1", "-1", "-1", "1"]'


def digest(name, text):
    print(name, hashlib.sha256(text.encode("utf-8")).hexdigest())


def cli_stdout(argv):
    from salemk3 import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(argv)
    return out.getvalue()


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        poly = tmp / "s4.json"
        poly.write_text(S4_JSON, encoding="utf-8")
        cert = cli_stdout(["--format", "json", "build-certificate", str(poly)])
        digest("certificate", cert)
        cert_path = tmp / "cert.json"
        cert_path.write_text(cert, encoding="utf-8")
        for fmt in ("text", "json"):
            digest(f"verify.{fmt}", cli_stdout(["--format", fmt, "verify", str(cert_path)]))

        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        for script in sorted((ROOT / "demos").glob("*.py")):
            proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env)
            digest(f"demo.{script.stem}", proc.stdout)

        run = bench_module("run")  # puts this checkout's src/ first on sys.path
        workloads = bench_module("workloads")
        lib = run.load_library()
        for name, workload_class in workloads.WORKLOADS.items():
            workload = workload_class(lib, run.CRITERION3_SEED, ROOT, tmp)
            for i, item in enumerate(workload.items):
                result, _ = workload.run(item)
                digest(f"{name}.{i:02d}", repr(result))

    from salem_corpus import all_entries
    from salemk3.polynomials import IntPolynomial, discriminant
    from salemk3.realize import find_norm_element, find_split_prime

    corpus = [(degree, IntPolynomial(coeffs)) for degree, coeffs, _ in all_entries()]
    for degree, s in corpus:
        if degree in (14, 16):
            ev = find_split_prime(s, 1, lower_bound=2)
            digest(f"norm_element.{degree}", repr((ev, find_norm_element(s, ev))))
    for i, (_, s) in enumerate(corpus):
        digest(f"discriminant.{i:02d}", repr(discriminant(s)))


if __name__ == "__main__":
    main()
