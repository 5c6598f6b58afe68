"""The four benchmark workloads: inputs, the timed operation, and its checks.

Every workload runs fixed mathematical inputs: the curated S4 seed, the
Salem corpus, the criterion-3 generator at its own RNG seed, twists of the
S4 block. The run seed fixes the order in which a round visits them. It
does not draw new instances, because the cost of these inputs depends so
strongly on the instance (and even on the basis a lattice is written in)
that runs on different seeds would differ by more than any bound; README.md
gives the measurements.

The library is reached only through module attributes looked up at call
time (``self.lib.realize.build_k3_certificate``), so the tracer's wrappers
see every call. The checks use their own exact arithmetic, not the
library's, wherever that is cheap.
"""

import hashlib
import importlib.util
import json
import random
import time
from fractions import Fraction
from math import comb

# criterion-3 generator seed of tests/test_acceptance.py
CRITERION3_SEED = 20260808
S4 = (1, -1, -1, -1, 1)
QUAD = (1, -3, 1)
RANK6 = (1, -2, 0, 1, 0, -2, 1)
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)

# SHA-256 of the canonical S4 certificate JSON (sorted keys, "," and ":")
CERTIFICATE_SHA256 = "be1ea2af834314290c75688d15d0128ec16ad8c0a8bbc0824679445c17c27ba1"

# statuses of the obstructing-root searches the determinant bound does not
# settle; keyed by twist (a, b) for t = a + b w, or by corpus coefficients
PINNED_STATUS = {
    (-4, 2): "positive",
    (-3, 1): "positive",
    (-2, 1): "not_positive",
    (-1, 1): "positive",
    (0, 1): "positive",
    (1, 0): "not_positive",
    (1, 1): "not_positive",
    (2, 0): "positive",
    (2, 1): "positive",
    (2, 2): "positive",
    (3, 2): "positive",
    (4, 3): "not_positive",
    (1, -1, -1, -1, 1): "not_positive",
    (1, -2, 0, 1, 0, -2, 1): "not_positive",
    (1, -2, -1, 3, -1, -2, 1): "not_positive",
    (1, -2, 0, 0, 0, 0, 0, -2, 1): "not_positive",
    (1, -2, 1, -2, 1, -2, 1, -2, 1, -2, 1): "not_positive",
}
TWIST_BOX = 4
POWERS = (2, 3, 5)  # exponents n of power_min_poly(s, n)
SPLIT_LOWER_BOUND = 2


def load_corpus(root):
    spec = importlib.util.spec_from_file_location("salem_corpus", root / "tests" / "salem_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.all_entries())


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def lattice_doc(gram):
    return {"rank": len(gram), "gram": [[str(x) for x in row] for row in gram]}


def matrix_doc(M):
    return [[str(Fraction(x)) for x in row] for row in M]


# --- exact helpers independent of the library -------------------------------


def mat_mul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_pow(A, n):
    result = [[Fraction(int(i == j)) for j in range(len(A))] for i in range(len(A))]
    base = [[Fraction(x) for x in row] for row in A]
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def is_integral(M):
    return all(Fraction(x).denominator == 1 for row in M for x in row)


def det(M):
    A = [[Fraction(x) for x in row] for row in M]
    n, out = len(A), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if A[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            A[c], A[pivot] = A[pivot], A[c]
            out = -out
        out *= A[c][c]
        for r in range(c + 1, n):
            factor = A[r][c] / A[c][c]
            if factor:
                A[r] = [x - factor * y for x, y in zip(A[r], A[c])]
    return out


def prime_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def reference_kernel():
    """Fixed interpreter work, independent of the library. Its time tracks
    the speed the machine gives this process."""
    x = 0
    for i in range(100000):
        x += i * i % 7
    return x


def minimal_integral_power_problems(F, n, Fn_claimed):
    """f^n must be integral and equal the claimed matrix, and f^(n/q) must not
    be integral for any prime q | n. The integral powers of an isometry form
    a group, so this proves n minimal."""
    if n < 1:
        return [f"power {n} is not positive"]
    problems = []
    Fn = mat_pow(F, n)
    if not is_integral(Fn):
        problems.append(f"f^{n} is not integral")
    elif Fn != [[Fraction(x) for x in row] for row in Fn_claimed]:
        problems.append(f"returned f^{n} differs from the direct power")
    for q in prime_factors(n):
        if is_integral(mat_pow(F, n // q)):
            problems.append(f"f^{n // q} is already integral")
    return problems


def poly_mulmod(a, b, s):
    """a * b modulo the monic integer polynomial s (ascending coefficients)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    d = len(s) - 1
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c:
            for i in range(d + 1):
                out[k - d + i] -= c * s[i]
    return out[:d] + [0] * (d - len(out[:d]))


def poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def norm_of(t, r):
    """|det t(C_r)|: the absolute norm of t(w) for the monic trace polynomial r."""
    m = len(r) - 1
    C = [[(1 if i == j + 1 else 0) if j < m - 1 else -r[i] for j in range(m)] for i in range(m)]
    acc = [[0] * m for _ in range(m)]
    for c in reversed(t):
        acc = mat_mul(acc, C)
        for i in range(m):
            acc[i][i] += c
    return abs(det(acc))


# --- workloads ----------------------------------------------------------------


class Workload:
    """One round of ``items`` is run in order; ``run`` is the timed operation.

    ``run`` returns (result, parts) where parts maps a step name to its
    seconds; ``check`` returns a list of problems, empty when correct.
    ``cli`` returns (argv, checker) for one cold command-line run, where
    checker(returncode, stdout) returns a list of problems.
    """

    name = None

    def __init__(self, lib, seed, root, workdir):
        self.lib = lib
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.items = []

    def poly(self, coeffs):
        return self.lib.polynomials.IntPolynomial(list(coeffs))

    def pair(self, gram, matrix):
        L = self.lib.lattices.Lattice(gram)
        return L, self.lib.isometries.Isometry(L, matrix)

    def write_input(self, name, doc):
        path = self.workdir / name
        path.write_text(canonical_json(doc), encoding="utf-8")
        return str(path)


class Certificate(Workload):
    """Build the S4 certificate, then round-trip and verify it; verify it cold."""

    name = "certificate"

    def __init__(self, lib, seed, root, workdir):
        super().__init__(lib, seed, root, workdir)
        self.s = self.poly(S4)
        self.items = ["S4"]
        self.cert_path = self.workdir / "cert.json"

    def run(self, item):
        realize = self.lib.realize
        t0 = time.perf_counter()
        cert = realize.build_k3_certificate(self.s)
        t1 = time.perf_counter()
        text = canonical_json(realize.certificate_to_json(cert))
        ok, items = realize.verify_certificate(realize.certificate_from_json(json.loads(text)))
        t2 = time.perf_counter()
        return (cert, text, ok, items), {"build_s": t1 - t0, "verify_s": t2 - t1}

    def check(self, item, result):
        cert, text, ok, items = result
        problems = []
        glue = cert.glue_evidence or {}
        if cert.power != 272:
            problems.append(f"power {cert.power} != 272")
        if glue.get("p") != 17:
            problems.append(f"split prime {glue.get('p')} != 17")
        if glue.get("t") != ["-2", "-3"]:
            problems.append(f"norm element {glue.get('t')} != -2 - 3w")
        if hashlib.sha256(text.encode()).hexdigest() != CERTIFICATE_SHA256:
            problems.append("certificate JSON differs from the pinned SHA-256")
        if not ok:
            problems.append(f"verify failed: {[n for n, p, _ in items if not p]}")
        if not problems:
            self.cert_path.write_text(text, encoding="utf-8")
        return problems

    def cli(self):
        def checker(code, out):
            if code != 0:
                return [f"cold verify exited {code}"]
            if json.loads(out).get("verified") is not True:
                return ["cold verify did not report verified"]
            return []

        return ["verify", str(self.cert_path)], checker


class Powering(Workload):
    """power_to_integral on the 20 criterion-3 instances of ranks 2, 4 and 6."""

    name = "powering"

    def __init__(self, lib, seed, root, workdir):
        super().__init__(lib, seed, root, workdir)
        linalg = lib.linalg
        base = {2: QUAD, 4: S4, 6: RANK6}
        forms = {}
        for rank, coeffs in base.items():
            C = lib.polynomials.companion_matrix(self.poly(coeffs))
            forms[rank] = (C, lib.isometries.invariant_symmetric_forms(C)[0])
        # the generator of test_criterion_3_integral_powering, draw for draw
        gen = random.Random(CRITERION3_SEED)
        instances = []
        while len(instances) < 20:
            rank = gen.choice([2, 2, 4, 4, 6])
            C, G = forms[rank]
            while True:
                A = tuple(tuple(gen.randint(-2, 2) for _ in range(rank)) for _ in range(rank))
                d = linalg.bareiss_det(A)
                if not 1 < abs(d) < 40:
                    continue
                Ainv = linalg.rat_inverse(A)
                F = linalg.mat_mul(linalg.mat_mul(A, C), Ainv)
                adj = linalg.mat_to_int(linalg.mat_scale(d, Ainv))
                G2 = linalg.mat_mul(linalg.mat_mul(linalg.transpose(adj), G), adj)
                if linalg.bareiss_det(G2) == 0:
                    continue
                break
            instances.append(self.pair(G2, F))
        self.items = instances
        self.rng.shuffle(self.items)
        self.checked = {}
        small = min(self.items, key=lambda lf: (lf[0].rank, lf[0].gram))
        self.cli_matrix = small[1].matrix
        self.cli_path = self.write_input(
            "pair.json", {"lattice": lattice_doc(small[0].gram), "isometry": matrix_doc(small[1].matrix)}
        )

    def run(self, item):
        L, f = item
        return self.lib.isometries.power_to_integral(L, f), {}

    def check(self, item, result):
        n, fn = result
        key = id(item)
        if key in self.checked:
            return [] if self.checked[key] == n else [f"power {n} changed from {self.checked[key]}"]
        self.checked[key] = n
        return minimal_integral_power_problems(item[1].matrix, n, fn.matrix)

    def cli(self):
        def checker(code, out):
            if code != 0:
                return [f"cold power-integral exited {code}"]
            doc = json.loads(out)
            matrix = [[Fraction(x) for x in row] for row in doc["matrix"]]
            return minimal_integral_power_problems(self.cli_matrix, doc["power"], matrix)

        return ["power-integral", self.cli_path], checker


class Decisions(Workload):
    """The decision battery on every corpus polynomial, degrees 4 to 22."""

    name = "decisions"

    def __init__(self, lib, seed, root, workdir):
        super().__init__(lib, seed, root, workdir)
        self.items = []
        for degree, coeffs, square in load_corpus(root):
            lower = SPLIT_LOWER_BOUND if degree <= 12 else None
            self.items.append((self.poly(coeffs), degree, square, lower))
        self.rng.shuffle(self.items)
        self.cli_path = self.write_input("lehmer.json", [str(c) for c in LEHMER])

    def run(self, item):
        s, degree, square, lower = item
        polys, realize = self.lib.polynomials, self.lib.realize
        out = {
            "cert": polys.is_salem(s),
            "square": polys.square_class_test(s),
            "stable": {k: realize.stable_realizable(s, k) for k in ("torus", "enriques", "k3")},
            "projective": realize.stable_realizable(s, "k3", projective=True),
            "criterion": realize.rational_isometry_criterion(s, "3U+2E8"),
            "powers": {n: polys.power_min_poly(s, n) for n in POWERS},
        }
        if lower is not None:
            ev = realize.find_split_prime(s, 1, lower_bound=lower)
            out["split"] = (ev, realize.find_norm_element(s, ev))
        return out, {}

    def check(self, item, out):
        s, degree, square, lower = item
        coeffs = list(s.coeffs)
        problems = []
        if out["cert"].degree != degree:
            problems.append("is_salem degree")
        if out["square"] != square:
            problems.append("square class")
        for kind, b2 in (("torus", 6), ("enriques", 10), ("k3", 22)):
            decision = out["stable"][kind]
            if degree < b2:
                good = decision.answer is True and decision.clause == 1
            elif degree == b2:
                good = decision.answer is square
            else:
                good = decision.answer is False
            if not good:
                problems.append(f"stable_realizable {kind}")
        if out["projective"].answer is not (degree <= 20):
            problems.append("projective k3")
        if out["criterion"].exists is not (degree <= 20 or square):
            problems.append("rational isometry criterion")
        for n, pn in out["powers"].items():
            pc = list(pn.coeffs)
            if len(pc) - 1 != degree or pc[-1] != 1:
                problems.append(f"power_min_poly({n}) shape")
                continue
            xn = [1]
            for _ in range(n):
                xn = poly_mulmod(xn, [0, 1], coeffs)
            acc = [0] * degree
            for c in reversed(pc):
                acc = poly_mulmod(acc, xn, coeffs)
                acc[0] += c
            if any(acc):
                problems.append(f"power_min_poly({n}) does not vanish at lambda^{n}")
        if lower is not None:
            problems += self._check_split(coeffs, lower, *out["split"])
        return problems

    def _check_split(self, coeffs, lower, ev, norm_element):
        p, a, w = ev.p, ev.trace_root, ev.unit_circle_sqrt
        problems = []
        if p <= lower or p % 8 != 1 or prime_factors(p) != [p]:
            problems.append(f"split prime {p} is not a prime 1 mod 8 above {lower}")
        if (w * w - a * a + 4) % p or (a * a - 4) % p == 0:
            problems.append("split evidence: w^2 != a^2 - 4")
        if poly_eval_mod(coeffs, (a + w) * pow(2, -1, p) % p, p):
            problems.append("split evidence: s has no root (a + w)/2 mod p")
        r = list(self.lib.polynomials.trace_polynomial(self.poly(coeffs)).coeffs)
        m = len(r) - 1
        expanded = [0] * (2 * m + 1)
        for i, c in enumerate(r):  # x^m r(x + 1/x) must give back s
            for k in range(i + 1):
                expanded[m - i + 2 * k] += c * comb(i, k)
        if expanded != coeffs:
            problems.append("trace polynomial does not expand back to s")
        t, l = norm_element
        tc = list(t.poly.coeffs)
        if poly_eval_mod(tc, a, p) or norm_of(tc, r) != p**l:
            problems.append(f"norm element {tc} does not have norm {p}^{l} at the root")
        return problems

    def cli(self):
        def checker(code, out):
            doc = json.loads(out) if code == 0 else {}
            if doc.get("accepted") is not True or doc.get("degree") != 10:
                return [f"cold certify-salem exited {code} without accepting Lehmer's polynomial"]
            return []

        return ["certify-salem", self.cli_path], checker


class Positivity(Workload):
    """obstructing_root_search on square twists of the S4 block and on the
    even invariant lattices of corpus degrees 4 to 10 (Lehmer's excluded)."""

    name = "positivity"

    def __init__(self, lib, seed, root, workdir):
        super().__init__(lib, seed, root, workdir)
        polys, iso = lib.polynomials, lib.isometries
        s4 = self.poly(S4)
        seed_data = lib.realize.seed_for(s4)
        S, f = self.pair(seed_data.S.gram, seed_data.f_S)
        disc4 = polys.discriminant(s4)

        def add(key, L, g, disc):
            # the determinant bound is a theorem; elsewhere the status is pinned
            expected = "positive" if abs(L.determinant()) > 4 * abs(disc) else PINNED_STATUS[key]
            self.items.append((key, L, g, expected))

        for a in range(-TWIST_BOX, TWIST_BOX + 1):
            for b in range(0, TWIST_BOX + 1):
                if b == 0 and a <= 0:
                    continue  # t and -t give the same twist by t^2
                t = self.poly([a, b])
                add((a, b), *iso.twist(S, f, iso.TwistElement(t * t)), disc4)
        for degree, coeffs, _ in load_corpus(root):
            if 4 <= degree <= 10 and coeffs != LEHMER:
                s = self.poly(coeffs)
                C = polys.companion_matrix(s)
                L = iso.search_even_invariant_lattice(C, signature=(1, degree - 1))
                add(tuple(coeffs), L, iso.Isometry(L, C), polys.discriminant(s))
        self.rng.shuffle(self.items)
        _, L, g, _ = next(item for item in self.items if item[0] == (1, 0))
        self.cli_path = self.write_input(
            "pair.json", {"lattice": lattice_doc(L.gram), "isometry": matrix_doc(g.matrix)}
        )

    def run(self, item):
        _, L, g, _ = item
        return self.lib.positivity.obstructing_root_search(L, g), {}

    def check(self, item, report):
        key, L, _, expected = item
        problems = []
        if report.status != expected:
            problems.append(f"{key}: status {report.status}, expected {expected}")
        if (report.status == "not_positive") != bool(report.witnesses):
            problems.append(f"{key}: witness list does not match the status")
        G = L.gram
        for z, _ in report.witnesses:
            if sum(z[i] * G[i][j] * z[j] for i in range(len(z)) for j in range(len(z))) != -2:
                problems.append(f"{key}: witness {z} does not have norm -2")
        return problems

    def cli(self):
        def checker(code, out):
            doc = json.loads(out) if out.strip() else {}
            if code != 1 or doc.get("status") != "not_positive" or not doc.get("witnesses"):
                return [f"cold positivity exited {code} without the obstructing witnesses"]
            return []

        return ["positivity", self.cli_path], checker


WORKLOADS = {w.name: w for w in (Certificate, Powering, Decisions, Positivity)}
