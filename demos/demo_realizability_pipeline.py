"""From a Salem polynomial to a verified realization certificate.

The decision side is a truth table: some power of lambda is a dynamical
degree on the surface class iff d < b2, or d = b2 and -s(1)s(-1) is a
rational square (projective surfaces additionally need d <= h^{1,1}). The
witness side constructs, for the quartic Salem polynomial, an even unimodular
lattice of signature (3,19) with an integral isometry realizing a power of
lambda, then re-verifies every claim from scratch.
"""

import json

from salemk3 import (
    IntPolynomial,
    build_k3_certificate,
    certificate_to_json,
    rational_isometry_criterion,
    stable_realizable,
    verify_certificate,
)

lehmer = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
s4 = IntPolynomial([1, -1, -1, -1, 1])
d22 = IntPolynomial([1, -2] + [0] * 19 + [-2, 1])

print("stable realizability:")
for poly, name in ((s4, "quartic"), (lehmer, "Lehmer"), (d22, "degree 22")):
    for kind in ("torus", "enriques", "k3"):
        d = stable_realizable(poly, kind)
        print(f"  {name:10s} on {kind:8s}: {'yes' if d.answer else 'no':3s} ({d.reason})")
print()

print("rational isometries (the first step of the construction):")
print("  ", rational_isometry_criterion(s4, "3U").reason)
print("  ", rational_isometry_criterion(d22, "3U+2E8").reason)
print()

print("building the projective K3 certificate for the quartic Salem number:")
cert = build_k3_certificate(s4)
ev = cert.glue_evidence  # each stage's result is in the certificate
stages = (
    ("split-prime", {"p": ev["p"], "trace_root": ev["trace_root"]}),
    ("norm-element", {"t": [int(c) for c in ev["t"]], "l": ev["l"]}),
    ("twist", {"det": int(ev["det_kernel"])}),
    ("glue", {"det": cert.lattice.determinant()}),
    ("positivity", {"method": cert.positivity.method}),
    ("power", {"k": cert.power}),
)
for stage, info in stages:
    print(f"  stage {stage}: {info}")
print()
print(f"the dynamical degree realized is lambda^{cert.power};")
print("minimal polynomial of lambda^n has coefficients of",
      max(len(str(abs(c))) for c in cert.salem_power_poly.coeffs), "digits")
print("ambient lattice: rank", cert.lattice.rank,
      "signature", cert.lattice.signature(),
      "determinant", cert.lattice.determinant())
print()

ok, items = verify_certificate(cert)
print("independent verification:", "PASSED" if ok else "FAILED")
for name, passed, detail in items:
    print(f"  [{'ok' if passed else 'FAIL'}] {name}: {detail}")
print()
doc = json.dumps(certificate_to_json(cert), sort_keys=True)
print("certificate document size:", len(doc), "bytes")
