"""Certifying Salem polynomials with exact arithmetic.

A Salem number is a real algebraic integer lambda > 1, Galois conjugate to
1/lambda, whose remaining conjugates all lie on the unit circle. Its minimal
polynomial is monic, reciprocal, of even degree, and the certification runs
entirely through the trace polynomial r with s(x) = x^m r(x + 1/x): the root
pattern of r is decided by exact integer Sturm counts.
"""

from salemk3 import (
    IntPolynomial,
    NotSalemError,
    is_cyclotomic_product,
    is_salem,
    power_min_poly,
    square_class_test,
    trace_polynomial,
)

lehmer = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
cert = is_salem(lehmer)
print("Lehmer polynomial:", lehmer)
print("  degree:", cert.degree)
print("  trace polynomial:", cert.trace_polynomial)
lo, hi = cert.lambda_interval
print(f"  lambda isolated in ({lo}, {hi}]  ~ {float(lo):.6f}")
print()

s4 = IntPolynomial([1, -1, -1, -1, 1])
print("smallest quartic Salem polynomial:", s4)
print("  trace polynomial:", trace_polynomial(s4))
print("  minimal polynomial of lambda^2:", power_min_poly(s4, 2))
print("  minimal polynomial of lambda^3:", power_min_poly(s4, 3))
print()

print("rejections carry reasons:")
for poly in (
    IntPolynomial([1, 1, 1, 1, 1]),      # 5th cyclotomic
    IntPolynomial([-2, 0, 1]),           # x^2 - 2
    IntPolynomial([1, -3, 1]) * IntPolynomial([1, 1, 1]),
):
    try:
        is_salem(poly)
    except NotSalemError as exc:
        print(f"  {str(poly):30s} -> {exc.reason}")
print()

print("square class of -s(1)s(-1) (the degree = b2 criterion):")
for poly in (lehmer, s4, IntPolynomial([1, -3, 1])):
    print(f"  {str(poly):40s} -> {square_class_test(poly)}")
print()

print("cyclotomic products (all roots on the unit circle):")
for poly in (
    IntPolynomial([1, 1, 1]),
    IntPolynomial([-1, 1]) ** 12,
    IntPolynomial([1, -3, 1]),
):
    print(f"  {str(poly):30s} -> {is_cyclotomic_product(poly)}")
