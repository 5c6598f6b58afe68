"""Deciding whether an isometry preserves a chamber of the positive cone.

Obstructions are roots (vectors of square -2): cyclic roots, whose orbit sum
under f vanishes, and roots whose orthogonal hyperplane crosses the invariant
geodesic plane spanned by the lambda and 1/lambda eigendirections. The
library decides positivity by the determinant bound |det| > 4 |disc s| when
it applies, and otherwise by a complete search over a certified compact set
of eigencoordinates.
"""

from salemk3 import (
    IntPolynomial,
    Isometry,
    Lattice,
    TwistElement,
    cyclic_roots,
    determinant_bound_test,
    is_positive,
    obstructing_root_search,
    twist,
)
from salemk3.lattices import lattice_A2, lattice_E8
from salemk3.polynomials import companion_matrix

print("cyclic roots: the order-3 rotation of the A2 root lattice")
A2 = lattice_A2()
rot = Isometry(A2, ((0, -1), (1, -1)))
roots = cyclic_roots(A2, rot)
print("  all", len(roots), "roots are cyclic ->",
      is_positive(A2, rot).status)
E8 = lattice_E8()
ident = Isometry(E8, tuple(tuple(int(i == j) for j in range(8)) for i in range(8)))
print("  identity on E8 has no cyclic roots ->", is_positive(E8, ident).status)
A1_3 = Lattice([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])
cycle = Isometry(A1_3, ((0, 0, -1), (1, 0, 0), (0, 1, 0)))  # e1 -> e2 -> e3 -> -e1
print("  the signed 3-cycle on A1^3 (char x^3 + 1 = Phi_2 Phi_6) has",
      len(cyclic_roots(A1_3, cycle)), "cyclic roots ->", is_positive(A1_3, cycle).status)
print()

quad = IntPolynomial([1, -3, 1])
L = Lattice([[2, 3], [3, 2]])
f = Isometry(L, companion_matrix(quad))
print("hyperbolic Salem lattice", L.gram, ": det 5 <= 4 disc s = 20")
print("  determinant bound:", determinant_bound_test(L, f))
report = obstructing_root_search(L, f)
print("  exhaustive search:", report.status)
for vec, kind in report.witnesses:
    print("    witness", vec, f"({kind}), norm", L.norm(vec))
print()

twisted, f_tw = twist(L, f, TwistElement(11))
print("after twisting by 11: det", twisted.determinant(), "> 20")
full = is_positive(twisted, f_tw)
print("  ", full.status, "via", full.method)
check = obstructing_root_search(twisted, f_tw)
print("  exhaustive search agrees:", check.status,
      f"({check.candidate_count} candidates inside bound {check.search_bound})")
