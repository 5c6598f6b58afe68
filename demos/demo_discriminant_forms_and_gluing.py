"""Discriminant forms, p-primary parts, and gluing to unimodular lattices.

The discriminant group D_L = L^dual / L of an even lattice carries a
Q/2Z-valued quadratic form. An anti-isometry between the discriminant forms
of two lattices glues them into a unimodular overlattice; conversely the
orthogonal complement of a primitive sublattice of a unimodular lattice has
the negated discriminant form.
"""

from fractions import Fraction

from salemk3 import (
    GlueMap,
    Lattice,
    discriminant_form,
    glue,
    named_lattice,
    orthogonal_complement,
    p_primary_part,
)
from salemk3.lattices import find_anti_isometry, forms_isomorphic

minus2 = Lattice([[-2]])
q = discriminant_form(minus2)
# q(g) is held as the integer numerator Q over the group's exponent N
print("D([[-2]]):", q.orders, "q(g) =", Fraction(q.q_of((1,)), q.exponent), "(that is -1/2 mod 2Z)")

twisted = Lattice([[22, 33], [33, 22]])
q2 = discriminant_form(twisted)
print("D([[22,33],[33,22]]): invariant factors", q2.orders)
print("  11-primary part:", p_primary_part(q2, 11).orders)
print("  5-primary part: ", p_primary_part(q2, 5).orders)
print()

print("gluing [[-2]] and [[2]] along the unique anti-isometry:")
plus2 = Lattice([[2]])
qm, qn = discriminant_form(minus2), discriminant_form(plus2)
phi = GlueMap(qm, qn, find_anti_isometry(qm, qn))
L, basis = glue(minus2, plus2, phi)
print("  glued Gram:", L.gram)
print("  determinant:", L.determinant(), " even:", L.is_even(),
      " -> the hyperbolic plane U")
print()

print("complements inside unimodular lattices carry the negated form:")
for name, rows in (
    ("3U", [(1, 1, 0, 0, 0, 0)]),
    ("3U", [(1, 2, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)]),
    ("U+E8", [(2, 1) + (0,) * 8]),
):
    ambient = named_lattice(name)
    sub = ambient.sublattice(rows)
    comp, _ = orthogonal_complement(ambient, rows)
    anti = forms_isomorphic(discriminant_form(sub), discriminant_form(comp), anti=True)
    print(f"  {name}, sublattice det {sub.determinant():4d}: "
          f"complement det {comp.determinant():4d}, q_comp = -q_sub: {anti}")
