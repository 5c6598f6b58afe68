"""Boundary inputs of the public calls: empty, zero, degenerate and
mismatched arguments, each row one call and the value it must return, and
non-integer matrix entries, each row one call that must refuse them."""

from fractions import Fraction

import pytest

from salemk3 import linalg
from salemk3.isometries import Isometry, TwistElement, is_isometry, search_even_invariant_lattice
from salemk3.lattices import (
    FiniteQuadraticForm,
    GlueMap,
    Lattice,
    discriminant_form,
    enumerate_vectors_of_norm,
    find_form_isometry,
    forms_isomorphic,
    is_primitive_sublattice,
    lattice_A2,
    lattice_E8,
    orthogonal_complement,
)
from salemk3.polynomials import IntPolynomial, divides

from oracles import smith_diagonal

P = IntPolynomial
RANK0 = Lattice(())
TRIVIAL = discriminant_form(RANK0)
A1_FORM = discriminant_form(Lattice([[2]]))
A2_FORM = discriminant_form(lattice_A2())
# every value 0 on (Z/2)^2: any images with the right orders and values pass
# the pairwise checks, so the search meets image pairs that do not generate
ZERO_FORM = FiniteQuadraticForm((2, 2), (0, 0), ((0, 0), (0, 0)))
SINGULAR = ((2, 4, 6), (1, 2, 3), (0, 0, 0))

CASES = {
    "bareiss_det of the empty matrix": (lambda: linalg.bareiss_det(()), 1),
    "box_shell of dimension 0, radius 0": (lambda: list(linalg.box_shell(0, 0)), [()]),
    "box_shell of dimension 0, radius 1": (lambda: list(linalg.box_shell(0, 1)), []),
    "negated polynomial": (lambda: (-P([1, -2, 3])).coeffs, (-1, 2, -3)),
    "str of zero": (lambda: str(P([])), "0"),
    "divides with a non-integral quotient": (lambda: divides(P([0, 2]), P([1, 1])), False),
    "discriminant form of rank 0": (
        lambda: (TRIVIAL.orders, TRIVIAL.exponent, TRIVIAL.q_nums, TRIVIAL.b_nums),
        ((), 1, (), ()),
    ),
    "vectors of norm 0": (lambda: enumerate_vectors_of_norm(lattice_E8(), 0), []),
    "vectors of norm 2 in a negative definite lattice": (lambda: enumerate_vectors_of_norm(lattice_E8(), 2), []),
    "forms of different orders are not isomorphic": (lambda: forms_isomorphic(A1_FORM, A2_FORM), False),
    "no isometry between forms of different orders": (lambda: find_form_isometry(A1_FORM, A2_FORM), None),
    "isometry of forms with no generators": (lambda: find_form_isometry(TRIVIAL, TRIVIAL), ()),
    "isometry of a degenerate form": (lambda: find_form_isometry(ZERO_FORM, ZERO_FORM), ((0, 1), (1, 0))),
    "norm of the zero twist element": (lambda: TwistElement(0).norm_against(P([-1, 1])), 0),
    "lattice with integral Fraction entries": (
        lambda: [(x, type(x)) for row in Lattice([[Fraction(4, 2), 1], [1, Fraction(-2)]]).gram for x in row],
        [(2, int), (1, int), (1, int), (-2, int)],
    ),
    # the invariant forms are diag(a, c); the search passes diag(-2, -2) of
    # signature (0, 2) and the degenerate diag(-2, 0) before diag(-2, 2)
    "even invariant lattice past a degenerate candidate": (
        lambda: search_even_invariant_lattice(((1, 0), (0, -1)), signature=(1, 1)).gram,
        ((-2, 0), (0, 2)),
    ),
}


@pytest.mark.parametrize("call, expected", CASES.values(), ids=CASES)
def test_boundary_value(call, expected):
    assert call() == expected


# a matrix entry that is not an integer used to be truncated by int(), so
# 5/2 and 2.9 both read as 2; an isometry may be rational, and a float or
# str entry of one used to raise AttributeError
INT, RAT = "integers", "integers or Fractions"
REFUSALS = {
    "lattice with a Fraction entry": (lambda: Lattice([[Fraction(5, 2), 1], [1, -2]]), INT),
    "lattice with a float entry": (lambda: Lattice([[2.9, 1], [1, -2]]), INT),
    "lattice with an integral float entry": (lambda: Lattice([[2.0, 1], [1, -2]]), INT),
    "sublattice on a Fraction row": (lambda: lattice_A2().sublattice([[Fraction(1, 2), 0]]), INT),
    "primitivity of a float row": (lambda: is_primitive_sublattice([[0.5, 1]]), INT),
    "complement of a Fraction row": (lambda: orthogonal_complement(lattice_A2(), [[Fraction(3, 2), 1]]), INT),
    "glue map with a Fraction entry": (lambda: GlueMap(A1_FORM, A1_FORM, ((Fraction(1, 2),),)), INT),
    "isometry with a float entry": (lambda: Isometry(lattice_A2(), [[1.0, 0], [0, 1]]), RAT),
    "isometry check of a float entry": (lambda: is_isometry(lattice_A2(), [[1.0, 0], [0, 1]]), RAT),
    "isometry with a str entry": (lambda: Isometry(lattice_A2(), [["1", 0], [0, 1]]), RAT),
    "isometry check of a str entry": (lambda: is_isometry(lattice_A2(), [["1", 0], [0, 1]]), RAT),
}


@pytest.mark.parametrize("call, kind", REFUSALS.values(), ids=REFUSALS)
def test_non_integer_matrix_entries_are_refused(call, kind):
    with pytest.raises(ValueError, match=f"^matrix entries must be {kind}, got "):
        call()


def test_smith_form_of_a_singular_matrix():
    S, V = linalg.snf_with_transform(SINGULAR)
    assert S == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert [S[i][i] for i in range(3) if S[i][i]] == smith_diagonal(SINGULAR)
    assert abs(linalg.bareiss_det(V)) == 1
    # U A V = S for a unimodular U: A V has the zero columns of S
    assert all(row[1:] == (0, 0) for row in linalg.mat_mul(SINGULAR, V))
