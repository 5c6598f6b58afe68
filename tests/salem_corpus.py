"""Frozen corpus of certified Salem polynomials, one or two per even degree.

Generated by factoring x^n P(x) +- P*(x) for small Pisot polynomials P and
keeping the factors that pass exact Salem certification; the square-class
booleans were frozen from direct evaluation of -s(1) s(-1).
"""

from salemk3.isometries import Isometry, search_even_invariant_lattice
from salemk3.polynomials import IntPolynomial, companion_matrix

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)

# degree -> list of (coefficients ascending, -s(1)s(-1) is a square)
CORPUS = {
    4: [((1, -1, -1, -1, 1), False)],
    6: [
        ((1, -2, 0, 1, 0, -2, 1), False),
        ((1, -2, -1, 3, -1, -2, 1), True),
    ],
    8: [((1, -2, 0, 0, 0, 0, 0, -2, 1), False)],
    10: [
        (LEHMER, True),
        ((1, -2, 1, -2, 1, -2, 1, -2, 1, -2, 1), True),
    ],
    12: [((1, -2, 0, 0, 1, 0, -2, 0, 1, 0, 0, -2, 1), False)],
    14: [((1, -2, 0, 1, -2, 1, 1, -2, 1, 1, -2, 1, 0, -2, 1), True)],
    16: [((1, -2) + (0,) * 13 + (-2, 1), False)],
    18: [((1, -2, -1, 3, -1, -2, 2, 0, -1, 1, -1, 0, 2, -2, -1, 3, -1, -2, 1), True)],
    20: [((1, -2) + (0,) * 17 + (-2, 1), False)],
    22: [
        ((1, -2) + (0,) * 19 + (-2, 1), False),
        ((1, -2, -1) + (0,) * 17 + (-1, -2, 1), True),
    ],
}


def all_entries():
    for degree in sorted(CORPUS):
        for coeffs, square in CORPUS[degree]:
            yield degree, coeffs, square


def corpus_pair(coeffs):
    """The even invariant lattice of signature (1, d - 1) that the
    benchmark's positivity workload builds for a corpus polynomial, with the
    companion matrix as its isometry."""
    C = companion_matrix(IntPolynomial(coeffs))
    S = search_even_invariant_lattice(C, signature=(1, len(coeffs) - 2))
    return S, Isometry(S, C)
