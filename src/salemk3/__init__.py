"""Exact lattice computations deciding when powers of a Salem number arise
as dynamical degrees of automorphisms of 2-tori, K3 and Enriques surfaces.

The modules: integer polynomials with Salem certification (`polynomials`),
exact linear algebra over Z and Q (`linalg`), the real embedding of a
certified Salem number with exact signs (`numberfield`), Legendre, Hilbert and Hasse symbols
(`numbertheory`), lattices with discriminant-form calculus and gluing
(`lattices`), lattice isometries with twists and integral powering
(`isometries`), chamber-preservation analysis (`positivity`), realizability
decisions and certificates (`realize`), the JSON codec (`codec`), and a
command-line front end (`cli`).

Importing the package loads none of its modules: each name of ``__all__``
is read from the module that defines it on first access (PEP 562), so a
caller, such as one CLI subcommand, loads only the layers it uses.
"""

import importlib

# the module that defines each public name, in the order of __all__
_EXPORTS = {
    "polynomials": (
        "IntPolynomial", "NotSalemError", "SalemCertificate", "companion_matrix", "discriminant",
        "is_cyclotomic_product", "is_salem", "power_min_poly", "resultant", "square_class_test",
        "trace_polynomial",
    ),
    "lattices": (
        "FiniteQuadraticForm", "GlueMap", "Lattice", "LatticeError", "discriminant_form",
        "enumerate_vectors_of_norm", "glue", "lattice_A2", "named_lattice", "orthogonal_complement",
        "p_primary_part",
    ),
    "numbertheory": ("hasse_invariant", "hilbert", "legendre", "relevant_places"),
    "isometries": (
        "Isometry", "IsometryError", "TwistElement", "discriminant_order", "invariant_symmetric_forms",
        "is_isometry", "kernel_sublattice", "power_to_integral", "search_even_invariant_lattice", "twist",
        "twist_split_certificate",
    ),
    "positivity": (
        "ObstructionReport", "PositivityError", "cyclic_roots", "determinant_bound_test", "is_positive",
        "obstructing_root_search",
    ),
    "realize": (
        "RealizationCertificate", "RealizeError", "build_k3_certificate", "certificate_from_json",
        "certificate_to_json", "find_norm_element", "find_split_prime", "mod2_trivial",
        "rational_isometry_criterion", "seed_for", "stable_realizable", "verify_certificate",
    ),
}


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"
