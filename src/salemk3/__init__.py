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
"""

from .polynomials import (
    IntPolynomial,
    NotSalemError,
    SalemCertificate,
    companion_matrix,
    discriminant,
    is_cyclotomic_product,
    is_salem,
    power_min_poly,
    resultant,
    square_class_test,
    trace_polynomial,
)
from .lattices import (
    FiniteQuadraticForm,
    GlueMap,
    Lattice,
    LatticeError,
    discriminant_form,
    enumerate_vectors_of_norm,
    glue,
    lattice_A2,
    named_lattice,
    orthogonal_complement,
    p_primary_part,
)
from .numbertheory import hasse_invariant, hilbert, legendre, relevant_places
from .isometries import (
    Isometry,
    IsometryError,
    TwistElement,
    invariant_symmetric_forms,
    is_isometry,
    kernel_sublattice,
    power_to_integral,
    search_even_invariant_lattice,
    twist,
    twist_split_certificate,
)
from .positivity import (
    ObstructionReport,
    PositivityError,
    cyclic_roots,
    determinant_bound_test,
    is_positive,
    obstructing_root_search,
)
from .realize import (
    RealizationCertificate,
    RealizeError,
    build_k3_certificate,
    certificate_from_json,
    certificate_to_json,
    find_norm_element,
    find_split_prime,
    mod2_trivial,
    rational_isometry_criterion,
    seed_for,
    stable_realizable,
    verify_certificate,
)

__all__ = [
    "IntPolynomial",
    "NotSalemError",
    "SalemCertificate",
    "companion_matrix",
    "discriminant",
    "is_cyclotomic_product",
    "is_salem",
    "power_min_poly",
    "resultant",
    "square_class_test",
    "trace_polynomial",
    "FiniteQuadraticForm",
    "GlueMap",
    "Lattice",
    "LatticeError",
    "discriminant_form",
    "enumerate_vectors_of_norm",
    "glue",
    "lattice_A2",
    "named_lattice",
    "orthogonal_complement",
    "p_primary_part",
    "hasse_invariant",
    "hilbert",
    "legendre",
    "relevant_places",
    "Isometry",
    "IsometryError",
    "TwistElement",
    "invariant_symmetric_forms",
    "is_isometry",
    "kernel_sublattice",
    "power_to_integral",
    "search_even_invariant_lattice",
    "twist",
    "twist_split_certificate",
    "ObstructionReport",
    "PositivityError",
    "cyclic_roots",
    "determinant_bound_test",
    "is_positive",
    "obstructing_root_search",
    "RealizationCertificate",
    "RealizeError",
    "build_k3_certificate",
    "certificate_from_json",
    "certificate_to_json",
    "find_norm_element",
    "find_split_prime",
    "mod2_trivial",
    "rational_isometry_criterion",
    "seed_for",
    "stable_realizable",
    "verify_certificate",
]

__version__ = "0.1.0"
