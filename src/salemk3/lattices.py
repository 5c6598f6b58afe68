"""Integer lattices, discriminant forms, anti-isometries and gluing.

A lattice is a free Z-module with a nondegenerate symmetric integer Gram
matrix. Discriminant groups are presented through the Smith normal form of
the Gram matrix; their Q/2Z-valued quadratic forms are stored exactly, as
integer numerators over the group's exponent N: q mod 2N and b mod N.
``build_glue_map`` is the one builder of anti-isometries of discriminant
forms, and ``forms_isomorphic`` decides through it. It works prime by
prime: an odd p-part is matched through its Jordan (diagonal)
decomposition, which decides and constructs at once; a 2-part goes through
backtracking, which bounds its order. The p-maps are then assembled on the
original generators.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, product
from math import gcd, lcm, prod

from . import linalg
from .numbertheory import factorize, is_prime, sqrt_mod, valuation


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class Lattice:
    """Free abelian group of finite rank with a nondegenerate integer form."""

    gram: tuple

    def __init__(self, gram):
        gram = linalg.mat_to_int(gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise LatticeError("gram matrix must be square")
        if not linalg.is_symmetric(gram):
            raise LatticeError("gram matrix must be symmetric")
        det, s_plus, _ = linalg.symmetric_bareiss(gram)
        if det == 0:
            raise LatticeError("bilinear form must be non-degenerate")
        self._set(gram, det, (s_plus, n - s_plus))

    def _set(self, gram, det, signature):
        object.__setattr__(self, "gram", gram)
        # not dataclass fields: equality, hash and repr read the Gram matrix only
        object.__setattr__(self, "_determinant", det)
        object.__setattr__(self, "_signature", signature)

    @classmethod
    def _known(cls, gram, det, signature):
        """The lattice on an integer Gram matrix whose determinant and
        signature are already known, with no elimination."""
        L = object.__new__(cls)
        L._set(gram, det, signature)
        return L

    @property
    def rank(self):
        return len(self.gram)

    def determinant(self):
        return self._determinant

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self):
        return abs(self.determinant()) == 1

    def signature(self):
        """(s_plus, s_minus), by Sylvester's law of inertia, from the
        constructor's ``linalg.symmetric_bareiss`` pass."""
        return self._signature

    def is_hyperbolic(self):
        s_plus, s_minus = self.signature()
        return s_plus == 1 and s_minus >= 1

    def inner(self, u, v):
        return linalg.dot(u, linalg.mat_vec(self.gram, v))

    def norm(self, v):
        return self.inner(v, v)

    def dual_basis(self):
        """Rows of N / d = G^-1 generate the dual lattice in lattice coordinates; returns (N, d)."""
        return linalg.inverse_pair(self.gram)

    def direct_sum(self, other):
        """Orthogonal sum: determinants multiply and signatures add."""
        (p1, m1), (p2, m2) = self.signature(), other.signature()
        return Lattice._known(
            linalg.block_diag(self.gram, other.gram),
            self.determinant() * other.determinant(),
            (p1 + p2, m1 + m2),
        )

    def rescaled(self, c):
        """The form times a nonzero integer c: the determinant becomes
        c^n det, and the signature swaps when c < 0."""
        if c == 0:
            raise LatticeError("bilinear form must be non-degenerate")
        s_plus, s_minus = self.signature()
        return Lattice._known(
            linalg.mat_scale(c, self.gram),
            c**self.rank * self.determinant(),
            (s_plus, s_minus) if c > 0 else (s_minus, s_plus),
        )

    def sublattice(self, basis_rows):
        """Lattice on the given (independent) rows with the restricted form."""
        B = linalg.mat_to_int(basis_rows)
        G = linalg.mat_mul(linalg.mat_mul(B, self.gram), linalg.transpose(B))
        return Lattice(G)


# --- standard lattices --------------------------------------------------------


def lattice_U():
    return Lattice(((0, 1), (1, 0)))


def _dynkin_lattice(n, edges):
    """Negative definite root lattice of the Dynkin diagram on nodes 1..n:
    -2 on the diagonal and 1 for each edge (a, b)."""
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a - 1][b - 1] = g[b - 1][a - 1] = 1
    return Lattice(g)


def lattice_E8():
    """E8, realized negative definite (signature (0, 8))."""
    # Dynkin diagram chain 1-2-3-4-5-6-7 with node 8 attached to node 5
    return _dynkin_lattice(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)])


def lattice_E6():
    """E6, negative definite, determinant 3."""
    return _dynkin_lattice(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])


def lattice_A2():
    """A2, negative definite, determinant 3."""
    return Lattice(((-2, 1), (1, -2)))


@cache
def named_lattice(name):
    """The lattice of that name, built once; the Lattice is immutable."""
    U, E8 = lattice_U(), lattice_E8()
    table = {
        "U": lambda: U,
        "E8": lambda: E8,
        "3U": lambda: U.direct_sum(U).direct_sum(U),
        "U+E8": lambda: U.direct_sum(E8),
        "3U+2E8": lambda: U.direct_sum(U).direct_sum(U).direct_sum(E8).direct_sum(E8),
    }
    if name not in table:
        raise LatticeError(f"unknown lattice name {name!r}; choose from {tuple(table)}")
    return table[name]()


# --- discriminant forms -------------------------------------------------------


class FiniteQuadraticForm:
    """Finite abelian group with a Q/2Z-valued quadratic form.

    Generators g_i have orders d_1 | d_2 | ... | d_k, and the values are held
    as integers over the group's exponent N = d_k (``exponent``; N = 1 for
    the trivial group): q(g_i) = Q_i / N with Q_i in [0, 2N) (``q_nums``)
    and b(g_i, g_j) = B_ij / N with B_ij in [0, N) (``b_nums``). The
    constructor takes rational values and converts them once; forms built in
    this module start from numerators (``_on_numerators``), and both pass the
    same checks. When the form arose from a lattice, ``lifts`` keeps lifts of
    the generators to the dual lattice as the ``linalg`` pair (den, rows):
    row i over den, in lattice coordinates, lifts g_i. Only ``_on_numerators``
    takes lifts; forms built from values alone have ``lifts`` None.
    """

    def __init__(self, orders, q_values, b_matrix):
        q_values = [Fraction(v) for v in q_values]
        b_matrix = [[Fraction(v) for v in row] for row in b_matrix]
        orders = tuple(int(d) for d in orders)
        # one denominator for every value, and a multiple of each order
        den = lcm(*orders, *(v.denominator for v in chain(q_values, *b_matrix)))
        self._set(
            orders,
            den,
            [v.numerator * (den // v.denominator) for v in q_values],
            [[v.numerator * (den // v.denominator) for v in row] for row in b_matrix],
            None,
        )

    @classmethod
    def _on_numerators(cls, orders, den, q_nums, b_nums, lifts=None):
        """The form with q(g_i) = q_nums[i] / den and b(g_i, g_j) =
        b_nums[i][j] / den, for den a multiple of every order."""
        form = object.__new__(cls)
        form._set(tuple(orders), den, q_nums, b_nums, lifts)
        return form

    def _set(self, orders, den, q_nums, b_nums, lifts):
        if any(d < 2 for d in orders):
            raise LatticeError("generator orders must be >= 2")
        for a, b in zip(orders, orders[1:]):
            if b % a != 0:
                raise LatticeError("orders must form a divisibility chain")
        k = len(orders)
        if len(q_nums) != k or [len(row) for row in b_nums] != [k] * k:
            raise LatticeError("value tables must match the number of generators")
        for i, d in enumerate(orders):
            row = b_nums[i]
            if (q_nums[i] - row[i]) % den:
                raise LatticeError("diagonal of b must be q reduced modulo Z")
            # q(x + d g_i) = q(x) and b(x, d g_i) = 0: the values fit the order d
            if d * d * q_nums[i] % (2 * den) or any(d * v % den for v in row):
                raise LatticeError(f"values on generator {i} do not fit its order {d}")
            if any((row[j] - b_nums[j][i]) % den for j in range(i)):
                raise LatticeError("b must be symmetric")
        # each value fits its generator's order, so its denominator divides N
        N = orders[-1] if orders else 1
        scale = den // N
        self.orders = orders
        self.exponent = N
        self.q_nums = tuple(v // scale % (2 * N) for v in q_nums)
        self.b_nums = tuple(tuple(v // scale % N for v in row) for row in b_nums)
        self.lifts = lifts

    @property
    def ngens(self):
        return len(self.orders)

    def order(self):
        return prod(self.orders)

    def q_of(self, coords):
        """Q in [0, 2N) with q(sum coords_i g_i) = Q / N."""
        total = 0
        k = self.ngens
        for i in range(k):
            a = coords[i]
            if a % self.orders[i] == 0:
                continue
            row = self.b_nums[i]
            total += a * (a * self.q_nums[i] + 2 * sum(coords[j] * row[j] for j in range(i + 1, k)))
        return total % (2 * self.exponent)

    def b_of(self, coords1, coords2):
        """B in [0, N) with b(x, y) = B / N."""
        return sum(x * linalg.dot(row, coords2) for x, row in zip(coords1, self.b_nums) if x) % self.exponent

    def element_order(self, coords):
        out = 1
        for a, d in zip(coords, self.orders):
            out = lcm(out, d // gcd(a % d, d))
        return out

    def negated(self):
        return FiniteQuadraticForm._on_numerators(
            self.orders,
            self.exponent,
            [-v for v in self.q_nums],
            [[-v for v in row] for row in self.b_nums],
            lifts=self.lifts,
        )

    def primes(self):
        out = set()
        for d in self.orders:
            out.update(factorize(d))
        return sorted(out)

    def p_primary_part(self, p):
        """Restriction to the p-Sylow subgroup (orthogonal summand), for a
        prime p; any other p is refused."""
        if not is_prime(p):
            raise LatticeError("p-primary part needs a prime")
        gens = []
        for i, d in enumerate(self.orders):
            e = valuation(d, p) if d % p == 0 else 0
            if e == 0:
                continue
            m = d // p**e
            coords = [0] * self.ngens
            coords[i] = m
            gens.append((coords, p**e))
        return self.subform(gens)

    def subform(self, gens):
        """Form on the subgroup generated by (coords, order) pairs.

        The generators must be independent with the stated orders and the
        divisibility chain is enforced by ordering. The values are read over
        a common multiple of N and the new orders, and the constructor's
        checks bring them exactly to the subgroup's own exponent.
        """
        gens = sorted(gens, key=lambda g: g[1])
        orders = [g[1] for g in gens]
        M = lcm(self.exponent, *orders)
        scale = M // self.exponent
        q_nums = [scale * self.q_of(g[0]) for g in gens]
        b_nums = [[scale * self.b_of(g1[0], g2[0]) for g2 in gens] for g1 in gens]
        lifts = None
        if self.lifts is not None:
            den, rows = self.lifts
            lifts = den, tuple(linalg.vec_mat(g[0], rows) for g in gens)
        return FiniteQuadraticForm._on_numerators(orders, M, q_nums, b_nums, lifts=lifts)

    def all_elements(self):
        """Iterate (coords, order) over every nonzero element; small groups only."""
        for coords in product(*[range(d) for d in self.orders]):
            if any(coords):
                yield coords, self.element_order(coords)


def discriminant_form(L: Lattice):
    """Discriminant group D_L = L^dual / L with its Q/2Z-valued form (L even),
    on the Smith divisors >= 2 of G, so of order |det L|.

    The first call stores the form on L, as the constructor stores the
    determinant, and later calls return that same object: a
    ``FiniteQuadraticForm`` is never changed once built. It is not a
    dataclass field, so equality, hash and repr still read the Gram matrix
    only.
    """
    form = getattr(L, "_discriminant_form", None)
    if form is None:
        form = _discriminant_form(L)
        object.__setattr__(L, "_discriminant_form", form)
    return form


def _discriminant_form(L):
    if not L.is_even():
        raise LatticeError("discriminant form is defined for even lattices only")
    n = L.rank
    S, V = linalg.snf_with_transform(L.gram)
    diag = [S[i][i] for i in range(n)]
    kept = [i for i in range(n) if diag[i] >= 2]
    # generator i lifts to c_i / d_i = l_i / N for the integer SNF column c_i, the
    # exponent N = d_k and l_i = (N / d_i) c_i, so b(g_i, g_j) = l_i^T G l_j / N^2 and
    # q(g_i) = l_i^T G l_i / N^2: their numerators over N are exact quotients by N
    orders = [diag[i] for i in kept]
    N = max(orders, default=1)
    lifts = tuple(tuple(N // diag[i] * V[r][i] for r in range(n)) for i in kept)
    Gl = [linalg.mat_vec(L.gram, li) for li in lifts]
    b_nums = [[linalg.dot(Gli, lj) // N for lj in lifts] for Gli in Gl]
    q_nums = [b_nums[i][i] for i in range(len(kept))]
    return FiniteQuadraticForm._on_numerators(orders, N, q_nums, b_nums, lifts=(N, lifts))


def p_primary_part(form: FiniteQuadraticForm, p):
    return form.p_primary_part(p)


# --- overlattices and gluing --------------------------------------------------


@dataclass(frozen=True)
class GlueMap:
    """Anti-isometry between two discriminant forms.

    ``matrix`` columns give the image of the i-th source generator in target
    generator coordinates.
    """

    source: FiniteQuadraticForm
    target: FiniteQuadraticForm
    matrix: tuple

    def __init__(self, source, target, matrix):
        matrix = linalg.mat_to_int(matrix)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        problems = glue_map_problems(source, target, matrix)
        if problems:
            raise LatticeError("invalid glue map: " + "; ".join(problems))

    def image(self, coords):
        k = self.target.ngens
        return tuple(
            sum(self.matrix[i][j] * coords[j] for j in range(self.source.ngens))
            % self.target.orders[i]
            for i in range(k)
        )


def _subgroup_order(form, elements):
    """Order of the subgroup generated by coordinate vectors of a finite form."""
    k = form.ngens
    if k == 0:
        return 1
    rows = [tuple(form.orders[i] if i == j else 0 for j in range(k)) for i in range(k)]
    rows += [tuple(int(c) for c in e) for e in elements]
    H = linalg.hnf(tuple(rows))
    det = 1
    for i in range(k):
        det *= H[i][i]
    return form.order() // det


def glue_map_problems(source, target, matrix):
    """List of reasons the matrix is not a valid glue map (empty when valid)."""
    problems = []
    ks, kt = source.ngens, target.ngens
    if len(matrix) != kt or any(len(row) != ks for row in matrix):
        return ["matrix shape does not match generator counts"]
    if source.order() != target.order():
        problems.append("group orders differ")
    cols = [tuple(matrix[i][j] for i in range(kt)) for j in range(ks)]
    for j, col in enumerate(cols):
        # well-defined: order of source generator annihilates the image
        scaled = tuple(c * source.orders[j] for c in col)
        if any(s % d != 0 for s, d in zip(scaled, target.orders)):
            problems.append(f"image of generator {j} has too large an order")
    # the values of both forms over one common exponent M
    M = lcm(source.exponent, target.exponent)
    us, ut = M // source.exponent, M // target.exponent
    for j, col in enumerate(cols):
        if (ut * target.q_of(col) + us * source.q_nums[j]) % (2 * M):
            problems.append(f"q not negated on generator {j}")
    for i in range(ks):
        for j in range(i + 1, ks):
            if (ut * target.b_of(cols[i], cols[j]) + us * source.b_nums[i][j]) % M:
                problems.append(f"b not negated on generator pair ({i},{j})")
    if not problems and _subgroup_order(target, cols) != source.order():
        problems.append("map is not bijective")
    return problems


def _overlattice(ambient, den, extra):
    """Even overlattice of ``ambient`` spanned by it and the integer rows ``extra`` / den.

    Returns (L, (den, H)), the basis rows H / den in ambient coordinates for H the
    Hermite form of [den I; extra]; raises when the span is not integral or not even.
    """
    H = linalg.hnf(linalg.mat_scale(den, linalg.identity(ambient.rank)) + extra)
    gram = linalg.mat_mul(linalg.mat_mul(H, ambient.gram), linalg.transpose(H))
    if any(x % (den * den) for row in gram for x in row):
        raise LatticeError("the overlattice is not integral")
    L = Lattice(tuple(tuple(x // (den * den) for x in row) for row in gram))
    if not L.is_even():
        raise LatticeError("the overlattice is odd")
    return L, (den, H)


def glue(M: Lattice, N: Lattice, phi: GlueMap):
    """Overlattice of M + N generated by the graph of the glue map phi.

    Returns (L, (den, H)) where the rows of the Hermite form H over den give the
    new lattice in (M + N) coordinates. The result must come out integral and
    even; with |det M| = |det N| it is unimodular. The graph of phi has order
    |q_M|, the index of M + N in L. The discriminant forms of M and N are the
    ones stored on them, so a caller that built phi from them forms none again.
    """
    qM = discriminant_form(M)
    qN = discriminant_form(N)
    if phi.source.orders != qM.orders or phi.target.orders != qN.orders:
        raise LatticeError("glue map does not match the discriminant forms")
    # the graph of phi: lift of g_j in M, plus the lift of phi(g_j) in N, over one den
    (den, lifts_M), (_, lifts_N) = qM.lifts, qN.lifts
    extra = tuple(
        lifts_M[j] + linalg.vec_mat(phi.image(e), lifts_N)
        for j, e in enumerate(linalg.identity(qM.ngens))
    )
    return _overlattice(M.direct_sum(N), den, extra)


def is_primitive_sublattice(basis_rows):
    """(primitive, saturation) for integer rows B.

    The k rows are independent and span a saturated sublattice exactly when
    every elementary divisor of B is 1. Then the Hermite form of B^T is the
    k x k identity and ``saturation`` returns B itself, row for row.
    """
    B = linalg.mat_to_int(basis_rows)
    sat = linalg.saturation(B)
    return sat == B, sat


def orthogonal_complement(L: Lattice, basis_rows):
    """Orthogonal complement of a primitive nondegenerate sublattice.

    Returns (complement_lattice, complement_basis_rows).
    """
    B = linalg.mat_to_int(basis_rows)
    primitive, sat = is_primitive_sublattice(B)
    if len(sat) != len(B):
        raise LatticeError("sublattice basis rows are dependent")
    try:
        L.sublattice(B)
    except LatticeError:
        raise LatticeError("sublattice is degenerate; complement not supported") from None
    if not primitive:
        raise LatticeError(
            "sublattice is not primitive; its saturation has basis "
            + str([list(r) for r in linalg.hnf(sat)])
        )
    # the rows x with B G x = 0
    comp = linalg.saturation(linalg.primitive_kernel(linalg.mat_mul(B, L.gram), L.rank))
    return L.sublattice(comp), comp


def enumerate_vectors_of_norm(L: Lattice, m):
    """All nonzero v with <v, v> = m in a definite lattice, canonically sorted.

    A divisibility prefilter answers first when m misses the gcd of all
    attainable norms (this settles some indefinite twists without any
    enumeration); otherwise the lattice must be definite.
    """
    div = 0
    n = L.rank
    for i in range(n):
        div = gcd(div, L.gram[i][i])
        for j in range(i + 1, n):
            div = gcd(div, 2 * L.gram[i][j])
    if div and m % div != 0:
        return []
    s_plus, s_minus = L.signature()
    if s_plus and s_minus:
        raise LatticeError("enumeration requires a definite lattice")
    sign = 1 if s_minus == 0 else -1
    if sign * m < 0:
        return []
    G = linalg.mat_scale(sign, L.gram)
    half = [v for v in linalg.qf_half_walk(1, G, sign * m) if L.norm(v) == m]
    return sorted(half + [tuple(-a for a in v) for v in half])


# --- isomorphism of finite quadratic forms -------------------------------------


def _odd_diagonalize(part, p):
    """Diagonalize a nondegenerate p-primary finite quadratic form (p odd).

    Returns a sorted list of (e, unit, coords): an orthogonal generator of
    order p^e with beta-value unit / p^e (beta = q/2, polar form b), given by
    its coordinates over the part's generators. Exact Gram-Schmidt over the
    p-group; valid for odd p only. As the form is nondegenerate, each round
    finds among the generators and their pairwise sums an element of the
    largest order p^e whose beta-value has denominator p^e, and splits it off.
    """
    k, N = part.ngens, part.exponent
    gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    out = []

    def beta(x):
        # beta = q/2 over N: Q is even on a group of odd order
        return part.q_of(x) // 2

    while gens:
        max_order = max(part.element_order(g) for g in gens)
        sums = (
            tuple((a + b) % d for a, b, d in zip(gi, gj, part.orders))
            for gi in gens for gj in gens if gi is not gj
        )
        cand = next(
            g for g in chain(gens, sums)
            if part.element_order(g) == max_order and N // gcd(beta(g), N) == max_order
        )
        # cand has order max_order = p^e, so each value at cand is an integer over p^e
        out.append((valuation(max_order, p), beta(cand) * max_order // N, cand))
        inv = pow(part.b_of(cand, cand) * max_order // N, -1, max_order)
        new_gens = []
        for g in gens:
            coef = part.b_of(cand, g) * max_order // N * inv % max_order
            g2 = tuple((a - coef * b) % d for a, b, d in zip(g, cand, part.orders))
            if any(g2):
                new_gens.append(g2)
        # keep a generating set of the orthogonal complement
        gens = sorted(set(g for g in new_gens if part.element_order(g) > 1))
    return sorted(out)


_BACKTRACK_ORDER = 40000  # largest group order find_form_isometry searches


def _lift_square(c, x, rest, p, e):
    """Hensel-lift a solution x of c x^2 = rest mod p to mod p^e (odd p, p not
    dividing c x) by Newton steps x <- x - (c x^2 - rest) / (2 c x), each
    doubling the precision p^k (k <- min(2k, e)), so O(log e) steps."""
    k = 1
    while k < e:
        k = min(2 * k, e)
        pk = p**k
        x = (x - (c * x * x - rest) * pow(2 * c * x, -1, pk)) % pk
    return x


def _sqrt_mod_prime_power(a, p, e):
    """Square root of a unit modulo p^e (odd p), or None."""
    a %= p**e
    root = sqrt_mod(a % p, p)
    if root is None or root == 0:
        return None
    return _lift_square(1, root, a, p, e)


def _represent_by_binary(c1, c2, target, p, e):
    """(x, y) with c1 x^2 + c2 y^2 = target mod p^e; units c1, c2, target, p odd.
    Mod p there are p - (-c1 c2 / p) > 0 solutions, none (0, 0).

    Precondition: target / c2 is a non-square mod p, as in ``_odd_anti_map``,
    which calls this only after ``_sqrt_mod_prime_power`` found no root of
    it. So x0 = 0 has no y0, the first solution mod p has x0 a unit, and
    Hensel lifts x."""
    pe = p**e
    inv_c2 = pow(c2, -1, p)
    for x0 in range(p):
        y0 = sqrt_mod((target - c1 * x0 * x0) * inv_c2, p)
        if y0 is not None:
            return _lift_square(c1, x0, target - c2 * y0 * y0, p, e) % pe, y0 % pe


def _odd_anti_map(part1, part2, p):
    """Anti-isometry between two odd p-parts with equal generator orders, or
    None when there is none.

    Both parts are diagonalized. Scale by scale, each diagonal generator d_t
    of part1, of beta-value u / p^e, goes to an element of part2 of
    beta-value -u / p^e orthogonal to the images so far: a multiple of one
    remaining diagonal generator when the ratio of values is a square, else
    a combination of the first two, whose orthogonal complement in their
    span, generated by one of their two projections, takes their place. By
    Witt cancellation the greedy matching fails exactly when some Jordan
    component differs in determinant class. An original generator g is
    sum_t c_t d_t with c_t = b(g, d_t) / b(d_t, d_t) mod p^e_t, because the
    d_t are orthogonal. Returns the matrix over the parts' own generators
    (columns = images).
    """
    orders = part2.orders
    N = part2.exponent  # part1's too, as the orders are equal

    def combine(*terms):
        return tuple(sum(k * v[i] for k, v in terms) % d for i, d in enumerate(orders))

    diag1 = _odd_diagonalize(part1, p)
    diag2 = _odd_diagonalize(part2, p)
    images = []  # (e, diagonal generator of part1, its image in part2)
    for E in sorted({e for e, _, _ in diag1}):
        pe = p**E
        avail = [(unit, coords) for e, unit, coords in diag2 if e == E]
        for _, u, d in (entry for entry in diag1 if entry[0] == E):
            target_val = -u % pe
            chosen = None
            for j, (c, g) in enumerate(avail):
                t = _sqrt_mod_prime_power(target_val * pow(c, -1, pe), p, E)
                if t is not None:
                    chosen = combine((t, g))
                    del avail[j]
                    break
            if chosen is None:
                if len(avail) < 2:
                    return None
                (c1, g1), (c2, g2) = avail[0], avail[1]
                x, y = _represent_by_binary(c1, c2, target_val, p, E)
                chosen = combine((x, g1), (y, g2))
                # orthogonal complement of chosen inside span(g1, g2)
                inv = pow(part2.b_of(chosen, chosen) * pe // N, -1, pe)
                for g in (g1, g2):
                    cand = combine((1, g), (-(part2.b_of(chosen, g) * pe // N) * inv, chosen))
                    bh = part2.q_of(cand) // 2
                    if part2.element_order(cand) == pe and N // gcd(bh, N) == pe:
                        break
                avail = [(bh * pe // N, cand)] + avail[2:]
            images.append((E, d, chosen))
    cols = []
    for g in linalg.identity(part1.ngens):
        col = [0] * part2.ngens
        for E, d, image in images:
            pe = p**E
            c = part1.b_of(g, d) * pe // N * pow(part1.b_of(d, d) * pe // N, -1, pe)
            col = [a + c * b for a, b in zip(col, image)]
        cols.append(combine((1, col)))
    return tuple(tuple(col[i] for col in cols) for i in range(part2.ngens))


def _anti_map_at(part1, part2, p):
    """Anti-isometry between the p-primary parts part1 and part2, or None."""
    if p != 2:
        return _odd_anti_map(part1, part2, p)
    if part1.order() > _BACKTRACK_ORDER:
        raise LatticeError(
            f"2-primary part of order {part1.order()} exceeds the backtracking "
            f"bound {_BACKTRACK_ORDER}"
        )
    return find_anti_isometry(part1, part2)


def build_glue_map(q1, q2):
    """Anti-isometry q1 -> q2 as a ``GlueMap``, or None when there is none.

    Prime by prime, ``_anti_map_at`` matches the p-parts (which raises
    LatticeError when a 2-part exceeds the backtracking bound), and each
    p-map is added into the columns of the original generators: the
    p-component of g_j is u h_j with h_j = (d_j / p^e) g_j and u the inverse
    of d_j / p^e mod p^e, and p-part generator i stands for (d_i / p^e') g_i.
    The GlueMap constructor validates the assembled map. A degenerate form,
    whose b(g_i, -) = (b(g_i, g_j) d_j)_j do not generate the dual, is refused.
    """
    for q in (q1, q2):
        N = q.exponent
        if _subgroup_order(q, [[b * d // N for b, d in zip(row, q.orders)] for row in q.b_nums]) != q.order():
            raise LatticeError("finite quadratic form is degenerate")
    if q1.orders != q2.orders:
        return None
    orders = q1.orders
    columns = [[0] * len(orders) for _ in orders]
    for p in q1.primes():
        mat = _anti_map_at(q1.p_primary_part(p), q2.p_primary_part(p), p)
        if mat is None:
            return None
        index = [i for i, d in enumerate(orders) if d % p == 0]
        pe = [p ** valuation(orders[i], p) for i in index]
        for jj, j in enumerate(index):
            u = pow(orders[j] // pe[jj], -1, pe[jj])
            for ii, i in enumerate(index):
                coeff = u * mat[ii][jj] % pe[ii]
                columns[j][i] = (columns[j][i] + coeff * (orders[i] // pe[ii])) % orders[i]
    return GlueMap(q1, q2, tuple(zip(*columns)))


def forms_isomorphic(f1, f2, anti=False):
    """Decide isomorphism (or anti-isometry for anti=True) of finite forms:
    an isomorphism f1 -> f2 is an anti-isometry onto -f2."""
    return build_glue_map(f1, f2 if anti else f2.negated()) is not None


def find_form_isometry(f1, f2):
    """Explicit isomorphism matching q (backtracking); None if there is none.

    Only for small groups; the returned matrix has the image of the j-th
    generator of f1 in its j-th column.
    """
    if f1.orders != f2.orders:
        return None
    if f1.order() > _BACKTRACK_ORDER:
        raise LatticeError(
            f"group of order {f1.order()} exceeds the backtracking bound {_BACKTRACK_ORDER}"
        )
    if f1.ngens == 0:
        return ()
    elements = {}
    for coords, order in f2.all_elements():
        elements.setdefault((order, f2.q_of(coords)), []).append(coords)
    k = f1.ngens
    chosen = []

    def extend(j):
        if j == k:
            cols = chosen
            if _subgroup_order(f2, cols) != f1.order():
                return False
            return True
        key = (f1.orders[j], f1.q_nums[j])
        for cand in elements.get(key, []):
            ok = all(
                f2.b_of(chosen[i], cand) == f1.b_nums[i][j] for i in range(j)
            )
            if not ok:
                continue
            chosen.append(cand)
            if extend(j + 1):
                return True
            chosen.pop()
        return False

    if not extend(0):
        return None
    kt = f2.ngens
    return tuple(tuple(chosen[j][i] for j in range(k)) for i in range(kt))


def find_anti_isometry(f1, f2):
    """Explicit anti-isometry f1 -> f2 for small groups, or None."""
    return find_form_isometry(f1, f2.negated())


def hyperbolic_p_form(p, n):
    """The scale-1/p^n hyperbolic form on (Z/p^n)^2."""
    pn = p**n
    return FiniteQuadraticForm._on_numerators((pn, pn), pn, (0, 0), ((0, 1), (1, 0)))
