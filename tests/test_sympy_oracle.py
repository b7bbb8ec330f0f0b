"""Poly arithmetic and exact linear algebra against sympy, an independent
implementation.

Seeded random polynomials over Q and the cyclotomic fields Q(zeta_N),
N = 3, 4, 5, 8, 12, are multiplied, added, subtracted, composed, divided
with remainder and reduced to a monic gcd by ``gha.polys`` and by sympy
over ``QQ.algebraic_field(exp(2*pi*I/N))``, whose primitive element is
zeta_N itself.  The operands draw their coefficients from the subfields
Q(zeta_d), d | N, so the lift of a polynomial to a larger conductor is
checked too.  Seeded square matrices up to 5x5 over Q, Q(zeta_3),
Q(zeta_4) and Q(zeta_12), singular ones among them, get their
characteristic polynomial from ``linalg.charpoly`` and their rank from an
``EchelonBasis`` of their rows, checked against sympy's ``DomainMatrix``.
Skipped when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from gha.linalg import EchelonBasis, charpoly, mat_mul  # noqa: E402
from gha.polys import Poly, poly_gcd  # noqa: E402
from gha.scalars import CyclotomicNumber, euler_phi  # noqa: E402

H = sympy.Symbol("h")

# N -> the conductors d | N the coefficients are drawn over
SUBFIELDS = {1: (1,), 3: (1, 3), 4: (1, 4), 5: (1, 5), 8: (1, 4, 8), 12: (1, 3, 4, 12)}


def field(n: int):
    if n == 1:
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / n))


def to_field(c: CyclotomicNumber, n: int, k):
    """c as an element of k, the field of zeta_n."""
    coords = [sympy.QQ(q.numerator, q.denominator) for q in c._lift_coords(n)]
    return coords[0] if n == 1 else k(coords[::-1])


def to_sympy(p: Poly, n: int, k):
    """p as a sympy Poly in h over k, the field of zeta_n."""
    return sympy.Poly.from_list([to_field(c, n, k) for c in reversed(p.coeffs)], H, domain=k)


def scalar(rng: random.Random, d: int) -> CyclotomicNumber:
    coords = [
        Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) if rng.random() < 0.7 else 0
        for _ in range(euler_phi(d))
    ]
    return CyclotomicNumber(d, coords)


def poly(rng: random.Random, n: int, max_degree: int) -> Poly:
    """A polynomial over one subfield of Q(zeta_n), sometimes two."""
    ds = [rng.choice(SUBFIELDS[n]) for _ in range(2)]
    return Poly([scalar(rng, rng.choice(ds)) for _ in range(rng.randint(1, max_degree + 1))])


@pytest.mark.parametrize("n", sorted(SUBFIELDS))
def test_poly_arithmetic_matches_sympy(n):
    rng = random.Random(1000 + n)
    k = field(n)
    for _ in range(25):
        a, b, c = poly(rng, n, 4), poly(rng, n, 4), poly(rng, n, 2)
        sa, sb, sc = (to_sympy(p, n, k) for p in (a, b, c))
        assert to_sympy(a * b, n, k) == sa * sb
        assert to_sympy(a + b, n, k) == sa + sb
        assert to_sympy(a - b, n, k) == sa - sb
        assert to_sympy(a.compose(c), n, k) == sa.compose(sc)
        if not b.is_zero():
            q, r = divmod(a, b)
            sq, sr = sympy.div(sa, sb)
            assert (to_sympy(q, n, k), to_sympy(r, n, k)) == (sq, sr)
        # a common factor c makes the gcd nontrivial
        g = poly_gcd(a * c, b * c)
        assert to_sympy(g, n, k) == sympy.gcd(sa * sc, sb * sc)


def matrix(rng: random.Random, n: int, rows: int, cols: int) -> list:
    """A rows x cols matrix over one subfield of Q(zeta_n), about a third
    of its entries 0."""
    d = rng.choice(SUBFIELDS[n])
    zero = CyclotomicNumber(1, [0])
    return [
        [scalar(rng, d) if rng.random() < 0.7 else zero for _ in range(cols)] for _ in range(rows)
    ]


@pytest.mark.parametrize("n", [1, 3, 4, 12])
def test_charpoly_and_rank_match_sympy(n):
    rng = random.Random(2000 + n)
    k = field(n)
    singular = set()
    for size in range(1, 6):
        for _ in range(2):
            # full-size draws and products through a narrower middle, whose
            # rank is below the size
            middle = rng.randint(0, size - 1) if rng.random() < 0.5 else size
            if middle == size:
                a = matrix(rng, n, size, size)
            elif middle == 0:
                a = matrix(rng, n, size, size)
                a[rng.randrange(size)] = [CyclotomicNumber(1, [0])] * size
            else:
                a = mat_mul(matrix(rng, n, size, middle), matrix(rng, n, middle, size))
            ref = DomainMatrix([[to_field(c, n, k) for c in row] for row in a], (size, size), k)
            expected = sympy.Poly.from_list(ref.charpoly(), H, domain=k)
            assert to_sympy(charpoly(a), n, k) == expected
            basis = EchelonBasis(size, "exact")
            for row in a:
                basis.insert(row)
            assert basis.dim == ref.rank()
            singular.add(basis.dim < size)
    assert singular == {True, False}
