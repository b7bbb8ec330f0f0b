"""Poly arithmetic against sympy, an independent implementation.

Seeded random polynomials over Q and the cyclotomic fields Q(zeta_N),
N = 3, 4, 5, 8, 12, are multiplied, added, subtracted, composed, divided
with remainder and reduced to a monic gcd by ``gha.polys`` and by sympy
over ``QQ.algebraic_field(exp(2*pi*I/N))``, whose primitive element is
zeta_N itself.  The operands draw their coefficients from the subfields
Q(zeta_d), d | N, so the lift of a polynomial to a larger conductor is
checked too.  Skipped when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from gha.polys import Poly, poly_gcd  # noqa: E402
from gha.scalars import CyclotomicNumber, euler_phi  # noqa: E402

H = sympy.Symbol("h")

# N -> the conductors d | N the coefficients are drawn over
SUBFIELDS = {1: (1,), 3: (1, 3), 4: (1, 4), 5: (1, 5), 8: (1, 4, 8), 12: (1, 3, 4, 12)}


def field(n: int):
    if n == 1:
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / n))


def to_sympy(p: Poly, n: int, k):
    """p as a sympy Poly in h over k, the field of zeta_n."""
    coeffs = []
    for c in reversed(p.coeffs):
        coords = [sympy.QQ(q.numerator, q.denominator) for q in c._lift_coords(n)]
        coeffs.append(coords[0] if n == 1 else k(coords[::-1]))
    return sympy.Poly.from_list(coeffs, H, domain=k)


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
