"""Poly arithmetic and exact linear algebra against sympy, an independent
implementation.

Seeded random polynomials over Q and the cyclotomic fields Q(zeta_N),
N = 3, 4, 5, 8, 12, are multiplied, added, subtracted, composed, divided
with remainder and reduced to a monic gcd by ``gha.polys`` and by sympy
over ``QQ.algebraic_field(exp(2*pi*I/N))``, whose primitive element is
zeta_N itself.  The operands draw their coefficients from the subfields
Q(zeta_d), d | N, so the lift of a polynomial to a larger conductor is
checked too.  Over the large fields Q(zeta_17) and Q(zeta_80) scalar
products and inverses are checked, and over both a gcd.  Seeded
square matrices up to 5x5 over Q, Q(zeta_3), Q(zeta_4) and Q(zeta_12),
singular ones among them, get their characteristic polynomial from
``linalg.charpoly`` and their rank from an ``EchelonBasis`` of their
rows, checked against sympy's ``DomainMatrix``.
The roots that ``exact_roots`` finds in Q(zeta_N) are checked against
``sympy.factor_list(..., extension=zeta_N)``, on fixed cases (the open root
defects are strict xfails) and on seeded products of linear factors of
the shapes the recogniser proposes, to powers up to 3, times a power of a
quadratic with no root in the field, over the small fields and Q(zeta_7).
The exact-period-n points that ``periodic_points`` finds on the census
panel, n <= 3, are counted against the degree of the dynatomic factor
prod_{d | n} (f^(d)(h) - h)^mu(n/d), computed in sympy, with its roots of
lower exact period removed.  The center of H(f) is checked by brute
force: the common kernel of ad_x, ad_y and ad_h on a box of monomials
x^a h^j y^b, solved in sympy, must lie in the span of the products of
``center(f).generators``.  Skipped when sympy is not installed.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from gha.algebra import Presentation  # noqa: E402
from gha.linalg import EchelonBasis, charpoly, mat_mul  # noqa: E402
from gha.parser import parse_poly  # noqa: E402
from gha.polys import Poly, exact_roots, iterate, periodic_points, poly_gcd  # noqa: E402
from gha.scalars import CyclotomicNumber, _lift_rows, euler_phi, exact, zeta  # noqa: E402
from gha.structure import affine_conjugate, center  # noqa: E402

H = sympy.Symbol("h")

# N -> the conductors d | N the coefficients are drawn over
SUBFIELDS = {1: (1,), 3: (1, 3), 4: (1, 4), 5: (1, 5), 8: (1, 4, 8), 12: (1, 3, 4, 12)}
# the large fields, phi = 16 and 32, where products take the Kronecker path
LARGE_SUBFIELDS = {17: (1, 17), 80: (1, 5, 16, 80)}


def field(n: int):
    if n == 1:
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / n))


def to_field(c: CyclotomicNumber, n: int, k):
    """c as an element of k, the field of zeta_n."""
    coords = [sympy.QQ(q.numerator, q.denominator) for q in _lift_rows(c.coords, c.conductor, n)]
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
    ds = [rng.choice((SUBFIELDS | LARGE_SUBFIELDS)[n]) for _ in range(2)]
    return Poly([scalar(rng, rng.choice(ds)) for _ in range(rng.randint(1, max_degree + 1))])


@pytest.mark.parametrize("n", sorted(SUBFIELDS))
def test_poly_arithmetic_matches_sympy(n):
    rng = random.Random(1000 + n)
    points = random.Random(1100 + n)
    k = field(n)
    for _ in range(25):
        a, b, c = poly(rng, n, 4), poly(rng, n, 4), poly(rng, n, 2)
        sa, sb, sc = (to_sympy(p, n, k) for p in (a, b, c))
        assert to_sympy(a * b, n, k) == sa * sb
        assert to_sympy(a + b, n, k) == sa + sb
        assert to_sympy(a - b, n, k) == sa - sb
        assert to_sympy(a.compose(c), n, k) == sa.compose(sc)
        assert to_sympy(a.derivative(), n, k) == sa.diff(H)
        # a(t) is a composed with the constant t
        t = scalar(points, points.choice(SUBFIELDS[n]))
        st = sympy.Poly.from_list([to_field(t, n, k)], H, domain=k)
        assert to_sympy(Poly([a.evaluate(t)]), n, k) == sa.compose(st)
        if not b.is_zero():
            q, r = divmod(a, b)
            sq, sr = sympy.div(sa, sb)
            assert (to_sympy(q, n, k), to_sympy(r, n, k)) == (sq, sr)
        # a common factor c makes the gcd nontrivial
        g = poly_gcd(a * c, b * c)
        assert to_sympy(g, n, k) == sympy.gcd(sa * sc, sb * sc)


@pytest.mark.parametrize("n, draws", [(17, 6), (80, 3)])
def test_large_field_scalars_match_sympy(n, draws):
    """Products, inverses and quotients of scalars of Q(zeta_17) and
    Q(zeta_80), one factor sometimes from a subfield: the Kronecker
    product and the inverse by the Galois norm, which the small fields
    reach rarely or not at all."""
    rng = random.Random(4000 + n)
    k = field(n)
    for _ in range(draws):
        a = scalar(rng, n)
        b = scalar(rng, rng.choice(LARGE_SUBFIELDS[n]))
        sa, sb = to_field(a, n, k), to_field(b, n, k)
        assert to_field(a * b, n, k) == sa * sb
        if not a.is_zero():
            inverse = a.inverse()
            assert to_field(inverse, n, k) == k.one / sa
            assert to_field(b / a, n, k) == sb * to_field(inverse, n, k)


def test_poly_gcd_matches_sympy_over_q_zeta_17():
    rng = random.Random(4117)
    k = field(17)
    for _ in range(3):
        # c, a quadratic over Q(zeta_17), makes the gcd nontrivial
        a, b = poly(rng, 17, 3), poly(rng, 17, 3)
        c = Poly([scalar(rng, 17), scalar(rng, 17), exact(1)])
        sa, sb, sc = (to_sympy(p, 17, k) for p in (a, b, c))
        assert to_sympy(poly_gcd(a * c, b * c), 17, k) == sympy.gcd(sa * sc, sb * sc)


def test_poly_gcd_matches_sympy_over_q_zeta_80():
    """gcd((h - r)*c, (h - s)*c) = c for c = h + t with t dense in
    Q(zeta_80) and r, s from its subfields: one draw, since sympy takes
    about 0.3 s per gcd over a field of degree 32."""
    rng = random.Random(4180)
    k = field(80)
    a, b, c = (Poly([scalar(rng, d), exact(1)]) for d in (5, 16, 80))
    sa, sb, sc = (to_sympy(p, 80, k) for p in (a, b, c))
    g = poly_gcd(a * c, b * c)
    assert g == c
    assert to_sympy(g, 80, k) == sympy.gcd(sa * sc, sb * sc)


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


def linear_roots(expr, n: int) -> list[complex]:
    """The roots of expr in Q(zeta_n) with multiplicity, as sympy's
    factorisation over that field gives them in linear factors."""
    extension = {"extension": sympy.exp(2 * sympy.pi * sympy.I / n)} if n > 1 else {}
    _, factors = sympy.factor_list(expr, H, **extension)
    out = []
    for factor, m in factors:
        p = sympy.Poly(factor, H)
        if p.degree() == 1:
            a, b = p.all_coeffs()
            out += [complex(sympy.N(-b / a, 30))] * m
    return out


def assert_same_roots(got: list[complex], want: list[complex]) -> None:
    def key(z):
        return (round(z.real, 9), round(z.imag, 9))

    got, want = sorted(got, key=key), sorted(want, key=key)
    assert len(got) == len(want) and all(abs(a - b) <= 1e-9 for a, b in zip(got, want)), (got, want)


ZETA3 = sympy.exp(2 * sympy.pi * sympy.I / 3)


def root_case(text, expr, n, defect=None):
    """A parameter of test_exact_roots_match_sympy; an open root defect is
    a strict xfail, so the change that mends it has to flip it."""
    marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=defect)] if defect else []
    return pytest.param(text, expr, n, marks=marks, id=f"{text} over Q(zeta_{n})")


@pytest.mark.parametrize(
    "text, expr, n",
    [
        root_case("(h - 2)*(h + 1/2)^2", (H - 2) * (2 * H + 1) ** 2, 1),
        root_case("(h - zeta(3))*(h - 1)^2", (H - ZETA3) * (H - 1) ** 2, 3),
        root_case("(h^2 + 1)*(h - 3)", (H**2 + 1) * (H - 3), 1),
        root_case("(h^2 + 1)*(h - 3)", (H**2 + 1) * (H - 3), 4),
        root_case("(h - 2)^5", (H - 2) ** 5, 1),
        root_case("(h - 1/3)^6*(h + 1)", (3 * H - 1) ** 6 * (H + 1), 1),
        root_case("(h - zeta(3))^3*(h - 1)", (H - ZETA3) ** 3 * (H - 1), 3),
        root_case("h^2 - 2", H**2 - 2, 8, "finds no root"),
    ],
)
def test_exact_roots_match_sympy(text, expr, n):
    found, _ = exact_roots(parse_poly(text), conductor=n)
    got = [r.embed() for r, m in found for _ in range(m)]
    assert_same_roots(got, linear_roots(sympy.expand(expr), n))


def root_shape(rng: random.Random, n: int) -> CyclotomicNumber:
    """A root of a shape the recogniser proposes: a rational, a rational
    multiple of a root of unity of the field, or q0 + q1*zeta_n when
    phi(n) = 2."""
    def q():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 1, 2, 3)))

    shapes = ("rational", "unit", "linear") if euler_phi(n) == 2 else ("rational", "unit")
    shape = rng.choice(shapes)
    if shape == "rational":
        return exact(q())
    if shape == "unit":
        return exact(q()) * zeta(n, rng.randrange(n))
    return exact(q()) + exact(q()) * zeta(n)


# and Q(zeta_7), phi = 6, where the recogniser proposes only rationals and
# rational multiples of roots of unity
@pytest.mark.parametrize("n", sorted(SUBFIELDS) + [7])
def test_random_exact_roots_match_sympy(n):
    """(h^2 - 7)^e times 2 to 4 distinct linear factors, each to the power
    1, 2 or 3: sqrt(7) lies in none of these fields, so exactly the linear
    factors split, with their multiplicities."""
    rng = random.Random(3000 + n)
    k = field(n)
    for _ in range(2):
        want = []
        while len(want) < rng.randint(2, 4):
            r = root_shape(rng, n)
            if all(r != w for w in want):
                want.append(r)
        e = rng.randint(1, 2)
        p = Poly([-7, 0, 1]) ** e
        for r in want:
            p = p * Poly([-r, 1]) ** rng.randint(1, 3)
        found, rem = exact_roots(p, conductor=n)
        assert rem == Poly([-7, 0, 1]) ** e
        # factor_list of a polynomial over QQ<zeta_n> factors over that field
        _, factors = sympy.factor_list(to_sympy(p, n, k))
        linear = [(f.rep.to_list(), m) for f, m in factors if f.degree() == 1]
        expected = sorted((str(-b / a), m) for (a, b), m in linear)
        got = sorted((str(to_field(r, n, k)), m) for r, m in found)
        assert len(got) == len(want)
        assert got == expected, (p, found)


# the census panel, and its conductor hint: for f = h^m the period-n points
# lie in Q(zeta_(m^n - 1))
PANEL = ["zeta(3)*h", "zeta(4)*h", "h^2", "h^3", "h^2 - 1", "h^2 + 2*h - 3/4", "2*h + 1"]


def panel_hint(text: str, n: int) -> int | None:
    m = parse_poly(text).degree
    return m**n - 1 if text == f"h^{m}" and m**n > 2 else None


def exact_period_count(f: Poly, n: int) -> int:
    """The number of points of exact period n of f, from sympy: the
    distinct roots of prod_{d | n} (f^(d)(h) - h)^mu(n/d) that are no root
    of f^(d)(h) - h for a proper divisor d of n."""
    k = field(f.conductor())
    h = sympy.Poly(H, H, domain=k)
    sf = to_sympy(f, f.conductor(), k)
    its = [h]
    for _ in range(n):
        its.append(sf.compose(its[-1]))
    top, bottom = h**0, h**0
    for d in sympy.divisors(n):
        mu = sympy.mobius(n // d)
        if mu == 1:
            top *= its[d] - h
        elif mu == -1:
            bottom *= its[d] - h
    core, r = sympy.div(top, bottom)
    assert r.is_zero
    for d in sympy.divisors(n)[:-1]:
        common = sympy.gcd(core, its[d] - h)
        while common.degree() > 0:
            core = sympy.quo(core, common)
            common = sympy.gcd(core, its[d] - h)
    return sympy.quo(core, sympy.gcd(core, core.diff(H))).degree()


@pytest.mark.parametrize(
    "text, n",
    [(text, n) for text in PANEL for n in (1, 2, 3) if (text, n) != ("zeta(3)*h", 3)],
)
def test_periodic_points_match_the_dynatomic_degree(text, n):
    """zeta(3)*h with n = 3 is left out: every point has period 3 there."""
    f = parse_poly(text)
    out = periodic_points(f, n, conductor=panel_hint(text, n))
    assert not out.residual_roots
    assert sum(o.period for o in out.orbits) == exact_period_count(f, n)


def coordinates(e, n: int, k) -> dict:
    """The element e of H(f) as {(a, j, b): coefficient of x^a h^j y^b} in k,
    the field of zeta_n."""
    return {
        (a, j, b): to_field(c, n, k)
        for (a, b), g in e.terms.items()
        for j, c in enumerate(g.coeffs)
        if not c.is_zero()
    }


def center_kernel(f: Poly, K: int, D: int):
    """The common kernel of ad_x, ad_y and ad_h on span{x^a h^j y^b : a, b <= K,
    j <= D}, as the rows of a sympy DomainMatrix over the field of f, and
    the box's monomials (a, j, b) that index its columns."""
    n = f.conductor()
    k = field(n)
    pres = Presentation(f)
    gens = [pres.generator(g) for g in "xyh"]
    box = [(a, j, b) for a in range(K + 1) for j in range(D + 1) for b in range(K + 1)]
    cols = []
    for a, j, b in box:
        e = pres.monomial(a, Poly([0] * j + [1]), b)
        cols.append(
            {(t, *m): v for t, g in enumerate(gens) for m, v in coordinates(g * e - e * g, n, k).items()}
        )
    keys = sorted({key for col in cols for key in col})
    ad = DomainMatrix([[col.get(key, k.zero) for col in cols] for key in keys], (len(keys), len(box)), k)
    return ad.nullspace(), box


def generator_products(f: Poly, K: int, D: int) -> list:
    """The products of center(f).generators whose x- and y-degrees are at
    most K, and whose (h - c)^l factor has h-degree at most D + K: a
    product of higher h-degree can still take part in an element of the
    box, as z^2 - (h - 1/2)^2 does for f = -h + 1."""
    desc = center(f)
    if desc.l is None:  # z alone
        exps = [(e,) for e in range(K + 1)]
    else:  # x^l, y^l, (h - c)^l, z
        l = desc.l
        exps = [
            t
            for t in product(range(K // l + 1), range(K // l + 1), range((D + K) // l + 1), range(K + 1))
            if l * t[0] + t[3] <= K and l * t[1] + t[3] <= K
        ]
    out = []
    for t in exps:
        e = desc.generators[-1].presentation.one()
        for g, m in zip(desc.generators, t):
            e = e * g**m
        out.append(e)
    return out


# f, K, D and, where an earlier probe (ROADMAP item 12) counted it, the
# dimension of the kernel on the box a, b <= K, j <= D
CENTER_CASES = [
    ("h^2 + 1", 2, 2, 3),
    ("2*h", 2, 2, 3),
    ("h + 1", 2, 2, 3),
    ("3", 2, 2, 3),
    ("h", 2, 2, 27),
    ("-h + 1", 2, 2, 9),
    ("zeta(3)*h + 1", 2, 2, None),
    ("zeta(6)*h", 2, 2, None),
    # larger boxes for linear f: x^2, y^2 and (h - 1/2)^2 of -h + 1 and
    # x^3, y^3 of zeta(3)*h + 1 lie in them
    ("2*h", 4, 2, None),
    ("h + 1", 4, 2, None),
    ("h", 3, 2, None),
    ("-h + 1", 4, 2, None),
    ("zeta(3)*h + 1", 3, 2, None),
]


@pytest.mark.parametrize("text, K, D, dim", CENTER_CASES)
def test_center_contains_the_brute_force_kernel(text, K, D, dim):
    """Every element of the box that commutes with x, y and h is a linear
    combination of products of the center's generators; so is every such
    element for a seeded random affine conjugate of f (a*f((h - c)/a) + c,
    an isomorphic algebra whose kernel on the box has the same dimension).
    The kernel comes from the products of the rewriting core alone."""
    rng = random.Random(f"center {text} {K} {D}")
    f = parse_poly(text)
    a = Fraction(rng.choice((-3, -2, 2, 3)), rng.randint(1, 3))
    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    dims = []
    for g in (f, affine_conjugate(f, exact(a), exact(c))):
        kernel, box = center_kernel(g, K, D)
        n = g.conductor()
        k = field(n)
        prods = [coordinates(e, n, k) for e in generator_products(g, K, D)]
        keys = sorted(set(box) | {key for p in prods for key in p})
        column = {m: i for i, m in enumerate(box)}
        spanned = [[p.get(key, k.zero) for p in prods] for key in keys]
        rows = kernel.to_Matrix()
        found = [
            [k.convert(rows[r, column[key]]) if key in column else k.zero for r in range(rows.rows)]
            for key in keys
        ]
        before = DomainMatrix(spanned, (len(keys), len(prods)), k).rank()
        both = [s + t for s, t in zip(spanned, found)]
        after = DomainMatrix(both, (len(keys), len(prods) + rows.rows), k).rank()
        assert after == before, (str(g), K, D)
        dims.append(rows.rows)
    assert dims[0] == dims[1]
    if dim is not None:
        assert dims[0] == dim
