import cmath
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gha.polys import Poly
from gha.scalars import (
    ApproxComplex,
    BackendMismatchError,
    CyclotomicNumber,
    DegreeOverflowError,
    _canonical,
    _inverse_form,
    _lift_rows,
    _power,
    _product_form,
    _reduce_mod_cyclotomic,
    approx,
    as_scalar,
    backend_of,
    cyclotomic_polynomial,
    euler_phi,
    exact,
    root_of_unity_order,
    zeta,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def cyclo():
    """Small cyclotomic numbers: rational combos of a few roots of unity."""

    def make(order, coeffs):
        out = exact(coeffs[0])
        for k, c in enumerate(coeffs[1:], start=1):
            out = out + zeta(order) ** k * exact(c)
        return out

    return st.builds(
        make,
        st.sampled_from([1, 3, 4, 6]),
        st.lists(rationals, min_size=1, max_size=3),
    )


class TestCyclotomicField:
    @given(cyclo(), cyclo(), cyclo())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(cyclo())
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                exact(1) / a
        else:
            assert a * (exact(1) / a) == exact(1)

    @given(cyclo())
    def test_sub_neg(self, a):
        assert a - a == exact(0)
        assert -(-a) == a

    def test_zeta_identities(self):
        assert zeta(3) ** 3 == exact(1)
        assert zeta(3) ** 2 + zeta(3) + exact(1) == exact(0)
        assert zeta(4) ** 2 == exact(-1)
        assert zeta(6) == exact(1) + zeta(3)
        assert zeta(2) == exact(-1)
        assert zeta(1) == exact(1)

    def test_conductor_promotion(self):
        s = zeta(3) + zeta(4)
        t = s - zeta(4)
        assert t == zeta(3)
        assert (zeta(3) * zeta(4)) ** 12 == exact(1)

    def test_fraction_coords(self):
        half = exact(Fraction(1, 2))
        assert half + half == exact(1)
        assert str(half) == "1/2"

    def test_division_exactness(self):
        a = (exact(1) + zeta(3)) / (exact(2) - zeta(3))
        assert a * (exact(2) - zeta(3)) == exact(1) + zeta(3)


def _field_element(coords, n, step=1):
    """sum coords[j] * zeta_n^(j*step), built from rational multiples of
    powers of zeta_n alone, so no conductor is lifted on the way."""
    return sum((exact(q) * zeta(n, j * step) for j, q in enumerate(coords)), exact(0))


def _coords_over(c, n):
    return list(c.coords) if c.conductor == n else [c.coords[0]] + [0] * (euler_phi(n) - 1)


@pytest.mark.parametrize("n, stride", [(12, 1), (15, 1), (15, 3), (5, 2), (12, 4), (7, 9)])
def test_reduce_mod_cyclotomic_gives_phi_coordinates_per_row(n, stride):
    rng = random.Random(100 * n + stride)
    for rows in (1, 2, 5):
        c = [rng.randint(-9, 9) for _ in range(rows * stride)]
        got = _reduce_mod_cyclotomic(list(c), n, stride)
        phi = euler_phi(n)
        assert len(got) == rows * phi
        for r in range(rows):
            want = _field_element(c[r * stride : (r + 1) * stride], n)
            assert got[r * phi : (r + 1) * phi] == _coords_over(want, n)
    # short rows are padded row by row, not as one short input
    assert _reduce_mod_cyclotomic([1, 2], 12, 1) == [1, 0, 0, 0, 2, 0, 0, 0]
    assert _reduce_mod_cyclotomic([], 5) == [0, 0, 0, 0]


@pytest.mark.parametrize("m, n", [(1, 12), (3, 12), (4, 12), (3, 15), (5, 15), (4, 8)])
def test_lift_rows_embeds_zeta_m_as_a_power_of_zeta_n(m, n):
    rng = random.Random(1000 * m + n)
    pm, phi = euler_phi(m), euler_phi(n)
    rows = [[rng.randint(-50, 50) for _ in range(pm)] for _ in range(4)] + [[0] * pm]
    got = _lift_rows([q for row in rows for q in row], m, n)
    assert len(got) == len(rows) * phi
    for k, row in enumerate(rows):
        lifted = got[k * phi : (k + 1) * phi]
        # zeta_m = zeta_n^(n/m), computed in Q(zeta_n) alone
        assert lifted == _coords_over(_field_element(row, n, n // m), n)
        # the same value as the row over Q(zeta_m)
        here, there = CyclotomicNumber(m, row).embed(), CyclotomicNumber(n, lifted).embed()
        assert abs(here - there) <= 1e-9 * (1 + abs(here))
    assert CyclotomicNumber(m, rows[0]) == CyclotomicNumber(n, got[:phi])


@pytest.mark.parametrize(
    "s", [exact(Fraction(-3, 7)), zeta(3), zeta(4) + zeta(3) / 5, approx(0.5 - 2j)], ids=str
)
def test_copy_and_pickle_rebuild_through_the_constructor(s):
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is type(s) and twin == s and str(twin) == str(s)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert all(euler_phi(n) == len(cyclotomic_polynomial(n)) - 1 for n in range(1, 301))
    # from the prime factors: Phi_(10^6) is not built, and the degree guard
    # refuses to build it
    built = cyclotomic_polynomial.cache_info().currsize
    assert euler_phi(10**6) == 400000
    assert cyclotomic_polynomial.cache_info().currsize == built
    with pytest.raises(DegreeOverflowError, match=r"Q\(zeta\(1000000\)\) of degree 400000"):
        cyclotomic_polynomial(10**6)
    assert cyclotomic_polynomial.cache_info().currsize == built


@pytest.mark.parametrize("k, squares, products", [(0, 0, 0), (1, 0, 1), (2, 1, 1), (12, 3, 2), (13, 3, 3)])
def test_power_squares_no_further_than_the_last_bit(k, squares, products):
    calls = []

    def mul(a, b):
        calls.append("square" if a is b else "product")
        return a * b

    base = 3**40  # a fresh int object, so only a square has a is b
    assert _power(base, k, 1, mul) == base**k
    assert calls.count("square") == squares and calls.count("product") == products


class TestRootOfUnityOrder:
    def test_exact_orders(self):
        assert root_of_unity_order(zeta(6)) == 6
        assert root_of_unity_order(zeta(3) ** 2) == 3
        assert root_of_unity_order(exact(1)) == 1
        assert root_of_unity_order(exact(-1)) == 2
        assert root_of_unity_order(exact(2)) is None
        assert root_of_unity_order(zeta(3) + exact(1)) == 6

    def test_approx_orders(self):
        import cmath

        w = approx(cmath.exp(2j * cmath.pi / 5))
        assert root_of_unity_order(w) == 5
        assert root_of_unity_order(approx(1.0)) == 1
        assert root_of_unity_order(approx(0.5)) is None
        # just off the circle
        assert root_of_unity_order(approx(1.1)) is None


class TestApprox:
    def test_tolerant_equality(self):
        assert approx(1.0) == approx(1.0 + 1e-12)
        assert approx(1.0) != approx(1.0 + 1e-6)

    def test_equality_is_relative_past_one(self):
        # |a - b| <= tol * max(1, |a|, |b|): absolute up to 1, relative above
        assert approx(1e6) == approx(1e6 + 1e-4)
        assert approx(1e6) != approx(1e6 + 1e-2)
        assert approx(1e-10).is_zero() and approx(1e-10) == 0
        assert not approx(1e-8).is_zero() and approx(1e-8) != 0

    def test_arithmetic(self):
        a = approx(1 + 2j)
        b = approx(0.5 - 1j)
        assert a + b == approx(1.5 + 1j)
        assert a * b == approx((1 + 2j) * (0.5 - 1j))
        assert a / b == approx((1 + 2j) / (0.5 - 1j))

    def test_str_forms(self):
        assert str(approx(0.5 + 0.25j)) == "0.5 + 0.25*i"
        assert str(approx(1j)) == "i"
        assert str(approx(-1j)) == "-i"
        assert str(approx(-2.0)) == "-2.0"


def test_backend_mixing_raises():
    with pytest.raises(BackendMismatchError):
        zeta(3) + approx(1.0)
    with pytest.raises(BackendMismatchError):
        approx(2.0) * exact(2)


def test_as_scalar_and_backend_of():
    assert backend_of(as_scalar(3, "exact")) == "exact"
    assert backend_of(as_scalar(3, "approx")) == "approx"
    assert as_scalar(Fraction(2, 3), "exact") == exact(Fraction(2, 3))
    assert isinstance(as_scalar(1.5, "approx"), ApproxComplex)
    assert isinstance(as_scalar(zeta(3), "exact"), CyclotomicNumber)


@given(cyclo())
def test_str_is_stable(a):
    # printing twice gives the same text; equality is canonical
    assert str(a) == str(a)
    assert a == a


# -- the differential oracle: Fraction tuples, as the scalars were held before --
#
# _Ref keeps an element of Q(zeta_n) as a tuple of Fraction coordinates and
# multiplies by convolution reduced mod Phi_n, inverts by the extended
# Euclidean algorithm over Q[x] and lifts by substituting zeta_m =
# zeta_n^(n/m); the integer form must agree with it exactly.


def _ref_reduce(raw, n):
    """The phi(n) coordinates of sum raw[j] * zeta_n^j: long division by Phi_n."""
    cp = cyclotomic_polynomial(n)
    phi = len(cp) - 1
    raw = [Fraction(c) for c in raw] + [Fraction(0)] * max(0, phi - len(raw))
    for top in range(len(raw) - 1, phi - 1, -1):
        t = raw[top]
        if t:
            for i, c in enumerate(cp):
                raw[top - phi + i] -= t * c
    return tuple(raw[:phi])


def _ref_xgcd(a, b):
    """(g, s, t) with s*a + t*b = g over Q[x], coefficient lists ascending."""

    def deg(p):
        return max((i for i, c in enumerate(p) if c), default=-1)

    def sub_scaled(p, q, c, shift):
        out = list(p) + [Fraction(0)] * max(0, len(q) + shift - len(p))
        for i, x in enumerate(q):
            out[i + shift] -= c * x
        return out

    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while deg(r1) >= 0:
        d0, d1 = deg(r0), deg(r1)
        if d0 < d1:
            r0, r1, s0, s1, t0, t1 = r1, r0, s1, s0, t1, t0
            continue
        c = r0[d0] / r1[d1]
        r0 = sub_scaled(r0, r1, c, d0 - d1)
        s0 = sub_scaled(s0, s1, c, d0 - d1)
        t0 = sub_scaled(t0, t1, c, d0 - d1)
    return r0, s0, t0


class _Ref:
    """An element of Q(zeta_n) as Fraction coordinates, conductor 1 when
    only the constant one is nonzero."""

    def __init__(self, n, coords):
        coords = tuple(Fraction(c) for c in coords)
        if n != 1 and not any(coords[1:]):
            n, coords = 1, coords[:1]
        self.n, self.coords = n, coords

    def over(self, m):
        step = m // self.n
        raw = [Fraction(0)] * ((len(self.coords) - 1) * step + 1)
        raw[::step] = self.coords
        return _ref_reduce(raw, m)

    def __add__(self, other):
        m = math.lcm(self.n, other.n)
        return _Ref(m, [a + b for a, b in zip(self.over(m), other.over(m))])

    def __neg__(self):
        return _Ref(self.n, [-c for c in self.coords])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        m = math.lcm(self.n, other.n)
        a, b = self.over(m), other.over(m)
        raw = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                raw[i + j] += x * y
        return _Ref(m, _ref_reduce(raw, m))

    def inverse(self):
        if self.n == 1:
            return _Ref(1, [1 / self.coords[0]])
        g, s, _ = _ref_xgcd(self.coords, cyclotomic_polynomial(self.n))
        # g is a nonzero constant: Phi_n is irreducible
        return _Ref(self.n, _ref_reduce([c / g[0] for c in s], self.n))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        base = self.inverse() if k < 0 else self
        out = _Ref(1, [1])
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        m = math.lcm(self.n, other.n)
        return self.over(m) == other.over(m)

    def text(self):
        pieces = []
        for j, c in enumerate(self.coords):
            if not c:
                continue
            z = f"zeta({self.n})" + (f"^{j}" if j > 1 else "")
            body = str(abs(c)) if j == 0 else (z if abs(c) == 1 else f"{abs(c)}*{z}")
            sign = ("-" if c < 0 else "") if not pieces else ("- " if c < 0 else "+ ")
            pieces.append(sign + body)
        return " ".join(pieces) or "0"

    def embed(self):
        return sum(
            float(c) * cmath.exp(2j * math.pi * j / self.n) for j, c in enumerate(self.coords) if c
        ) + 0j


def _draw(rng, n, dense=True):
    """Coordinates over Q(zeta_n): zero, rational, a few terms or all of them."""
    phi = euler_phi(n)
    roll = rng.random()
    if roll < 0.08:
        return [0] * phi
    if roll < 0.2:
        return [Fraction(rng.randint(-30, 30), rng.randint(1, 12))] + [0] * (phi - 1)
    coords = [Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 7, 2**40])) for _ in range(phi)]
    if not dense or roll < 0.5:
        keep = set(rng.sample(range(phi), min(phi, 3)))
        coords = [q if j in keep else 0 for j, q in enumerate(coords)]
    return coords


def _agrees(x, ref):
    assert (x.conductor, x.coords) == (ref.n, ref.coords)
    assert str(x) == ref.text()
    assert x.embed() == ref.embed()


def _same_form(p, s):
    """The degree-0 Poly p holds the canonical form and the text of the
    scalar s; the zero Poly has no coefficient row."""
    assert (p._n, p._den, p._num) == ((1, 1, ()) if s.is_zero() else (s.conductor, s._den, s._num))
    assert str(p) == str(s)


# (conductor of x, conductor of y): every field of the oracle on its own and
# mixed pairs, whose results live over the lcm
ORACLE_FIELDS = [(n, n) for n in (1, 3, 4, 5, 12, 17, 80)]
ORACLE_FIELDS += [(1, 3), (3, 4), (4, 5), (12, 3), (1, 17), (5, 80), (80, 4)]


@pytest.mark.parametrize("nx, ny", ORACLE_FIELDS, ids=lambda n: str(n))
def test_integer_form_matches_the_fraction_tuples(nx, ny):
    rng = random.Random(100 * nx + ny)
    # a dense inverse takes the reference about 15 ms over Q(zeta_17) and
    # 0.5 s over Q(zeta_80), where y is drawn sparse
    draws = 3 if 80 in (nx, ny) else 6 if 17 in (nx, ny) else 12
    for i in range(draws):
        cx, cy = _draw(rng, nx, dense=i == 0 or nx != 80), _draw(rng, ny, dense=ny != 80)
        x, y = CyclotomicNumber(nx, cx), CyclotomicNumber(ny, cy)
        rx, ry = _Ref(nx, cx), _Ref(ny, cy)
        _agrees(x, rx)
        _agrees(y, ry)
        _agrees(x + y, rx + ry)
        _agrees(x - y, rx - ry)
        _agrees(-x, -rx)
        _agrees(x * y, rx * ry)
        _agrees(x * 3 - Fraction(1, 2), rx * _Ref(1, [3]) - _Ref(1, ["1/2"]))
        assert (x == y) is (rx == ry)
        # the same sums, products and equality on degree-0 Polys
        px, py = Poly([x]), Poly([y])
        _same_form(px + py, x + y)
        _same_form(px - py, x - y)
        _same_form(px * py, x * y)
        assert (px == py) is (x == y)
        assert x == CyclotomicNumber(nx, cx) and (x == 0) is (rx == _Ref(1, [0]))
        for k in (0, 1, 2, 3):
            _agrees(x**k, rx**k)
        if not y.is_zero():
            ry_inv = ry.inverse()
            _agrees(1 / y, ry_inv)
            _agrees(x / y, rx * ry_inv)
            _agrees(y**-2, ry_inv * ry_inv)
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            _agrees(twin, rx)
            assert twin == x


def test_equal_values_over_different_conductors():
    # zeta(12)^4 is zeta(3) held over 12; equality lifts to the lcm
    assert zeta(12) ** 4 == zeta(3) and zeta(12) ** 4 != zeta(3) ** 2
    assert zeta(12) ** 4 * 2 / 3 == exact(Fraction(2, 3)) * zeta(3)
    assert zeta(80, 16) == zeta(5) and zeta(80, 40) == -1 and (zeta(80, 40)).conductor == 1
    assert zeta(3) + zeta(4) - zeta(4) == zeta(3)
    # the same rule on Polys: lifted to the lcm, or a conductor dropped to 1
    assert Poly([zeta(4), zeta(3)]) - Poly([zeta(4)]) == Poly([0, zeta(3)])
    assert Poly([zeta(12) ** 4]) == Poly([zeta(3)]) and Poly([zeta(80, 40)]) == Poly([-1])
    # equal denominators, different values; equal numerators, different
    # denominators
    assert Poly([zeta(12) ** 4 / 2]) != Poly([zeta(3) ** 2 / 2])
    assert Poly([exact(Fraction(1, 2))]) != Poly([zeta(4) / 2])
    for x, y in ((zeta(12) ** 4 / 2, zeta(3)), (zeta(3) / 2, zeta(3)), (exact(Fraction(1, 2)), exact(1))):
        assert x != y and Poly([x]) != Poly([y, 0]) and Poly([0, x]) != Poly([0, y])


def test_scaled_forms_keep_the_width_of_their_conductor():
    # 2 held over conductor 4, with no zeta part, times the rational 3: the
    # product keeps two numerators per coefficient, not the one of the 3
    assert _product_form((4, 1, [2, 0]), (1, 1, (3,))) == (4, 1, [6, 0])
    assert _product_form((1, 1, (3,)), (4, 1, [2, 0])) == (4, 1, [6, 0])
    # a rational constant still scales rows as wide as its own or wider
    assert _product_form((1, 2, [5]), (4, 1, [1, 2, 3, 0])) == (4, 2, [5, 10, 15, 0])
    assert _product_form((4, 1, [1, 2, 3, 0]), (4, 1, [2, 0])) == (4, 1, [2, 4, 6, 0])


@pytest.mark.parametrize("n", [17, 80])
def test_dense_inverse_in_large_fields(n):
    """x * x^-1 = 1 and (x^-1)^-1 = x for dense x with every coordinate
    nonzero, by the norm over the Galois conjugates."""
    rng = random.Random(n)
    phi = euler_phi(n)
    for _ in range(2):
        x = CyclotomicNumber(
            n, [Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9)) for _ in range(phi)]
        )
        inv = x.inverse()
        assert x * inv == 1 and inv * x == exact(1)
        assert inv.inverse() == x
        assert (x / x) == 1 and x**-1 == inv


@pytest.mark.parametrize("n", [1, 3, 4, 5, 12, 80])
def test_inverse_form_is_the_inverse(n):
    """x * _inverse_form(x) is the form of 1, and the inverse's denominator
    is positive, for seeded draws of canonical forms and for rationals held
    over conductor n, negative ones among them.  Over Q a negative x has a
    negative norm, itself; for n >= 3 every norm is positive."""
    rng = random.Random(n)
    phi = euler_phi(n)
    draws = [(n, rng.randint(1, 9), [-rng.randint(1, 99)] + [0] * (phi - 1)) for _ in range(2)]
    for _ in range(4):
        num = [rng.randint(-20, 20) if rng.random() < 0.6 else 0 for _ in range(phi)]
        num[rng.randrange(phi)] = rng.choice([-1, 1]) * rng.randint(1, 20)
        draws.append(_canonical(n, rng.randint(1, 9), num))
    for x in draws:
        inv = _inverse_form(x)
        assert inv[1] > 0, x
        assert _canonical(*_product_form(x, inv)) == (1, 1, (1,)), x
