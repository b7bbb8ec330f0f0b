import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gha.scalars import (
    ApproxComplex,
    BackendMismatchError,
    CyclotomicNumber,
    _lift_rows,
    _power,
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
