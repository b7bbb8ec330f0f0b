from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gha.scalars import (
    ApproxComplex,
    BackendMismatchError,
    CyclotomicNumber,
    _power,
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
