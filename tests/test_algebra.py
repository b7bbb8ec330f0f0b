"""Normal-form arithmetic in H(f) against hand-computed values and the
free-module oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gha import algebra
from gha.algebra import (
    FreeModuleElement,
    GHAElement,
    Presentation,
    PresentationMismatchError,
    commutator,
    free_module_action,
    is_central,
)
from gha.config import CONFIG
from gha.parser import parse_element, parse_poly
from gha.polys import DegreeOverflowError, Poly, iterate
from gha.scalars import approx, exact, zeta

H2 = Presentation(parse_poly("h^2"))
W3 = Presentation(parse_poly("zeta(3)*h"))
LIN = Presentation(parse_poly("2*h - 1"))
CONST = Presentation(parse_poly("3"))


def gens(p):
    return p.generator("x"), p.generator("h"), p.generator("y")


class TestDefiningRelations:
    @pytest.mark.parametrize("pres", [H2, W3, LIN, CONST], ids=["h^2", "wh", "lin", "const"])
    def test_relations_hold(self, pres):
        x, h, y = gens(pres)
        fh = pres.from_poly(pres.f)
        assert h * x == x * fh
        assert y * h == fh * y
        assert y * x - x * y == fh - pres.from_poly(Poly.variable(pres.f.backend))

    def test_yx_squaring(self):
        assert str(parse_element("y*x", H2)) == "x*y + h^2 + (-1)*h"

    def test_yx_then_x_scaled_shift(self):
        # for f = wh the double shift picks up (w - 1)(1 + w) x h
        e = parse_element("(y*x)*x", W3)
        assert str(e) == "x^2*y + x*(-2 - zeta(3))*h"

    def test_central_element_normal_form(self):
        assert str(W3.generator("z")) == "x*y + (-1)*h"
        assert str(parse_element("z - (x*y - h)", H2)) == "0"

    def test_x_power_zero(self):
        assert parse_element("x^0", H2) == H2.one()


@pytest.fixture
def compose_calls(monkeypatch):
    """A list that grows by one entry per Poly.compose call."""
    calls = []
    compose = Poly.compose
    monkeypatch.setattr(Poly, "compose", lambda g, inner: calls.append(1) or compose(g, inner))
    return calls


class TestRewriteEngine:
    def test_middle_table_is_bounded(self):
        pres = Presentation(parse_poly("h^2 + 1"))
        y, x = pres.generator("y"), pres.generator("x")
        _ = (y ** 3) * (x ** 3)
        # the rewrite fills at most the (k+1) x (i+1) rectangle once
        assert pres.middle_reductions <= 16

    def test_memo_reuse(self):
        pres = Presentation(parse_poly("h^2 + 1"))
        y, x = pres.generator("y"), pres.generator("x")
        _ = (y ** 2) * (x ** 2)
        before = pres.middle_reductions
        _ = (y ** 2) * (x ** 2)
        assert pres.middle_reductions == before

    def test_degree_guard_trips(self):
        pres = Presentation(parse_poly("h^2"))
        old = CONFIG.max_compose_degree
        CONFIG.max_compose_degree = 32
        try:
            y, x = pres.generator("y"), pres.generator("x")
            with pytest.raises(DegreeOverflowError):
                (y ** 4) * (x ** 4)
        finally:
            CONFIG.max_compose_degree = old

    def test_degree_guard_refuses_before_any_reduction(self):
        # y^7 x^7 over h^2 needs f^(13), of degree 8192 > 4096
        pres = Presentation(parse_poly("h^2"))
        y7, x7 = pres.generator("y") ** 7, pres.generator("x") ** 7
        before = pres.middle_reductions
        with pytest.raises(DegreeOverflowError):
            y7 * x7
        assert pres.middle_reductions == before

    def test_middle_needs_no_composition_beyond_iterates(self, compose_calls):
        # y^k x^i only composes to extend the f-iterates, up to f^(k+i-1)
        Presentation(parse_poly("2*h - 1"))._middle(12, 12)
        assert len(compose_calls) <= 12 + 12

    def test_product_composes_only_to_extend_iterates(self, compose_calls):
        # constant coefficients are not composed with f^(a), so the product
        # y^12 * x^12 composes exactly the 23 times that build f^(1..23)
        pres = Presentation(parse_poly("2*h - 1"))
        y, x = pres.generator("y"), pres.generator("x")
        _ = (y ** 12) * (x ** 12)
        assert len(compose_calls) == 23

    def test_middle_fills_only_the_trapezoid(self):
        # y^k x^i reads the cells (kk, ii) with max(0, i-(k-kk)) <= ii <= i
        for (k, i), cells in {(2, 5): 6, (5, 2): 15, (4, 8): 15}.items():
            pres = Presentation(parse_poly("h^2 + 1"))
            pres._middle(k, i)
            assert pres.middle_reductions == cells, (k, i)

    def test_trapezoids_filled_in_any_order_agree(self):
        f = parse_poly("zeta(3)*h + 1")
        pres = Presentation(f)
        for k, i in ((2, 5), (5, 2), (5, 5)):
            pres._middle(k, i)
        # 6 + 15 + the 9 cells of the (5, 5) trapezoid not filled before
        assert pres.middle_reductions == 30
        fresh = Presentation(f)
        fresh._middle(5, 5)
        for cell, terms in fresh._middles.items():
            assert pres._middles[cell] == terms, cell
        oracle = Presentation(f)
        x, y = oracle.generator("x"), oracle.generator("y")
        one = FreeModuleElement.one()
        for (k, i), terms in pres._middles.items():
            v = one
            for letter in [x] * i + [y] * k:
                v = free_module_action(letter, v)
            assert free_module_action(GHAElement(oracle, terms), one) == v, (k, i)

    def test_product_composes_each_composite_once(self, compose_calls):
        pres = Presentation(parse_poly("2*h - 1"))
        pres._middle(3, 3)
        a = parse_element("x*(h^2+1)*y^3 + (h-2)*y^2 + x^2*h*y^3", pres)
        b = parse_element("x^3*(h+1)*y + x^2*(2*h^2-1) + x^3*h*y^2", pres)
        compose_calls.clear()
        product = a * b
        # each g(f^(a)) once per product: 18 compositions, not one per middle term
        assert len(compose_calls) == 18
        one = FreeModuleElement.one()
        assert free_module_action(product, one) == free_module_action(a, free_module_action(b, one))

    def test_degree_guard_refuses_up_front(self, compose_calls):
        # deg f^(13) = 2^13 exceeds the default guard of 4096
        f = parse_poly("h^2")
        with pytest.raises(DegreeOverflowError):
            iterate(f, 13)
        with pytest.raises(DegreeOverflowError):
            Presentation(f).f_iterate(13)
        assert compose_calls == []

    def test_presentations_do_not_mix(self):
        with pytest.raises(PresentationMismatchError):
            H2.generator("x") + W3.generator("x")


def rand_term(draw, pres, cap):
    i = draw(st.integers(0, cap))
    k = draw(st.integers(0, cap))
    cs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    g = Poly([exact(c) for c in cs])
    if g.is_zero():
        g = Poly([exact(1)])
    return pres.monomial(i, g, k)


@st.composite
def elements(draw, pres, cap=2):
    a = rand_term(draw, pres, cap)
    if draw(st.booleans()):
        a = a + rand_term(draw, pres, cap)
    return a


class TestOracle:
    """The free left module C[X, H, Y] from the basis proof: acting on 1
    and comparing with composed actions is an independent check of the
    product."""

    @given(elements(H2), elements(H2))
    @settings(max_examples=40)
    def test_product_matches_composed_action(self, a, b):
        one = FreeModuleElement.one()
        assert free_module_action(a * b, one) == free_module_action(
            a, free_module_action(b, one)
        )

    @given(elements(W3, cap=3), elements(W3, cap=3))
    @settings(max_examples=40)
    def test_product_matches_composed_action_wh(self, a, b):
        one = FreeModuleElement.one()
        assert free_module_action(a * b, one) == free_module_action(
            a, free_module_action(b, one)
        )

    @given(elements(H2))
    @settings(max_examples=30)
    def test_element_recovered_from_action_on_one(self, a):
        # acting on 1 writes out exactly the PBW coefficients
        v = free_module_action(a, FreeModuleElement.one())
        rebuilt = H2.scalar(0)
        for (i, j, k), c in v.terms.items():
            g = Poly([exact(0)] * j + [exact(1)], ) if j else Poly([exact(1)])
            rebuilt = rebuilt + H2.monomial(i, g, k).scale(c)
        assert rebuilt == a

    @pytest.mark.parametrize(
        "f, top",
        [
            ("0", 6),
            ("5", 6),
            ("2*h - 1", 6),
            ("h/2 + 1/3", 6),
            ("h^2", 3),
            ("h^2 + 1", 3),
            ("h^3 - h", 3),
            ("zeta(3)*h", 6),
            ("zeta(3)*h + 1", 6),
        ],
    )
    def test_middles_match_letter_by_letter_action(self, f, top):
        # the normal form of y^k x^i acts on 1 like x i times, then y k times
        pres = Presentation(parse_poly(f))
        x, y = pres.generator("x"), pres.generator("y")
        xs = FreeModuleElement.one()
        for i in range(top + 1):
            v = xs
            for k in range(top + 1):
                assert free_module_action(y**k * x**i, FreeModuleElement.one()) == v, (k, i)
                v = free_module_action(y, v)
            xs = free_module_action(x, xs)


class TestDegreeLaw:
    @given(elements(H2), elements(H2))
    @settings(max_examples=40)
    def test_product_degree_adds(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        da, db = a.degree(), b.degree()
        assert (a * b).degree() == (da[0] + db[0], da[1] + db[1])

    def test_constant_f_has_zero_divisors(self):
        # (h - c) * x = x * (f - c) = 0 when f is the constant c
        x, h, _ = gens(CONST)
        c = CONST.scalar(3)
        assert ((h - c) * x).is_zero()

    def test_leading_term_rule(self):
        a = H2.monomial(2, parse_poly("h^3"), 1)
        b = H2.monomial(1, parse_poly("h + 1"), 2)
        i, k, _g = (a * b).leading_term()
        assert (i, k) == (3, 3)


class TestArithmeticLaws:
    @given(elements(H2), elements(H2), elements(H2))
    @settings(max_examples=25)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(elements(H2), elements(H2), elements(H2))
    @settings(max_examples=25)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c

    @given(elements(H2))
    def test_pow_matches_repeated_product(self, a):
        assert a ** 3 == a * a * a
        assert a ** 0 == H2.one()

    def test_scale(self):
        x = H2.generator("x")
        assert x.scale(exact(2)) == x + x


@pytest.fixture
def power_calls(monkeypatch):
    """Calls of the repeated-squaring loop from GHAElement.__pow__."""
    calls = []
    power = algebra._power
    monkeypatch.setattr(algebra, "_power", lambda *args: calls.append(1) or power(*args))
    return calls


class TestMonomialPowers:
    """x^a*c and c*y^b with c constant are raised to a power directly; every
    other element goes through repeated squaring.  Both must agree with
    repeated products and with the free-module action."""

    @staticmethod
    def check(a, k):
        pres = a.presentation
        want = pres.one()
        for _ in range(k):
            want = want * a
        got = a**k
        assert got == want and str(got) == str(want)
        one = FreeModuleElement.basis(0, 0, 0, pres.f.backend)
        v = one
        for _ in range(k):
            v = free_module_action(a, v)
        assert free_module_action(got, one) == v

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    @pytest.mark.parametrize("f", ["h^2", "zeta(3)*h + 1", "2*h - 1"])
    @pytest.mark.parametrize("text", ["2*x", "3*y", "x", "y", "x^2/3", "-y^3", "5", "zeta(4)*x"])
    def test_monomials_take_the_direct_path(self, backend, f, text, power_calls):
        a = parse_element(text, Presentation(parse_poly(f, backend)))
        for k in (0, 1, 2, 3):
            self.check(a, k)
        assert power_calls == []

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    @pytest.mark.parametrize("text", ["x*y", "x + y", "x*h", "h", "x^2*y", "2*h + 1"])
    def test_other_elements_take_repeated_squaring(self, backend, text, power_calls):
        a = parse_element(text, Presentation(parse_poly("h^2 + 1", backend)))
        for k in (2, 3):
            self.check(a, k)
        assert len(power_calls) == 2

    def test_examples(self):
        x, h, y = gens(H2)
        assert str((2 * x) ** 3) == "x^3*8"
        assert str((3 * y) ** 2) == "9*y^2"
        assert (x * y) ** 2 == x * y * x * y
        assert str((x * y) ** 2) == "x^2*y^2 + x*(h^2 - h)*y"
        assert (x**0, y**1) == (H2.one(), y)


class TestCentrality:
    def test_z_central_everywhere(self):
        for pres in (H2, W3, LIN, CONST):
            assert is_central(pres.generator("z"))

    def test_cyclotomic_powers(self):
        x, h, y = gens(W3)
        for e in (x ** 3, y ** 3, h ** 3):
            assert is_central(e)
        for e in (x, y, h, x * y):
            assert not is_central(e)

    def test_commutator_values(self):
        x, h, y = gens(H2)
        assert commutator(y, x) == parse_element("h^2 - h", H2)
        assert commutator(h, h).is_zero()


class TestPrinting:
    @given(elements(H2, cap=3))
    @settings(max_examples=40)
    def test_parse_print_fixpoint(self, a):
        assert parse_element(str(a), H2) == a

    def test_canonical_examples(self):
        e = H2.monomial(2, parse_poly("h^2 + 1"), 1) - H2.from_poly(parse_poly("h"))
        assert str(e) == "x^2*(h^2 + 1)*y + (-1)*h"
        assert str(H2.scalar(0)) == "0"
        assert str(H2.one()) == "1"

    def test_terms_that_print_as_zero_are_left_out(self):
        # a coefficient within CONFIG.tol of 0 prints as 0; the term stays
        pres = Presentation(parse_poly("0.5*h", "approx"))
        tiny = Poly([approx(1e-12)])
        e = pres.monomial(1, tiny, 1)
        assert str(tiny) == "0"
        assert str(e) == "0" and not e.is_zero()
        assert str(e + pres.generator("x")) == "x"
        assert str(pres.from_poly(tiny)) == "0"
