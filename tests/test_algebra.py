"""Normal-form arithmetic in H(f) against hand-computed values and the
free-module oracle."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gha import algebra, polys, scalars
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
from gha.modules import enumerate_simples
from gha.parser import parse_element, parse_poly, parse_scalar
from gha.polys import DegreeOverflowError, Poly, iterate
from gha.scalars import approx, as_scalar, exact, zeta

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


@pytest.fixture
def compose_rows_calls(monkeypatch):
    """A list that grows by one entry per call of the row Horner routine,
    which Poly.compose and the composites of a product both run."""
    calls = []
    compose_rows = polys._compose_rows

    def counted(outer, inner):
        calls.append(1)
        return compose_rows(outer, inner)

    for module in (polys, algebra):
        monkeypatch.setattr(module, "_compose_rows", counted)
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
        # y^k x^i needs f^(i+k-1): of degree 2^13 = 8192 > 4096 for the
        # first two, 3^10 = 59049 for the last; with k > i the fill reaches
        # past f^(i + min(k, i) - 1)
        for f, k, i in (("h^2", 7, 7), ("h^2", 13, 1), ("h^3 - h", 9, 2)):
            pres = Presentation(parse_poly(f))
            yk, xi = pres.generator("y") ** k, pres.generator("x") ** i
            before = pres.middle_reductions
            with pytest.raises(DegreeOverflowError):
                yk * xi
            assert pres.middle_reductions == before, (f, k, i)

    def test_middle_needs_no_composition_beyond_iterates(self, compose_calls):
        # y^k x^i only composes to extend the f-iterates, up to f^(k+i-1);
        # the closed form of a linear f reads no iterate at all
        Presentation(parse_poly("h^2 + 1"))._middle(3, 3)
        assert len(compose_calls) <= 3 + 3
        compose_calls.clear()
        Presentation(parse_poly("2*h - 1"))._middle(12, 12)
        assert compose_calls == []

    def test_product_composes_only_to_extend_iterates(self, compose_calls):
        # constant coefficients are not composed with f^(a), and f^(1) is f
        # itself, so the product y^3 * x^3 composes exactly the 4 times
        # that build f^(2..5)
        pres = Presentation(parse_poly("h^2 + 1"))
        y, x = pres.generator("y"), pres.generator("x")
        _ = (y ** 3) * (x ** 3)
        assert len(compose_calls) == 4

    @pytest.mark.parametrize("first, cells", [((0, 1), 1), ((1, 0), 1), ((2, 3), 6), ((3, 3), 10)], ids=str)
    def test_later_reads_inside_the_trapezoid_are_memo_reads(self, first, cells):
        # y^k x^i, k <= i, fills (m+1)(m+2)/2 cells, m = k; every cell of its
        # trapezoid, either way round, is read back with no reduction
        pres = Presentation(parse_poly("h^2 + 1"))
        pres._middle(*first)
        assert pres.middle_reductions == cells
        k, i = sorted(first)
        for kk in range(k + 1):
            for ii in range(i - k + kk, i + 1):
                pres._middle(kk, ii)
                pres._middle(ii, kk)
        assert pres.middle_reductions == cells

    def test_middle_fills_only_the_trapezoid(self):
        # y^k x^i, k <= i, reads the cells (kk, ii) with i-k+kk <= ii <= i,
        # and y^k x^i, k > i, is read off y^i x^k
        for (k, i), cells in {(2, 5): 6, (5, 2): 6, (4, 8): 15, (8, 4): 15}.items():
            pres = Presentation(parse_poly("h^2 + 1"))
            pres._middle(k, i)
            assert pres.middle_reductions == cells, (k, i)

    def test_trapezoids_filled_in_any_order_agree(self):
        f = parse_poly("zeta(3)*h^2 + 1")
        pres = Presentation(f)
        for k, i in ((2, 3), (3, 2), (3, 3)):
            pres._middle(k, i)
        # 6, then none for (3, 2), then the 4 cells of the (3, 3)
        # trapezoid not filled before
        assert pres.middle_reductions == 10
        fresh = Presentation(f)
        fresh._middle(3, 3)
        # every filled cell, read through the memo of normal forms
        for cell in list(fresh._middles):
            assert pres._middle(*cell) == fresh._middle(*cell), cell
        oracle = Presentation(f)
        x, y = oracle.generator("x"), oracle.generator("y")
        one = FreeModuleElement.one()
        for k, i in {c for cell in list(pres._middles) for c in (cell, cell[::-1])}:
            v = one
            for letter in [x] * i + [y] * k:
                v = free_module_action(letter, v)
            assert free_module_action(GHAElement(oracle, pres._middle(k, i)), one) == v, (k, i)

    def test_product_composes_each_composite_once(self, compose_rows_calls):
        pres = Presentation(parse_poly("h^2 + 1"))
        pres._middle(3, 3)
        a = parse_element("x*(h^2+1)*y^3 + (h-2)*y^2 + x^2*h*y^3", pres)
        b = parse_element("x^3*(h+1)*y + x^2*(2*h^2-1) + x^3*h*y^2", pres)
        compose_rows_calls.clear()
        product = a * b
        # each g(f^(a)) once per product: 18 compositions, not one per middle term
        assert len(compose_rows_calls) == 18
        one = FreeModuleElement.one()
        assert free_module_action(product, one) == free_module_action(a, free_module_action(b, one))

    def test_product_of_monomials_multiplies_no_rows(self, monkeypatch):
        # y^k * x^k is the middle itself: every factor of the product path
        # is an exact 1, so it multiplies neither rows nor Polys and keeps
        # the memo's own Polys, of the closed form of a linear f and of the
        # trapezoid fill of a quadratic one
        mul_rows, poly_mul = scalars._mul_rows, Poly.__mul__
        calls = []
        monkeypatch.setattr(scalars, "_mul_rows", lambda *args: calls.append("rows") or mul_rows(*args))
        monkeypatch.setattr(Poly, "__mul__", lambda *args: calls.append("Poly") or poly_mul(*args))
        for f_text, k in (("2*h - 1", 10), ("h^2 + 1", 3)):
            pres = Presentation(parse_poly(f_text))
            middle = pres._middle(k, k)
            yk, xi = pres.generator("y") ** k, pres.generator("x") ** k
            calls.clear()
            product = yk * xi
            assert calls == [], f_text
            assert product.terms == middle, f_text
            # every term but the leading 1, which may be either factor's 1
            assert all(product.terms[ab] is p for ab, p in middle.items() if ab != (k, k)), f_text

    @pytest.mark.parametrize("f_text, backend, k", [("h^2 + 1", "exact", 3), ("zeta(3)*h + 1", "approx", 6)])
    def test_fill_multiplies_no_poly(self, monkeypatch, f_text, backend, k):
        # each trapezoid step is a product and a sum of entries on numerator
        # rows: once the iterates are built, a fresh fill calls no
        # Poly.__mul__, and every cell it keeps maps its terms to Polys
        f = parse_poly(f_text, backend)
        iterate(f, 2 * k - 1)
        pres = Presentation(f)
        poly_mul = Poly.__mul__
        calls = []
        monkeypatch.setattr(Poly, "__mul__", lambda *args: calls.append(args) or poly_mul(*args))
        pres._middle(k, k)
        assert calls == [] and pres.middle_reductions == (k + 1) * (k + 2) // 2
        assert all(type(p) is Poly and not p.is_zero() for cell in pres._middles.values() for p in cell.values())

    @pytest.mark.parametrize(
        "f_text, k, i", [("2*h - 1", 7, 9), ("zeta(5)*h + 1/2", 12, 12), ("2*zeta(5)*h + 1/3", 6, 8)]
    )
    def test_closed_form_multiplies_no_poly(self, monkeypatch, f_text, k, i):
        # the q-integers, the g_j and the powers of f - h are all forms
        # multiplied by the shared form routines, so the closed form of a
        # linear f calls no Poly.__mul__ and reduces no cell
        f = parse_poly(f_text)
        pres = Presentation(f)
        poly_mul = Poly.__mul__
        calls = []
        monkeypatch.setattr(Poly, "__mul__", lambda *args: calls.append(args) or poly_mul(*args))
        middle = pres._middle(k, i)
        assert calls == [] and pres.middle_reductions == 0
        assert all(type(p) is Poly and not p.is_zero() for p in middle.values())

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


class TestIterateCache:
    """iterate keeps f^(0), f^(1), ... with f, and every reader shares it."""

    @pytest.mark.parametrize(
        "f_text, first, again",
        [
            # f^(3) = h: f^(2) and f^(3) once, then z + f^(i)(-z) for i = 1, 2, 3
            ("zeta(3)*h", 5, 3),
            # f^(2) and f^(3) once, then the closure z + f^(3)(-z); the
            # 3-cycles do not split over Q, and grouping them only evaluates
            # f.approx(), which composes nothing
            ("h^2 - 1", 3, 1),
        ],
    )
    def test_enumerate_simples_builds_each_iterate_once(self, compose_calls, f_text, first, again):
        f = parse_poly(f_text)
        enumerate_simples(f, 3)
        assert len(compose_calls) == first
        compose_calls.clear()
        # a second call reads the exact iterates back and builds none
        enumerate_simples(f, 3)
        assert len(compose_calls) == again

    def test_presentation_reads_the_iterates_of_f(self, compose_calls):
        f = parse_poly("h^2 + 1")
        f3 = iterate(f, 3)
        assert len(compose_calls) == 2
        pres = Presentation(f)
        assert pres.f_iterate(3) is f3
        assert pres.f_iterate(2) is iterate(f, 2)
        assert len(compose_calls) == 2

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_start_without_the_iterates(self, clone, backend):
        f = parse_poly("h^2 + 1", backend)
        iterate(f, 3)
        g = clone(f)
        assert g == f and g is not f
        assert not hasattr(g, "_iterates")
        assert len(f._iterates) == 4

    def test_refused_extension_leaves_the_iterates(self, compose_calls, monkeypatch):
        f = parse_poly("h^2")
        kept = [iterate(f, i) for i in range(4)]
        with pytest.raises(DegreeOverflowError):
            iterate(f, 13)
        assert len(f._iterates) == 4
        assert all(a is b for a, b in zip(f._iterates, kept))
        # an iterate already built is returned without checking the guard again
        monkeypatch.setattr(CONFIG, "max_compose_degree", 4)
        assert iterate(f, 3) is kept[3]
        with pytest.raises(DegreeOverflowError):
            iterate(f, 4)
        assert len(compose_calls) == 2 and len(f._iterates) == 4


# f with f^(p) = h, the period p: x^p and y^p are central
PERIODIC = {
    "zeta(3)*h + 1": 3,
    "i*h": 4,
    "-h + 1": 2,
    "zeta(6)*h - 2": 6,
    "zeta(5)*h + 1/2": 5,
    "h": 1,
}


class TestPeriodicF:
    """A periodic f is composed up to f^(p) only, and since x^p and y^p are
    central, y^k x^i is the base cell y^(k mod p) x^(i mod p) shifted by
    x^(i - i mod p) on the left and y^(k - k mod p) on the right."""

    @pytest.mark.parametrize("f_text, p", PERIODIC.items())
    def test_iterate_stops_at_the_period(self, compose_calls, f_text, p):
        f = parse_poly(f_text)
        assert [iterate(f, j) for j in range(4 * p)] == [iterate(f, j % p) for j in range(4 * p)]
        assert iterate(f, 4 * p - 1) is iterate(f, p - 1)
        # f^(2..p), the last of which is h
        assert len(compose_calls) == p - 1
        assert len(f._iterates) == p

    def test_approximate_f_keeps_composing(self):
        f = parse_poly("zeta(3)*h + 1", "approx")
        assert iterate(f, 7) == iterate(f, 1)
        assert len(f._iterates) == 8

    @pytest.mark.parametrize("f_text, p", PERIODIC.items())
    def test_cells_match_the_free_module(self, f_text, p):
        f = parse_poly(f_text)
        pres, oracle = Presentation(f), Presentation(parse_poly(f_text))
        x, y = oracle.generator("x"), oracle.generator("y")
        v = FreeModuleElement.one()
        for i in range(3 * p + 1):
            # w is y^k x^i acting on 1, one letter at a time
            w = v
            for k in range(3 * p + 1):
                got = free_module_action(GHAElement(oracle, pres._middle(k, i)), FreeModuleElement.one())
                assert got == w, (f_text, k, i)
                w = free_module_action(y, w)
            v = free_module_action(x, v)

    @pytest.mark.parametrize("f_text, p", PERIODIC.items())
    def test_reductions_stay_within_the_base_block(self, f_text, p):
        # read in any order, every cell is its base cell shifted, whose sum
        # stops where a numerator [k-t] or [i-t] is 0, at
        # t = min(k mod p, i mod p); the closed form makes no reduction
        cells = [(k, i) for k in range(3 * p + 1) for i in range(3 * p + 1)]
        for seed in range(3):
            random.Random(seed).shuffle(cells)
            pres, base = Presentation(parse_poly(f_text)), Presentation(parse_poly(f_text))
            for k, i in cells:
                da, db = i - i % p, k - k % p
                shifted = {(a + da, b + db): q for (a, b), q in base._middle(k % p, i % p).items()}
                assert pres._middle(k, i) == shifted, (seed, k, i)
                assert len(shifted) == min(k % p, i % p) + 1, (seed, k, i)
            assert pres.middle_reductions == base.middle_reductions == 0

    @pytest.mark.parametrize("f_text, p", PERIODIC.items())
    @pytest.mark.parametrize("first", [(0, 1), (1, 0), (2, 3), (3, 3)], ids=str)
    def test_later_reads_are_memo_reads(self, f_text, p, first):
        # a cell read again is the map the first read kept
        pres = Presentation(parse_poly(f_text))
        cells = [(first[0] * p, first[1] * p + 1)]
        cells += [(k, i) for k in range(3 * p + 1) for i in range(3 * p + 1)]
        kept = {cell: pres._middle(*cell) for cell in cells}
        assert all(pres._middle(*cell) is kept[cell] for cell in cells)
        assert pres.middle_reductions == 0

    def test_product_past_the_period_matches_the_free_module(self):
        pres = Presentation(parse_poly("zeta(3)*h + 1"))
        a = parse_element("x^2*(h^2 + 1)*y^4 + y^5", pres)
        b = parse_element("x^4*(h - 1) + h*y^3", pres)
        product = a * b
        # its composites g o f^(3) are g itself
        assert pres.f_iterate(3) == Poly.variable()
        one = FreeModuleElement.one()
        assert free_module_action(product, one) == free_module_action(a, free_module_action(b, one))


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
            ("3", 3),
            ("h", 3),
            ("2*h - 1", 6),
            ("h/2 + 1/3", 6),
            # constant shifts, so terms with constant coefficients: over a
            # denominator, and not rational
            ("h - 1/2", 4),
            ("h + zeta(3)", 4),
            ("h^2", 3),
            ("h^2 + 1", 3),
            ("h^3 - h", 3),
            ("h^2/2 + 1/3", 3),
            ("zeta(3)*h", 6),
            ("zeta(3)*h + 1", 6),
            # conductor 12, the lcm of 3 and 4; the y^k x^i with k > i up to
            # y^5 x^4 are read off y^i x^k
            ("zeta(3)*h + i", 3),
            ("zeta(3)*h + i", 5),
        ],
    )
    def test_middles_match_letter_by_letter_action(self, f, top, backend="exact"):
        # the normal form of y^k x^i acts on 1 like x i times, then y k times
        pres = Presentation(parse_poly(f, backend))
        x, y = pres.generator("x"), pres.generator("y")
        one = FreeModuleElement.basis(0, 0, 0, backend)
        xs = one
        for i in range(top + 1):
            v = xs
            for k in range(top + 1):
                assert free_module_action(y**k * x**i, one) == v, (k, i)
                v = free_module_action(y, v)
            xs = free_module_action(x, xs)

    @pytest.mark.parametrize("f", ["h/2 + 1/3", "zeta(3)*h + 1"])
    def test_approx_middles_match_letter_by_letter_action(self, f):
        self.test_middles_match_letter_by_letter_action(f, 3, "approx")


# one f of every class of exact f of degree <= 1: alpha rational or
# cyclotomic and no root of unity, alpha a root of unity != 1 (periodic f),
# translations, f = h and constants
LINEAR = [
    "2*h + 1",
    "h/2 + 1/3",
    "2*zeta(5)*h + 1/3",
    "-h + 1",
    "i*h",
    "zeta(3)*h + 1",
    "zeta(6)*h - 2",
    "zeta(5)*h + 1/2",
    "h + 1",
    "h - 1/2",
    "h",
    "3",
    "0",
]


class TestClosedForm:
    """An exact f = alpha*h + c reads y^k x^i off the closed form

        y^k x^i = sum_j g_j x^(i-j) (f(h) - h)^j y^(k-j),
        g_j = prod_{t < j} [k-t][i-t] / [t+1],   [n] = 1 + ... + alpha^(n-1),

    and fills no trapezoid."""

    @pytest.mark.parametrize("f", LINEAR)
    def test_middles_match_letter_by_letter_action(self, f):
        pres = Presentation(parse_poly(f))
        x, y = pres.generator("x"), pres.generator("y")
        one = FreeModuleElement.one()
        xs = one
        for i in range(9):
            # v is y^k x^i acting on 1, one letter at a time
            v = xs
            for k in range(9):
                got = free_module_action(GHAElement(pres, pres._middle(k, i)), one)
                assert got == v, (f, k, i)
                v = free_module_action(y, v)
            xs = free_module_action(x, xs)
        assert pres.middle_reductions == 0

    @pytest.mark.parametrize("f, c", [("h + 1", 1), ("h - 1/2", Fraction(-1, 2))])
    def test_weyl_case(self, f, c):
        # alpha = 1: [n] = n, so g_j = j! C(k, j) C(i, j), and f - h = c
        pres = Presentation(parse_poly(f))
        for k in range(7):
            for i in range(7):
                want = {
                    (i - j, k - j): Poly.constant(
                        math.factorial(j) * math.comb(k, j) * math.comb(i, j) * c**j
                    )
                    for j in range(min(k, i) + 1)
                }
                assert pres._middle(k, i) == want, (k, i)
        assert pres.middle_reductions == 0


class TestCentralProduct:
    """z = xy - h is central and y g(h) = g(f(h)) y, so

        y^k x^k = prod_{j=1..k} (z + f^(j)(h)),   y^k x^i = (y^k x^k) x^(i-k).

    The product side, in a presentation of its own, reads only the cells
    y^a x^b with min(a, b) <= 1; the left side reads the whole trapezoid of
    y^k x^i, or the closed form of a linear f, at sizes the letter-by-letter
    oracle cannot reach."""

    @pytest.mark.parametrize(
        "f, k",
        [
            ("2*h + 1", 60),
            ("h^2 - 2", 4),
            # period 3: the left side is read off the base block
            ("zeta(3)*h + 1", 8),
            ("h^3 - h", 3),
            ("2*zeta(5)*h + 1/3", 20),
            ("h^2/2 + zeta(4)", 4),
        ],
    )
    def test_middle_is_a_product_of_central_shifts(self, f, k):
        left, right = Presentation(parse_poly(f)), Presentation(parse_poly(f))
        x, y = left.generator("x"), left.generator("y")
        z = right.generator("z")
        product = right.one()
        for j in range(1, k + 1):
            product = product * (z + right.from_poly(right.f_iterate(j)))
        assert right.middle_reductions <= 2 * k - 1
        assert y**k * x**k == product
        assert y**k * x ** (k + 1) == product * right.generator("x")


def tau(a: GHAElement) -> GHAElement:
    """The anti-automorphism x <-> y, h -> h on a normal form:
    x^i g(h) y^k -> x^k g(h) y^i."""
    return GHAElement(a.presentation, {(k, i): g for (i, k), g in a.terms.items()})


def random_element(rng: random.Random, pres: Presentation, cap: int) -> GHAElement:
    """A sum of 3 terms x^i g(h) y^k with i, k <= cap, deg g <= 2 and
    coefficients q * zeta(3)^j, q rational."""
    backend = pres.f.backend
    w = parse_scalar("zeta(3)", backend)
    out = pres.zero()
    for _ in range(3):
        g = Poly(
            [
                as_scalar(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))), backend)
                * w ** rng.randint(0, 2)
                for _ in range(rng.randint(1, 3))
            ]
        )
        out = out + pres.monomial(rng.randint(0, cap), g, rng.randint(0, cap))
    return out


class TestAntiAutomorphism:
    """x <-> y, h -> h reverses products: tau(a*b) == tau(b)*tau(a).  The
    two sides read the middles y^k x^i and y^i x^k of each other."""

    @pytest.mark.parametrize(
        "f, cap",
        [("h^2 + 1", 3), ("2*h - 1", 3), ("h/2 + 1/3", 3), ("zeta(3)*h + 1", 3), ("h^3 - h", 2)],
    )
    def test_reverses_products(self, f, cap):
        rng = random.Random(f"tau {f}")
        pres = Presentation(parse_poly(f))
        for _ in range(30):
            a, b = random_element(rng, pres, cap), random_element(rng, pres, cap)
            assert tau(a * b) == tau(b) * tau(a)

    @pytest.mark.parametrize("f", ["h/2 + 1/3", "zeta(3)*h + 1"])
    def test_reverses_approximate_products(self, f):
        rng = random.Random(f"tau approx {f}")
        pres = Presentation(parse_poly(f, "approx"))
        for _ in range(30):
            a, b = random_element(rng, pres, 3), random_element(rng, pres, 3)
            left = tau(a * b)
            diff = left - tau(b) * tau(a)
            scale = max(abs(c.value) for g in left.terms.values() for c in g.coeffs)
            assert all(abs(c.value) <= 1e-12 * scale for g in diff.terms.values() for c in g.coeffs)


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
    """x^a*c and c*y^b with c constant are raised to a power directly, and
    an element g(h) in h alone as the Poly g; every other element goes
    through repeated squaring.  All must agree with repeated products and
    with the free-module action."""

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
        # g(h) squares as a Poly, not through the element products
        assert len(power_calls) == (0 if set(a.terms) == {(0, 0)} else 2)

    @pytest.mark.parametrize(
        "backend, f, text, k",
        [
            ("exact", "h^2 + 1", "h + 1", 30),
            ("exact", "zeta(3)*h + 1", "zeta(4)*h - 1/3", 17),
            ("approx", "h^2 + 1", "0.5*h + 1.25", 9),
        ],
    )
    def test_powers_in_h_alone_are_poly_powers(self, monkeypatch, backend, f, text, k):
        a = parse_element(text, Presentation(parse_poly(f, backend)))
        calls = []
        mul_terms = Presentation._mul_terms
        monkeypatch.setattr(Presentation, "_mul_terms", lambda *args: calls.append(1) or mul_terms(*args))
        got = a**k
        assert calls == []
        assert got.terms == {(0, 0): parse_poly(text, backend) ** k}

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

    def test_terms_near_zero_print_in_full(self):
        # a coefficient within CONFIG.tol of 0 is a term like any other: it
        # prints, and the text parses back to the same terms
        pres = Presentation(parse_poly("0.5*h", "approx"))
        tiny = Poly([approx(1e-12)])
        e = pres.monomial(1, tiny, 1)
        assert str(tiny) == "1e-12" and str(pres.from_poly(tiny)) == "1e-12"
        assert str(e) == "x*1e-12*y" and not e.is_zero()
        total = e + pres.generator("x")
        assert str(total) == "x*1e-12*y + x"
        back = parse_element(str(total), pres)
        assert {ik: g._num for ik, g in back.terms.items()} == {ik: g._num for ik, g in total.terms.items()}
