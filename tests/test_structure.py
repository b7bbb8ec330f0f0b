"""Center computation and the isomorphism decision."""

import random
from fractions import Fraction

import pytest

from gha.algebra import Presentation, is_central
from gha.parser import parse_poly
from gha.polys import Poly, iterate
from gha.scalars import BackendMismatchError, approx, exact, zeta
from gha.structure import (
    CYCLOTOMIC,
    TRIVIAL_CZ,
    affine_conjugate,
    center,
    compositional_inverse_linear,
    iso_check,
)

H = Poly.variable()


def P(*coeffs):
    return Poly([exact(c) for c in coeffs])


class TestCenter:
    def test_cyclotomic_case_order_three(self):
        desc = center(parse_poly("zeta(3)*h"))
        assert desc.case == CYCLOTOMIC
        assert desc.l == 3
        assert desc.c == exact(0)
        names = [str(g) for g in desc.generators]
        assert names == ["x^3", "y^3", "h^3", "x*y + (-1)*h"]

    def test_every_generator_is_central(self):
        # on the approx backend the commutators carry roundoff, so centrality
        # is closeness of a*g and g*a, not an exact zero
        for backend, extra in (("exact", ()), ("approx", ("zeta(5)*h + 1",))):
            for text in ("zeta(3)*h", "-h + 4", "h", "h^2", "2*h + 3", *extra):
                f = parse_poly(text, backend)
                for g in center(f).generators:
                    assert is_central(g), f"{g} not central for f = {f}"

    def test_reflection_case(self):
        desc = center(parse_poly("-h + 4"))
        assert desc.case == CYCLOTOMIC
        assert desc.l == 2
        assert desc.c == exact(2)

    def test_identity_f(self):
        desc = center(parse_poly("h"))
        assert desc.case == CYCLOTOMIC
        assert desc.l == 1
        names = {str(g) for g in desc.generators}
        assert names == {"x", "y", "h", "x*y + (-1)*h"}

    def test_trivial_cases(self):
        for text in ("h^2", "2*h + 3", "h + 1", "5"):
            desc = center(parse_poly(text))
            assert desc.case == TRIVIAL_CZ, text
            assert len(desc.generators) == 1
            assert str(desc.generators[0]) == "x*y + (-1)*h"

    def test_noncentral_controls(self):
        pres = Presentation(parse_poly("h^2"))
        for name in ("x", "y", "h"):
            assert not is_central(pres.generator(name))
        assert not is_central(pres.generator("x") * pres.generator("y"))


def iterate_period(f: Poly, n: int) -> int | None:
    """The p with f^(p) = h at which iterate stops composing, once it has
    built f^(1..n); None when it has found none.  Only a linear f can have
    one (f^(p) has degree deg(f)**p), so no other f is composed."""
    if f.degree != 1:
        return None
    iterate(f, n)
    return len(f._iterates) if type(f._iterates) is tuple else None


class TestPeriodOfTheRewritingCore:
    """The period at which iterate stops composing, which every product's
    composites g(f^(a)) read, is the l of the center theorem: x^l and y^l
    are central exactly when f^(l) = h.  For l > 1 it is also where the
    q-integers of the closed form of y^k x^i first vanish, [l] = 0."""

    @pytest.mark.parametrize(
        "text",
        [f"zeta({l})*h + {b}" for l in range(3, 7) for b in ("0", "1", "-2", "1/2", "zeta(4)")]
        + ["-h + 1", "-h", "h"],
    )
    def test_period_is_the_center_l(self, text):
        f = parse_poly(text)
        desc = center(f)
        assert desc.case == CYCLOTOMIC
        assert iterate_period(f, 3 * desc.l) == desc.l
        pres = Presentation(f)
        pres._middle(3 * desc.l, 3 * desc.l)
        assert pres._q_period == (desc.l if desc.l > 1 else None)

    @pytest.mark.parametrize("text", ["2*h - 1", "h + 1", "h^2", "3"])
    def test_no_period_without_cyclotomic_center(self, text):
        f = parse_poly(text)
        assert center(f).l is None
        assert iterate_period(f, 30) is None

    def test_no_period_on_the_approx_backend(self):
        assert iterate_period(parse_poly("zeta(3)*h", "approx"), 30) is None


class TestAffineConjugate:
    def test_identity(self):
        f = P(1, 2, 3)
        assert affine_conjugate(f, exact(1), exact(0)) == f

    def test_scaling_squares(self):
        got = affine_conjugate(P(0, 0, 1), exact(4), exact(0))
        assert got == Poly([exact(0), exact(0), exact(Fraction(1, 4))])

    def test_group_law(self, rng):
        for _ in range(10):
            f = P(*[rng.randint(-3, 3) for _ in range(rng.randint(2, 4))])
            a1, a2 = exact(rng.choice([1, 2, 3, -1])), exact(rng.choice([1, 2, -2]))
            c1, c2 = exact(rng.randint(-2, 2)), exact(rng.randint(-2, 2))
            lhs = affine_conjugate(affine_conjugate(f, a1, c1), a2, c2)
            rhs = affine_conjugate(f, a2 * a1, a2 * c1 + c2)
            assert lhs == rhs

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            affine_conjugate(P(0, 1), exact(0), exact(0))

    def test_inverse_of_linear(self):
        f = P(3, 2)  # 2h + 3
        g = compositional_inverse_linear(f)
        assert f.compose(g) == H
        assert g.compose(f) == H


class TestIsoTable:
    """The verdict table from the classification of H(f1) = H(f2)."""

    def test_constants_always_isomorphic(self):
        v = iso_check(P(5), P(-2))
        assert v.isomorphic and v.case == 1
        assert v.witness is None

    def test_identity_pair(self):
        v = iso_check(P(0, 1), P(0, 1))
        assert v.isomorphic and v.case == 2

    def test_translations(self):
        v = iso_check(P(1, 1), P(5, 1))  # h+1 vs h+5
        assert v.isomorphic and v.case == 3
        assert v.witness is not None
        a = v.witness.a
        assert affine_conjugate(P(1, 1), a, v.witness.c) == P(5, 1)

    def test_slope_and_inverse_slope(self):
        v = iso_check(parse_poly("2*h + 1"), parse_poly("h/2"))
        assert v.isomorphic and v.case == 4
        assert v.witness is not None and v.witness.swapped
        # the witness conjugates the compositional inverse of f1 onto f2
        inv = compositional_inverse_linear(parse_poly("2*h + 1"))
        assert affine_conjugate(inv, v.witness.a, v.witness.c) == parse_poly("h/2")

    def test_equal_slopes_different_shift(self):
        v = iso_check(parse_poly("3*h"), parse_poly("3*h + 2"))
        assert v.isomorphic and v.case == 4
        assert not v.witness.swapped
        assert affine_conjugate(parse_poly("3*h"), v.witness.a, v.witness.c) == parse_poly("3*h + 2")

    def test_distinct_slopes_not_isomorphic(self):
        v = iso_check(parse_poly("2*h"), parse_poly("3*h"))
        assert not v.isomorphic

    def test_shifted_square_not_isomorphic(self):
        v = iso_check(parse_poly("h^2"), parse_poly("h^2 + 1"))
        assert not v.isomorphic

    def test_mixed_degrees_not_isomorphic(self):
        assert not iso_check(parse_poly("h"), parse_poly("h^2")).isomorphic
        assert not iso_check(parse_poly("3"), parse_poly("h")).isomorphic

    def test_backend_mix_rejected(self):
        with pytest.raises(BackendMismatchError):
            iso_check(P(0, 0, 1), Poly([approx(0.0), approx(1.0)]))


class TestIsoHigherDegree:
    def test_conjugates_detected_exactly(self, rng):
        for _ in range(12):
            deg = rng.randint(2, 4)
            cs = [exact(rng.randint(-3, 3)) for _ in range(deg)]
            cs.append(exact(rng.choice([1, 2, -1, 3])))
            f1 = Poly(cs)
            a = exact(rng.choice([1, 2, -1, Fraction(1, 2), 3]))
            c = exact(rng.randint(-3, 3))
            f2 = affine_conjugate(f1, a, c)
            v = iso_check(f1, f2)
            assert v.isomorphic and v.case == 5, (str(f1), str(f2))
            assert affine_conjugate(f1, v.witness.a, v.witness.c) == f2
            assert not v.numeric_witness

    def test_symmetry(self):
        f1 = parse_poly("h^3 + h")
        f2 = affine_conjugate(f1, exact(2), exact(1))
        assert iso_check(f1, f2).isomorphic
        assert iso_check(f2, f1).isomorphic

    def test_cyclotomic_witness_needs_conductor(self):
        f1 = parse_poly("h^3")
        f2 = affine_conjugate(f1, zeta(4), exact(0))
        hinted = iso_check(f1, f2, conductor=4)
        assert hinted.isomorphic and not hinted.numeric_witness
        assert affine_conjugate(f1, hinted.witness.a, hinted.witness.c) == f2
        # without the hint the witness is only found numerically
        unhinted = iso_check(f1, f2)
        assert unhinted.isomorphic and unhinted.numeric_witness
        assert "numerically" in unhinted.detail

    def test_irrational_scale_numeric_witness(self):
        # a^2 = 2 has no rational (or small cyclotomic) solution
        v = iso_check(parse_poly("h^3"), parse_poly("h^3/2"))
        assert v.isomorphic and v.case == 5
        assert v.numeric_witness

    def test_non_conjugate_same_degree(self):
        v = iso_check(parse_poly("h^3"), parse_poly("h^3 + h"))
        assert not v.isomorphic

    def test_nearly_conjugate_pair_is_not_isomorphic(self):
        # f2(a*h + c) = a*f1(h) + c forces c = 0 from the h^2 coefficient,
        # and then the h coefficient a/10^13 is not 0
        v = iso_check(parse_poly("h^3"), parse_poly("2*h^3 + h/10000000000000"))
        assert not v.isomorphic

    @pytest.mark.parametrize(
        "f1_text, f2_text",
        [("h^3 + h", "2*h^3 + h + 1/10000000000000"), ("h^4", "3*h^4 + h^2/10000000000000")],
    )
    def test_other_nearly_conjugate_pairs_are_not_isomorphic(self, f1_text, f2_text):
        # each pair is conjugate up to one coefficient of size 10^-13, which
        # the closeness rule of the approx backend would not see
        v = iso_check(parse_poly(f1_text), parse_poly(f2_text))
        assert not v.isomorphic and v.witness is None

    def test_euclid_on_exponents_finds_a_clash(self):
        # a^3 = 8 from h^4 and a = -2 from h^2 have no common solution
        v = iso_check(parse_poly("h^4 + h^2"), parse_poly("h^4/8 - h^2/2"))
        assert not v.isomorphic

    def test_euclid_on_exponents_finds_the_common_root(self):
        # a^4 = 16 from h^5 and a = -2 from h^2 agree on a = -2
        f1, f2 = parse_poly("h^5 + h^2"), parse_poly("h^5/16 - h^2/2")
        v = iso_check(f1, f2)
        assert v.isomorphic and v.case == 5 and not v.numeric_witness
        assert (v.witness.a, v.witness.c) == (exact(-2), exact(0))
        assert affine_conjugate(f1, v.witness.a, v.witness.c) == f2

    @pytest.mark.parametrize("seed", range(8))
    def test_approx_witness_conjugates(self, seed):
        # seeded conjugate pairs of degree 2 and 3, drawn as the census draws
        # its isomorphism pairs, decided on the approx backend
        rng = random.Random(seed)
        small = [-3, -2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-1, 3)]
        nonzero = [-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]
        for deg in (2, 3):
            f1 = Poly([exact(rng.choice(small)) for _ in range(deg)] + [exact(rng.choice(nonzero))])
            f2 = affine_conjugate(f1, exact(rng.choice(nonzero)), exact(rng.choice(small)))
            g1, g2 = f1.approx(), f2.approx()
            v = iso_check(g1, g2)
            assert v.isomorphic and v.case == 5 and v.numeric_witness, (str(f1), str(f2))
            assert affine_conjugate(g1, v.witness.a, v.witness.c) == g2, (str(f1), str(f2))
