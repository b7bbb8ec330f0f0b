import copy
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gha import polys, scalars
from gha.algebra import GHAElement, Presentation
from gha.cli import main
from gha.config import CONFIG
from gha.modules import CyclicXDescriptor, build, is_simple
from gha.parser import parse_poly
from gha.polys import (
    ContinuumOfOrbitsError,
    DegreeOverflowError,
    Orbit,
    Poly,
    _coeff_body,
    _scalar_parts,
    exact_roots,
    iterate,
    orbit_through,
    periodic_points,
    poly_gcd,
    roots,
)
from gha.scalars import (
    BackendMismatchError,
    CyclotomicNumber,
    _lift_rows,
    approx,
    euler_phi,
    exact,
    zeta,
)


def P(*coeffs):
    return Poly([exact(c) for c in coeffs])


H = Poly.variable()

small_polys = st.builds(
    P,
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)


class TestArithmetic:
    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a - a == P(0)

    @given(small_polys, small_polys)
    def test_degree_of_product(self, a, b):
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree == a.degree + b.degree

    def test_zero_degree_convention(self):
        assert P(0).degree == -1
        assert P(7).degree == 0
        assert (H * H).degree == 2

    def test_constants_are_canonical(self):
        for s in (0, Fraction(0), 1, -7, Fraction(-3, 4), 2**70):
            c = Poly.constant(s)
            assert c == Poly([exact(s)])
            assert (c.is_zero(), c.degree) == ((True, -1) if s == 0 else (False, 0))
        assert Poly.variable() == Poly([exact(0), exact(1)]) and Poly.variable().is_identity()
        assert Poly.constant(Fraction(1, 2), "approx") == Poly([approx(0.5)])
        assert Poly.variable("approx").backend == "approx"

    def test_approx_equality_is_norm_wise(self):
        # the largest coefficient gap against the largest coefficient
        p = Poly([approx(1), approx(1e6)])
        assert p == Poly([approx(1 + 1e-5), approx(1e6)])
        assert p != Poly([approx(1 + 1e-2), approx(1e6)])
        assert Poly([approx(1), approx(1)]) != Poly([approx(1 + 1e-8), approx(1)])
        assert Poly([approx(1e-10)]) == 0

    def test_leading_and_coefficient(self):
        f = P(1, 0, 3)
        assert f.leading == exact(3)
        assert f.coefficient(0) == exact(1)
        assert f.coefficient(1) == exact(0)
        assert f.coefficient(99) == exact(0)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _ref_add(a, b):
    zero = exact(0)
    n = max(len(a), len(b))
    return _trim(
        [(a[k] if k < len(a) else zero) + (b[k] if k < len(b) else zero) for k in range(n)]
    )


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [exact(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _ref_str(cs):
    pieces = []
    for k in range(len(cs) - 1, -1, -1):
        if cs[k].is_zero():
            continue
        negated, text, unit = _scalar_parts(cs[k])
        body = _coeff_body(k, text, unit)
        sign = ("-" if negated else "") if not pieces else ("- " if negated else "+ ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def _layout(cs):
    # conductor and coordinates per coefficient: what the text is made from
    return [(c.conductor, c.coords) for c in cs]


def _lift_to(cs, n):
    """cs with every coefficient over Q(zeta_n), n a multiple of each
    conductor: the field an integer-form result over n prints in."""
    return [CyclotomicNumber(n, _lift_rows(c.coords, c.conductor, n)) for c in cs]


def _paired(cases_of, n):
    """cases_of(n) for one field n; for two fields (m1, m2) the first
    member of each case from cases_of(m1) and the second from
    cases_of(m2), so the operands have different conductors."""
    if isinstance(n, int):
        return cases_of(n)
    return [(a, b) for (a, _), (_, b) in zip(cases_of(n[0]), cases_of(n[1]))]


def _element(rng, n, bits):
    roll = rng.random()
    if roll < 0.1:
        return exact(0)
    den = rng.choice([1, 1, 2, 3, 12, 2**61 - 1])
    width = euler_phi(n) if roll > 0.3 else 1
    coords = [Fraction(rng.randint(-(2**bits), 2**bits), den) for _ in range(width)]
    return CyclotomicNumber(n, coords + [0] * (euler_phi(n) - width))


def _conjugate(cs, k):
    """Apply the field automorphism zeta_n -> zeta_n^k to every coefficient."""
    return [
        sum((q * zeta(c.conductor, j * k) for j, q in enumerate(c.coords)), exact(0))
        for c in cs
    ]


FIELDS = [1, 3, 4, 5, 12]
# pairs of fields: one operand over each, the result over their lcm
MIXED = [pytest.param((3, 4), id="3-4"), pytest.param((4, 5), id="4-5")]


def _differential_pairs(n):
    """(a, b) coefficient lists over Q(zeta_n) for the schoolbook comparison."""
    rng = random.Random(1000 + n)
    phi = euler_phi(n)
    pairs = []
    # random coefficients: degrees 0 to 40 and sizes from 1 to 200 bits
    for deg in (0, 1, 2, 3, 5, 8, 13, 21, 40):
        a = [_element(rng, n, rng.choice([0, 3, 64, 200])) for _ in range(deg + 1)]
        b = [_element(rng, n, rng.choice([0, 3, 64, 200])) for _ in range(rng.randint(1, 12))]
        pairs.append((a, b))
    pairs.append(([], pairs[5][0]))
    pairs.append((pairs[7][0], []))
    row = CyclotomicNumber(n, [-(2**63)] * phi)
    pairs.append(([row] * 41, [row] * 3))
    # values at the Kronecker slot boundaries: every product term has the
    # same sign, so a product coefficient reaches len*phi*M*M exactly
    for bits in (1, 8, 64, 200):
        for m in (2 ** (bits - 1), 2**bits - 1):
            row = CyclotomicNumber(n, [m] * phi)
            for length in (1, 8):
                plus, minus = [row] * length, [-row] * length
                pairs.append((plus, plus))
                pairs.append((plus, minus))
                pairs.append((minus, [row if k % 2 else -row for k in range(length)]))
    # cancellation: to a rational result and to zero
    a = [_element(rng, n, 64) for _ in range(10)]
    rational = [exact(rng.randint(-5, 5)) for _ in range(12)]
    pairs.append((a, _ref_add(rational, [-c for c in a])))
    pairs.append((a, [-c for c in a]))
    norm = a
    for k in range(2, n):
        if n > 1 and math.gcd(k, n) == 1:
            norm = _ref_mul(norm, _conjugate(a, k))
    assert all(c.is_rational() for c in norm)
    pairs.append((norm, [exact(Fraction(1, 3))]))
    return pairs


class TestIntegerFormAgainstSchoolbook:
    """Exact Poly arithmetic against a coefficient-by-coefficient schoolbook
    on CyclotomicNumber scalars."""

    @pytest.mark.parametrize("n", FIELDS + MIXED)
    def test_ring_operations(self, n):
        for a, b in _paired(_differential_pairs, n):
            a, b = _trim(a), _trim(b)
            pa, pb = Poly(a), Poly(b)
            assert _layout(pa.coeffs) == _layout(a)
            both = math.lcm(pa.conductor(), pb.conductor())
            cases = [
                (pa * pb, _ref_mul(a, b), both),
                (pa + pb, _ref_add(a, b), both),
                (pa - pb, _ref_add(a, [-c for c in b]), both),
                (-pa, [-c for c in a], pa.conductor()),
            ]
            if len(b) <= 8:
                cases.append((pb * pb, _ref_mul(b, b), pb.conductor()))
            for got, want, field in cases:
                # the schoolbook keeps each coefficient in its own field; the
                # integer form prints them all over the lcm of the operands'
                want = _lift_to(want, field)
                assert _layout(got.coeffs) == _layout(want)
                assert str(got) == _ref_str(want)
                assert got == Poly(want)
                assert got.degree == len(want) - 1
            assert (pa == pb) == (_layout(a) == _layout(b))
            assert pa + Poly([exact(1)]) != pa

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_both_product_paths(self, n, monkeypatch):
        """Operands on both sides of the schoolbook/Kronecker split, with
        coefficients up to 2^200 in size; _pack runs only on the Kronecker
        path, and each pair is also multiplied with each path forced."""
        packs = []
        pack = scalars._pack
        monkeypatch.setattr(scalars, "_pack", lambda *args: packs.append(1) or pack(*args))
        rng = random.Random(3000 + n)
        top = CyclotomicNumber(n, [2**200] * euler_phi(n))
        pairs = []
        for length in (2, 3, 6, 9, 14, 20, 30):
            for bits in (3, 64, 200):
                a = [_element(rng, n, bits) for _ in range(length - 1)] + [top]
                b = [_element(rng, n, bits) for _ in range(rng.randint(2, length + 1))] + [-top]
                pairs.append((a, b))
        default, reached = scalars._SCHOOLBOOK_MAX, set()
        for a, b in pairs:
            pa, pb = Poly(a), Poly(b)
            for x, y, want in ((pa, pb, _ref_mul(a, b)), (pa, pa, _ref_mul(a, a))):
                for limit in (default, 0, 10**9):
                    monkeypatch.setattr(scalars, "_SCHOOLBOOK_MAX", limit)
                    before = len(packs)
                    got = x * y
                    kronecker = len(packs) > before
                    assert kronecker == (len(x._num) * len(y._num) > limit)
                    if limit == default:
                        reached.add(kronecker)
                    assert _layout(got.coeffs) == _layout(want)
                    assert got == Poly(want)
        assert reached == {False, True}

    def test_cancellation_reaches_rational_and_zero(self):
        a = Poly([zeta(3), exact(2), zeta(3) ** 2])
        conj = Poly([zeta(3) ** 2, exact(2), zeta(3)])
        assert (a * conj).conductor() == 1
        assert str(a * conj) == "h^4 - 2*h^3 + 3*h^2 - 2*h + 1"
        assert (a - a).is_zero() and str(a - a) == "0"
        assert (a + Poly([-zeta(3)])).coefficient(0) == exact(0)

    def test_mixed_conductors_print_over_the_lcm(self):
        assert str(Poly([zeta(4), 1]) * Poly([zeta(3), 1])) == (
            "h^2 + (-1 + zeta(12)^2 + zeta(12)^3)*h + -zeta(12)"
        )
        assert str(Poly([zeta(4)]) + Poly([0, zeta(3)])) == "(-1 + zeta(12)^2)*h + zeta(12)^3"
        # however the polynomial is spelled, it is one integer form
        spelled = [Poly([zeta(4), zeta(3)]), Poly([zeta(12, 3), zeta(12, 4)])]
        assert [(p._n, p._den, p._num) for p in spelled] == [(12, 1, (0, 0, 0, 1, -1, 0, 1, 0))] * 2
        # a value over 12 equals its spelling over 3, which lifts to 12
        assert Poly([zeta(4), zeta(3)]) - Poly([zeta(4)]) == Poly([0, zeta(3)])

    def test_sparse_iterate(self):
        assert iterate(H * H, 6) == Poly([0] * 64 + [1])
        assert str(iterate(H * H, 6)) == "h^64"


class _ScalarTwin:
    """The exact Poly p read as a tuple of scalars, each of which prints
    through _scalar_parts; it stands in for p in str and in element terms."""

    def __init__(self, p):
        self.cs = p.coeffs

    def is_zero(self):
        return not self.cs

    def _terms(self):
        return [(k, *polys._scalar_parts(c)) for k, c in enumerate(self.cs) if not c.is_zero()]

    def __str__(self):
        return polys._terms_text(self._terms())


class TestIntegerPrinter:
    """A rational Poly prints from its integer numerators; the same
    coefficients held as scalars must print the same text, as a Poly and
    inside every kind of element term."""

    PRES = Presentation(Poly([exact(0), exact(0), exact(1)]))
    POOL = [1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(-5, 3),
            Fraction(2**70 + 1, 3), -(2**65)]

    def _texts(self, p):
        """str(p) and the text of x^i p y^k for the spliced (0, 0) term and
        for terms with an x or a y part."""
        yield str(p)
        for ik in ((0, 0), (1, 0), (0, 1), (2, 3)):
            yield str(GHAElement(self.PRES, {ik: p}))

    def test_random_rational_polys(self):
        rng = random.Random(4242)
        for trial in range(300):
            length = rng.choice([1, 1, 2, 3, 5])
            cs = [rng.choice(self.POOL + [0, 0]) for _ in range(length - 1)]
            lead = rng.choice(self.POOL)
            cs.append(-abs(lead) if trial % 3 == 0 else lead)
            p = Poly([exact(c) for c in cs])
            twin = _ScalarTwin(p)
            assert p._n == 1
            assert list(self._texts(p)) == list(self._texts(twin)), cs

    def test_pinned_texts(self):
        p = Poly([exact(-1), exact(Fraction(3, 4)), exact(-1)])
        assert list(self._texts(p)) == [
            "-h^2 + (3/4)*h - 1",
            "(-1)*h^2 + 3/4*h + (-1)",
            "x*(-h^2 + (3/4)*h - 1)",
            "(-h^2 + (3/4)*h - 1)*y",
            "x^2*(-h^2 + (3/4)*h - 1)*y^3",
        ]
        single = Poly([exact(0), exact(0), exact(Fraction(-2, 6))])
        assert list(self._texts(single)) == [
            "-(1/3)*h^2",
            "(-1/3)*h^2",
            "x*(-1/3)*h^2",
            "(-1/3)*h^2*y",
            "x^2*(-1/3)*h^2*y^3",
        ]
        assert list(self._texts(Poly([exact(1)]))) == ["1", "1", "x", "y", "x^2*y^3"]

    def test_coefficients_without_a_clean_sign(self):
        # non-rational and complex coefficients keep the scalar path
        p = Poly([exact(1), exact(-3), exact(1), -zeta(3)])
        assert str(p) == "-zeta(3)*h^3 + h^2 - 3*h + 1"
        assert str(GHAElement(self.PRES, {(0, 0): p})) == "(-zeta(3))*h^3 + h^2 + (-3)*h + 1"
        # an approximate coefficient within tol of 1 is not a unit
        q = Poly([approx(-1j), approx(0), approx(1 + 1e-12j)])
        assert str(q) == "(1.0 + 1e-12*i)*h^2 + -i"
        pres = Presentation(Poly([approx(0), approx(0), approx(1)]))
        assert str(GHAElement(pres, {(0, 0): q})) == "(1.0 + 1e-12*i)*h^2 + (-i)"
        r = Poly([approx(1), approx(-1), approx(1 - 1e-12), approx(-1 - 1e-12)])
        assert str(r) == "-1.000000000001*h^3 + 0.999999999999*h^2 - h + 1.0"


class TestApproxText:
    """The text of an approximate Poly keeps every nonzero coefficient and
    every digit, so it parses back to the same degree and coefficients."""

    @staticmethod
    def _parses_back(p):
        back = parse_poly(str(p), "approx")
        assert back.degree == p.degree and back._num == p._num, str(p)

    @pytest.mark.parametrize(
        "text", ["1e-10*h^2 + h", "1.0000000001*h + 1e-12", "-0.9999999999999999*h^3 + 1e-300", "h + 1"]
    )
    def test_examples(self, text):
        self._parses_back(parse_poly(text, "approx"))

    def test_iso_of_a_degree_mismatch_prints_both_degrees(self, capsys):
        assert main(["--json", "--backend", "approx", "iso", "-f1", "1e-10*h^2 + h", "-f2", "h"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["f1"], doc["f2"], doc["detail"]) == ("1e-10*h^2 + h", "h", "degree mismatch")

    def test_seeded_coefficients(self):
        rng = random.Random(2718)
        pool = [1.0, -1.0, 1 + 1e-12, -1 - 1e-13, 1e-12, -3e-17, 0.5, 2.0, 1e20, 0.0]
        for _ in range(200):
            cs = [
                complex(rng.choice(pool) * rng.uniform(0.5, 2) ** rng.randint(0, 1), rng.choice(pool))
                for _ in range(rng.randint(1, 6))
            ]
            if not cs[-1]:
                cs[-1] = 1j
            self._parses_back(Poly([approx(c) for c in cs]))


class TestComposeEvaluate:
    @given(small_polys, small_polys, st.integers(-4, 4))
    def test_compose_matches_evaluate(self, f, g, t):
        tv = exact(t)
        assert f.compose(g).evaluate(tv) == f.evaluate(g.evaluate(tv))

    def test_iterate_degrees(self):
        f = H * H  # h^2
        for i in range(6):
            assert iterate(f, i).degree == (2 ** i if i else 1)

    def test_compose_with_h_returns_the_outer(self):
        for outer in (P(1, 2, 1), Poly([zeta(3), 0, 2]), Poly()):
            assert outer.compose(H) is outer
        # an approximate h is only close to h: Horner still runs
        outer = P(1, 2, 1).approx()
        composed = outer.compose(H.approx())
        assert composed is not outer and composed == outer

    def test_iterate_base_cases(self):
        f = P(1, 2, 1)
        assert iterate(f, 0) == H
        assert iterate(f, 1) == f

    def test_degree_guard(self):
        f = H * H
        old = CONFIG.max_compose_degree
        CONFIG.max_compose_degree = 64
        try:
            with pytest.raises(DegreeOverflowError):
                iterate(f, 8)
        finally:
            CONFIG.max_compose_degree = old


def _ref_compose(outer, inner):
    """outer(inner(h)) by Horner over coefficient lists of scalars."""
    acc = []
    for c in reversed(outer):
        acc = _ref_add(_ref_mul(acc, inner), [c])
    return acc


def _count_exact(monkeypatch):
    """A list that gains one (den, num) entry per call of polys._exact."""
    calls = []
    real = polys._exact

    def counting(n, den, num):
        calls.append((den, list(num)))
        return real(n, den, num)

    monkeypatch.setattr(polys, "_exact", counting)
    return calls


def _compose_cases(n):
    """(outer, inner) coefficient lists for the row-level compose."""
    rng = random.Random(5000 + n)
    phi = euler_phi(n)
    unit = CyclotomicNumber(n, [1] * phi)
    half_third = [exact(Fraction(1, 3)), exact(Fraction(1, 2))]
    cases = []
    for deg_o, deg_i in ((1, 1), (2, 3), (3, 2), (5, 1), (8, 4), (4, 7)):
        for bits in (3, 64):
            outer = [_element(rng, n, bits) for _ in range(deg_o)] + [unit]
            inner = [_element(rng, n, bits) for _ in range(deg_i)] + [exact(rng.choice([-2, 1, 3]))]
            cases.append((outer, inner))
    rational = [exact(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5]))) for _ in range(4)]
    cyclotomic = [_element(rng, n, 8) for _ in range(3)] + [unit + unit]
    cases += [(rational, cyclotomic), (cyclotomic, rational)]
    # zero and constant outer or inner polynomials
    constant = cyclotomic[-1:]
    cases += [([], cyclotomic), (cyclotomic, []), (constant, cyclotomic), (cyclotomic, constant)]
    cases += [([exact(0), exact(1)], []), (rational, [exact(7)])]
    # inner degree 70: the Horner steps reach the Kronecker path
    cases.append((cyclotomic, [_element(rng, n, 20) for _ in range(70)] + [exact(1)]))
    # denominators up to 2^40, outer degree up to 40, over h/2 + 1/3
    for deg in (10, 40):
        coords = [Fraction(rng.randint(-99, 99), rng.randint(1, 2**40)) for _ in range(deg * phi)]
        outer = [CyclotomicNumber(n, coords[k : k + phi]) for k in range(0, len(coords), phi)]
        cases.append((outer + [exact(Fraction(1, 2**40))], half_third))
    return cases


class TestRowCompose:
    """compose on the numerator rows against Horner over scalars."""

    @pytest.mark.parametrize("n", [1, 3, 5] + MIXED)
    def test_against_scalar_horner(self, n, monkeypatch):
        packs = []
        pack = scalars._pack
        monkeypatch.setattr(scalars, "_pack", lambda *args: packs.append(1) or pack(*args))
        calls = _count_exact(monkeypatch)
        for outer, inner in _paired(_compose_cases, n):
            outer, inner = _trim(outer), _trim(inner)
            po, pi = Poly(outer), Poly(inner)
            # a constant outer, or a zero inner, leaves outer's field
            field = po.conductor()
            if po.degree >= 1 and not pi.is_zero():
                field = math.lcm(field, pi.conductor())
            want = _lift_to(_ref_compose(outer, inner), field)
            calls.clear()
            got = po.compose(pi)
            # taken before Poly(want) below, which canonicalises too
            made = list(calls)
            assert _layout(got.coeffs) == _layout(want)
            assert got == Poly(want)
            assert str(got) == _ref_str(want)
            if po.degree >= 1 and not pi.is_zero():
                # one canonicalisation, of the numerators over den * den_inner^d:
                # they are the result's coordinates times that denominator and
                # never larger, so the per-step gcd is not needed to bound them
                [(den, num)] = made
                assert den == po._den * pi._den ** po.degree
                top = max((abs(q) for c in want for q in c.coords), default=0)
                assert max(map(abs, num)) == den * top
        assert packs, "the inner polynomial of degree 70 reaches the Kronecker path"

    @pytest.mark.parametrize("limit", [0, 10**9])
    def test_both_kernels(self, limit, monkeypatch):
        monkeypatch.setattr(scalars, "_SCHOOLBOOK_MAX", limit)
        for n in (1, 3):
            for outer, inner in _compose_cases(n)[:14]:
                outer, inner = _trim(outer), _trim(inner)
                assert Poly(outer).compose(Poly(inner)) == Poly(_ref_compose(outer, inner))

    def test_mixed_conductors_compose_over_the_lcm(self):
        got = Poly([zeta(4), 1]).compose(Poly([zeta(3), 1]))
        assert got == Poly(_ref_compose([zeta(4), exact(1)], [zeta(3), exact(1)]))
        assert str(got) == "h + -1 + zeta(12)^2 + zeta(12)^3"

    def test_approx_backend(self):
        f = Poly([approx(0.5), approx(0), approx(2)])
        g = Poly([approx(1), approx(-1)])
        assert f.compose(g) == Poly([approx(2.5), approx(-4), approx(2)])


HALF_THIRD = Poly([Fraction(1, 3), Fraction(1, 2)])


class TestCostModel:
    """Integer-form results are made canonical once per operation."""

    def test_one_canonicalisation_per_compose(self, monkeypatch):
        inners = [H * H - P(1), HALF_THIRD, Poly([1, zeta(3)]), Poly([zeta(3), 0, 2]), Poly([zeta(4), 1])]
        outers = [P(0, 1), P(1, -2, 0, 3), Poly([zeta(3), Fraction(1, 7), 0, 1]) ** 3, H**12 + P(5)]
        calls = _count_exact(monkeypatch)
        for outer in outers:
            for inner in inners:
                calls.clear()
                outer.compose(inner)
                assert len(calls) == 1, (str(outer), str(inner))

    def test_one_canonicalisation_per_shift(self, monkeypatch):
        """The middle fill's factor f^(i+b) - f^(b) is one sum with the
        negation, which builds its numerators without canonicalising."""
        calls = _count_exact(monkeypatch)
        for f in (H * H, P(0, -1, 0, 1), HALF_THIRD, Poly([0, zeta(3)]), Poly([1, zeta(3)])):
            pres = Presentation(f)
            pres.f_iterate(5)
            for i in range(1, 4):
                for b in range(3):
                    calls.clear()
                    pres.f_iterate(i + b) - pres.f_iterate(b)
                    assert len(calls) == 1


def _assert_canonical(p):
    assert p._n >= 1
    if p.is_zero():
        assert p is polys._ZERO
        return
    phi, num = euler_phi(p._n), p._num
    assert len(num) % phi == 0 and any(num[-phi:]), "no trailing zero row"
    assert p._den > 0
    assert math.gcd(p._den, *num) == 1
    assert (p._n == 1) == all(c.is_rational() for c in p.coeffs)


class TestCanonicalForm:
    """A seeded walk over +, -, negation, *, rational scaling and compose;
    every integer-form result must be canonical, or == would compare
    unequal forms of equal values."""

    @pytest.mark.parametrize("n", [1, 3, 5] + MIXED)
    def test_random_walk(self, n):
        # a pair of fields draws each coefficient's conductor from the pair
        rng = random.Random(6000 + (n if isinstance(n, int) else 100 * n[0] + n[1]))

        def cyclotomic():
            m = n if isinstance(n, int) else rng.choice(n)
            head = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            tail = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(euler_phi(m) - 1)]
            return CyclotomicNumber(m, [head] + tail)

        def draw():
            cs = [
                cyclotomic() if rng.random() < 0.5 else exact(rng.randint(-2, 2))
                for _ in range(rng.randint(0, 4))
            ]
            return Poly(cs)

        pool = [draw() for _ in range(8)]
        for _ in range(400):
            a = rng.choice(pool)
            b = rng.choice([rng.choice(pool), a, -a, draw()])
            op = rng.randrange(7)
            if op == 0:
                out = a + b
            elif op == 1:
                out = a - b
            elif op == 2:
                out = -a
            elif op == 3:
                out = a * b
            elif op == 4:
                out = a * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            elif op == 5:
                out = a.compose(b)
            else:
                # cancels every cyclotomic part: a rational (or zero) result
                rational = Poly([c if c.is_rational() else exact(0) for c in a.coeffs])
                out = a - (a - rational)
            _assert_canonical(out)
            if out.degree <= 8:
                pool.append(out)
        assert any(p.is_zero() for p in pool) and any(p._n == 1 and p.degree > 0 for p in pool)


    def test_no_exact_poly_in_scalar_form(self, monkeypatch, capsys):
        """Normal forms, commutators, the center and the simple modules over
        an f of two conductors build every exact Poly in integer form."""
        made = []
        fill = polys._fill

        def recording(p, backend, n, den, num):
            made.append((backend, n))
            fill(p, backend, n, den, num)

        monkeypatch.setattr(polys, "_fill", recording)
        for cmd, *rest in (["normalize", "-e", "y^2*x^2"], ["normalize", "-e", "y^3*x^5"],
                           ["normalize", "-e", "z^2"], ["central", "-e", "z"], ["center"],
                           ["simples", "-n", "3"]):
            assert main([cmd, "-f", "zeta(3)*h + i", *rest]) == 0
        capsys.readouterr()
        exact_ns = [n for backend, n in made if backend == "exact"]
        assert len(exact_ns) > 100 and min(exact_ns) >= 1 and 12 in exact_ns


class TestImmutability:
    @pytest.mark.parametrize(
        "p",
        [
            Poly([1, Fraction(2, 3)]),
            Poly([zeta(3), 1]),
            Poly([]),
            Poly([approx(1), approx(2)]),
            Poly([zeta(4), zeta(3)]),
        ],
        ids=["rational", "cyclotomic", "zero", "approx", "mixed-conductors"],
    )
    def test_slots_cannot_be_assigned(self, p):
        before = str(p)
        for name in ("backend", "_n", "_den", "_num"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(p, name, getattr(p, name))
        assert str(p) == before


class TestCopyAndPickle:
    """copy, deepcopy and pickle rebuild a Poly through a constructor, so
    the immutability guard holds and a zero comes back as the shared one."""

    @staticmethod
    def _twins(x):
        return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]

    @pytest.mark.parametrize(
        "p",
        [
            Poly([1, Fraction(2, 3)]),
            Poly([zeta(3), 1]),
            Poly([]),
            Poly([approx(1), approx(2j)]),
            Poly([approx(0)]),
            Poly([approx(1), approx(2j)]) - Poly([approx(1), approx(2j)]),
            Poly([zeta(4), zeta(3)]),
        ],
        ids=["rational", "cyclotomic", "zero", "approx", "approx-zero", "approx-difference-zero",
             "mixed-conductors"],
    )
    def test_poly_round_trips(self, p):
        for twin in self._twins(p):
            assert twin == p and str(twin) == str(p) and twin.backend == p.backend
            assert (twin._n, twin._den, twin._num) == (p._n, p._den, p._num)
            if p is polys._ZERO:
                assert twin is polys._ZERO
            with pytest.raises(AttributeError, match="immutable"):
                twin._num = ()

    def test_elements_and_modules_round_trip(self):
        f = Poly([zeta(4), zeta(3)])
        pres = Presentation(f)
        x, y = pres.generator("x"), pres.generator("y")
        e = y * y * x * x + pres.generator("h") * 3
        orbit = Orbit((zeta(3), zeta(3) ** 2))
        m = build(CyclicXDescriptor(orbit=orbit, zdot=exact(1), a=exact(3)), H * H)
        for twin in self._twins(e):
            assert twin == e and str(twin) == str(e)
        for twin in self._twins(m):
            assert twin == m and is_simple(twin)


class TestDivmod:
    @given(small_polys, small_polys)
    def test_division_identity(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    def test_exact_split(self):
        p = (H - P(1)) * (H + P(2))
        q, r = divmod(p, H - P(1))
        assert r.is_zero()
        assert q == H + P(2)

    @pytest.mark.parametrize(
        "p, d, q, r",
        [
            # phi(80)^2 = 1024 numerator pairs: the Kronecker path at d = 1
            ("h^2 + 1000*zeta(80)*h", "h", "h + 1000*zeta(80)", "0"),
            # 4^2 * 13 = 208 > 192 in Q(zeta_12), and 195 > 192 over Q
            ("1000*zeta(12)*h^14 + 1", "h^13", "1000*zeta(12)*h", "1"),
            ("1000*h^200 + 1", "h^195", "1000*h^5", "1"),
        ],
    )
    def test_monomial_divisor_on_the_kronecker_path(self, p, d, q, r):
        """The lower rows of a monic c*h^d are all zero; the product slots
        must still fit the other operand's numerators."""
        assert divmod(parse_poly(p), parse_poly(d)) == (parse_poly(q), parse_poly(r))

    @pytest.mark.parametrize("n", [17, 80])
    def test_large_fields_monomial_divisors(self, n):
        """Seeded draws over Q(zeta_17) and Q(zeta_80), phi = 16 and 32,
        divided by c*h and by c*h^d: phi^2 * d > 192 puts every division on
        the Kronecker path.  The dividends and the leading coefficient c,
        whose one inverse a division takes, are dense."""
        rng = random.Random(n)
        phi = euler_phi(n)

        def element():
            return CyclotomicNumber(n, [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(phi)])

        for d in (1, 2, 3):
            c = element()
            divisor = Poly([exact(0)] * d + [c])
            p = Poly([element() for _ in range(d + 3)])
            q, r = divmod(p, divisor)
            assert q * divisor + r == p
            assert r.degree < d
            assert q == Poly(p.coeffs[d:]) * Poly([c.inverse()])


def test_mul_rows_with_a_zero_operand_on_the_kronecker_path(monkeypatch):
    """An all-zero operand makes the product bound 0; the slots are sized
    from the operands too, so the other one still packs."""
    rng = random.Random(13)
    phi = euler_phi(80)
    x = [rng.randint(-(10**6), 10**6) for _ in range(3 * phi)]
    zeros = [0] * (2 * phi)
    assert len(x) * len(zeros) > scalars._SCHOOLBOOK_MAX
    for a, b in ((x, zeros), (zeros, x)):
        assert scalars._mul_rows(a, phi, b, phi, 80) == [0] * (4 * phi)
    monkeypatch.setattr(scalars, "_SCHOOLBOOK_MAX", 10**9)
    assert scalars._mul_rows(x, phi, zeros, phi, 80) == [0] * (4 * phi)


class TestPolyGcd:
    def test_common_factor(self):
        a = (H - P(1)) * (H + P(2)) * Poly([3])
        b = (H - P(1)) * (H - P(5)) * Poly([Fraction(1, 2)])
        assert poly_gcd(a, b) == H - P(1)

    def test_coprime_is_one(self):
        assert poly_gcd(H - P(1), H + P(1)) == P(1)

    def test_zero_arguments(self):
        a = H * H - P(4)
        assert poly_gcd(a, Poly([])) == a
        assert poly_gcd(Poly([]), Poly([])).is_zero()

    @given(small_polys, small_polys, small_polys)
    def test_divides_both(self, a, b, c):
        g = poly_gcd(a * c, b * c)
        if g.is_zero():
            return
        assert (a * c % g).is_zero()
        assert (b * c % g).is_zero()
        if not a.is_zero() and not b.is_zero() and c.degree >= 1:
            assert g.degree >= c.degree

    def test_rejects_approx(self):
        with pytest.raises(BackendMismatchError):
            poly_gcd(H.approx(), H.approx())


class TestDerivative:
    def test_power_rule(self):
        f = P(0, 0, 0, 1)  # h^3
        assert f.derivative() == P(0, 0, 3)

    @given(small_polys, small_polys)
    def test_product_rule(self, f, g):
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


class TestNumericRoots:
    def test_simple_real(self):
        p = (H - P(1)) * (H - P(3)) * (H + P(2))
        rs = sorted(r.value.real for r in roots(p.approx()))
        assert abs(rs[0] + 2) < 1e-7
        assert abs(rs[1] - 1) < 1e-7
        assert abs(rs[2] - 3) < 1e-7

    def test_multiple_root(self):
        p = (H - P(1)) * (H - P(1)) * (H - P(1))
        rs = roots(p.approx())
        assert len(rs) == 3
        for r in rs:
            assert abs(r.value - 1) < 1e-5

    def test_triple_root_is_three_sharp_copies(self):
        # (h + 1/2)(h - 3/2)^3: Aberth alone leaves 3/2 spread by about 1e-5
        rs = roots(parse_poly("h^4 - 4.0*h^3 + 4.5*h^2 - 1.6875", "approx"))
        assert [r.value for r in rs] == pytest.approx([-0.5, 1.5, 1.5, 1.5], abs=1e-12)

    def test_close_simple_roots_stay_apart(self):
        # 1 and 1.0001 group as one cluster, but |p| at their critical point
        # is larger than at either root, so they are not merged into a double root
        rs = roots(parse_poly("(h - 1)*(h - 1.0001)*(h + 2)", "approx"))
        assert len({r.value for r in rs}) == 3
        assert [r.value for r in rs] == pytest.approx([-2, 1, 1.0001], abs=1e-9)

    def test_complex_pair(self):
        p = H * H + P(1)
        rs = sorted(r.value.imag for r in roots(p.approx()))
        assert abs(rs[0] + 1) < 1e-8 and abs(rs[1] - 1) < 1e-8

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    def test_real_roots_of_a_real_polynomial_are_real(self, backend):
        # (h^2 - h - 1)(h^2 + 1): the golden-ratio roots lose their
        # imaginary rounding, the pair +-i keeps its imaginary parts
        p = parse_poly("(h^2 - h - 1)*(h^2 + 1)", backend)
        rs = sorted((r.value for r in roots(p)), key=lambda z: z.imag)
        assert [z.imag for z in rs[1:3]] == [0.0, 0.0]
        assert sorted(z.real for z in rs[1:3]) == pytest.approx([(1 - 5**0.5) / 2, (1 + 5**0.5) / 2])
        assert rs[0].imag == pytest.approx(-1) and rs[3].imag == pytest.approx(1)


class TestExactRoots:
    def test_rational_roots(self):
        p = (H - P(Fraction(1, 2))) * (H + P(3))
        found, rem = exact_roots(p)
        vals = sorted(str(v) for v, _ in found)
        assert vals == ["-3", "1/2"]
        assert rem.degree <= 0

    def test_multiplicity(self):
        p = (H - P(2)) * (H - P(2)) * (H + P(1))
        found, rem = exact_roots(p)
        by_root = {str(v): m for v, m in found}
        assert by_root == {"2": 2, "-1": 1}
        assert rem.degree <= 0

    def test_cyclotomic_roots_with_conductor(self):
        p = H * H + H + P(1)  # roots zeta3, zeta3^2
        found, rem = exact_roots(p, conductor=3)
        assert rem.degree <= 0
        got = {str(v) for v, _ in found}
        assert got == {str(zeta(3)), str(zeta(3) ** 2)}

    def test_unsplit_remainder_without_conductor(self):
        p = H * H + H + P(1)
        found, rem = exact_roots(p)
        assert found == []
        assert rem.degree == 2

    def test_unrecognised_linear_factor_is_split_exactly(self):
        # the recogniser finds 1 but not r; the linear factor left over after
        # dividing out h - 1 still gives r exactly
        r = exact(Fraction(1, 3)) + exact(Fraction(2, 7)) * zeta(5)
        found, rem = exact_roots((H - P(1)) * Poly([-r, exact(1)]))
        assert rem.degree == 0
        assert [(str(v), m) for v, m in found] == [("1", 1), (str(r), 1)]
        assert found[1][0] == r

    def test_large_conductor_builds_few_units(self, monkeypatch):
        """A numeric root is matched against the units next to its phase,
        not against all 5000 roots of unity of Q(zeta_5000); the root 0
        against none."""
        built = []

        def counting_zeta(*args):
            built.append(args)
            return zeta(*args)

        monkeypatch.setattr("gha.polys.zeta", counting_zeta)
        found, rem = exact_roots(H**4 + H, conductor=5000)
        assert sorted((str(v), m) for v, m in found) == [("-1", 1), ("0", 1)]
        assert rem == H * H - H + P(1)
        assert len(built) <= 6  # a handful for all four numeric roots


class TestOrbits:
    def test_rotation_and_canonical(self):
        o = Orbit((exact(1), exact(2), exact(3)))
        assert o.rotated(1).values == (exact(2), exact(3), exact(1))
        assert o.rotated(1).canonical() == o.canonical()
        assert o.period == 3

    def test_same_cycle(self):
        o1 = Orbit((exact(1), exact(2), exact(3)))
        o2 = Orbit((exact(3), exact(1), exact(2)))
        o3 = Orbit((exact(1), exact(3), exact(2)))
        assert o1.same_cycle(o2)
        assert not o1.same_cycle(o3)

    def test_orbit_through_exact_period(self):
        f = H * H
        o = orbit_through(f, zeta(3), 2)
        assert o is not None
        assert {str(v) for v in o.values} == {str(zeta(3)), str(zeta(3) ** 2)}
        # fixed points do not have exact period 2
        assert orbit_through(f, exact(0), 2) is None
        assert orbit_through(f, exact(1), 2) is None

    def test_periodic_points_squaring(self):
        f = H * H
        out = periodic_points(f, 2, conductor=3)
        assert not out.continuum
        assert len(out.orbits) == 1
        got = {str(v) for v in out.orbits[0].values}
        assert got == {str(zeta(3)), str(zeta(3) ** 2)}

    def test_periodic_points_fixed(self):
        f = H * H
        out = periodic_points(f, 1)
        vals = {str(o.values[0]) for o in out.orbits}
        assert vals == {"0", "1"}

    def test_continuum_detected(self):
        f = Poly([exact(0), zeta(3)])  # zeta3 * h, every point is 3-periodic
        with pytest.raises(ContinuumOfOrbitsError):
            periodic_points(f, 3)
        out = periodic_points(f, 3, samples=2)
        assert out.continuum
        assert len(out.orbits) == 2
        for o in out.orbits:
            assert o.period == 3

    def test_no_orbits_for_shift(self):
        f = H + P(1)
        out = periodic_points(f, 2)
        assert out.orbits == ()

    def test_irrational_fixed_points_stay_out_of_the_way(self):
        # the fixed points of h^2 - 1 need sqrt(5), but the genuine 2-cycle
        # {0, -1} is rational and must come back exact with no hint at all
        f = H * H - P(1)
        out = periodic_points(f, 2)
        assert len(out.orbits) == 1 and not out.residual_roots
        vals = {str(v) for v in out.orbits[0].values}
        assert vals == {"0", "-1"}
        assert all(v == exact(0) or v == exact(-1) for v in out.orbits[0].values)

    def test_all_lower_period_roots_means_exact_emptiness(self):
        # every root of f(f(h)) - h is a fixed point here, so the period-2
        # answer is empty without ever leaving exact arithmetic
        f = H * H + P(0, 2) - P(Fraction(3, 4))
        out = periodic_points(f, 2)
        assert out.orbits == () and not out.residual_roots


    def test_exact_roots_survive_an_unsplit_factor(self):
        """f(h) - h = h(h - 1)(h^2 - 2): 0 and 1 stay exact, and only the
        roots of h^2 - 2, which has none in Q, are numeric."""
        out = periodic_points(H + H * (H - P(1)) * (H * H - P(2)), 1)
        assert not out.residual_roots
        pts = [o.values[0] for o in out.orbits]
        assert [v for v in pts if isinstance(v, CyclotomicNumber)] == [exact(0), exact(1)]
        numeric = [v.value for v in pts if not isinstance(v, CyclotomicNumber)]
        assert [z.real for z in numeric] == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)
        assert all(abs(z.imag) < 1e-12 for z in numeric)

    def test_repeated_fixed_point_is_one_exact_orbit(self):
        """f(h) - h = (h + 2)^5: one fixed point of multiplicity 5, found on
        the squarefree part h + 2 with no numeric search."""
        out = periodic_points((H + P(2)) ** 5 + H, 1)
        assert out.orbits == (Orbit((exact(-2),)),) and not out.residual_roots


class TestApproxBridge:
    def test_poly_approx(self):
        f = Poly([exact(Fraction(1, 2)), zeta(4)])
        g = f.approx()
        assert g.backend == "approx"
        assert g.coefficient(0) == approx(0.5)
        assert g.coefficient(1) == approx(1j)

    def test_conductor(self):
        assert (H * H).conductor() == 1
        assert Poly([exact(0), zeta(3)]).conductor() == 3
        assert Poly([zeta(4), zeta(3)]).conductor() == 12


def _assert_close(got, want, rel=1e-9):
    """got and want, approximate Polys or scalars, agree coefficient by
    coefficient within rel times their largest coefficient (at least 1)."""
    if isinstance(got, Poly):
        assert got.backend == want.backend == "approx"
        g, w = got.embed_coeffs(), want.embed_coeffs()
    else:
        g, w = [got.embed()], [want.embed()]
    g += [0j] * (len(w) - len(g))
    w += [0j] * (len(g) - len(w))
    scale = max([1.0] + [abs(v) for v in g + w])
    assert all(abs(a - b) <= rel * scale for a, b in zip(g, w)), (got, want)


class TestApproxAgainstExact:
    """Seeded exact p and q: each operation on p.approx() and q.approx()
    gives the approximation of the exact result, within a relative
    tolerance, on the one row layout of both backends."""

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_operations(self, n):
        rng = random.Random(7000 + n)

        def draw(max_degree):
            cs = [_element(rng, n, 4) for _ in range(rng.randint(0, max_degree))]
            return Poly(cs + [CyclotomicNumber(n, [rng.choice([-2, 1, 3])] + [1] * (euler_phi(n) - 1))])

        for _ in range(40):
            p, q, inner = draw(6), draw(4), draw(2)
            pa, qa = p.approx(), q.approx()
            c, k = _element(rng, n, 4), rng.randint(-3, 3)
            _assert_close(pa + qa, (p + q).approx())
            _assert_close(pa - qa, (p - q).approx())
            _assert_close(-pa, (-p).approx())
            _assert_close(pa * qa, (p * q).approx())
            _assert_close(pa * c.approx(), (p * c).approx())
            _assert_close(pa * k, (p * k).approx())
            _assert_close(pa.compose(inner.approx()), p.compose(inner).approx())
            quo, rem = divmod(pa, qa)
            _assert_close(quo, (p // q).approx())
            _assert_close(rem, (p % q).approx())
            t = _element(rng, n, 2)
            _assert_close(pa.evaluate(t.approx()), p.evaluate(t).approx())
            _assert_close(pa.derivative(), p.derivative().approx())
            assert pa == p.approx() and pa != pa + Poly([approx(1)])

    def test_zero_stays_approximate(self):
        pa = Poly([zeta(3), exact(2)]).approx()
        zeros = [pa - pa, pa * 0, pa * approx(0), -(pa - pa), pa % pa, pa.derivative().derivative()]
        for zero in zeros + [Poly.constant(0, "approx")]:
            assert zero.is_zero() and zero.backend == "approx" and str(zero) == "0"

    def test_rows_hold_complex(self):
        pa = (Poly([exact(0), exact(Fraction(1, 2)), zeta(4)]) ** 3).approx()
        for p in (pa, pa * pa, pa + pa, pa.compose(pa), -pa, pa * 2, Poly.variable("approx")):
            assert (p._n, p._den) == (0, 1)
            assert p._num and all(type(v) is complex for v in p._num)

    def test_divmod_by_a_divisor_not_quite_monic(self):
        """Made monic in floating point, a leading 49 becomes
        0.9999999999999999, not 1; the division still takes one step per
        quotient row and drops the top row, so it ends with a remainder
        below the divisor's degree."""
        rng = random.Random(49)
        for n in (1, 3, 4):
            for _ in range(10):
                p = Poly([_element(rng, n, 4) for _ in range(rng.randint(4, 9))] + [exact(5)])
                q = Poly([_element(rng, n, 4) for _ in range(rng.randint(1, 3))] + [exact(49)])
                pa, qa = p.approx(), q.approx()
                assert (qa * Poly([qa.leading.inverse()]))._num[-1] != 1
                quo, rem = divmod(pa, qa)
                assert quo.degree == p.degree - q.degree and rem.degree < q.degree
                _assert_close(quo, (p // q).approx())
                _assert_close(rem, (p % q).approx())


class TestFormPaths:
    """Division, evaluation, the derivative and the embedding run on the
    (N, den, num) rows and build no scalar per coefficient."""

    @staticmethod
    def _count_scalars(monkeypatch):
        """A list that gains one entry per CyclotomicNumber built: every one
        is made by scalars._cyclotomic, which polys imports."""
        made = []
        real = scalars._cyclotomic

        def counting(*args):
            made.append(1)
            return real(*args)

        monkeypatch.setattr(scalars, "_cyclotomic", counting)
        monkeypatch.setattr(polys, "_cyclotomic", counting)
        return made

    def test_scalars_built_do_not_grow_with_the_degree(self, monkeypatch):
        rng = random.Random(1215)
        lead = zeta(15) + exact(Fraction(2, 3))
        point = zeta(15, 4) - exact(Fraction(1, 3))

        def draw(degree):
            cs = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(degree)]
            return Poly([CyclotomicNumber(15, c) for c in cs] + [lead])

        divisor = draw(5)
        counts: dict = {}
        made = self._count_scalars(monkeypatch)
        for degree in (12, 24):
            p = draw(degree)
            ops = {
                "divmod": lambda: divmod(p, divisor),
                "evaluate": lambda: p.evaluate(point),
                "derivative": p.derivative,
                "approx": p.approx,
                "embed_coeffs": p.embed_coeffs,
            }
            for name, op in ops.items():
                made.clear()
                op()
                counts.setdefault(name, []).append(len(made))
            quo, rem = divmod(p, divisor)
            assert quo * divisor + rem == p and rem.degree < divisor.degree
        assert all(c12 == c24 for c12, c24 in counts.values()), counts
        assert counts["derivative"] == counts["approx"] == counts["embed_coeffs"] == [0, 0]

    @pytest.mark.parametrize("n", [1, 3, 5, 8, 12, 15])
    def test_embedding_matches_the_scalars(self, n):
        rng = random.Random(8100 + n)
        for _ in range(40):
            p = Poly([_element(rng, n, rng.choice([3, 64])) for _ in range(rng.randint(1, 9))])
            want = [repr(c.embed()) for c in p.coeffs]
            assert [repr(v) for v in p.embed_coeffs()] == want
            assert [repr(v) for v in p.approx()._num] == want

    def test_evaluate_is_the_scalar_horner(self):
        rng = random.Random(77)
        for n in (1, 3, 12, 15):
            for _ in range(10):
                p = Poly([_element(rng, n, 4) for _ in range(rng.randint(0, 9))])
                t = _element(rng, rng.choice([1, n]), 3)
                want = exact(0)
                for c in reversed(p.coeffs):
                    want = want * t + c
                got = p.evaluate(t)
                assert got == want and str(got) == str(want)

    def test_exact_roots_divide_once_per_attempt(self, monkeypatch):
        """The remainder on division by h - c is p(c): one division both
        tests a candidate and divides it out, and the multiplicity comes
        from the squarefree part, not from dividing again."""
        calls, parts = [], []
        real, real_squarefree = Poly.__divmod__, polys._squarefree
        monkeypatch.setattr(Poly, "__divmod__", lambda a, b: calls.append(1) or real(a, b))

        def squarefree(p):
            parts.extend(real_squarefree(p))
            calls.clear()  # count the divisions after the decomposition only
            return parts

        monkeypatch.setattr(polys, "_squarefree", squarefree)
        found, rem = exact_roots((H - P(1)) ** 2 * (H + P(2)) * (H * H + P(1)))
        assert sorted((str(r), m) for r, m in found) == [("-2", 1), ("1", 2)]
        assert rem == H * H + P(1)
        assert parts == [((H + P(2)) * (H * H + P(1)), 1), (H - P(1), 2)]
        # after the decomposition: -2 once, on the part (h + 2)(h^2 + 1); the
        # part h - 1 of index 2 is linear and splits with no division
        assert len(calls) == 1
