import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gha.config import CONFIG
from gha.polys import (
    ContinuumOfOrbitsError,
    DegreeOverflowError,
    Orbit,
    Poly,
    _coeff_body,
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
        body, negated = _coeff_body(cs[k], k)
        sign = ("-" if negated else "") if not pieces else ("- " if negated else "+ ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def _layout(cs):
    # conductor and coordinates per coefficient: what the text is made from
    return [(c.conductor, c.coords) for c in cs]


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

    @pytest.mark.parametrize("n", FIELDS)
    def test_ring_operations(self, n):
        for a, b in _differential_pairs(n):
            a, b = _trim(a), _trim(b)
            pa, pb = Poly(a), Poly(b)
            assert _layout(pa.coeffs) == _layout(a)
            cases = [
                (pa * pb, _ref_mul(a, b)),
                (pa + pb, _ref_add(a, b)),
                (pa - pb, _ref_add(a, [-c for c in b])),
                (-pa, [-c for c in a]),
            ]
            if len(b) <= 8:
                cases.append((pb * pb, _ref_mul(b, b)))
            for got, want in cases:
                assert _layout(got.coeffs) == _layout(want)
                assert str(got) == _ref_str(want)
                assert got == Poly(want)
                assert got.degree == len(want) - 1
            assert (pa == pb) == (_layout(a) == _layout(b))
            assert pa + Poly([exact(1)]) != pa

    def test_cancellation_reaches_rational_and_zero(self):
        a = Poly([zeta(3), exact(2), zeta(3) ** 2])
        conj = Poly([zeta(3) ** 2, exact(2), zeta(3)])
        assert (a * conj).conductor() == 1
        assert str(a * conj) == "h^4 - 2*h^3 + 3*h^2 - 2*h + 1"
        assert (a - a).is_zero() and str(a - a) == "0"
        assert (a + Poly([-zeta(3)])).coefficient(0) == exact(0)

    def test_mixed_conductors_keep_the_scalar_text(self):
        assert str(Poly([zeta(4), 1]) * Poly([zeta(3), 1])) == (
            "h^2 + (-1 + zeta(12)^2 + zeta(12)^3)*h + -zeta(12)"
        )
        assert str(Poly([zeta(4)]) + Poly([0, zeta(3)])) == "zeta(3)*h + zeta(4)"

    def test_sparse_iterate(self):
        assert iterate(H * H, 6) == Poly([0] * 64 + [1])
        assert str(iterate(H * H, 6)) == "h^64"


class TestComposeEvaluate:
    @given(small_polys, small_polys, st.integers(-4, 4))
    def test_compose_matches_evaluate(self, f, g, t):
        tv = exact(t)
        assert f.compose(g).evaluate(tv) == f.evaluate(g.evaluate(tv))

    def test_iterate_degrees(self):
        f = H * H  # h^2
        for i in range(6):
            assert iterate(f, i).degree == (2 ** i if i else 1)

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

    def test_complex_pair(self):
        p = H * H + P(1)
        rs = sorted(r.value.imag for r in roots(p.approx()))
        assert abs(rs[0] + 1) < 1e-8 and abs(rs[1] - 1) < 1e-8


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
