"""Building, verifying, classifying, and enumerating the finite-dimensional
simple modules."""

import random
from dataclasses import replace

import pytest

from gha.config import CONFIG
from gha.linalg import (
    identity,
    is_zero_matrix,
    mat_add,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_vec,
)
from gha.modules import (
    CYCLIC_X,
    CYCLIC_Y,
    NILPOTENT_X,
    ClassifyError,
    CyclicXDescriptor,
    CyclicYDescriptor,
    DescriptorError,
    MatrixModule,
    NilpotentXDescriptor,
    build,
    classify,
    descriptor_problems,
    enumerate_simples,
    is_simple,
    modules_isomorphic,
    verify_relations,
)
from gha.parser import parse_poly
from gha.polys import Orbit
from gha.scalars import as_scalar, backend_of, exact, zero_like, zeta
from gha.schemas import module_from_json, module_to_json

H2 = parse_poly("h^2")
W4 = parse_poly("zeta(4)*h")
ZETA3_ORBIT = Orbit((zeta(3), zeta(3) ** 2))


class TestBuildCyclicX:
    def test_matrix_shapes_and_entries(self):
        d = CyclicXDescriptor(orbit=ZETA3_ORBIT, zdot=exact(0), a=exact(2))
        m = build(d, H2)
        assert m.n == 2
        # x cycles the basis with a twist a in the wrap-around column
        assert m.X == [[exact(0), exact(2)], [exact(1), exact(0)]]
        # h is diagonal on the orbit
        assert m.H == [[zeta(3), exact(0)], [exact(0), zeta(3) ** 2]]
        # y steps down; the wrap entry carries 1/a
        assert m.Y[0][1] == zeta(3) ** 2
        assert m.Y[1][0] == zeta(3) / exact(2)

    def test_verify_and_simple(self):
        d = CyclicXDescriptor(orbit=ZETA3_ORBIT, zdot=exact(1), a=exact(3))
        m = build(d, H2)
        assert verify_relations(m, H2).ok
        assert is_simple(m)

    def test_classify_round_trip(self):
        d = CyclicXDescriptor(orbit=ZETA3_ORBIT, zdot=exact(1), a=exact(3))
        got = classify(build(d, H2), H2)
        assert isinstance(got, CyclicXDescriptor)
        assert modules_isomorphic(got, d)

    def test_round_trip_survives_orbit_rotation(self):
        d1 = CyclicXDescriptor(orbit=ZETA3_ORBIT, zdot=exact(0), a=exact(1))
        d2 = CyclicXDescriptor(orbit=ZETA3_ORBIT.rotated(1), zdot=exact(0), a=exact(1))
        assert modules_isomorphic(d1, d2)
        assert modules_isomorphic(classify(build(d2, H2), H2), d1)

    def test_dimension_one(self):
        d = CyclicXDescriptor(orbit=Orbit((exact(1),)), zdot=exact(2), a=exact(5))
        m = build(d, H2)
        assert m.n == 1 and verify_relations(m, H2).ok and is_simple(m)


class TestBuildCyclicY:
    def test_needs_vanishing_weight(self):
        # requires some lambda(i) + zdot = 0
        good = CyclicYDescriptor(orbit=ZETA3_ORBIT, zdot=-zeta(3), a=exact(2))
        assert descriptor_problems(good, H2) == []
        bad = CyclicYDescriptor(orbit=ZETA3_ORBIT, zdot=exact(5), a=exact(2))
        assert descriptor_problems(bad, H2)
        with pytest.raises(DescriptorError):
            build(bad, H2)

    def test_y_power_is_inverse_scalar(self):
        d = CyclicYDescriptor(orbit=ZETA3_ORBIT, zdot=-zeta(3), a=exact(2))
        m = build(d, H2)
        yn = mat_pow(m.Y, 2)
        assert yn == mat_scale(identity(2, "exact"), exact(1) / exact(2))
        assert verify_relations(m, H2).ok
        assert is_simple(m)

    def test_classify_round_trip(self):
        d = CyclicYDescriptor(orbit=ZETA3_ORBIT, zdot=-(zeta(3) ** 2), a=exact(-1))
        got = classify(build(d, H2), H2)
        assert isinstance(got, CyclicYDescriptor)
        assert modules_isomorphic(got, d)


class TestBuildNilpotent:
    def test_cyclotomic_slope_weights(self):
        # for f = w*h the weights are -w^i * zdot and y carries (1 - w^i) * zdot
        w = zeta(4)
        d = NilpotentXDescriptor(zdot=exact(1), n=4)
        m = build(d, W4)
        for i in range(4):
            assert m.H[i][i] == -(w ** i)
        for i in range(1, 4):
            assert m.Y[i - 1][i] == (exact(1) - w ** i)
        assert verify_relations(m, W4).ok
        assert is_simple(m)

    def test_closure_always_enforced(self):
        # zdot = 1 for f = h^2 fails 1 + f^(2)(-1) = 2 != 0
        d = NilpotentXDescriptor(zdot=exact(1), n=2)
        with pytest.raises(DescriptorError):
            build(d, H2, check=False)

    def test_exclusion_enforced_by_default(self):
        # zdot = -1: closure -1 + f^(2)(1) = 0 holds, but the i=1
        # exclusion -1 + f(1) = 0 fails, so the module is not simple
        d = NilpotentXDescriptor(zdot=exact(-1), n=2)
        with pytest.raises(DescriptorError):
            build(d, H2)
        m = build(d, H2, check=False)
        assert verify_relations(m, H2).ok
        assert not is_simple(m)

    def test_invariant_subspace_of_violator(self):
        d = NilpotentXDescriptor(zdot=exact(-1), n=2)
        m = build(d, H2, check=False)
        # span{t^1} is invariant: images of t^1 have no t^0 component
        e1 = [exact(0), exact(1)]
        for mat in (m.X, m.H, m.Y):
            img = mat_vec(mat, e1)
            assert img[0] == exact(0)

    def test_exact_zeta3_zdots_for_squaring(self):
        # zdot^3 = -1 with the rational roots excluded leaves two values
        # in the conductor-3 field
        for z0 in (-zeta(3), exact(1) + zeta(3)):
            d = NilpotentXDescriptor(zdot=z0, n=2)
            assert descriptor_problems(d, H2) == []
            m = build(d, H2)
            assert verify_relations(m, H2).ok and is_simple(m)

    def test_classify_round_trip(self):
        d = NilpotentXDescriptor(zdot=-zeta(3), n=2)
        got = classify(build(d, H2), H2)
        assert got == d


class TestDescriptorProblems:
    def test_zero_a(self):
        d = CyclicXDescriptor(orbit=ZETA3_ORBIT, zdot=exact(0), a=exact(0))
        assert any("nonzero" in p for p in descriptor_problems(d, H2))

    def test_orbit_must_follow_f(self):
        d = CyclicXDescriptor(
            orbit=Orbit((exact(2), exact(3))), zdot=exact(0), a=exact(1)
        )
        assert descriptor_problems(d, H2)

    def test_orbit_with_smaller_period(self):
        # a doubled fixed point is not an exact period-2 orbit
        d = CyclicXDescriptor(
            orbit=Orbit((exact(1), exact(1))), zdot=exact(0), a=exact(1)
        )
        assert descriptor_problems(d, H2)

    def test_strict_toggle_for_nilpotent_exclusions(self):
        d = NilpotentXDescriptor(zdot=exact(-1), n=2)
        assert descriptor_problems(d, H2, strict=True)
        assert descriptor_problems(d, H2, strict=False) == []

    @pytest.mark.parametrize("cls", [CyclicXDescriptor, CyclicYDescriptor])
    def test_empty_orbit(self, cls):
        # a 0-dimensional module is not a module of any family, simple or not
        d = cls(orbit=Orbit(()), zdot=exact(0), a=exact(1))
        for strict in (True, False):
            assert descriptor_problems(d, H2, strict=strict) == ["orbit must not be empty"]
        with pytest.raises(DescriptorError, match="orbit must not be empty"):
            build(d, H2, check=False)


class TestClassifyErrors:
    def test_non_scalar_xy_minus_h(self):
        m = MatrixModule(
            n=2,
            X=[[exact(0), exact(0)], [exact(1), exact(0)]],
            H=[[exact(0), exact(0)], [exact(0), exact(1)]],
            Y=[[exact(0), exact(0)], [exact(0), exact(0)]],
        )
        with pytest.raises(ClassifyError):
            classify(m, H2)

    def test_zero_module_not_in_families(self):
        z = [[exact(0), exact(0)], [exact(0), exact(0)]]
        m = MatrixModule(n=2, X=z, H=[[exact(1), exact(0)], [exact(0), exact(2)]], Y=z)
        with pytest.raises(ClassifyError):
            classify(m, H2)

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    def test_spectrum_of_two_fixed_points_is_not_an_orbit(self, backend):
        # x*y - h = zdot and x^2 = 1, so the cyclic_x branch is taken, but the
        # h-spectrum {0, 1} is two fixed points of h^2, not one 2-cycle
        H = [[as_scalar(v, backend) for v in row] for row in ((0, 0), (0, 1))]
        X = [[as_scalar(v, backend) for v in row] for row in ((0, 1), (1, 0))]
        Y = mat_mul(X, mat_add(H, mat_scale(identity(2, backend), as_scalar(3, backend))))
        f = parse_poly("h^2", backend)
        with pytest.raises(ClassifyError, match="h-spectrum is not a single f-orbit"):
            classify(MatrixModule(n=2, X=X, H=H, Y=Y), f)


def direct_sum(a: MatrixModule, b: MatrixModule) -> MatrixModule:
    """The direct sum of a and b: block-diagonal X, H and Y."""
    zero = zero_like(a.X[0][0])

    def block(p, q):
        return [row + [zero] * b.n for row in p] + [[zero] * a.n + row for row in q]

    return MatrixModule(a.n + b.n, block(a.X, b.X), block(a.H, b.H), block(a.Y, b.Y))


def first_instantiations(f, n, variant, conductor=None):
    fams = enumerate_simples(f, n, conductor=conductor)
    return next(fam for fam in fams if fam.variant == variant).instantiations


class TestClassifyNonSimple:
    """A direct sum satisfies the relations but is not simple, so classify
    refuses it instead of returning a descriptor that build refuses."""

    @pytest.mark.parametrize(
        "f_text, n, conductor, variant, backend, message",
        [
            ("zeta(3)*h", 3, None, CYCLIC_X, "exact", "orbit period is 3, not the full length 6"),
            ("zeta(3)*h", 3, None, CYCLIC_Y, "exact", "orbit period is 3, not the full length 6"),
            ("h^2", 2, 3, CYCLIC_X, "exact", "orbit period is 2, not the full length 4"),
            ("h^2 - 1", 2, None, CYCLIC_X, "exact", "orbit period is 2, not the full length 4"),
            ("h^2 - 1", 2, None, CYCLIC_X, "approx", "orbit period is 2, not the full length 4"),
            ("zeta(3)*h", 3, None, NILPOTENT_X, "exact", r"exclusion fails: zdot \+ f\^\(3\)"),
        ],
    )
    def test_two_copies_of_one_module(self, f_text, n, conductor, variant, backend, message):
        f = parse_poly(f_text, backend)
        m = build(first_instantiations(f, n, variant, conductor)[0], f)
        s = direct_sum(m, m)
        assert verify_relations(s, f).ok and not is_simple(s)
        with pytest.raises(ClassifyError, match="not a simple module: " + message):
            classify(s, f)

    @pytest.mark.parametrize(
        "variant, message",
        [
            (CYCLIC_X, r"x\^n is neither zero nor an invertible scalar"),
            (CYCLIC_Y, r"y\^n is not an invertible scalar"),
        ],
    )
    def test_two_modules_with_different_a(self, variant, message):
        f = parse_poly("zeta(3)*h")
        d1, d2 = first_instantiations(f, 3, variant)[:2]
        assert d1.zdot == d2.zdot and d1.a != d2.a
        s = direct_sum(build(d1, f), build(d2, f))
        assert verify_relations(s, f).ok and not is_simple(s)
        with pytest.raises(ClassifyError, match=message):
            classify(s, f)


class TestVerifyApprox:
    """On the approx backend a relation holds when its residual is within tol
    times the size of the products it compares."""

    F = parse_poly("h^2 - 2", "approx")

    def module(self, a):
        d = first_instantiations(self.F, 3, CYCLIC_X)[0]
        return build(replace(d, a=as_scalar(a, "approx")), self.F)

    def test_large_entries_pass(self):
        rep = verify_relations(self.module(1e6), self.F)
        assert rep.ok, str(rep)
        # above the absolute tolerance, within the relative one
        assert rep.residuals["h*x = x*f(h)"] > CONFIG.tol

    def test_moved_entry_fails(self):
        m = self.module(1)
        assert verify_relations(m, self.F).ok
        m.X[1][0] = m.X[1][0] + as_scalar(1e-6, "approx")
        rep = verify_relations(m, self.F)
        assert not rep.ok and rep.failed == ("y*x - x*y = f(h) - h",), str(rep)


def complex_inverse(p: list[list[complex]]) -> list[list[complex]]:
    """The inverse of a square complex matrix, by Gauss-Jordan with
    partial pivoting."""
    n = len(p)
    rows = [list(row) + [complex(r == c) for c in range(n)] for r, row in enumerate(p)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


class TestClassifyLargeEntries:
    """A cyclic_x module of h^2 - 2 with x^3 = a*I, |a| about 465 or 1000,
    written in a seeded random basis: x^3 and x*y - h are scalar matrices
    only up to rounding, which grows with the size of the factors' entries
    (|X|^3 for x^3), and classify must allow for it."""

    F = parse_poly("h^2 - 2", "approx")

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("zdot", [0, 1.5])
    def test_random_basis_round_trips(self, zdot, seed):
        self.check(zdot, -334 - 323j, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_large_a_round_trips(self, seed):
        # X^3 = a*I up to a gap of 1.5e-9 to 1.9e-9 of |a| for seeds 1-3,
        # over tol against |X^3| but not against |X|^3, about 1e10
        self.check(0, 1000 + 7j, seed)

    def check(self, zdot, a, seed):
        d = first_instantiations(self.F, 3, CYCLIC_X)[0]
        d = replace(d, zdot=as_scalar(zdot, "approx"), a=as_scalar(a, "approx"))
        rng = random.Random(seed)
        P = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)] for _ in range(3)]
        P_inv = complex_inverse(P)
        P, P_inv = ([[as_scalar(v, "approx") for v in row] for row in m] for m in (P, P_inv))
        m = build(d, self.F)
        conj = MatrixModule(3, *(mat_mul(mat_mul(P_inv, a), P) for a in (m.X, m.H, m.Y)))
        assert verify_relations(conj, self.F).ok
        assert modules_isomorphic(classify(conj, self.F), d)


class TestClassifyExpandingCycle:
    """f = h^2 + 2h - 3/4 has 4-cycles on which |f'| multiplies to about 26,
    so iterating f from one eigenvalue drifts off the spectrum; classify must
    match each image against the eigenvalues instead."""

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    def test_every_instantiation_round_trips_through_json(self, backend):
        f = parse_poly("h^2 + 2*h - 3/4", backend)
        checked = 0
        for fam in enumerate_simples(f, 4, samples=1):
            for d in fam.instantiations:
                # numeric families of an exact f are built against f.approx()
                f_used = f.approx() if backend_of(d.zdot) == "approx" else f
                m = build(d, f_used)
                back = module_from_json(module_to_json(m), m.backend)
                assert modules_isomorphic(classify(back, f_used), d), d
                checked += 1
        # exact: 15 orbit instantiations and 12 nilpotent ones, whose zdots
        # are the roots of the closure polynomial's degree-12 factor with no
        # rational root; the approx backend finds the same 15 orbit ones and
        # 10 of those 12 zdots closely enough to pass the closure test
        assert checked == (27 if backend == "exact" else 25)


class TestClassifyConjugated:
    """With H not diagonal, the h-spectrum comes from charpoly(H).  Over
    f = h^2 that is h^2 + h + 1, which splits only in Q(zeta(3)): the field
    of the module's entries, not of f."""

    def test_every_instantiation_round_trips(self):
        P = [[exact(1), exact(1)], [exact(0), exact(1)]]
        P_inv = [[exact(1), exact(-1)], [exact(0), exact(1)]]
        variants = []
        for fam in enumerate_simples(H2, 2, conductor=3):
            for d in fam.instantiations:
                m = build(d, H2)
                conj = [mat_mul(mat_mul(P, a), P_inv) for a in (m.X, m.H, m.Y)]
                assert modules_isomorphic(classify(MatrixModule(2, *conj), H2), d), d
                variants.append(d.variant)
        assert len(variants) == 10
        assert set(variants) == {CYCLIC_X, CYCLIC_Y, NILPOTENT_X}


class TestModulesIsomorphic:
    def test_different_variants_differ(self):
        d1 = CyclicXDescriptor(orbit=ZETA3_ORBIT, zdot=exact(0), a=exact(1))
        d2 = CyclicYDescriptor(orbit=ZETA3_ORBIT, zdot=-zeta(3), a=exact(1))
        assert not modules_isomorphic(d1, d2)

    def test_parameter_a_separates(self):
        d1 = CyclicXDescriptor(orbit=ZETA3_ORBIT, zdot=exact(0), a=exact(1))
        d2 = CyclicXDescriptor(orbit=ZETA3_ORBIT, zdot=exact(0), a=exact(2))
        assert not modules_isomorphic(d1, d2)

    def test_nilpotent_compares_zdot_and_n(self):
        assert modules_isomorphic(
            NilpotentXDescriptor(zdot=-zeta(3), n=2),
            NilpotentXDescriptor(zdot=-zeta(3), n=2),
        )
        assert not modules_isomorphic(
            NilpotentXDescriptor(zdot=-zeta(3), n=2),
            NilpotentXDescriptor(zdot=exact(1) + zeta(3), n=2),
        )


class TestEnumerate:
    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            enumerate_simples(parse_poly("h"), 2)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            enumerate_simples(H2, 2, samples=samples)

    def test_pure_shift_has_no_modules(self):
        assert enumerate_simples(parse_poly("h + 1"), 2) == []

    def test_squaring_with_conductor(self):
        fams = enumerate_simples(H2, 2, conductor=3)
        variants = sorted(f.variant for f in fams)
        assert variants == [CYCLIC_X, CYCLIC_Y, CYCLIC_Y, NILPOTENT_X, NILPOTENT_X]
        for fam in fams:
            for d in fam.instantiations:
                m = build(d, H2)
                assert verify_relations(m, H2).ok
                assert is_simple(m)
        zdots = {str(f.zdot) for f in fams if f.variant == NILPOTENT_X}
        assert zdots == {str(-zeta(3)), str(exact(1) + zeta(3))}

    def test_squaring_without_conductor_goes_numeric(self):
        fams = enumerate_simples(H2, 2)
        cyc = [f for f in fams if f.variant == CYCLIC_X]
        assert cyc and any("numeric" in note for note in cyc[0].notes)
        for d in cyc[0].instantiations:
            m = build(d, H2.approx())
            assert m.backend == "approx"
            assert verify_relations(m, H2.approx()).ok
        # the closure z + z^4 = z(z + 1)(z^2 - z + 1): its rational roots 0
        # and -1 fail an exclusion, and the pair -zeta(3), -zeta(3)^2 is
        # outside Q without the conductor hint, so those two zdots are
        # numeric families, built and checked against f.approx()
        nil = [f for f in fams if f.variant == NILPOTENT_X]
        assert len(nil) == 2
        for fam in nil:
            assert any("numeric" in note for note in fam.notes)
            (d,) = fam.instantiations
            z = d.zdot.value
            assert abs(z * z - z + 1) < 1e-12
            m = build(d, H2.approx())
            assert verify_relations(m, H2.approx()).ok
            assert is_simple(m)

    def test_repeated_roots_stay_exact(self):
        """f(h) - h = (h + 2)^5 and the closure z + f(-z) = (2 - z)^5: the
        fixed point -2 and zdot = 2 come off the squarefree parts exactly."""
        fams = enumerate_simples(parse_poly("(h + 2)^5 + h"), 1)
        assert [(f.variant, str(f.orbit), str(f.zdot)) for f in fams] == [
            (CYCLIC_X, "(-2)", "None"),
            (CYCLIC_Y, "(-2)", "2"),
            (NILPOTENT_X, "None", "2"),
        ]
        assert not any(f.notes for f in fams if f.variant != CYCLIC_Y)

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    def test_translation_has_no_simple_modules(self, backend):
        """f = h + 1 has no periodic point, and its closure z + f(-z) = 1 is
        a nonzero constant, with no root on either backend."""
        assert enumerate_simples(parse_poly("h + 1", backend), 1) == []

    def test_example_with_no_two_dimensional_modules(self):
        assert enumerate_simples(parse_poly("h^2 + 2*h - 3/4"), 2) == []

    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_continuum_families(self, samples):
        """One count sets both the sampled orbits and the sampled parameters."""
        w3 = parse_poly("zeta(3)*h")
        fams = enumerate_simples(w3, 3, samples=samples)
        by_variant = {}
        for f in fams:
            by_variant.setdefault(f.variant, []).append(f)
        assert len(by_variant[CYCLIC_X]) == samples  # one per sampled seed
        assert all(f.continuum_orbit for f in by_variant[CYCLIC_X])
        assert all(len(f.instantiations) == samples**2 for f in by_variant[CYCLIC_X])
        assert len(by_variant[CYCLIC_Y]) == 3 * samples  # n per sampled orbit
        assert all("pinned" in " ".join(f.notes) for f in by_variant[CYCLIC_Y])
        assert all(len(f.instantiations) == samples for f in by_variant[CYCLIC_Y])
        (nil,) = by_variant[NILPOTENT_X]
        assert nil.zdot_free
        assert tuple(str(v) for v in nil.excluded_zdot) == ("0",)

    @pytest.mark.parametrize("samples", [1, 2])
    @pytest.mark.parametrize("text, n", [("zeta(3)*h", 3), ("zeta(4)*h", 4)])
    def test_approx_continuum_matches_exact(self, text, n, samples):
        """On approximate rows f^(n) - h of a continuum is only about 0;
        the approx backend still samples the continuum as the exact one does."""

        def shape(fams):
            return sorted(
                (fam.variant, fam.continuum_orbit, fam.zdot_free, len(fam.instantiations))
                for fam in fams
            )

        f = parse_poly(text, "approx")
        fams = enumerate_simples(f, n, samples=samples)
        exact_fams = enumerate_simples(parse_poly(text), n, samples=samples)
        assert fams and shape(fams) == shape(exact_fams)
        for fam in fams:
            for d in fam.instantiations:
                m = build(d, f)
                assert verify_relations(m, f).ok and is_simple(m)
                back = module_from_json(module_to_json(m), "approx")
                assert modules_isomorphic(classify(back, f), d), d

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the approx backend's root searches still run Aberth on the whole "
        "polynomials, not on squarefree parts or a remainder: it finds 10 of the "
        "12 nilpotent zdots (the pair near 2.4382 +- 0.0577i misses the closure "
        "test by about 1e-10) and leaves one root of f^(4) - h ungrouped, a "
        "cyclic_x family with no instantiation",
    )
    def test_approx_zdots_match_exact(self):
        def zdots(fams):
            return sorted(
                (fam.zdot.embed() for fam in fams if fam.variant == NILPOTENT_X),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)),
            )

        fams = enumerate_simples(parse_poly("h^2 + 2*h - 3/4", "approx"), 4, samples=1)
        exact_fams = enumerate_simples(parse_poly("h^2 + 2*h - 3/4"), 4, samples=1)
        got, want = zdots(fams), zdots(exact_fams)
        assert len(want) == 12
        assert len(got) == len(want)
        assert all(abs(a - b) <= CONFIG.tol * max(1, abs(b)) for a, b in zip(got, want))
        assert all(fam.instantiations for fam in fams)

    def test_family_instantiations_respect_exclusions(self):
        w3 = parse_poly("zeta(3)*h")
        fams = enumerate_simples(w3, 3, samples=3)
        nil = next(f for f in fams if f.variant == NILPOTENT_X)
        for d in nil.instantiations:
            assert str(d.zdot) != "0"
            assert descriptor_problems(d, w3) == []


class TestOneDimensional:
    def test_constant_f_one_dim(self):
        f = parse_poly("3")
        d = CyclicXDescriptor(orbit=Orbit((exact(3),)), zdot=exact(1), a=exact(2))
        m = build(d, f)
        assert verify_relations(m, f).ok and is_simple(m)
        got = classify(m, f)
        assert modules_isomorphic(got, d)

    def test_enumerate_dimension_one(self):
        fams = enumerate_simples(H2, 1)
        # fixed points 0 and 1 each carry cyclic families
        orbits = {str(f.orbit.values[0]) for f in fams if f.orbit is not None}
        assert orbits == {"0", "1"}
