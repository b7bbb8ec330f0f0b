"""Building, verifying, classifying, and enumerating the finite-dimensional
simple modules."""

import pytest

from gha.config import EnumerationConfig
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
from gha.scalars import as_scalar, backend_of, exact, zeta
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


class TestClassifyExpandingCycle:
    """f = h^2 + 2h - 3/4 has 4-cycles on which |f'| multiplies to about 26,
    so iterating f from one eigenvalue drifts off the spectrum; classify must
    match each image against the eigenvalues instead."""

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    def test_every_instantiation_round_trips_through_json(self, backend):
        f = parse_poly("h^2 + 2*h - 3/4", backend)
        cfg = EnumerationConfig(instantiations=1, orbit_samples=1)
        checked = 0
        for fam in enumerate_simples(f, 4, cfg):
            for d in fam.instantiations:
                # numeric families of an exact f are built against f.approx()
                f_used = f.approx() if backend_of(d.zdot) == "approx" else f
                m = build(d, f_used)
                back = module_from_json(module_to_json(m), m.backend)
                assert modules_isomorphic(classify(back, f_used), d), d
                checked += 1
        assert checked == (15 if backend == "exact" else 25)


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
        # the nilpotent closure has no rational roots that survive, and the
        # cyclotomic pair is invisible without the conductor hint
        nil = [f for f in fams if f.variant == NILPOTENT_X]
        assert all(not f.instantiations for f in nil)
        assert any("working cyclotomic field" in note for f in nil for note in f.notes)

    def test_example_with_no_two_dimensional_modules(self):
        assert enumerate_simples(parse_poly("h^2 + 2*h - 3/4"), 2) == []

    def test_continuum_families(self):
        w3 = parse_poly("zeta(3)*h")
        cfg = EnumerationConfig(instantiations=1, orbit_samples=2)
        fams = enumerate_simples(w3, 3, cfg)
        by_variant = {}
        for f in fams:
            by_variant.setdefault(f.variant, []).append(f)
        assert len(by_variant[CYCLIC_X]) == 2  # one per sampled seed
        assert all(f.continuum_orbit for f in by_variant[CYCLIC_X])
        assert len(by_variant[CYCLIC_Y]) == 6  # n per sampled orbit
        assert all("pinned" in " ".join(f.notes) for f in by_variant[CYCLIC_Y])
        (nil,) = by_variant[NILPOTENT_X]
        assert nil.zdot_free
        assert tuple(str(v) for v in nil.excluded_zdot) == ("0",)

    def test_family_instantiations_respect_exclusions(self):
        w3 = parse_poly("zeta(3)*h")
        fams = enumerate_simples(w3, 3, EnumerationConfig(instantiations=3, orbit_samples=1))
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
