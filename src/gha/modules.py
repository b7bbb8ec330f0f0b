"""Finite-dimensional simple modules over H(f), as explicit matrices.

Three families cover every finite-dimensional simple module (for f != h):

* ``cyclic_x``: x acts as an invertible cycle on a weight basis whose
  h-eigenvalues form an exact-period-n orbit of h -> f(h); x^n acts as the
  scalar a != 0.
* ``cyclic_y``: same orbit data but y is the invertible cycle (y^n acts as
  1/a) and x picks up the weight factors; requires lambda(i) + zdot = 0 for
  some index, which is what keeps it out of the cyclic_x family.
* ``nilpotent_x``: x is a nilpotent shift, weights are the forward
  f-iterates of -zdot, and existence/simplicity are controlled by the
  closure equation zdot + f^(n)(-zdot) = 0 together with the exclusions
  zdot + f^(i)(-zdot) != 0 for 0 < i < n.

Everything is materialized on the basis t^0 .. t^(n-1), column-action
convention: matrix entry (r, c) is the coefficient of t^r in the image of
t^c.  Infinite-dimensional weight modules (the loop-algebra-style ones the
finite families are quotients of) are deliberately not materialized.

``enumerate_simples`` returns symbolic families with free parameters and
sampled instantiations; it never pretends a continuum is a finite list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import lcm

from .config import CONFIG, EnumerationConfig
from .linalg import (
    EchelonBasis,
    Matrix,
    charpoly,
    flatten,
    identity,
    is_diagonal,
    is_scalar_matrix,
    is_zero_matrix,
    mat_mul,
    mat_pow,
    mat_sub,
    poly_at_matrix,
    zeros,
)
from .polys import ContinuumOfOrbitsError, Orbit, Poly, exact_roots, least_period
from .polys import _extend_iterates, _group_orbits, orbit_match, periodic_points, roots
from .scalars import BackendMismatchError, Scalar, as_scalar, backend_of, zero_like

CYCLIC_X = "cyclic_x"
CYCLIC_Y = "cyclic_y"
NILPOTENT_X = "nilpotent_x"


class DescriptorError(ValueError):
    """A module descriptor violates one of its family's constraints."""


class ClassifyError(ValueError):
    """The matrices do not belong to one of the three simple families."""


@dataclass(frozen=True)
class CyclicXDescriptor:
    orbit: Orbit
    zdot: Scalar
    a: Scalar
    variant = CYCLIC_X

    @property
    def n(self) -> int:
        return self.orbit.period


@dataclass(frozen=True)
class CyclicYDescriptor:
    orbit: Orbit
    zdot: Scalar
    a: Scalar
    variant = CYCLIC_Y

    @property
    def n(self) -> int:
        return self.orbit.period


@dataclass(frozen=True)
class NilpotentXDescriptor:
    zdot: Scalar
    n: int
    variant = NILPOTENT_X


ModuleDescriptor = CyclicXDescriptor | CyclicYDescriptor | NilpotentXDescriptor


@dataclass
class MatrixModule:
    n: int
    X: Matrix
    H: Matrix
    Y: Matrix

    @property
    def backend(self) -> str:
        return backend_of(self.X[0][0])


def _mag(s: Scalar) -> float:
    return abs(s.embed())


def _orbit_problems(orbit: Orbit, f: Poly) -> list[str]:
    vals = orbit.values
    n = len(vals)
    problems = []
    for i in range(n):
        if f.evaluate(vals[i]) != vals[(i + 1) % n]:
            problems.append(f"orbit is not an f-cycle: f(orbit[{i}]) != orbit[{(i + 1) % n}]")
            break
    d = least_period(vals)
    if d < n:
        problems.append(f"orbit period is {d}, not the full length {n}")
    return problems


def descriptor_problems(d: ModuleDescriptor, f: Poly, *, strict: bool = True) -> list[str]:
    """Constraint violations of d over f; empty when the descriptor is valid.

    With ``strict=False`` only the conditions needed for the defining
    relations to hold are checked; simplicity-only constraints (the
    cyclic_y index condition and the nilpotent exclusions) are skipped,
    which is how deliberately non-simple controls are constructed.
    """
    zero = as_scalar(0, f.backend)
    problems: list[str] = []
    if isinstance(d, (CyclicXDescriptor, CyclicYDescriptor)):
        if d.a == zero:
            problems.append("parameter a must be nonzero")
        if not d.orbit.values:
            problems.append("orbit must not be empty")
            return problems
        problems.extend(_orbit_problems(d.orbit, f))
        if strict and isinstance(d, CyclicYDescriptor):
            if all(v + d.zdot != zero for v in d.orbit.values):
                problems.append("cyclic_y needs orbit[i] + zdot = 0 for some i")
        return problems
    if d.n < 1:
        problems.append("dimension must be >= 1")
        return problems
    pres = _weights(f, d.zdot, d.n)
    closure = d.zdot + f.evaluate(pres[-1])
    if closure != zero:
        problems.append(
            f"closure fails: zdot + f^({d.n})(-zdot) = {closure}, expected 0"
        )
    if strict:
        for i in range(1, d.n):
            v = d.zdot + pres[i]
            if v == zero:
                problems.append(
                    f"exclusion fails: zdot + f^({i})(-zdot) = 0 (module not simple)"
                )
            elif f.backend == "approx" and _mag(v) <= CONFIG.tol:
                problems.append(
                    f"borderline: zdot + f^({i})(-zdot) = {v} is within tolerance of 0; "
                    "rejecting to fail closed"
                )
    return problems


def _weights(f: Poly, zdot: Scalar, n: int) -> list[Scalar]:
    """f^(0)(-zdot) .. f^(n-1)(-zdot)."""
    out = [-zdot]
    for _ in range(n - 1):
        out.append(f.evaluate(out[-1]))
    return out


def build(d: ModuleDescriptor, f: Poly, *, check: bool = True) -> MatrixModule:
    """Materialize the module of descriptor d as matrices.

    Raises DescriptorError naming the violated constraint unless
    ``check=False``, which permits simplicity-violating (but still
    relation-satisfying) constructions.
    """
    _check_backends(d, f)
    problems = descriptor_problems(d, f, strict=check)
    if problems:
        raise DescriptorError("; ".join(problems))
    backend = f.backend
    one = as_scalar(1, backend)
    n = d.n
    # lam[c] is the weight of t^c; xs[c] and ys[c] are the entries of X and Y
    # at ((c+1) % n, c) and ((c-1) % n, c), the wrap-around ones last and first
    if isinstance(d, CyclicXDescriptor):
        lam = d.orbit.values
        xs = [one] * (n - 1) + [d.a]
        ys = [(lam[c] + d.zdot) * (one / d.a if c == 0 else one) for c in range(n)]
    elif isinstance(d, CyclicYDescriptor):
        lam = d.orbit.values
        xs = [lam[(c + 1) % n] + d.zdot for c in range(n)]
        xs[-1] = xs[-1] * d.a
        ys = [one / d.a] + [one] * (n - 1)
    else:
        lam = _weights(f, d.zdot, n)
        zero = as_scalar(0, backend)
        xs = [one] * (n - 1) + [zero]
        ys = [zero] + [d.zdot + v for v in lam[1:]]
    X, H, Y = (zeros(n, n, backend) for _ in range(3))
    for c in range(n):
        H[c][c] = lam[c]
        X[(c + 1) % n][c] = xs[c]
        Y[(c - 1) % n][c] = ys[c]
    return MatrixModule(n, X, H, Y)


def _check_backends(d: ModuleDescriptor, f: Poly) -> None:
    scalars = [d.zdot]
    if isinstance(d, (CyclicXDescriptor, CyclicYDescriptor)):
        scalars.append(d.a)
        scalars.extend(d.orbit.values)
    for s in scalars:
        if backend_of(s) != f.backend:
            raise BackendMismatchError(
                "descriptor scalars and f use different backends"
            )


@dataclass
class RelationReport:
    ok: bool
    residuals: dict[str, float] = field(default_factory=dict)
    failed: tuple[str, ...] = ()

    def __str__(self) -> str:
        lines = ["relations ok" if self.ok else "RELATIONS FAILED"]
        for name, r in self.residuals.items():
            mark = "FAIL" if name in self.failed else "ok"
            lines.append(f"  {name}: residual {r:.3e} [{mark}]")
        return "\n".join(lines)


RELATION_NAMES = ("h*x = x*f(h)", "y*h = f(h)*y", "y*x - x*y = f(h) - h")


def verify_relations(m: MatrixModule, f: Poly) -> RelationReport:
    """Check the three defining relations on the matrices of m.

    Exact backend: entries must vanish identically.  Approx backend: the
    largest embedded residual of each relation must stay within CONFIG.tol.
    """
    fH = poly_at_matrix(f, m.H)
    diffs = {
        RELATION_NAMES[0]: mat_sub(mat_mul(m.H, m.X), mat_mul(m.X, fH)),
        RELATION_NAMES[1]: mat_sub(mat_mul(m.Y, m.H), mat_mul(fH, m.Y)),
        RELATION_NAMES[2]: mat_sub(
            mat_sub(mat_mul(m.Y, m.X), mat_mul(m.X, m.Y)),
            mat_sub(fH, m.H),
        ),
    }
    residuals = {}
    failed = []
    for name, diff in diffs.items():
        r = max((_mag(x) for row in diff for x in row), default=0.0)
        residuals[name] = r
        if m.backend == "exact":
            if not is_zero_matrix(diff):
                failed.append(name)
        elif r > CONFIG.tol:
            failed.append(name)
    return RelationReport(not failed, residuals, tuple(failed))


def is_simple(m: MatrixModule) -> bool:
    """Burnside test: the algebra generated by X, H, Y is all of M_n.

    Closes the span of {I, X, H, Y} under left multiplication by the
    generators until it stabilizes; the module is simple exactly when the
    closure has dimension n^2.
    """
    n = m.n
    target = n * n
    basis = EchelonBasis(target, m.backend)
    gens = (m.X, m.H, m.Y)
    work = []
    for seed in (identity(n, m.backend),) + gens:
        if basis.insert(flatten(seed)):
            work.append(seed)
    while work and basis.dim < target:
        mat = work.pop()
        for g in gens:
            prod = mat_mul(g, mat)
            if basis.insert(flatten(prod)):
                work.append(prod)
                if basis.dim >= target:
                    break
    return basis.dim == target


def _h_eigenvalues(m: MatrixModule, f: Poly) -> list[Scalar]:
    if is_diagonal(m.H):
        return [m.H[i][i] for i in range(m.n)]
    cp = charpoly(m.H)
    if m.backend == "exact":
        # a built module in another basis has its weights in its entries' field
        entries = (s.conductor for mat in (m.X, m.H, m.Y) for row in mat for s in row)
        found, rem = exact_roots(cp, conductor=lcm(f.conductor(), *entries))
        if rem.degree > 0:
            raise ClassifyError(
                "cannot split the h-spectrum exactly in the working field; "
                "retry on the approx backend"
            )
        out: list[Scalar] = []
        for r, mult in found:
            out.extend([r] * mult)
        return out
    return list(roots(cp))


def _multiset_equal(xs: list[Scalar], ys: list[Scalar]) -> bool:
    pool = list(ys)
    for x in xs:
        for i, y in enumerate(pool):
            if x == y:
                pool.pop(i)
                break
        else:
            return False
    return not pool


def _invertible(mat: Matrix, backend: str) -> bool:
    eb = EchelonBasis(len(mat), backend)
    return all(eb.insert(list(row)) for row in mat)


def classify(m: MatrixModule, f: Poly) -> ModuleDescriptor:
    """Decide which family m belongs to and recover its descriptor.

    The trichotomy: x^n != 0 puts m in cyclic_x; otherwise an invertible y
    puts it in cyclic_y; otherwise it is nilpotent_x.  The orbit is the
    h-spectrum itself, chained into one f-orbit by the matcher
    periodic_points uses (each f(lambda) is matched to a remaining
    eigenvalue, never iterated further), and the result always satisfies
    modules_isomorphic(classify(build(d)), d).
    """
    n = m.n
    zmat = mat_sub(mat_mul(m.X, m.Y), m.H)
    zdot = is_scalar_matrix(zmat)
    if zdot is None:
        raise ClassifyError(
            "x*y - h does not act as a scalar: not a simple module of these families"
        )
    zero = as_scalar(0, m.backend)
    xn = mat_pow(m.X, n)
    if not is_zero_matrix(xn):
        a = is_scalar_matrix(xn)
        if a is None or a == zero:
            raise ClassifyError("x^n is neither zero nor an invertible scalar")
        orbit = _orbit_from_spectrum(m, f)
        return CyclicXDescriptor(orbit, zdot, a)
    if _invertible(m.Y, m.backend):
        yn = is_scalar_matrix(mat_pow(m.Y, n))
        if yn is None or yn == zero:
            raise ClassifyError("y^n is not an invertible scalar")
        a = as_scalar(1, m.backend) / yn
        orbit = _orbit_from_spectrum(m, f)
        return CyclicYDescriptor(orbit, zdot, a)
    expected = _weights(f, zdot, n)
    if not _multiset_equal(_h_eigenvalues(m, f), expected):
        raise ClassifyError(
            "h-spectrum does not match the forward iterates of -zdot"
        )
    return NilpotentXDescriptor(zdot, n)


def _orbit_from_spectrum(m: MatrixModule, f: Poly) -> Orbit:
    """The eigenvalues of H as one f-orbit, in canonical rotation."""
    orbits, residuals = _group_orbits(f, _h_eigenvalues(m, f), m.n, orbit_match)
    if len(orbits) != 1 or residuals:
        raise ClassifyError("h-spectrum is not a single f-orbit")
    return orbits[0]


def modules_isomorphic(d1: ModuleDescriptor, d2: ModuleDescriptor) -> bool:
    """Same family, same scalar data, orbits equal up to a cyclic shift.

    The parameter a needs no shift adjustment: x^n acts as a basis-free
    scalar operator, so a is invariant under reindexing the orbit.
    """
    if d1.variant != d2.variant:
        return False
    if isinstance(d1, NilpotentXDescriptor):
        return d1.n == d2.n and d1.zdot == d2.zdot
    return (
        d1.zdot == d2.zdot
        and d1.a == d2.a
        and d1.orbit.same_cycle(d2.orbit)
    )


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleFamily:
    """A family of simple modules sharing one shape.

    Free parameters are flagged rather than expanded: ``zdot_free`` means
    any complex zdot outside ``excluded_zdot`` works, ``a_free`` means any
    nonzero a.  ``instantiations`` holds finitely many sampled members.
    ``continuum_orbit`` marks orbits drawn from a continuum of orbits
    (f^(n) = identity), where the listed orbit is a representative.
    """

    variant: str
    n: int
    orbit: Orbit | None = None
    zdot: Scalar | None = None
    zdot_free: bool = False
    a_free: bool = False
    excluded_zdot: tuple[Scalar, ...] = ()
    continuum_orbit: bool = False
    instantiations: tuple[ModuleDescriptor, ...] = ()
    notes: tuple[str, ...] = ()


def _pool_scalars(pool, backend: str) -> list[Scalar]:
    return [as_scalar(p, backend) for p in pool]


def _cyclic_x_family(
    orbit: Orbit, f: Poly, cfg: EnumerationConfig, continuum: bool
) -> ModuleFamily:
    backend = f.backend
    zero = as_scalar(0, backend)
    inst = []
    zpool = _pool_scalars(cfg.zdot_pool, backend)
    apool = [a for a in _pool_scalars(cfg.a_pool, backend) if a != zero]
    for z0 in zpool[: cfg.instantiations]:
        for a0 in apool[: cfg.instantiations]:
            inst.append(CyclicXDescriptor(orbit, z0, a0))
    return ModuleFamily(
        CYCLIC_X,
        orbit.period,
        orbit=orbit,
        zdot_free=True,
        a_free=True,
        continuum_orbit=continuum,
        instantiations=tuple(inst),
    )


def _cyclic_y_families(
    orbit: Orbit, f: Poly, cfg: EnumerationConfig, continuum: bool
) -> list[ModuleFamily]:
    backend = f.backend
    zero = as_scalar(0, backend)
    apool = [a for a in _pool_scalars(cfg.a_pool, backend) if a != zero]
    out = []
    for i, lam in enumerate(orbit.values):
        zdot = -lam
        inst = tuple(
            CyclicYDescriptor(orbit, zdot, a0) for a0 in apool[: cfg.instantiations]
        )
        out.append(
            ModuleFamily(
                CYCLIC_Y,
                orbit.period,
                orbit=orbit,
                zdot=zdot,
                a_free=True,
                continuum_orbit=continuum,
                instantiations=inst,
                notes=(f"zdot pinned to -orbit[{i}]",),
            )
        )
    return out


def _closure_poly(fn: Poly) -> Poly:
    """q with q(z) = z + fn(-z), for fn = f^(n)."""
    minus = Poly([as_scalar(0, fn.backend), -as_scalar(1, fn.backend)])
    return Poly([as_scalar(0, fn.backend), as_scalar(1, fn.backend)]) + fn.compose(minus)


def _nilpotent_families(
    f: Poly, n: int, cfg: EnumerationConfig, conductor: int | None = None
) -> list[ModuleFamily]:
    backend = f.backend
    iterates = [Poly.variable(backend)]
    q = _closure_poly(_extend_iterates(f, iterates, n))
    if q.is_zero():
        # closure holds for every zdot: a one-parameter family, minus the
        # finitely many values breaking an exclusion at a smaller index
        excluded: list[Scalar] = []
        for i in range(1, n):
            qi = _closure_poly(iterates[i])
            if qi.is_zero():
                # an exclusion fails identically, so no zdot works at all
                return []
            for v in _roots_with_note(qi, f, conductor)[0]:
                if all(v != u for u in excluded):
                    excluded.append(v)
        inst = []
        for z0 in _pool_scalars(cfg.zdot_pool, backend):
            d = NilpotentXDescriptor(z0, n)
            if not descriptor_problems(d, f):
                inst.append(d)
            if len(inst) >= cfg.instantiations:
                break
        return [
            ModuleFamily(
                NILPOTENT_X,
                n,
                zdot_free=True,
                excluded_zdot=tuple(excluded),
                instantiations=tuple(inst),
            )
        ]
    families: list[ModuleFamily] = []
    notes: list[str] = []
    candidates, unsplit_note = _roots_with_note(q, f, conductor)
    if unsplit_note:
        notes.append(unsplit_note)
    seen: list[Scalar] = []
    for z0 in candidates:
        if any(z0 == u for u in seen):
            continue
        seen.append(z0)
        d = NilpotentXDescriptor(z0, n)
        problems = descriptor_problems(d, f)
        if problems:
            notes.append(f"candidate zdot = {z0} rejected: {problems[0]}")
            continue
        families.append(ModuleFamily(NILPOTENT_X, n, zdot=z0, instantiations=(d,)))
    if notes and families:
        families[0] = replace(families[0], notes=tuple(notes))
    elif unsplit_note and not families:
        # every found root was rejected, but the closure polynomial did not
        # split completely, so emptiness is not proven; surface that instead
        # of silently claiming there is nothing
        families.append(ModuleFamily(NILPOTENT_X, n, notes=tuple(notes)))
    return families


def _roots_with_note(q: Poly, f: Poly, conductor: int | None = None) -> tuple[list[Scalar], str]:
    if q.backend == "exact":
        found, rem = exact_roots(q, conductor=lcm(f.conductor(), conductor or 1))
        note = ""
        if rem.degree > 0:
            note = (
                f"degree-{rem.degree} factor of the closure polynomial has no roots "
                "in the working cyclotomic field; those candidates are only reachable "
                "on the approx backend"
            )
        return [r for r, _m in found], note
    return list(roots(q)), ""


def enumerate_simples(
    f: Poly,
    n: int,
    cfg: EnumerationConfig | None = None,
    *,
    conductor: int | None = None,
) -> list[ModuleFamily]:
    """All families of n-dimensional simple modules over H(f).

    Per exact-period-n orbit: one cyclic_x family (zdot, a free) and one
    cyclic_y family per orbit index (a free).  Plus the finite (or, when
    the closure equation is identically zero, one-parameter) nilpotent_x
    list.  Families carry sampled instantiations per ``cfg``.

    ``conductor`` widens the cyclotomic field searched for exact orbits.
    When an exact f has orbits that still cannot be expressed in that
    field, those orbit families are emitted on the approx backend with a
    note saying so; their instantiations must be built against f.approx().
    """
    cfg = cfg or EnumerationConfig()
    if f == Poly.variable(f.backend):
        raise ValueError(
            "f = h makes H(f) commutative; finite-dimensional simple modules "
            "are the 1-dimensional characters and are not enumerated here"
        )
    if n < 1:
        raise ValueError("dimension must be >= 1")
    try:
        orbit_set = periodic_points(f, n, conductor=conductor)
    except ContinuumOfOrbitsError:
        orbit_set = periodic_points(f, n, samples=cfg.orbit_samples, conductor=conductor)
    f_orb = f
    orbit_notes: tuple[str, ...] = ()
    if (
        f.backend == "exact"
        and orbit_set.orbits
        and backend_of(orbit_set.orbits[0].values[0]) == "approx"
    ):
        f_orb = f.approx()
        orbit_notes = (
            "orbit values lie outside the working cyclotomic field; "
            "this family is numeric (build against f.approx())",
        )
    families: list[ModuleFamily] = []
    for orb in orbit_set.orbits:
        fams = [_cyclic_x_family(orb, f_orb, cfg, orbit_set.continuum)]
        fams.extend(_cyclic_y_families(orb, f_orb, cfg, orbit_set.continuum))
        if orbit_notes:
            fams = [replace(fam, notes=fam.notes + orbit_notes) for fam in fams]
        families.extend(fams)
    families.extend(_nilpotent_families(f, n, cfg, conductor))
    if orbit_set.residual_roots:
        families.append(
            ModuleFamily(
                CYCLIC_X,
                n,
                instantiations=(),
                notes=(
                    "numeric roots could not be grouped into orbits: "
                    + ", ".join(str(r) for r in orbit_set.residual_roots),
                ),
            )
        )
    return families
