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
    power_size,
    zeros,
)
from .polys import Orbit, Poly, _group_orbits, _split, iterate, least_period
from .polys import periodic_points
from .scalars import BackendMismatchError, Scalar, as_scalar, backend_of

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


def _orbit_problems(orbit: Orbit, f: Poly) -> list[str]:
    vals = orbit.values
    n = len(vals)
    problems = []
    for i in range(n):
        if f.evaluate(vals[i]) != vals[(i + 1) % n]:
            problems.append(f"orbit is not an f-cycle: f(orbit[{i}]) != orbit[{(i + 1) % n}]")
            break
    return problems + _period_problems(orbit)


def _period_problems(orbit: Orbit) -> list[str]:
    n = len(orbit.values)
    d = least_period(orbit.values)
    return [f"orbit period is {d}, not the full length {n}"] if d < n else []


def _exclusion_problems(zdot: Scalar, weights: list[Scalar]) -> list[str]:
    """The nilpotent_x exclusions zdot + f^(i)(-zdot) != 0 for 0 < i < n,
    read off the weights f^(0..n-1)(-zdot)."""
    return [
        f"exclusion fails: zdot + f^({i})(-zdot) = 0 (module not simple)"
        for i in range(1, len(weights))
        if zdot == -weights[i]
    ]


def descriptor_problems(d: ModuleDescriptor, f: Poly, *, strict: bool = True) -> list[str]:
    """Constraint violations of d over f; empty when the descriptor is valid.

    With ``strict=False`` only the conditions needed for the defining
    relations to hold are checked; simplicity-only constraints (the
    cyclic_y index condition and the nilpotent exclusions) are skipped,
    which is how deliberately non-simple controls are constructed.
    A sum that must vanish is tested as one term == minus the other, so
    that on the approx backend the size of the terms counts.
    """
    problems: list[str] = []
    if isinstance(d, (CyclicXDescriptor, CyclicYDescriptor)):
        if d.a.is_zero():
            problems.append("parameter a must be nonzero")
        if not d.orbit.values:
            problems.append("orbit must not be empty")
            return problems
        problems.extend(_orbit_problems(d.orbit, f))
        if strict and isinstance(d, CyclicYDescriptor):
            if all(v != -d.zdot for v in d.orbit.values):
                problems.append("cyclic_y needs orbit[i] + zdot = 0 for some i")
        return problems
    if d.n < 1:
        problems.append("dimension must be >= 1")
        return problems
    pres = _weights(f, d.zdot, d.n)
    last = f.evaluate(pres[-1])
    if d.zdot != -last:
        problems.append(
            f"closure fails: zdot + f^({d.n})(-zdot) = {d.zdot + last}, expected 0"
        )
    if strict:
        problems.extend(_exclusion_problems(d.zdot, pres))
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

    Each relation's residual must be a zero matrix by
    :func:`gha.linalg.is_zero_matrix` against the largest entry of the
    matrices the relation compares: identically on the exact backend, and
    by :func:`gha.scalars._close` on the approx one, so that a module with
    large entries is held to the same relative precision as one with small
    entries.
    """
    fH = poly_at_matrix(f, m.H)
    HX, XfH = mat_mul(m.H, m.X), mat_mul(m.X, fH)
    YH, fHY = mat_mul(m.Y, m.H), mat_mul(fH, m.Y)
    YX, XY = mat_mul(m.Y, m.X), mat_mul(m.X, m.Y)
    # each relation's residual, and the matrices it compares
    diffs = {
        RELATION_NAMES[0]: (mat_sub(HX, XfH), (HX, XfH)),
        RELATION_NAMES[1]: (mat_sub(YH, fHY), (YH, fHY)),
        RELATION_NAMES[2]: (mat_sub(mat_sub(YX, XY), mat_sub(fH, m.H)), (YX, XY, fH, m.H)),
    }
    residuals = {}
    failed = []
    for name, (diff, compared) in diffs.items():
        residuals[name] = _largest(diff)
        if not is_zero_matrix(diff, max(map(_largest, compared))):
            failed.append(name)
    return RelationReport(not failed, residuals, tuple(failed))


def _largest(mat: Matrix) -> float:
    return max((abs(x) for row in mat for x in row), default=0.0)


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
    cond = None
    if m.backend == "exact":
        # a built module in another basis has its weights in its entries' field
        entries = (s.conductor for mat in (m.X, m.H, m.Y) for row in mat for s in row)
        cond = lcm(f.conductor(), *entries)
    found, numeric, _note = _split(charpoly(m.H), cond)
    if numeric and m.backend == "exact":
        raise ClassifyError(
            "cannot split the h-spectrum exactly in the working field; "
            "retry on the approx backend"
        )
    return [r for r, mult in found + numeric for _ in range(mult)]


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
    h-spectrum itself, chained into one f-orbit by scalar equality as
    periodic_points chains roots (each f(lambda) is matched to a remaining
    eigenvalue, never iterated further), and the result always satisfies
    modules_isomorphic(classify(build(d)), d).  A module whose descriptor
    breaks its family's simplicity conditions (an orbit of period less
    than n, a failed nilpotent_x exclusion), such as a direct sum of two
    copies of one simple module, raises ClassifyError.
    """
    n = m.n
    zmat = mat_sub(mat_mul(m.X, m.Y), m.H)
    zdot = is_scalar_matrix(zmat)
    if zdot is None:
        raise ClassifyError(
            "x*y - h does not act as a scalar: not a simple module of these families"
        )
    zero = as_scalar(0, m.backend)
    # x^n and y^n are judged against |X|^n and |Y|^n, the size their
    # rounding grows with, not against their own entries
    xn = mat_pow(m.X, n)
    size = power_size(m.X, n)
    if not is_zero_matrix(xn, size):
        a = is_scalar_matrix(xn, size)
        if a is None or a == zero:
            raise ClassifyError("x^n is neither zero nor an invertible scalar")
        orbit = _orbit_from_spectrum(m, f)
        return CyclicXDescriptor(orbit, zdot, a)
    if _invertible(m.Y, m.backend):
        yn = is_scalar_matrix(mat_pow(m.Y, n), power_size(m.Y, n))
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
    _raise_if_not_simple(_exclusion_problems(zdot, expected))
    return NilpotentXDescriptor(zdot, n)


def _orbit_from_spectrum(m: MatrixModule, f: Poly) -> Orbit:
    """The eigenvalues of H as one f-orbit of exact period n, in canonical
    rotation."""
    orbits, residuals = _group_orbits(f, _h_eigenvalues(m, f), m.n)
    if len(orbits) != 1 or residuals:
        raise ClassifyError("h-spectrum is not a single f-orbit")
    _raise_if_not_simple(_period_problems(orbits[0]))
    return orbits[0]


def _raise_if_not_simple(problems: list[str]) -> None:
    if problems:
        raise ClassifyError(f"not a simple module: {problems[0]}")


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


# the parameter values sampled instantiations draw from, in this order
_ZDOT_POOL = (0, 1, -1, 2, 3)
_A_POOL = (1, 2, -1, 3)


def _pool_scalars(pool, backend: str) -> list[Scalar]:
    return [as_scalar(p, backend) for p in pool]


def _cyclic_x_family(orbit: Orbit, backend: str, samples: int, continuum: bool) -> ModuleFamily:
    zpool = _pool_scalars(_ZDOT_POOL, backend)[:samples]
    apool = _pool_scalars(_A_POOL, backend)[:samples]
    inst = [CyclicXDescriptor(orbit, z0, a0) for z0 in zpool for a0 in apool]
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
    orbit: Orbit, backend: str, samples: int, continuum: bool
) -> list[ModuleFamily]:
    apool = _pool_scalars(_A_POOL, backend)[:samples]
    out = []
    for i, lam in enumerate(orbit.values):
        zdot = -lam
        inst = tuple(CyclicYDescriptor(orbit, zdot, a0) for a0 in apool)
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


_NUMERIC_ORBIT = (
    "orbit values lie outside the working cyclotomic field; "
    "this family is numeric (build against f.approx())",
)


def _closure_poly(fn: Poly) -> Poly:
    """q with q(z) = z + fn(-z), for fn = f^(n)."""
    minus = Poly([as_scalar(0, fn.backend), -as_scalar(1, fn.backend)])
    return Poly([as_scalar(0, fn.backend), as_scalar(1, fn.backend)]) + fn.compose(minus)


def _nilpotent_families(
    f: Poly, n: int, samples: int, conductor: int | None = None
) -> list[ModuleFamily]:
    backend = f.backend
    cond = lcm(f.conductor(), conductor or 1) if backend == "exact" else None
    q = _closure_poly(iterate(f, n))
    if q == 0:  # within tol on approximate rows
        # closure holds for every zdot: a one-parameter family, minus the
        # finitely many values breaking an exclusion at a smaller index
        excluded: list[Scalar] = []
        for i in range(1, n):
            qi = _closure_poly(iterate(f, i))
            if qi == 0:
                # an exclusion fails identically, so no zdot works at all
                return []
            found, numeric, _note = _split(qi, cond)
            for v, _ in found + numeric:
                if all(v != u for u in excluded):
                    excluded.append(v)
        inst = []
        for z0 in _pool_scalars(_ZDOT_POOL, backend):
            d = NilpotentXDescriptor(z0, n)
            if not descriptor_problems(d, f):
                inst.append(d)
            if len(inst) >= samples:
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
    found, numeric, note = _split(q, cond)
    # a numeric zdot of an exact f is checked, and its module built, over f.approx()
    tagged = (f"closure polynomial: {note} (build this family against f.approx())",) if note else ()
    fa = f.approx()
    candidates = [(z0, f, ()) for z0, _ in found] + [(z0, fa, tagged) for z0, _ in numeric]
    families: list[ModuleFamily] = []
    rejected: list[str] = []
    for z0, g, notes in candidates:
        d = NilpotentXDescriptor(z0, n)
        problems = descriptor_problems(d, g)
        if problems:
            rejected.append(f"candidate zdot = {z0} rejected: {problems[0]}")
            continue
        families.append(ModuleFamily(NILPOTENT_X, n, zdot=z0, instantiations=(d,), notes=notes))
    if rejected and families:
        families[0] = replace(families[0], notes=tuple(rejected) + families[0].notes)
    return families


def enumerate_simples(
    f: Poly, n: int, *, samples: int = 2, conductor: int | None = None
) -> list[ModuleFamily]:
    """All families of n-dimensional simple modules over H(f).

    Per exact-period-n orbit: one cyclic_x family (zdot, a free) and one
    cyclic_y family per orbit index (a free).  Plus the finite (or, when
    the closure equation is identically zero, one-parameter) nilpotent_x
    list.

    ``samples`` (at least 1) is how many values of each free parameter the
    sampled instantiations take, the first ones of a fixed pool (five
    zdots, four a's): cyclic_x pairs them, cyclic_y takes the a's, and a
    one-parameter nilpotent_x family the zdots that pass its exclusions.
    When f^(n) is the identity it is also the number of representative
    orbits sampled from the continuum.

    ``conductor`` widens the cyclotomic field searched for exact orbits
    and zdots.  A family of an exact f whose own orbit or zdot cannot be
    expressed in that field is emitted on the approx backend with a note
    that says it is numeric; its instantiations must be built against
    f.approx().  Every other family stays exact.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if f == Poly.variable(f.backend):
        raise ValueError(
            "f = h makes H(f) commutative; finite-dimensional simple modules "
            "are the 1-dimensional characters and are not enumerated here"
        )
    if n < 1:
        raise ValueError("dimension must be >= 1")
    orbit_set = periodic_points(f, n, samples=samples, conductor=conductor)
    families: list[ModuleFamily] = []
    for orb in orbit_set.orbits:
        backend = backend_of(orb.values[0])  # approx for a numeric orbit of an exact f
        fams = [_cyclic_x_family(orb, backend, samples, orbit_set.continuum)]
        fams.extend(_cyclic_y_families(orb, backend, samples, orbit_set.continuum))
        if backend != f.backend:
            fams = [replace(fam, notes=fam.notes + _NUMERIC_ORBIT) for fam in fams]
        families.extend(fams)
    families.extend(_nilpotent_families(f, n, samples, conductor))
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
