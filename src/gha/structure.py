"""Structure theory: the center of H(f) and deciding H(f1) = H(f2).

The center is large exactly when f(h) = w*h + (1-w)*c for a root of unity
w of some order l; then x^l, y^l, (h-c)^l and z generate it.  For every
other f the center is generated by z alone.

Two algebras H(f1), H(f2) are isomorphic in exactly five situations, by
the degree-1-or-less shape of the polynomials or, for degrees >= 2, by an
affine change of variable h -> a*h + c carrying f1 to f2.  ``iso_check``
decides which by field operations only, so exactly on exact input, and
produces a witness where one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .algebra import GHAElement, Presentation
from .polys import Poly, _split
from .scalars import (
    BackendMismatchError,
    Scalar,
    _close,
    as_scalar,
    root_of_unity_order,
    zero_like,
)

TRIVIAL_CZ = "trivial-Cz"
CYCLOTOMIC = "cyclotomic-case"


@dataclass
class CenterDescription:
    """Generators of the center of H(f).

    ``case`` is ``"cyclotomic-case"`` when f = w*h + (1-w)*c with w a root
    of unity of order ``l`` (then the fixed point ``c`` is recorded), and
    ``"trivial-Cz"`` otherwise.  ``generators`` always ends with z.
    """

    case: str
    generators: list[GHAElement]
    l: int | None = None
    c: Scalar | None = None


def center(f: Poly) -> CenterDescription:
    p = Presentation(f)
    z = p.generator("z")
    if f.degree != 1:
        return CenterDescription(TRIVIAL_CZ, [z])
    w = f.coefficient(1)
    b = f.coefficient(0)
    order = root_of_unity_order(w)
    if order is None:
        return CenterDescription(TRIVIAL_CZ, [z])
    one = as_scalar(1, f.backend)
    if w == one:
        if b != zero_like(b):
            # f = h + b with b != 0: translations have no fixed point
            return CenterDescription(TRIVIAL_CZ, [z])
        gens = [p.generator("x"), p.generator("y"), p.generator("h"), z]
        return CenterDescription(CYCLOTOMIC, gens, l=1, c=as_scalar(0, f.backend))
    c = b / (one - w)
    h_shift = Poly([-c, one])
    gens = [
        p.generator("x") ** order,
        p.generator("y") ** order,
        p.from_poly(h_shift ** order),
        z,
    ]
    return CenterDescription(CYCLOTOMIC, gens, l=order, c=c)


def affine_conjugate(f: Poly, a, c) -> Poly:
    """a * f((h - c)/a) + c, the conjugate of f by h -> a*h + c."""
    a = as_scalar(a, f.backend)
    c = as_scalar(c, f.backend)
    if a == zero_like(a):
        raise ValueError("conjugation scale a must be nonzero")
    one = as_scalar(1, f.backend)
    inner = Poly([-c / a, one / a])
    return f.compose(inner) * a + Poly([c])


@dataclass
class IsoWitness:
    a: Scalar
    c: Scalar
    swapped: bool = False


@dataclass
class IsoVerdict:
    """Outcome of the isomorphism decision.

    ``case`` labels which of the five shapes applied when isomorphic.
    For case 4 with ``swapped``, the witness (a, c) conjugates the
    compositional inverse of f1 onto f2 (the x/y-swap is applied first).
    ``numeric_witness`` marks a numeric witness; the verdict on an exact
    pair is exact all the same.
    """

    isomorphic: bool
    case: int | None = None
    witness: IsoWitness | None = None
    numeric_witness: bool = False
    detail: str = ""


def _linear_parts(f: Poly) -> tuple[Scalar, Scalar]:
    return f.coefficient(1), f.coefficient(0)


def compositional_inverse_linear(f: Poly) -> Poly:
    """g with g(f(h)) = h for linear f = a*h + b."""
    a, b = _linear_parts(f)
    one = as_scalar(1, f.backend)
    return Poly([-b / a, one / a])


def _centred(f: Poly) -> tuple[Poly, Scalar]:
    """(g, t) with g(h) = f(h + t) - t and t = -f_(d-1)/(d*f_d), so that g
    has no h^(d-1) term and f(h) = g(h - t) + t."""
    t = -f.coefficient(f.degree - 1) / (f.leading * f.degree)
    return f.compose(Poly([t, 1])) - Poly([t]), t


def _case5(f1: Poly, f2: Poly, conductor: int | None) -> IsoVerdict:
    """Degree d >= 2: is f2(a*h + c) = a*f1(h) + c for some a != 0 and c?

    Between the centred forms (:func:`_centred`) c = 0, so g2(a*h) = a*g1(h):
    g1 and g2 have the same zero coefficients, and one a solves
    a^(k-1) = g1_k/g2_k (k >= 1, k != d-1) and a = g2_0/g1_0.  Euclid on
    the exponents, (E, S), (e, r) -> (e, r), (E - m*e, S/r^m) with
    m = E // e, folds each equation into a^E = S until a^0 = r' is left,
    which holds iff r' = 1: field operations only, exact on exact input.
    On approximate rows an equation whose coefficient is zero within tol
    times the largest coefficient of f1 and f2 is left out, and the
    verdict is ``Poly.__eq__`` on the witness: does it carry f1 to f2?
    The witness a is the first root of t^E - S that :func:`_split` gives,
    numeric only when none lies in the working field, and c = t2 - a*t1.
    """
    d = f1.degree
    (g1, t1), (g2, t2) = _centred(f1), _centred(f2)
    no = IsoVerdict(False, detail="no affine conjugation matches")
    exact = f1.backend == "exact"
    size = 0.0 if exact else max(map(abs, f1.embed_coeffs() + f2.embed_coeffs()))

    def is_zero(x: Scalar) -> bool:
        return x.is_zero() if exact else _close(abs(x), size)

    E, S = d - 1, g1.leading / g2.leading
    for k in range(d - 1):
        x, y = g1.coefficient(k), g2.coefficient(k)
        zx, zy = is_zero(x), is_zero(y)
        if exact and zx != zy:
            return no
        if zx or zy:
            continue
        e, r = (1, y / x) if k == 0 else (k - 1, x / y)
        while e:
            m = E // e
            (E, S), (e, r) = (e, r), (E - m * e, S / r**m)
        if exact and r != 1:
            return no
    if exact:
        conductor = lcm(f1.conductor(), f2.conductor(), conductor or 1)
    found, numeric, _note = _split(Poly([-S] + [0] * (E - 1) + [1]), conductor)
    a = (found or numeric)[0][0]
    if found:
        return IsoVerdict(True, 5, IsoWitness(a, t2 - a * t1))
    detail = "witness found numerically; no exact witness in the working field"
    witness = IsoWitness(a, t2.approx() - a * t1.approx())
    if not exact and affine_conjugate(f1, a, witness.c) != f2:
        return no
    return IsoVerdict(True, 5, witness, True, detail if exact else "")


def iso_check(f1: Poly, f2: Poly, conductor: int | None = None) -> IsoVerdict:
    """Decide H(f1) = H(f2) and produce a witness when one exists."""
    if f1.backend != f2.backend:
        raise BackendMismatchError("cannot compare polynomials across backends")
    backend = f1.backend
    numeric = backend == "approx"
    d1 = max(f1.degree, 0)
    d2 = max(f2.degree, 0)
    one = as_scalar(1, backend)
    zero = as_scalar(0, backend)

    if d1 == 0 and d2 == 0:
        return IsoVerdict(True, case=1, numeric_witness=numeric, detail="both constant")
    if d1 != d2:
        return IsoVerdict(False, detail="degree mismatch")
    if d1 == 1:
        a1, b1 = _linear_parts(f1)
        a2, b2 = _linear_parts(f2)
        if a1 == one and a2 == one:
            if b1 == zero and b2 == zero:
                return IsoVerdict(
                    True, case=2, witness=IsoWitness(one, zero), numeric_witness=numeric
                )
            if b1 != zero and b2 != zero:
                return IsoVerdict(
                    True,
                    case=3,
                    witness=IsoWitness(b2 / b1, zero),
                    numeric_witness=numeric,
                )
            return IsoVerdict(False, detail="translation vs identity")
        if a1 == one or a2 == one:
            return IsoVerdict(False, detail="leading coefficient 1 vs not")
        if a1 == a2:
            c = (b2 - b1) / (one - a1)
            return IsoVerdict(
                True, case=4, witness=IsoWitness(one, c), numeric_witness=numeric
            )
        if a1 * a2 == one:
            g = compositional_inverse_linear(f1)
            gb = g.coefficient(0)
            c = (b2 - gb) / (one - a2)
            return IsoVerdict(
                True,
                case=4,
                witness=IsoWitness(one, c, swapped=True),
                numeric_witness=numeric,
            )
        return IsoVerdict(False, detail="linear leading coefficients not a = a' or a = 1/a'")
    return _case5(f1, f2, conductor)
