"""Structure theory: the center of H(f) and deciding H(f1) = H(f2).

The center is large exactly when f(h) = w*h + (1-w)*c for a root of unity
w of some order l; then x^l, y^l, (h-c)^l and z generate it.  For every
other f the center is generated by z alone.

Two algebras H(f1), H(f2) are isomorphic in exactly five situations, by
the degree-1-or-less shape of the polynomials or, for degrees >= 2, by an
affine change of variable h -> a*h + c carrying f1 to f2.  ``iso_check``
decides which and produces a witness where one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .algebra import GHAElement, Presentation
from .polys import Poly, _split
from .scalars import (
    BackendMismatchError,
    Scalar,
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
    ``numeric_witness`` marks verdicts whose verification was done in
    floating point rather than exactly.
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


def _solve_shift(f1: Poly, f2: Poly, a: Scalar) -> Scalar | None:
    """The unique c making the degree-(d-1) coefficients agree.

    That coefficient of affine_conjugate(f1, a, c) is linear in c with
    nonzero slope, so two evaluations pin it down.
    """
    d = f1.degree
    zero = as_scalar(0, f1.backend)
    one = as_scalar(1, f1.backend)
    p0 = affine_conjugate(f1, a, zero).coefficient(d - 1)
    p1 = affine_conjugate(f1, a, one).coefficient(d - 1)
    slope = p1 - p0
    if slope == zero:
        return None
    return (f2.coefficient(d - 1) - p0) / slope


def _case5(f1: Poly, f2: Poly, conductor: int | None) -> IsoVerdict:
    """Degree >= 2: a witness scale a is a root of t^(d-1) - lead(f1)/lead(f2).

    Each root found in the working cyclotomic field is tried on (f1, f2);
    each numeric one, on their approx() images, and a match there is a
    numeric witness.
    """
    d = f1.degree
    one, zero = as_scalar(1, f1.backend), as_scalar(0, f1.backend)
    pol = Poly([-(f1.leading / f2.leading)] + [zero] * (d - 2) + [one])
    if f1.backend == "exact":
        conductor = lcm(f1.conductor(), f2.conductor(), conductor or 1)
    found, numeric, _note = _split(pol, conductor)
    g1, g2 = f1.approx(), f2.approx()
    for a, h1, h2 in [(a, f1, f2) for a, _ in found] + [(a, g1, g2) for a, _ in numeric]:
        c = _solve_shift(h1, h2, a)
        if c is not None and affine_conjugate(h1, a, c) == h2:
            verdict = IsoVerdict(True, 5, IsoWitness(a, c), numeric_witness=h1.backend == "approx")
            if h1 is not f1:  # a numeric scale of an exact pair
                verdict.detail = "witness found numerically; no exact witness in the working field"
            return verdict
    return IsoVerdict(False, detail="no affine conjugation matches")


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
