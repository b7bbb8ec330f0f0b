"""Univariate polynomials over either scalar backend, plus root machinery.

The polynomial variable is written ``h`` throughout (it always stands for the
Cartan-type generator of the algebra).  Coefficients are stored densely in
ascending order and live entirely in one backend; neutral int/Fraction
literals lift to whichever backend the other coefficients use.

Every exact :class:`Poly` is stored in integer form over Q(zeta_N), N the
lcm of its inputs' conductors: N, one common denominator, and phi(N)
integer numerators per coefficient (the FLINT ``fmpq_poly`` layout).
Sums, differences, negation and equality work on the numerators directly;
a product multiplies the numerator rows, short ones by schoolbook and long
ones as one big-integer product by Kronecker substitution (Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
2009), then reduces each coefficient mod Phi_N; a composition runs Horner
on the rows under one running denominator, and so do evaluation (the
composition with a constant) and division.  Each result is made canonical
once, at the end.  An approximate :class:`Poly` is the same form with
conductor 0 and one ``complex`` per coefficient, run through the same
code.  ``Poly.coeffs``, scalars built on each access, is a view for
printing, JSON and matrices; no operation here reads it.  The row
routines live in :mod:`gha.scalars`, whose scalars are the same form.

Root finding comes in two flavours:

* :func:`roots` finds all complex roots with multiplicity, by simultaneous
  Aberth-Ehrlich iteration followed by Newton polishing.
* :func:`exact_roots` finds the roots lying in Q(zeta_N), by recognising
  numeric roots of each squarefree part as field elements and verifying by
  exact division.

``_split`` keeps every root exact_roots finds and runs :func:`roots` on the
unsplit rest only; :func:`periodic_points` builds on it to enumerate the
exact-period-n orbits of the self-map h -> f(h).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest

from .config import CONFIG
from .scalars import (
    _NEUTRAL,
    ApproxComplex,
    BackendMismatchError,
    CyclotomicNumber,
    DegreeOverflowError,
    Scalar,
    _canonical,
    _check_degree,
    _close,
    _cyclotomic,
    _embed_row,
    _form,
    _lift_rows,
    _mul_rows,
    _power,
    _product_form,
    _rational_parts,
    _same_value,
    _sum_form,
    _width,
    approx,
    as_scalar,
    backend_of,
    divisors,
    euler_phi,
    exact,
    zero_like,
    zeta,
)


class RootFindingError(RuntimeError):
    """The numeric root finder failed to converge; partial roots attached."""

    def __init__(self, message: str, partial=None) -> None:
        super().__init__(message)
        self.partial = partial or []


class ContinuumOfOrbitsError(ValueError):
    """Every point is periodic, so orbits form a continuum, not a list."""


def _backend_of_coeffs(coeffs) -> str:
    """The backend of a coefficient list; neutral int/Fraction literals
    take the other coefficients' backend, or the exact one."""
    backend = None
    for c in coeffs:
        if isinstance(c, CyclotomicNumber):
            b = "exact"
        elif isinstance(c, (ApproxComplex, float, complex)):
            b = "approx"
        elif isinstance(c, _NEUTRAL):
            continue
        else:
            raise TypeError(f"bad polynomial coefficient {c!r}")
        if backend is None:
            backend = b
        elif backend != b:
            raise BackendMismatchError("polynomial mixes exact and approximate coefficients")
    return backend or "exact"


class Poly:
    """Dense univariate polynomial in h over one scalar backend.

    A polynomial is held in the form ``(N, den, num)``: ``num`` lists,
    coefficient after coefficient in ascending degree, the phi(N) integer
    numerators of each coefficient in the power basis 1, zeta_N, ...,
    zeta_N^(phi(N)-1), and ``den > 0`` is their one common denominator.
    N is the lcm of the conductors of the inputs, and every coefficient
    prints in Q(zeta_N).  The form is canonical: no trailing zero
    coefficient, gcd(den, num) = 1, and N = 1 whenever every coefficient
    is rational.  An approximate polynomial has N = 0, den = 1 and one
    finite ``complex`` per coefficient, of which only a trailing exact 0
    is cut.  Every operation lifts its operands to the lcm of their
    conductors and makes its result canonical once: ``compose`` runs
    Horner on the numerator rows under the one denominator
    den_self * den_inner^d.

    ``coeffs`` is a tuple of scalars either way, built on each access and
    not kept, so read it once per loop; ``coefficient(k)`` and ``leading``
    build a single scalar.

    >>> Poly([1, 2]) * Poly([1, 2])
    Poly(4*h^2 + 4*h + 1)
    >>> Poly([0, 1]).compose(Poly([-3, 0, 1]))
    Poly(h^2 - 3)
    """

    # _n is the conductor N of the form, 0 for an approximate polynomial;
    # _iterates, set on first use, is the list of f^(i) that iterate keeps,
    # or the tuple of one period once it has met f^(p) = h
    __slots__ = ("backend", "_n", "_den", "_num", "_iterates")

    def __new__(cls, coeffs=()) -> "Poly":
        coeffs = tuple(coeffs)
        if _backend_of_coeffs(coeffs) == "exact":
            return _integer_form(coeffs)
        # a literal is checked as a scalar, so a non-finite one is an input error
        return _approx_form(
            [c.value if isinstance(c, ApproxComplex) else approx(complex(c)).value for c in coeffs]
        )

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through a constructor, never by restoring
        # slots: Poly() is the shared _ZERO, and a copy starts without iterates
        return _exact, (self._n, self._den, self._num)

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, s, backend: str = "exact") -> "Poly":
        if backend == "exact" and isinstance(s, _NEUTRAL):
            # an int or Fraction is already its own canonical integer form
            return _raw(1, s.denominator, (s.numerator,)) if s else _ZERO
        return cls([as_scalar(s, backend)])

    @classmethod
    def variable(cls, backend: str = "exact") -> "Poly":
        if backend == "exact":
            return _raw(1, 1, (0, 1))
        return _raw(0, 1, (0j, 1 + 0j))

    # -- basic queries ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients in ascending degree, as scalars."""
        return tuple(self._scalar(k) for k in range(self.degree + 1))

    def _scalar(self, k: int) -> Scalar:
        if not self._n:
            return approx(self._num[k])
        phi = _width(self._n)
        return _cyclotomic(self._n, self._den, self._num[k * phi : (k + 1) * phi])

    @property
    def degree(self) -> int:
        if self._n <= 1:
            return len(self._num) - 1
        return len(self._num) // euler_phi(self._n) - 1

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return self.degree <= 0

    @property
    def leading(self) -> Scalar:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree)

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k <= self.degree:
            return self._scalar(k)
        return exact(0) if self.backend == "exact" else approx(0)

    def is_identity(self) -> bool:
        """True when this polynomial is exactly h."""
        if self._n:
            return self._n == 1 and self._den == 1 and self._num == (0, 1)
        return len(self._num) == 2 and self == Poly.variable("approx")

    def _check(self, other: "Poly") -> None:
        if not self.is_zero() and not other.is_zero() and self.backend != other.backend:
            raise BackendMismatchError("polynomials use different scalar backends")

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (CyclotomicNumber, ApproxComplex) + _NEUTRAL):
            return Poly([other]) if not isinstance(other, _NEUTRAL) else Poly.constant(other, self.backend)
        return None

    # -- ring operations ----------------------------------------------------

    # +, * and == test for a Poly operand first, which skips coercion; +
    # and * run on the forms of gha.scalars, which check the backends.

    def __add__(self, other):
        if type(other) is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        x, y = (self._n, self._den, self._num), (other._n, other._den, other._num)
        return _exact(*_sum_form(x, y))

    __radd__ = __add__

    def __neg__(self):
        if not self._num:
            return self
        return _raw(self._n, self._den, tuple([-x for x in self._num]))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # a zero operand is the product, so a scalar 0 keeps the backend
        if not self._num:
            return self
        if not other._num:
            return other
        # an exact 1 returns the other factor, if it is exact too
        if other._n == 1 and other._den == 1 and other._num == (1,) and self._n:
            return self
        if self._n == 1 and self._den == 1 and self._num == (1,) and other._n:
            return other
        x, y = (self._n, self._den, self._num), (other._n, other._den, other._num)
        return _exact(*_product_form(x, y))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        _check_degree(self.degree * k)
        return _power(self, k, Poly.constant(1, self.backend))

    def __divmod__(self, other: "Poly"):
        """Long division on the rows by the divisor made monic once, M / E.
        With the rows at R / D, the step at h^i sets R to R*E - t*M*h^i over
        D*E for the top row t, but that row, which would be 0 (about 0 on
        approximate rows), stays as t*E: the quotient coefficient t / D."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return _exact(self._n, 1, ()), self
        n, inv = math.lcm(self._n, other._n), Poly([other.leading.inverse()])
        monic = other * inv
        phi, e, dd = _width(n), monic._den, other.degree
        low = _lift_rows(monic._num, monic._n, n)[: dd * phi]
        rows, den = list(_lift_rows(self._num, self._n, n)), self._den
        for i in range(self.degree - dd, -1, -1):
            top = rows[(i + dd) * phi : (i + dd + 1) * phi]
            if e != 1:
                rows, den = [v * e for v in rows], den * e
            if dd and any(top):
                for j, v in enumerate(_mul_rows(top, phi, low, phi, n), i * phi):
                    rows[j] -= v
        return _exact(n, den, rows[dd * phi :]) * inv, _exact(n, den, rows[: dd * phi])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if type(other) is not Poly:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self._n and other._n:
            return _same_value((self._n, self._den, self._num), (other._n, other._den, other._num))
        # an approximate operand: equal norm-wise, the largest coefficient
        # gap against the largest coefficient; an exact one only as zero
        a, b = self._num, other._num
        if (self._n and a) or (other._n and b):
            return False
        gap = max((abs(u - v) for u, v in zip_longest(a, b, fillvalue=0)), default=0.0)
        return _close(gap, max(map(abs, chain(a, b)), default=0.0))

    __hash__ = None

    # -- evaluation and composition ------------------------------------------

    def evaluate(self, point: Scalar) -> Scalar:
        point = as_scalar(point, self.backend)
        if backend_of(point) != self.backend and not self.is_zero():
            raise BackendMismatchError("evaluation point uses the other backend")
        if not self._num:
            return zero_like(point)
        if self._n:
            return _exact(*_compose_rows(self, Poly([point]))).coefficient(0)
        z, acc = point.value, 0j
        for c in reversed(self._num):
            acc = acc * z + c
        return approx(acc)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(h)): the form of :func:`_compose_rows`, made canonical
        once.  A constant self, and an exact inner that is h itself, such
        as f^(p) of a periodic f, return self."""
        form = _compose_rows(self, inner)
        return self if form[2] is self._num else _exact(*form)

    def derivative(self) -> "Poly":
        w = _width(self._n)
        return _exact(self._n, self._den, [x * (j // w) for j, x in enumerate(self._num[w:], w)])

    def approx(self) -> "Poly":
        return self if self.backend == "approx" else _approx_form(self.embed_coeffs())

    def embed_coeffs(self) -> list[complex]:
        """Each coefficient in C, as ``CyclotomicNumber.embed`` has it."""
        if not self._n:
            return list(self._num)
        phi, num = _width(self._n), self._num
        return [_embed_row(num[k : k + phi], self._den, self._n) for k in range(0, len(num), phi)]

    def conductor(self) -> int:
        """N of the integer form, the lcm of the conductors of the inputs or
        1 for rational coefficients (exact backend only)."""
        if self.backend != "exact":
            raise BackendMismatchError("conductor is an exact-backend notion")
        return self._n

    # -- canonical text form ---------------------------------------------------

    def _terms(self) -> list[tuple[int, bool | None, str, bool]]:
        """(k, *parts of coefficient k) for each nonzero coefficient, k
        ascending; the parts are those of :func:`_scalar_parts`.

        A rational integer form reads them off its numerators and
        denominator and builds no scalar.  The cyclotomic one tells a zero
        coefficient by its numerators, so it builds a scalar only for the
        nonzero ones.  An approximate coefficient is left out only when it
        is exactly 0, so that the text parses back to the same Poly."""
        if self._n == 1:
            den = self._den
            return [(k, *_rational_parts(x, den)) for k, x in enumerate(self._num) if x]
        if self._n:
            phi, num = euler_phi(self._n), self._num
            return [
                (k, *_scalar_parts(self._scalar(k)))
                for k in range(len(num) // phi)
                if any(num[k * phi : (k + 1) * phi])
            ]
        return [(k, *_scalar_parts(approx(v))) for k, v in enumerate(self._num) if v]

    def __str__(self) -> str:
        return _terms_text(self._terms())

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# the form (N, den, num)
# ---------------------------------------------------------------------------


class CoefficientOverflowError(OverflowError):
    """An approximate coefficient overflowed to an infinity or a NaN."""


# the slot setters, which pass by the immutability guard of Poly.__setattr__
_set_backend = Poly.backend.__set__
_set_n = Poly._n.__set__
_set_den = Poly._den.__set__
_set_num = Poly._num.__set__
_set_iterates = Poly._iterates.__set__
_new = object.__new__


def _fill(p: Poly, backend: str, n: int, den: int, num: tuple) -> None:
    _set_backend(p, backend)
    _set_n(p, n)
    _set_den(p, den)
    _set_num(p, num)


def _raw(n: int, den: int, num: tuple) -> Poly:
    """The Poly of a form that is already canonical: exact for a conductor
    n > 0, approximate for n = 0."""
    p = _new(Poly)
    _fill(p, "exact" if n else "approx", n, den, num)
    return p


# the zero polynomial, shared; a zero operand passes every backend check, so
# it serves both backends
_ZERO = _raw(1, 1, ())


def _exact(n: int, den: int, num) -> Poly:
    """The Poly of the form (n, den, num), made canonical; an approximate
    row (n = 0, den = 1) goes to :func:`_approx_form`."""
    if not n:
        return _approx_form(num)
    form = _canonical(n, den, num)
    return _raw(*form) if form else _ZERO


def _approx_form(num) -> Poly:
    """The approximate Poly of a row of complex coefficients: trailing
    exact zeros cut, so that the degree does not depend on CONFIG.tol, and
    a value that is not finite an overflow of the computation."""
    end = len(num)
    while end and not num[end - 1]:
        end -= 1
    num = tuple(num[:end])
    if not all(map(cmath.isfinite, num)):
        raise CoefficientOverflowError("an approximate coefficient overflowed to inf or nan")
    return _raw(0, 1, num)


def _integer_form(coeffs) -> Poly:
    """The exact Poly of these ints, Fractions and CyclotomicNumbers: the
    numerators of their forms lifted to the lcm N of their conductors, over
    one common denominator."""
    forms = [
        _form(c) if isinstance(c, CyclotomicNumber) else (1, c.denominator, (c.numerator,)) for c in coeffs
    ]
    n, den = math.lcm(*[m for m, _, _ in forms]), math.lcm(*[d for _, d, _ in forms])
    return _exact(n, den, [x * (den // d) for m, d, num in forms for x in _lift_rows(num, m, n)])


def _compose_rows(outer: Poly, inner: Poly) -> tuple:
    """outer(inner(h)) as a form (n, den, num) that is not made canonical,
    over the lcm n of the two conductors (0 for approximate rows).

    With outer = sum a_k h^k / E and inner = P / D (numerator rows a_k and
    P), Horner keeps acc = A / (E * D^j) after j steps and updates the
    numerators only, A <- A*P + a_k * D^(j+1), to end over E * D^d.  A
    constant outer, and an exact inner that is h itself, give outer's own
    form; for an inner of degree > 1 the degree guard sees the degree of
    the result first."""
    outer._check(inner)
    num, inner_num = outer._num, inner._num
    po, pi = _width(outer._n), _width(inner._n)
    if len(num) <= po or (inner._n and inner.is_identity()):
        return outer._n, outer._den, num
    if len(inner_num) > 2 * pi:  # deg inner > 1
        _check_degree((len(num) // po - 1) * (len(inner_num) // pi - 1))
    if not inner_num:
        return outer._n, outer._den, num[:po]
    n = math.lcm(outer._n, inner._n)
    phi = _width(n)
    if outer._n != inner._n and outer._n != 1 and inner._n != 1:  # as in _product_form
        num, inner_num = _lift_rows(num, outer._n, n), _lift_rows(inner_num, inner._n, n)
        po = pi = phi
    acc = list(num[len(num) - po :]) + [0] * (phi - po)
    inner_den, scale = inner._den, 1
    for k in range(len(num) - 2 * po, -1, -po):
        acc = _mul_rows(acc, phi, inner_num, pi, n)
        scale *= inner_den
        for j in range(po):
            acc[j] += num[k + j] * scale
    return n, outer._den * scale, acc


def _scalar_parts(c: Scalar) -> tuple[bool | None, str, bool]:
    """What the text of a nonzero coefficient c is made from.

    (whether c < 0, the text of |c|, whether |c| is exactly 1) when c has
    a clean sign, that is when it is rational or a real approximate value;
    otherwise (None, the text of c, False), as such a c is not 1.  An
    approximate value within tol of 1 keeps its digits."""
    if isinstance(c, CyclotomicNumber) and c.is_rational():
        return _rational_parts(c._num[0], c._den)
    if isinstance(c, ApproxComplex) and c.value.imag == 0:
        v = c.value.real
        return v < 0, str(approx(abs(v))), abs(v) == 1
    return None, str(c), False


def _h_power(k: int) -> str:
    return "" if k == 0 else ("h" if k == 1 else f"h^{k}")


def _terms_text(terms: list[tuple[int, bool | None, str, bool]]) -> str:
    """The canonical text of the polynomial with these nonzero terms
    (ascending, as ``Poly._terms`` lists them); "0" for none."""
    pieces = []
    for k, negative, text, unit in reversed(terms):
        body = _coeff_body(k, text, unit)
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces) or "0"


def _coeff_body(k: int, text: str, unit: bool) -> str:
    """The text of c*h^k from the parts of c, without the sign of a c < 0."""
    mono = _h_power(k)
    if not mono:
        return text
    if unit:
        return mono
    if any(ch in text for ch in " +*/"):
        text = f"({text})"
    return f"{text}*{mono}"


def iterate(f: Poly, i: int) -> Poly:
    """i-fold composition of f with itself; f^(0) is the identity h.

    The one place f is composed with itself: the list f^(0), f^(1), ... is
    kept with f (a copy starts without it) and extended in place; f^(1) is
    f itself.  f^(i) has degree deg(f)**i when deg(f) >= 2, so the degree
    guard sees that number before any composition, and a refusal leaves the
    list as it was.  An iterate already in the list is returned without
    checking the guard again.

    An exact f with f^(p) = h, such as w*h + c for a primitive p-th root of
    unity w != 1 or h itself, is composed no further than f^(p): the list
    becomes the tuple f^(0..p-1), and f^(i) is read as f^(i mod p).  The
    approximate backend keeps composing, since there f^(p) is only close
    to h.
    """
    if i < 0:
        raise ValueError("iteration count must be >= 0")
    try:
        iterates = f._iterates
    except AttributeError:
        iterates = [Poly.variable(f.backend)]
        _set_iterates(f, iterates)
    if type(iterates) is tuple:
        return iterates[i % len(iterates)]
    if i >= len(iterates):
        if f.degree >= 2:
            _check_degree(f.degree**i)
        while len(iterates) <= i:
            nxt = f.compose(iterates[-1]) if len(iterates) > 1 else f
            if f._n and nxt.is_identity():
                iterates = tuple(iterates)
                _set_iterates(f, iterates)
                return iterates[i % len(iterates)]
            iterates.append(nxt)
    return iterates[i]


# ---------------------------------------------------------------------------
# numeric root finding
# ---------------------------------------------------------------------------


def _horner(cs: list[complex]):
    """(p, p'): the polynomial with ascending coefficients cs and its
    derivative, as functions evaluated by Horner's rule."""
    n = len(cs) - 1

    def val(z: complex) -> complex:
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    def dval(z: complex) -> complex:
        acc = 0j
        for k in range(n, 0, -1):
            acc = acc * z + k * cs[k]
        return acc

    return val, dval


def _groups(values: list[complex], radius: float) -> list[list[complex]]:
    """values in (re, im) order, each joined to the first group whose first
    member lies within radius of it."""
    groups: list[list[complex]] = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        for g in groups:
            if abs(v - g[0]) <= radius:
                g.append(v)
                break
        else:
            groups.append([v])
    return groups


_ROOT_MAX_ITER = 400  # Aberth sweeps before RootFindingError


def _aberth(cs: list[complex]) -> list[complex]:
    """All roots of the polynomial with ascending coefficients cs (deg >= 1)."""
    n = len(cs) - 1
    lead = cs[-1]
    mon = [c / lead for c in cs]
    norm = max(abs(c) for c in cs)
    val, dval = _horner(mon)
    radius = 1.0 + max(abs(c) for c in mon[:-1]) if n else 1.0
    zs = [
        0.7 * radius * cmath.exp(2j * math.pi * (j + 0.37) / n) + 0.1 + 0.05j
        for j in range(n)
    ]
    target = CONFIG.tol * (1 + norm) / max(1.0, abs(lead))
    for _ in range(_ROOT_MAX_ITER):
        done = True
        for j in range(n):
            p = val(zs[j])
            if abs(p) <= target:
                continue
            done = False
            dp = dval(zs[j])
            if dp == 0:
                zs[j] += (0.01 + 0.007j) * (1 + abs(zs[j]))
                continue
            w = p / dp
            s = 0j
            for l in range(n):
                if l != j:
                    diff = zs[j] - zs[l]
                    if diff == 0:
                        diff = 1e-12 * (1 + abs(zs[j]))
                    s += 1 / diff
            denom = 1 - w * s
            zs[j] -= w if denom == 0 else w / denom
        if done:
            break
    else:
        residual = max(abs(val(z)) for z in zs)
        if residual > target:
            raise RootFindingError(
                f"root finder did not converge (residual {residual:.3g})", partial=zs
            )
    # Newton polish: a few extra steps while the residual keeps improving
    for j in range(n):
        z, best = zs[j], abs(val(zs[j]))
        for _ in range(4):
            dp = dval(z)
            if dp == 0:
                break
            z2 = z - val(z) / dp
            r2 = abs(val(z2))
            if r2 < best:
                z, best = z2, r2
            else:
                break
        zs[j] = z
    return sorted(zs, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


def _refine_multiples(cs: list[complex], zs: list[complex]) -> list[complex]:
    """Collapse loose root clusters to sharp repeated roots.

    Aberth leaves an m-fold root as m values spread like residual**(1/m).
    Grouping those and running the multiplicity-aware Newton step
    z -= m*p(z)/p'(z) from the centroid restores fast convergence, so the
    cluster can be reported as m equal, accurate copies.
    """
    val, dval = _horner(cs)
    scale = 1 + max(abs(z) for z in zs)
    radius = 1e-3 * scale
    out: list[complex] = []
    for g in _groups(zs, radius):
        if len(g) == 1:
            out.append(g[0])
            continue
        m = len(g)
        c = sum(g) / m
        z = c
        for _ in range(60):
            dp = dval(z)
            if dp == 0:
                break
            step = m * val(z) / dp
            z -= step
            if abs(step) <= 1e-15 * scale:
                break
        # keep the refinement only if it stayed inside the cluster
        if abs(z - c) <= 2 * radius:
            out.extend([z] * m)
        else:
            out.extend(g)
    return out


def roots(p: Poly) -> list[ApproxComplex]:
    """All complex roots of p with multiplicity (approximate values).

    An m-fold root is reported as m equal copies; its residual, not the
    spacing of the raw iteration, is what meets the tolerance.  When p has
    real coefficients, a root within tol of its own conjugate is real.
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("root finding needs a nonconstant polynomial")
    cs = p.embed_coeffs()
    out: list[complex] = []
    while len(cs) > 1 and cs[0] == 0:
        out.append(0j)
        cs = cs[1:]
    if len(cs) == 2:
        out.append(-cs[0] / cs[1])
    elif len(cs) > 2:
        out.extend(_refine_multiples(cs, _aberth(cs)))
    if not any(c.imag for c in cs):
        out = [complex(z.real) if _close(2 * abs(z.imag), abs(z)) else z for z in out]
    out.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    return [approx(z) for z in out]


# ---------------------------------------------------------------------------
# exact roots in Q(zeta_N)
# ---------------------------------------------------------------------------


def _rational_candidates(x: float, eps: float):
    seen = set()
    for dmax in (1, 8, 64, 1024, 10**6):
        f = Fraction(x).limit_denominator(dmax)
        if abs(float(f) - x) <= eps and f not in seen:
            seen.add(f)
            yield f


def _recognize(z: complex, n: int) -> list[CyclotomicNumber]:
    """Candidate elements of Q(zeta_n) close to z (verification is the caller's job)."""
    eps = 1e-4 * (1 + abs(z))
    cands: list[CyclotomicNumber] = []

    def push(c: CyclotomicNumber):
        if abs(c.embed() - z) <= eps and not any(c == d for d in cands):
            cands.append(c)

    if abs(z.imag) <= eps:
        for q in _rational_candidates(z.real, eps):
            push(exact(q))
    if euler_phi(n) == 2:
        zc = zeta(n).embed()
        c1 = z.imag / zc.imag
        c0 = z.real - c1 * zc.real
        for q1 in _rational_candidates(c1, eps):
            for q0 in _rational_candidates(c0, eps):
                push(exact(q0) + exact(q1) * zeta(n))
                break
            break
    # rational multiples of the roots of unity available in the field: only
    # the units whose phase is next to z's (or to -z's, which give the same
    # candidates) can pass; z near 0 has only the candidate 0, proposed above
    if abs(z) <= eps:
        return cands
    m = n if n % 2 == 0 else 2 * n
    k0 = round(m * cmath.phase(z) / (2 * math.pi))
    for k in sorted({(k0 + d + s) % m for d in (-1, 0, 1) for s in (0, m // 2)}):
        w = cmath.exp(2j * math.pi * k / m)
        q = z / w
        if abs(q.imag) <= eps:
            for frac in _rational_candidates(q.real, eps):
                if n % 2 == 0 or k % 2 == 0:
                    unit = zeta(n, (k * (1 if n % 2 == 0 else (n + 1) // 2)) % n)
                else:
                    unit = -zeta(n, (k * (n + 1) // 2) % n)
                push(exact(frac) * unit)
                break
    return cands


def _squarefree(p: Poly) -> list[tuple[Poly, int]]:
    """The squarefree parts of an exact p: pairs (P_i, i) with
    p = lead(p) * prod P_i^i, each P_i monic, squarefree, of degree >= 1 and
    coprime to the others (D. Y. Y. Yun, "On square-free decomposition
    algorithms", SYMSAC 1976)."""
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b, c = p // a, dp // a
    parts, i = [], 1
    while b.degree >= 1:
        d = c - b.derivative()
        a = poly_gcd(b, d)
        if a.degree >= 1:
            parts.append((a, i))
        b, c, i = b // a, d // a, i + 1
    return parts


def exact_roots(p: Poly, conductor: int | None = None):
    """Roots of p lying in Q(zeta_N) with multiplicities, plus the unsplit rest.

    Returns ``(found, remainder)`` where found is a list of
    (root, multiplicity) pairs and remainder is the exact quotient of p by
    the recognised linear factors.  remainder.degree == 0 means p split
    completely over the field.
    Every root is recognised on the squarefree part where it is simple, and
    the part's index is its multiplicity.
    """
    if p.backend != "exact":
        raise BackendMismatchError("exact_roots needs an exact-backend polynomial")
    if p.is_zero():
        raise ValueError("zero polynomial")
    n = math.lcm(conductor or 1, p.conductor())
    found: list[tuple[CyclotomicNumber, int]] = []
    rem = Poly([p.leading])
    for part, mult in _squarefree(p):
        for z in roots(part) if part.degree >= 2 else ():
            for cand in _recognize(z.value, n):
                quo, at = divmod(part, Poly([-cand, 1]))
                if at.is_zero():
                    found.append((cand, mult))
                    part = quo
                    break
        if part.degree == 1:
            found.append((-part.coefficient(0), mult))
        elif part.degree > 1:
            rem = rem * part**mult
    return found, rem


def _split(p: Poly, conductor: int | None = None):
    """Every root of p with its multiplicity, as ``(found, numeric, note)``:
    found as :func:`exact_roots` has it, numeric the roots of its unsplit
    remainder only, and note why those are numeric ("" when there are
    none).  This is the one place where a root of an exact polynomial goes
    numeric.  On an approximate p every root is numeric (equal within tol
    counted as one) and note is "".
    """
    if p.backend != "exact":
        zs = roots(p) if p.degree > 0 else []
        firsts = [z for i, z in enumerate(zs) if all(z != w for w in zs[:i])]
        return [], [(z, sum(z == w for w in zs)) for z in firsts], ""
    found, rem = exact_roots(p, conductor)
    if rem.degree < 1:
        return found, [], ""
    numeric = [(z, m) for part, m in _squarefree(rem) for z in roots(part)]
    n = math.lcm(conductor or 1, p.conductor())
    field = "Q" if n == 1 else f"Q(zeta({n}))"
    return found, numeric, f"a degree-{rem.degree} factor has no roots in {field}; its roots are numeric"


# ---------------------------------------------------------------------------
# orbits of h -> f(h)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    """A periodic orbit (lambda(0), ..., lambda(m-1)) of the map h -> f(h)."""

    values: tuple[Scalar, ...]

    @property
    def period(self) -> int:
        return len(self.values)

    def rotated(self, s: int) -> "Orbit":
        s %= self.period
        return Orbit(self.values[s:] + self.values[:s])

    def canonical(self) -> "Orbit":
        """Rotate so the entry with smallest (re, im) leads; ties use later entries."""

        def key(orb: "Orbit"):
            return tuple(
                (round(v.embed().real, 9), round(v.embed().imag, 9)) for v in orb.values
            )

        return min((self.rotated(s) for s in range(self.period)), key=key)

    def same_cycle(self, other: "Orbit") -> bool:
        """True when other is a rotation of self (scalar equality per entry)."""
        if self.period != other.period:
            return False
        for s in range(self.period):
            rot = self.rotated(s)
            if all(a == b for a, b in zip(rot.values, other.values)):
                return True
        return False

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


@dataclass(frozen=True)
class OrbitSet:
    """Exact-period-n orbits of h -> f(h), plus any ungroupable numeric roots.

    ``continuum`` marks the degenerate case f^(n) = identity, where every
    non-exceptional point is periodic and the listed orbits are only sampled
    representatives of a continuum.
    """

    orbits: tuple[Orbit, ...]
    residual_roots: tuple[Scalar, ...] = ()
    continuum: bool = False


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor, by Euclid on the exact rows."""
    if any(not r.is_zero() and r.backend != "exact" for r in (p, q)):
        raise BackendMismatchError("poly_gcd needs exact-backend polynomials")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a * Poly([a.leading.inverse()])


def least_period(vals) -> int:
    """The least d dividing n = len(vals) with vals[i] == vals[(i + d) % n]
    for every i: the period of the cycle vals lists (n when there is none)."""
    n = len(vals)
    return next(
        (d for d in divisors(n) if all(vals[i] == vals[(i + d) % n] for i in range(n))), n
    )


def orbit_through(f: Poly, seed: Scalar, n: int) -> Orbit | None:
    """The orbit (seed, f(seed), ...) if it has exact period n, else None."""
    vals = [seed]
    for _ in range(n - 1):
        vals.append(f.evaluate(vals[-1]))
    if f.evaluate(vals[-1]) != seed or least_period(vals) < n:
        return None
    return Orbit(tuple(vals))


# relative radius within which numeric roots count as one (a multiple root
# comes back as a loose cluster, not as exact repeats)
_CLUSTER_SCALE = 1e-5


def _place(s: Scalar) -> tuple[float, float]:
    """The (re, im) order orbits and orbit points are listed in."""
    z = s.embed()
    return z.real, z.imag


def _group_orbits(f: Poly, pool: list[Scalar], n: int) -> tuple[list[Orbit], list[Scalar]]:
    """Chain the values of pool into period-n orbits under f, each image
    f(v) taken to be the first pool value equal to it; orbits come in
    canonical rotation, unmatched values become residuals."""
    pool = sorted(pool, key=_place)
    orbits: list[Orbit] = []
    residuals: list[Scalar] = []
    while pool:
        start = pool.pop(0)
        seq = [start]
        for _ in range(n - 1):
            nxt = f.evaluate(seq[-1])
            hit = next((idx for idx, v in enumerate(pool) if v == nxt), None)
            if hit is None:
                break
            seq.append(pool.pop(hit))
        if len(seq) == n and seq[0] == f.evaluate(seq[-1]):
            orbits.append(Orbit(tuple(seq)).canonical())
        else:
            residuals.append(start)
            pool = sorted(pool + seq[1:], key=_place)
    orbits.sort(key=lambda o: _place(o.values[0]))
    return orbits, residuals


def _sampled_continuum_orbits(f: Poly, n: int, count: int) -> list[Orbit]:
    out: list[Orbit] = []
    k = 1
    attempts = 0
    while len(out) < count and attempts < 100 * count + 100:
        attempts += 1
        seed = exact(k) if f.backend == "exact" else approx(k)
        k += 1
        orb = orbit_through(f, seed, n)
        if orb is None:
            continue
        orb = orb.canonical()
        if any(orb.same_cycle(o) for o in out):
            continue
        out.append(orb)
    return out


def periodic_points(
    f: Poly, n: int, *, samples: int | None = None, conductor: int | None = None
) -> OrbitSet:
    """All exact-period-n orbits of h -> f(h).

    Exact backend: lower-period factors of f^(n) - h are divided out by gcd
    with f^(d) - h (d a proper divisor of n), so every root of the quotient
    has exact period n.  The quotient goes through :func:`_split` over
    Q(zeta_N) (N = conductor, defaulting to the lcm of f's coefficient
    conductors): every root found in that field stays exact, and only the
    roots of the unsplit rest are numeric, grouped under f.approx().  So an
    exact f can have exact and numeric orbits side by side.  Approximate
    backend: the roots of f^(n) - h, clustered, with those near a root of
    some f^(d) - h dropped.

    Either way the roots are chained into orbits by scalar equality, as
    ``classify`` chains an h-spectrum.  Orbits are returned
    in canonical rotation; numeric roots that cannot be grouped into an
    orbit are reported in residual_roots rather than silently dropped.

    When f^(n) is the identity map every point is periodic: f = h is always
    rejected, and otherwise a ContinuumOfOrbitsError is raised unless
    ``samples`` asks for that many sampled representative orbits.
    """
    if n < 1:
        raise ValueError("period must be >= 1")
    if f.is_identity():
        raise ContinuumOfOrbitsError(
            "continuum of orbits: f = h fixes every point; handle this case separately"
        )
    h = iterate(f, 0)
    g = iterate(f, n) - h
    if g == 0:  # within tol on approximate rows, where f^(n) - h is only about 0
        if samples is None:
            raise ContinuumOfOrbitsError(
                "continuum of orbits: f^(n) is the identity, every point is n-periodic; "
                "pass samples= to get representative orbits"
            )
        orbs = _sampled_continuum_orbits(f, n, samples)
        return OrbitSet(tuple(orbs), (), continuum=True)
    if g.degree < 1:
        return OrbitSet(())

    if f.backend == "exact":
        cond = math.lcm(conductor or 1, f.conductor())
        # points of period d < n are roots of f^(d) - h; divide those factors out
        core = g
        for d in divisors(n)[:-1]:
            gd = iterate(f, d) - h
            common = poly_gcd(core, gd)
            while common.degree >= 1:
                core = core // common
                common = poly_gcd(core, gd)
        if core.degree < 1:
            return OrbitSet(())
        # core is coprime to every f^(d) - h, so each root has exact period
        # n; f maps the roots in the field onto each other, so exact grouping
        # is total, and the numeric roots of the rest close up under f.approx()
        found, numeric, _note = _split(core, cond)
        orbits, residuals = _group_orbits(f, [r for r, _ in found], n)
        assert not residuals, "exact orbit grouping must consume every root"
        pool, fa = [z for z, _ in numeric], f.approx()
    else:
        # numeric roots of f^(n) - h, clusters replaced by their centroids,
        # with those near a root of some f^(d) - h dropped
        zs = [r.value for r in roots(g)]
        radius = _CLUSTER_SCALE * (1 + max(abs(z) for z in zs))
        centers = [sum(c) / len(c) for c in _groups(zs, radius)]
        for d in divisors(n)[:-1]:
            gd = iterate(f, d) - h
            if gd == 0:
                return OrbitSet(())
            fixed = [r.value for r in roots(gd)]
            centers = [c for c in centers if all(abs(c - w) > radius for w in fixed)]
        orbits, pool, fa = [], [approx(c) for c in centers], f
    more, residuals = _group_orbits(fa, pool, n)
    orbits = sorted(orbits + more, key=lambda o: _place(o.values[0]))
    return OrbitSet(tuple(orbits), tuple(residuals))
