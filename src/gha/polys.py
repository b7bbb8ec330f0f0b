"""Univariate polynomials over either scalar backend, plus root machinery.

The polynomial variable is written ``h`` throughout (it always stands for the
Cartan-type generator of the algebra).  Coefficients are stored densely in
ascending order and live entirely in one backend; neutral int/Fraction
literals lift to whichever backend the other coefficients use.

An exact :class:`Poly` over one field Q(zeta_N) is stored in integer form:
the conductor N, one common denominator, and phi(N) integer numerators per
coefficient (the FLINT ``fmpq_poly`` layout, one row per coefficient).
Sums, negation and equality work on the numerators directly, and a
product is one big-integer product by Kronecker substitution (Harvey,
"Faster polynomial multiplication via multipoint Kronecker substitution",
2009) followed by one reduction mod Phi_N per coefficient.  The
approximate backend, and an exact polynomial whose coefficients mix two
different non-rational conductors, keep a tuple of scalars and the
coefficientwise scalar loops.  ``Poly.coeffs`` is always a tuple of
scalars; for the integer form it is built on each access.

Root finding comes in two flavours:

* :func:`roots` finds all complex roots with multiplicity, by simultaneous
  Aberth-Ehrlich iteration followed by Newton polishing.
* :func:`exact_roots` finds the roots lying in Q(zeta_N), by recognising
  numeric roots as field elements and verifying by exact division.

:func:`periodic_points` builds on both to enumerate the exact-period-n
orbits of the self-map h -> f(h).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .config import CONFIG
from .scalars import (
    ApproxComplex,
    BackendMismatchError,
    CyclotomicNumber,
    Scalar,
    _power,
    _reduce_mod_cyclotomic,
    approx,
    backend_of,
    divisors,
    euler_phi,
    exact,
    one_like,
    zero_like,
    zeta,
)

_NEUTRAL = (int, Fraction)


class DegreeOverflowError(ValueError):
    """Polynomial iteration exceeded the configured degree guard."""


class RootFindingError(RuntimeError):
    """The numeric root finder failed to converge; partial roots attached."""

    def __init__(self, message: str, partial=None) -> None:
        super().__init__(message)
        self.partial = partial or []


class ContinuumOfOrbitsError(ValueError):
    """Every point is periodic, so orbits form a continuum, not a list."""


def _lift_all(coeffs) -> tuple[tuple[Scalar, ...], str]:
    coeffs = list(coeffs)
    backend = None
    for c in coeffs:
        if isinstance(c, CyclotomicNumber):
            b = "exact"
        elif isinstance(c, ApproxComplex):
            b = "approx"
        elif isinstance(c, (float, complex)):
            b = "approx"
        elif isinstance(c, _NEUTRAL):
            continue
        else:
            raise TypeError(f"bad polynomial coefficient {c!r}")
        if backend is None:
            backend = b
        elif backend != b:
            raise BackendMismatchError("polynomial mixes exact and approximate coefficients")
    backend = backend or "exact"
    lifted = []
    for c in coeffs:
        if isinstance(c, (CyclotomicNumber, ApproxComplex)):
            lifted.append(c)
        elif backend == "exact":
            lifted.append(exact(c))
        else:
            lifted.append(approx(complex(c)))
    while lifted and _strictly_zero(lifted[-1]):
        lifted.pop()
    return tuple(lifted), backend


def _strictly_zero(s: Scalar) -> bool:
    # trailing-coefficient trim must not change degree semantics, so the
    # approximate backend only trims coefficients that are exactly 0.0
    if isinstance(s, CyclotomicNumber):
        return s.is_zero()
    return s.value == 0


class Poly:
    """Dense univariate polynomial in h over one scalar backend.

    An exact polynomial whose coefficients all lie in one Q(zeta_N) is held
    in integer form ``(N, den, num)``: ``num`` lists, coefficient after
    coefficient in ascending degree, the phi(N) integer numerators of each
    coefficient in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1), and
    ``den > 0`` is their one common denominator.  The form is canonical: no
    trailing zero coefficient, gcd(den, num) = 1, and N = 1 whenever every
    coefficient is rational.  ``+``, ``-``, negation, ``*`` and ``==`` run
    on it, products as one big-integer product (Kronecker substitution).

    The approximate backend, and an exact polynomial whose coefficients
    need two different non-rational conductors, keep a tuple of scalars
    instead and run the coefficientwise scalar loops.

    ``coeffs`` is a tuple of scalars either way.  For the integer form it
    is built on each access and not kept, so read it once per loop;
    ``coefficient(k)`` builds a single scalar.

    >>> Poly([1, 2]) * Poly([1, 2])
    Poly(4*h^2 + 4*h + 1)
    >>> Poly([0, 1]).compose(Poly([-3, 0, 1]))
    Poly(h^2 - 3)
    """

    # _n is the conductor N of the integer form, or 0 when _scalars holds
    # the coefficients instead
    __slots__ = ("backend", "_n", "_den", "_num", "_scalars")

    def __init__(self, coeffs=()) -> None:
        lifted, backend = _lift_all(coeffs)
        form = _integer_form(lifted) if backend == "exact" else None
        if form is None:
            _fill(self, backend, 0, 1, (), lifted)
        else:
            _fill(self, backend, *form, None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, s, backend: str = "exact") -> "Poly":
        if backend == "exact" and isinstance(s, _NEUTRAL):
            # an int or Fraction is already its own canonical integer form
            return _raw(1, s.denominator, (s.numerator,)) if s else _ZERO
        from .scalars import as_scalar

        return cls([as_scalar(s, backend)])

    @classmethod
    def variable(cls, backend: str = "exact") -> "Poly":
        if backend == "exact":
            return _raw(1, 1, (0, 1))
        return cls([approx(0), approx(1)])

    # -- basic queries ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients in ascending degree, as scalars."""
        if not self._n:
            return self._scalars
        return tuple(self._scalar(k) for k in range(self.degree + 1))

    def _scalar(self, k: int) -> CyclotomicNumber:
        if self._n == 1:
            return CyclotomicNumber(1, (Fraction(self._num[k], self._den),))
        phi = euler_phi(self._n)
        return CyclotomicNumber(
            self._n, [Fraction(x, self._den) for x in self._num[k * phi : (k + 1) * phi]]
        )

    @property
    def degree(self) -> int:
        if self._n == 1:
            return len(self._num) - 1
        if self._n:
            return len(self._num) // euler_phi(self._n) - 1
        return len(self._scalars) - 1

    def is_zero(self) -> bool:
        # the integer form keeps _scalars None, the scalar form keeps _num ()
        return not (self._num or self._scalars)

    def is_constant(self) -> bool:
        return self.degree <= 0

    @property
    def leading(self) -> Scalar:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficient(self.degree)

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k <= self.degree:
            return self._scalar(k) if self._n else self._scalars[k]
        return self._zero()

    def is_identity(self) -> bool:
        """True when this polynomial is exactly h."""
        if self._n:
            return self._n == 1 and self._den == 1 and self._num == (0, 1)
        cs = self._scalars
        return len(cs) == 2 and cs[1] == 1 and cs[0] == zero_like(cs[0])

    def _zero(self) -> Scalar:
        return exact(0) if self.backend == "exact" else approx(0)

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        self._check(other)
        n = _shared_conductor(self, other)
        if n:
            return _add_forms(self, other, n)
        a, b, zero = self.coeffs, other.coeffs, self._zero()
        return Poly(
            [
                (a[k] if k < len(a) else zero) + (b[k] if k < len(b) else zero)
                for k in range(max(len(a), len(b)))
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        if self._n:
            return _raw(self._n, self._den, tuple([-x for x in self._num]))
        return Poly([-c for c in self._scalars])

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
        if self._n and isinstance(other, _NEUTRAL):
            return _scale(self, other.numerator, other.denominator)
        if self._n and isinstance(other, CyclotomicNumber):
            return self * Poly([other])
        if isinstance(other, (CyclotomicNumber, ApproxComplex) + _NEUTRAL):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return _ZERO
        n = _shared_conductor(self, other)
        if n:
            return _mul_forms(self, other, n)
        a, b = self.coeffs, other.coeffs
        out = [self._zero()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return _power(self, k, Poly.constant(1, self.backend))

    def __divmod__(self, other: "Poly"):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        divisor = other.coeffs
        dd = other.degree
        lead_inv = one_like(divisor[-1]) / divisor[-1]
        q = [self._zero()] * max(0, len(rem) - dd)
        for i in range(len(rem) - dd - 1, -1, -1):
            c = rem[i + dd] * lead_inv
            q[i] = c
            for j, b in enumerate(divisor):
                rem[i + j] = rem[i + j] - c * b
        return Poly(q), Poly(rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if _shared_conductor(self, other):
            # canonical integer forms: equal values have equal forms
            return self._n == other._n and self._den == other._den and self._num == other._num
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            # compare an all-but-trimmed approx poly against zero coefficientwise
            return all(c == zero_like(c) for c in a or b)
        if self.backend != other.backend:
            return False
        zero = self._zero()
        return all(
            (a[k] if k < len(a) else zero) == (b[k] if k < len(b) else zero)
            for k in range(max(len(a), len(b)))
        )

    __hash__ = None

    # -- evaluation and composition ------------------------------------------

    def evaluate(self, point: Scalar) -> Scalar:
        from .scalars import as_scalar

        point = as_scalar(point, self.backend)
        if backend_of(point) != self.backend and not self.is_zero():
            raise BackendMismatchError("evaluation point uses the other backend")
        acc = zero_like(point)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(h)), by Horner over polynomials."""
        self._check(inner)
        if inner.degree > 1:
            _check_degree(self.degree * inner.degree)
        if self._n:
            phi = euler_phi(self._n)
            num = self._num
            consts = [_exact(self._n, self._den, num[k : k + phi]) for k in range(0, len(num), phi)]
        else:
            consts = [Poly([c]) for c in self._scalars]
        acc = _ZERO
        for c in reversed(consts):
            acc = acc * inner + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def approx(self) -> "Poly":
        if self.backend == "approx":
            return self
        return Poly([c.approx() for c in self.coeffs])

    def embed_coeffs(self) -> list[complex]:
        return [c.embed() for c in self.coeffs]

    def conductor(self) -> int:
        """lcm of the coefficient conductors (exact backend only)."""
        if self.backend != "exact":
            raise BackendMismatchError("conductor is an exact-backend notion")
        if self._n:
            return self._n
        out = 1
        for c in self._scalars:
            out = math.lcm(out, c.conductor)
        return out

    # -- canonical text form ---------------------------------------------------

    def _terms(self) -> list[tuple[int, bool | None, str, bool]]:
        """(k, *parts of coefficient k) for each nonzero coefficient, k
        ascending; the parts are those of :func:`_scalar_parts`.

        A rational integer form reads them off its numerators and
        denominator and builds no scalar.  The cyclotomic one tells a zero
        coefficient by its numerators, so it builds a scalar only for the
        nonzero ones; an approximate coefficient within CONFIG.tol of 0
        counts as zero."""
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
        return [(k, *_scalar_parts(c)) for k, c in enumerate(self._scalars) if c != zero_like(c)]

    def __str__(self) -> str:
        return _terms_text(self._terms())

    def __repr__(self) -> str:
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# the integer form
# ---------------------------------------------------------------------------


def _fill(p: Poly, backend: str, n: int, den: int, num: tuple, scalars) -> None:
    set_ = object.__setattr__
    set_(p, "backend", backend)
    set_(p, "_n", n)
    set_(p, "_den", den)
    set_(p, "_num", num)
    set_(p, "_scalars", scalars)


def _raw(n: int, den: int, num: tuple) -> Poly:
    """The exact Poly of an integer form that is already canonical."""
    p = object.__new__(Poly)
    _fill(p, "exact", n, den, num, None)
    return p


# the zero polynomial, shared; a zero operand passes every backend check, so
# it serves both backends
_ZERO = _raw(1, 1, ())


def _exact(n: int, den: int, num) -> Poly:
    """The exact Poly of the integer form (n, den, num), made canonical."""
    phi = euler_phi(n)
    end = len(num)
    while end and not any(num[end - phi : end]):
        end -= phi
    num = tuple(num[:end])
    if n > 1 and num and not any(any(num[j::phi]) for j in range(1, phi)):
        n, num = 1, num[::phi]
    if not num:
        n, den = 1, 1
    elif den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            den //= g
            num = tuple([x // g for x in num])
    return _raw(n, den, num)


def _integer_form(lifted: tuple[CyclotomicNumber, ...]):
    """(N, den, num) for exact scalars of at most one non-rational conductor
    N, else None."""
    n = 1
    for c in lifted:
        if c.conductor not in (1, n):
            if n != 1:
                return None
            n = c.conductor
    pad = (0,) * (euler_phi(n) - 1)
    fracs = [q for c in lifted for q in (c.coords if c.conductor == n else c.coords + pad)]
    den = math.lcm(*[q.denominator for q in fracs])
    return n, den, tuple([q.numerator * (den // q.denominator) for q in fracs])


def _shared_conductor(a: Poly, b: Poly) -> int:
    """The conductor both integer forms live in, or 0 when either has none
    or they are over two different non-rational conductors."""
    if a._n == b._n or b._n == 1:
        return a._n
    return b._n if a._n == 1 else 0


def _num_in(p: Poly, n: int):
    """p's numerators over conductor n (p is rational or already over n)."""
    if p._n == n:
        return p._num
    out = [0] * (len(p._num) * euler_phi(n))
    out[:: euler_phi(n)] = p._num
    return out


def _add_forms(a: Poly, b: Poly, n: int) -> Poly:
    x, y, den = _num_in(a, n), _num_in(b, n), a._den
    if a._den != b._den:
        den = math.lcm(a._den, b._den)
        x = [v * (den // a._den) for v in x]
        y = [v * (den // b._den) for v in y]
    if len(x) < len(y):
        x, y = y, x
    out = [u + v for u, v in zip(x, y)]
    out += x[len(y) :]
    return _exact(n, den, out)


# Operand size, len(a._num) * len(b._num), up to which _mul_forms
# multiplies by schoolbook: below it the Kronecker packing and unpacking cost
# more than the products they replace.
_SCHOOLBOOK_MAX = 192


def _mul_forms(a: Poly, b: Poly, n: int) -> Poly:
    """a*b on the numerator rows, by schoolbook or Kronecker substitution.

    Coefficient k of a, a polynomial of degree < pa in zeta, goes to the
    slots k*stride .. k*stride + pa - 1, with stride = pa + pb - 1 so the
    zeta-degrees of a product cannot spill into the next h-degree.  Short
    operands convolve those slot lists directly.  Long ones pack them into
    one integer each, h and zeta_N becoming powers of 2 (Kronecker
    substitution): a slot holds any product coefficient with a sign bit to
    spare, so the product of the two integers carries every coefficient of
    a*b in Z[h, zeta].  Either way each one is then reduced mod Phi_N.
    """
    if a._n == 1 and len(a._num) == 1:
        return _scale(b, a._num[0], a._den)
    if b._n == 1 and len(b._num) == 1:
        return _scale(a, b._num[0], b._den)
    pa, pb = euler_phi(a._n), euler_phi(b._n)
    stride = pa + pb - 1
    la, lb = len(a._num) // pa, len(b._num) // pb
    count = (la + lb - 1) * stride
    if len(a._num) * len(b._num) <= _SCHOOLBOOK_MAX:
        x = _spread(a._num, pa, stride)
        y = x if b is a else _spread(b._num, pb, stride)
        digits = [0] * count
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y, i):
                    digits[j] += u * v
    else:
        bound = min(la, lb) * min(pa, pb) * _max_abs(a._num) * _max_abs(b._num)
        width = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
        va = _pack(a._num, pa, stride, width)
        vb = va if b is a else _pack(b._num, pb, stride, width)
        digits = _unpack(va * vb, width, count)
    if stride > euler_phi(n):
        digits = _reduce_mod_cyclotomic(digits, n, stride)
    return _exact(n, a._den * b._den, digits)


def _scale(p: Poly, num: int, den: int) -> Poly:
    """p * num/den for integers num and den > 0."""
    return _exact(p._n, p._den * den, [x * num for x in p._num])


def _max_abs(num) -> int:
    return max(max(num), -min(num))


def _spread(num, phi: int, stride: int):
    """num with each row of phi numerators padded by zeros to stride slots,
    the last row excepted."""
    if stride == phi:
        return num
    gap = [0] * (stride - phi)
    out = []
    for k in range(0, len(num), phi):
        out += num[k : k + phi]
        out += gap
    del out[len(out) - len(gap) :]
    return out


def _pack(num, phi: int, stride: int, width: int) -> int:
    """sum of num[k*phi + j] * 2^(8*width*(k*stride + j)), signed entries."""
    digits = _spread(num, phi, stride)
    zero = bytes(width)
    out = int.from_bytes(
        b"".join([d.to_bytes(width, "little") if d > 0 else zero for d in digits]), "little"
    )
    if min(digits) < 0:
        out -= int.from_bytes(
            b"".join([(-d).to_bytes(width, "little") if d < 0 else zero for d in digits]),
            "little",
        )
    return out


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The count signed slots of value, each below 2^(8*width - 1) in size."""
    raw = value.to_bytes(width * count, "little", signed=True)
    slots = [
        int.from_bytes(raw[o : o + width], "little", signed=True)
        for o in range(0, width * count, width)
    ]
    # each slot reads as two's complement; one that reads negative lent one
    # to the slot above it
    return [d + (below < 0) for d, below in zip(slots, chain((0,), slots))]


def _scalar_parts(c: Scalar) -> tuple[bool | None, str, bool]:
    """What the text of a nonzero coefficient c is made from.

    (whether c < 0, the text of |c|, whether |c| == 1) when c has a clean
    sign, that is when it is rational or a real approximate value;
    otherwise (None, the text of c, whether c == 1)."""
    if isinstance(c, CyclotomicNumber) and c.is_rational():
        q = c.coords[0]
        return q < 0, str(abs(q)), abs(q) == 1
    if isinstance(c, ApproxComplex) and c.value.imag == 0:
        v = c.value.real
        mag = approx(-v) if v < 0 else c
        return v < 0, str(mag), mag == 1
    return None, str(c), c == one_like(c)


def _rational_parts(num: int, den: int) -> tuple[bool, str, bool]:
    """:func:`_scalar_parts` of the nonzero rational num/den (den > 0)."""
    g = math.gcd(num, den)
    top, bottom = abs(num) // g, den // g
    return num < 0, (str(top) if bottom == 1 else f"{top}/{bottom}"), top == bottom


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


def _check_degree(degree: int) -> None:
    """The degree guard: refuse to build a polynomial of degree past
    CONFIG.max_compose_degree.  Callers pass the predicted degree, so the
    refusal comes before any work is done."""
    if degree > CONFIG.max_compose_degree:
        raise DegreeOverflowError(
            f"degree {degree} exceeds the degree guard {CONFIG.max_compose_degree}; "
            "raise CONFIG.max_compose_degree to allow it"
        )


def _extend_iterates(f: Poly, iterates: list[Poly], i: int) -> Poly:
    """f^(i), extending the cache iterates = [f^(0), f^(1), ...] in place.

    f^(i) has degree deg(f)**i when deg(f) >= 2, so the guard sees that
    number before the first composition.
    """
    if i >= len(iterates):
        if f.degree >= 2:
            _check_degree(f.degree**i)
        while len(iterates) <= i:
            iterates.append(f.compose(iterates[-1]))
    return iterates[i]


def iterate(f: Poly, i: int) -> Poly:
    """i-fold composition of f with itself; f^(0) is the identity h.

    Degree grows like deg(f)**i, so growth past
    CONFIG.max_compose_degree raises DegreeOverflowError up front.
    """
    if i < 0:
        raise ValueError("iteration count must be >= 0")
    return _extend_iterates(f, [Poly.variable(f.backend)], i)


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
    spacing of the raw iteration, is what meets the tolerance.
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


def exact_roots(p: Poly, conductor: int | None = None):
    """Roots of p lying in Q(zeta_N) with multiplicities, plus the unsplit rest.

    Returns ``(found, remainder)`` where found is a list of
    (root, multiplicity) pairs and remainder is the exact quotient of p by
    the recognised linear factors.  remainder.degree == 0 means p split
    completely over the field.
    """
    if p.backend != "exact":
        raise BackendMismatchError("exact_roots needs an exact-backend polynomial")
    if p.is_zero():
        raise ValueError("zero polynomial")
    n = math.lcm(conductor or 1, p.conductor())
    rem = p
    found: list[tuple[CyclotomicNumber, int]] = []
    if rem.degree >= 1:
        candidates: list[CyclotomicNumber] = []
        if rem.degree == 1:
            candidates = [-rem.coefficient(0) / rem.coefficient(1)]
        else:
            for z in roots(p):
                for c in _recognize(z.value, n):
                    if not any(c == d for d in candidates):
                        candidates.append(c)
        for cand in candidates:
            mult = 0
            while rem.degree >= 1 and rem.evaluate(cand) == 0:
                rem = rem // Poly([-cand, exact(1)])
                mult += 1
            if mult:
                found.append((cand, mult))
        # a leftover linear factor always splits
        if rem.degree == 1:
            r = -rem.coefficient(0) / rem.coefficient(1)
            found.append((r, 1))
            rem = Poly([rem.leading])
    return found, rem


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
    """Monic greatest common divisor, by Euclid over the exact scalars."""
    if (not p.is_zero() and p.backend != "exact") or (
        not q.is_zero() and q.backend != "exact"
    ):
        raise BackendMismatchError("poly_gcd needs exact-backend polynomials")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a * Poly([one_like(a.leading) / a.leading])


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


_MATCH_FACTOR = 10.0  # orbit_match's approx window, in units of CONFIG.tol


def orbit_match(a: Scalar, b: Scalar) -> bool:
    """Whether a is the orbit point b: exact scalars must be equal, an
    approximate a must lie within _MATCH_FACTOR*tol*max(1, |b|) of b."""
    if isinstance(a, CyclotomicNumber):
        return a == b
    bv = b.embed()
    return abs(a.value - bv) <= _MATCH_FACTOR * CONFIG.tol * max(1.0, abs(bv))


# relative radius within which numeric roots count as one (a multiple root
# comes back as a loose cluster, not as exact repeats)
_CLUSTER_SCALE = 1e-5


def _cluster(values: list[complex]) -> list[complex]:
    """Merge near-coincident numeric roots, replacing clusters by centroids."""
    if not values:
        return []
    scale = 1 + max(abs(v) for v in values)
    return [sum(g) / len(g) for g in _groups(values, _CLUSTER_SCALE * scale)]


def _group_orbits(f: Poly, pool: list[Scalar], n: int, match) -> tuple[list[Orbit], list[Scalar]]:
    """Chain the values of pool into period-n orbits under f, each image
    f(v) taken to be the first pool value that match(value, f(v)) accepts;
    orbits come in canonical rotation, unmatched values become residuals."""
    pool = sorted(pool, key=lambda s: (s.embed().real, s.embed().imag))
    orbits: list[Orbit] = []
    residuals: list[Scalar] = []
    while pool:
        start = pool.pop(0)
        seq = [start]
        ok = True
        for _ in range(n - 1):
            nxt = f.evaluate(seq[-1])
            hit = None
            for idx, v in enumerate(pool):
                if match(v, nxt):
                    hit = idx
                    break
            if hit is None:
                ok = False
                break
            seq.append(pool.pop(hit))
        if ok:
            closing = f.evaluate(seq[-1])
            ok = match(seq[0], closing)
        if ok:
            orbits.append(Orbit(tuple(seq)).canonical())
        else:
            residuals.append(start)
            pool = sorted(pool + seq[1:], key=lambda s: (s.embed().real, s.embed().imag))
    orbits.sort(key=lambda o: (o.values[0].embed().real, o.values[0].embed().imag))
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
    has exact period n.  Its roots are searched inside Q(zeta_N)
    (N = conductor, defaulting to the lcm of f's coefficient conductors);
    if the quotient splits there the whole computation stays exact,
    otherwise it falls back to numeric roots of f^(n) - h, clustered, with
    those near a root of some f^(d) - h dropped.

    Either way the roots are chained into orbits by :func:`orbit_match`,
    the rule ``classify`` also uses on an h-spectrum.  Orbits are returned
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
    # one list f^(0..n) per backend; lower periods read its prefix
    iterates = [Poly.variable(f.backend)]
    g = _extend_iterates(f, iterates, n) - iterates[0]
    if g.is_zero():
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
        # points of period d < n are roots of f^(d) - h; divide those factors
        # out first so an unsplittable lower-period factor (fixed points with
        # irrational coordinates, say) cannot force the period-n search numeric
        core = g
        for d in divisors(n)[:-1]:
            gd = iterates[d] - iterates[0]
            common = poly_gcd(core, gd)
            while common.degree >= 1:
                core = core // common
                common = poly_gcd(core, gd)
        if core.degree < 1:
            return OrbitSet(())
        found, rem = exact_roots(core, cond)
        if rem.degree == 0:
            # core is coprime to every f^(d) - h, so each root has exact
            # period n, and closure of the root set under f makes exact
            # grouping total
            orbits, residuals = _group_orbits(f, [r for r, _ in found], n, orbit_match)
            assert not residuals, "exact orbit grouping must consume every root"
            return OrbitSet(tuple(orbits))

    # numeric path
    fa = f.approx()
    iterates = [Poly.variable("approx")]
    ga = _extend_iterates(fa, iterates, n) - iterates[0]
    numeric = [r.value for r in roots(ga)]
    centers = _cluster(numeric)
    scale = 1 + max((abs(v) for v in centers), default=0.0)
    radius = _CLUSTER_SCALE * scale
    for d in divisors(n)[:-1]:
        gd = iterates[d] - iterates[0]
        if gd.is_zero() or all(c == zero_like(c) for c in gd.coeffs):
            return OrbitSet(())
        fixed = [r.value for r in roots(gd)]
        centers = [c for c in centers if all(abs(c - w) > radius for w in fixed)]
    orbits, residuals = _group_orbits(fa, [approx(c) for c in centers], n, orbit_match)
    return OrbitSet(tuple(orbits), tuple(residuals))
