"""Scalar arithmetic: exact cyclotomic rationals and approximate complexes.

Two backends coexist but never mix inside one computation:

* ``CyclotomicNumber`` is an element of Q(zeta_N) held as the degree-0
  case of the integer form ``(N, den, num)`` of :class:`gha.polys.Poly`:
  phi(N) integer numerators in the power basis 1, zeta, ...,
  zeta^(phi(N)-1) modulo the N-th cyclotomic polynomial, over one
  denominator.  Its sums, products and comparisons are those of ``Poly``
  (:func:`_sum_form`, :func:`_product_form`, :func:`_same_value`), which
  lift elements of different conductors to the lcm; its inverse is
  :func:`_inverse_form`.
* ``ApproxComplex`` is a finite complex double with tolerance-based equality.
  Every approximate equality decision of the package, on scalars, ``Poly``
  rows, matrices and relation residuals, goes through :func:`_close`.

Plain ``int``/``Fraction`` literals are backend-neutral and lift into either
side.  Promotion exact -> approx is explicit via ``.approx()`` and one-way.

The routines on rows of integer numerators (reduction mod Phi_N, lift,
sum, product, inverse, equality, canonical form) live here and serve ``polys`` too,
as does the degree guard :func:`_check_degree`.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Union

from .config import CONFIG

_NEUTRAL = (int, Fraction)


class BackendMismatchError(TypeError):
    """Raised when exact and approximate scalars meet in one operation."""


class DegreeOverflowError(ValueError):
    """A polynomial or a cyclotomic field exceeded the configured degree guard."""


def _check_degree(degree: int, subject: str = "degree") -> None:
    """The degree guard: refuse to build a polynomial, or the field
    Q(zeta_N), of degree past CONFIG.max_compose_degree.  Callers pass the
    predicted degree, so the refusal comes before any work is done."""
    if degree > CONFIG.max_compose_degree:
        raise DegreeOverflowError(
            f"{subject} {degree} exceeds the degree guard {CONFIG.max_compose_degree}; "
            "raise CONFIG.max_compose_degree to allow it"
        )


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _power(base, k: int, one, mul=operator.mul):
    """base**k for k >= 0 by repeated squaring as mul(out, base); base is
    squared only while bits of k remain, so no square is wasted."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def _int_poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # long division of integer polynomials, den monic; remainder must vanish
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + len(den) - 1]
        out[i] = q
        if q:
            for j, c in enumerate(den):
                num[i + j] -= q * c
    assert not any(num[: len(den) - 1]), "inexact cyclotomic division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n, which keeps everything in integer arithmetic.  A field
    of degree phi(n) past the degree guard is refused before that work.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    _check_degree(euler_phi(n), f"the field Q(zeta({n})) of degree")
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num = _int_poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n), the degree of Q(zeta_n), from the prime factors of n."""
    if n < 1:
        raise ValueError("conductor must be positive")
    phi, p = n, 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    return phi - phi // n if n > 1 else phi


@lru_cache(maxsize=None)
def _cyclotomic_taps(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), the (i, c) with c = coefficient i != 0 of Phi_n, i < phi(n))."""
    cp = cyclotomic_polynomial(n)
    phi = len(cp) - 1
    return phi, tuple((i, c) for i, c in enumerate(cp[:phi]) if c)


def _reduce_mod_cyclotomic(c: list, n: int, stride: int = 0) -> list:
    """The phi(n) power-basis coordinates of sum c[j]*zeta_n^j; with a
    stride, those of each row of stride coefficients of c in turn.

    c is a list of ints or Fractions.  Each top coefficient of a row is
    folded down through the nonzero taps of the monic Phi_n; a shorter row
    is padded with zeros."""
    phi, taps = _cyclotomic_taps(n)
    stride = stride or len(c)
    if not stride:
        return [0] * phi
    pad = [0] * (phi - stride)
    out: list = []
    for start in range(0, len(c), stride):
        row = c[start : start + stride]
        for j in range(stride - 1, phi - 1, -1):
            t = row[j]
            if t:
                for i, a in taps:
                    row[j - phi + i] -= t * a
        out += row[:phi]
        out += pad
    return out


def _lift_rows(num, m: int, n: int):
    """num, rows of phi(m) coordinates over Q(zeta_m), as rows of phi(n)
    over Q(zeta_n), m dividing n: zeta_m = zeta_n^(n/m), reduced mod Phi_n;
    num itself when m = n."""
    if m == n:
        return num
    phi = euler_phi(n)
    if m == 1:
        out = [0] * (len(num) * phi)
        out[::phi] = num
        return out
    step = n // m
    raw = [0] * (len(num) * step)
    raw[::step] = num
    return _reduce_mod_cyclotomic(raw, n, euler_phi(m) * step)


@lru_cache(maxsize=None)
def _width(n: int) -> int:
    """Numerators per coefficient of a form over conductor n: phi(n), and
    1 for an approximate row (n = 0)."""
    return euler_phi(n) if n else 1


def _canonical(n: int, den: int, num):
    """The exact form (n, den, num) made canonical, with num a tuple: no
    trailing zero row of phi(n) numerators, gcd(den, num) = 1, and n = 1
    when every zeta part is 0; None when every numerator is 0."""
    phi = euler_phi(n)
    form = _reduced(den, num, phi)
    if form is None:
        return None
    den, num = form
    if n > 1:
        n, den, num = _rational_drop(n, den, num)
    return n, den, tuple(num)


def _rational_drop(n: int, den: int, num) -> tuple:
    """The form (n, den, num) over conductor 1 when n > 1 and every zeta
    part of its rows is 0, as a canonical form has it; unchanged otherwise."""
    if n > 1:
        phi = euler_phi(n)
        parts = list(num)
        del parts[::phi]  # the zeta parts, by C-level slicing
        if not any(parts):
            return 1, den, num[::phi]
    return n, den, num


def _same_value(x: tuple, y: tuple) -> bool:
    """Whether the canonical exact forms (N, den, num) x and y hold the
    same value.  Equal values have equal forms over the lcm of the
    conductors, and a lift keeps the denominator; a rational form never
    equals one over a conductor N > 1, which has a zeta part."""
    (m, dx, a), (k, dy, b) = x, y
    if m == k:
        return dx == dy and a == b
    if dx != dy or m == 1 or k == 1:
        return False
    n = math.lcm(m, k)
    return tuple(_lift_rows(a, m, n)) == tuple(_lift_rows(b, k, n))


def _reduced(den: int, num, phi: int):
    """(den, num) with the trailing zero rows of phi numerators cut and
    the gcd of den and num divided out; None when every numerator is 0."""
    end = len(num)
    while end and not any(num[end - phi : end]):
        end -= phi
    if not end:
        return None
    if end < len(num):
        num = num[:end]
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            den //= g
            num = [x // g for x in num]
    return den, num


# Operand size, len(x) * len(y), up to which _mul_rows multiplies by
# schoolbook: below it the Kronecker packing and unpacking cost more than
# the products they replace.
_SCHOOLBOOK_MAX = 192


def _mul_rows(x, pa: int, y, pb: int, n: int) -> list[int]:
    """The numerator rows of x*y, by schoolbook or Kronecker substitution.

    x and y are nonempty lists of rows of pa and pb integer numerators,
    rational (pa = 1) or over Q(zeta_n) itself, never another conductor
    (the caller lifts those), or for n = 0 approximate rows of complex
    coefficients, always multiplied by schoolbook.  Coefficient k of x, a
    polynomial of degree < pa in zeta, goes to the slots k*stride ..
    k*stride + pa - 1, with stride = pa + pb - 1 so the zeta-degrees of a
    product cannot spill into the next h-degree.  Short operands convolve
    those slot lists directly.  Long ones pack them into one integer each, h and zeta_n
    becoming powers of 2 (Kronecker substitution): a slot holds any product
    coefficient with a sign bit to spare, so the product of the two
    integers carries every coefficient of x*y in Z[h, zeta].  Either way
    each row is then reduced mod Phi_n, to phi(n) numerators.
    """
    stride = pa + pb - 1
    if len(x) * len(y) <= _SCHOOLBOOK_MAX or not n:
        sx = x if stride == pa else _spread(x, pa, stride)
        sy = sx if y is x else y if stride == pb else _spread(y, pb, stride)
        digits = [0 if n else 0j] * (len(sx) + len(sy) - 1)
        for i, u in enumerate(sx):
            if u:
                for j, v in enumerate(sy, i):
                    digits[j] += u * v
    else:
        la, lb = len(x) // pa, len(y) // pb
        ax, ay = _max_abs(x), _max_abs(y)  # the slots hold these too: one may be all zero
        bound = max(min(la, lb) * min(pa, pb) * ax * ay, ax, ay)
        width = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
        vx = _pack(x, pa, stride, width)
        vy = vx if y is x else _pack(y, pb, stride, width)
        digits = _unpack(vx * vy, width, (la + lb - 1) * stride)
    if stride > 1 and stride > _width(n):
        digits = _reduce_mod_cyclotomic(digits, n, stride)
    return digits


def _sum_form(x: tuple, y: tuple) -> tuple:
    """The form of x + y for forms (N, den, num) of one backend: both rows
    lifted to the lcm of the conductors and of the denominators, x first,
    the longer row's tail kept as it is, and the form not made canonical."""
    (m, dx, a), (k, dy, b) = x, y
    den = dx if dx == dy else math.lcm(dx, dy)
    if m == k == 1 and len(a) == len(b) == 1:  # two rational constants
        return 1, den, [a[0] * (den // dx) + b[0] * (den // dy)]
    n = math.lcm(m, k)  # the shared conductor, 0 when either form is approximate
    if not n and m != k:
        raise BackendMismatchError("polynomials use different scalar backends")
    a, b = _lift_rows(a, m, n), _lift_rows(b, k, n)
    if den != dx:
        a = [v * (den // dx) for v in a]
    if den != dy:
        b = [v * (den // dy) for v in b]
    num = list(map(operator.add, a, b))
    num += a[len(b) :] or b[len(a) :]
    return n, den, num


def _product_form(x: tuple, y: tuple) -> tuple:
    """The form of x*y for forms (N, den, num) of one backend, as
    ``_sum_form`` has it, x the outer factor of ``_mul_or_scale``.  Rational
    rows multiply as they are; two other conductors are lifted first."""
    (m, dx, a), (k, dy, b) = x, y
    if m == k == 1 and len(a) == len(b) == 1:  # two rational constants
        return 1, dx * dy, [a[0] * b[0]]
    n = math.lcm(m, k)  # the shared conductor, 0 when either form is approximate
    if not n and m != k:
        raise BackendMismatchError("polynomials use different scalar backends")
    if m != k and m != 1 and k != 1:
        a, b, m, k = _lift_rows(a, m, n), _lift_rows(b, k, n), n, n
    return n, dx * dy, _mul_or_scale(a, _width(m), b, _width(k), n)


def _mul_or_scale(x, pa: int, y, pb: int, n: int) -> list:
    """x*y as ``_mul_rows`` has it, except that a constant with no zeta
    part, a single row whose numerators past the first are 0, scales the
    other operand's numerators instead, when those rows are at least as
    wide as its own; x is tried first."""
    if len(x) == pa and pb >= pa and not any(x[1:]):
        c = x[0]
        return [v * c for v in y]
    if len(y) == pb and pa >= pb and not any(y[1:]):
        c = y[0]
        return [v * c for v in x]
    return _mul_rows(x, pa, y, pb, n)


def _inverse_form(x: tuple) -> tuple:
    """The form of 1/x for a nonzero exact form x = (N, den, num) of one
    value, not made canonical.  With x = A / d, the product P of the
    Galois conjugates zeta -> zeta^k (gcd(k, N) = 1, k != 1) of A makes
    A*P the rational norm of A, so 1/x = d*P / (A*P); a rational x is
    its reciprocal.  For N >= 3 the conjugates pair off with their complex
    conjugates, so the norm is a product of squared moduli, positive."""
    n, den, num = x
    if n == 1:
        return 1, abs(num[0]), [den if num[0] > 0 else -den]
    phi, conj = len(num), None
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            raw = [0] * n
            for j, c in enumerate(num):
                raw[j * k % n] = c
            row = _reduce_mod_cyclotomic(raw, n)
            conj = row if conj is None else _mul_rows(conj, phi, row, phi, n)
    return n, _mul_rows(num, phi, conj, phi, n)[0], [c * den for c in conj]


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


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[complex, ...]:
    """exp(2*pi*i*j/n) for j < phi(n), the embedding of the power basis."""
    return tuple(cmath.exp(2j * math.pi * j / n) for j in range(euler_phi(n)))


def _embed_row(row, den: int, n: int) -> complex:
    """The value in C of the row of numerators over den, under zeta_n ->
    exp(2*pi*i/n)."""
    return sum((x / den) * u for x, u in zip(row, _units(n)) if x) + 0j


def _rational_parts(num: int, den: int) -> tuple[bool, str, bool]:
    """(whether q < 0, the text of |q|, whether |q| == 1) for the nonzero
    rational q = num/den (den > 0)."""
    g = math.gcd(num, den)
    top, bottom = abs(num) // g, den // g
    return num < 0, (str(top) if bottom == 1 else f"{top}/{bottom}"), top == bottom


class CyclotomicNumber:
    """An exact element of the cyclotomic field Q(zeta_N).

    Held in the form ``(N, den, num)`` of a degree-0 :class:`gha.polys.Poly`:
    the conductor N, a denominator ``den > 0`` and the phi(N) integer
    numerators ``num`` of the power basis 1, zeta_N, ...,
    zeta_N^(phi(N)-1).  The form is canonical: gcd(den, num) = 1, and
    N = 1 exactly when the value is rational, so 0 is (1, 1, (0,)).
    ``coords``, the rationals num[j] / den, is a view built on each access;
    no operation reads it.  Instances are immutable; ``+``, ``*`` and ``==``
    are the form routines of ``Poly`` on degree 0.

    >>> z = CyclotomicNumber.zeta(3)
    >>> z**3 == 1
    True
    >>> z + z**2 == -1
    True
    >>> CyclotomicNumber(3, [1, "1/2"]).inverse()
    CyclotomicNumber(2/3 - 2/3*zeta(3))
    """

    __slots__ = ("conductor", "_den", "_num")
    __hash__ = None  # tolerance-free but cross-conductor equal forms differ structurally

    def __new__(cls, conductor: int, coords) -> "CyclotomicNumber":
        coords = [Fraction(c) for c in coords]
        phi = euler_phi(conductor)
        if len(coords) != phi:
            raise ValueError(f"expected {phi} coordinates for conductor {conductor}")
        den = math.lcm(*[q.denominator for q in coords])
        return _cyclotomic(conductor, den, [q.numerator * (den // q.denominator) for q in coords])

    def __setattr__(self, *a):  # pragma: no cover - guards accidental mutation
        raise AttributeError("CyclotomicNumber is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; restoring the
        # slots would meet the immutability guard
        return CyclotomicNumber, (self.conductor, self.coords)

    @classmethod
    def from_rational(cls, q) -> "CyclotomicNumber":
        q = q if isinstance(q, _NEUTRAL) else Fraction(q)
        return _cyclotomic(1, q.denominator, [q.numerator])

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "CyclotomicNumber":
        """zeta_n^k as an element of Q(zeta_n)."""
        k %= n
        return _cyclotomic(n, 1, _reduce_mod_cyclotomic([0] * k + [1], n))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational coordinates in the power basis of Q(zeta_N)."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            return other
        if isinstance(other, _NEUTRAL):
            return CyclotomicNumber.from_rational(other)
        if isinstance(other, ApproxComplex):
            raise BackendMismatchError(
                "cannot mix exact and approximate scalars; call .approx() explicitly"
            )
        return None

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _cyclotomic(*_sum_form(_form(self), _form(other)))

    __radd__ = __add__

    def __neg__(self):
        return _cyclotomic(self.conductor, self._den, [-x for x in self._num])

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _cyclotomic(*_product_form(_form(self), _form(other)))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/self, the form :func:`_inverse_form` gives."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return _cyclotomic(*_inverse_form(_form(self)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, CyclotomicNumber.from_rational(1))

    def __eq__(self, other):
        if isinstance(other, _NEUTRAL):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return _same_value(_form(self), _form(other))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def embed(self) -> complex:
        """Numeric value under zeta_N -> exp(2*pi*i/N)."""
        return _embed_row(self._num, self._den, self.conductor)

    def approx(self) -> "ApproxComplex":
        return ApproxComplex(self.embed())

    def __abs__(self) -> float:
        return abs(self.embed())

    # -- canonical text form ----------------------------------------------

    def __str__(self) -> str:
        pieces = []
        for j, x in enumerate(self._num):
            if not x:
                continue
            negative, text, unit = _rational_parts(x, self._den)
            if j:
                zeta = f"zeta({self.conductor})" + (f"^{j}" if j > 1 else "")
                text = zeta if unit else f"{text}*{zeta}"
            sign = ("- " if negative else "+ ") if pieces else ("-" if negative else "")
            pieces.append(sign + text)
        return " ".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self})"


# the slot setters, which pass by the immutability guard
_set_conductor = CyclotomicNumber.conductor.__set__
_set_den = CyclotomicNumber._den.__set__
_set_num = CyclotomicNumber._num.__set__
# the form (N, den, num) of a CyclotomicNumber, for the form routines above
_form = operator.attrgetter("conductor", "_den", "_num")


def _cyclotomic(n: int, den: int, num) -> CyclotomicNumber:
    """The CyclotomicNumber of the form (n, den, num) of phi(n) numerators,
    made canonical."""
    n, den, num = _canonical(n, den, num) or (1, 1, (0,))
    c = object.__new__(CyclotomicNumber)
    _set_conductor(c, n)
    _set_den(c, den)
    _set_num(c, num)
    return c


def _close(gap: float, size: float) -> bool:
    """Whether a difference of magnitude gap counts as zero, for operands
    of magnitude up to size: gap <= CONFIG.tol * max(1, size).  The test is
    absolute for operands up to 1 and relative past that."""
    return gap <= CONFIG.tol * max(1.0, size)


def _format_float(x: float) -> str:
    return repr(x)


class ApproxComplex:
    """A finite complex double; a == b when |a - b| <= tol * max(1, |a|, |b|)."""

    __slots__ = ("value",)
    __hash__ = None  # equality is tolerance-based

    def __init__(self, value) -> None:
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError("approximate scalars must be finite")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ApproxComplex is immutable")

    def __reduce__(self):
        return ApproxComplex, (self.value,)

    def _coerce(self, other):
        if isinstance(other, _NEUTRAL + (float, complex)):
            return ApproxComplex(complex(other))
        if isinstance(other, ApproxComplex):
            return other
        if isinstance(other, CyclotomicNumber):
            raise BackendMismatchError(
                "cannot mix exact and approximate scalars; call .approx() explicitly"
            )
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else ApproxComplex(self.value + other.value)

    __radd__ = __add__

    def __neg__(self):
        return ApproxComplex(-self.value)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else ApproxComplex(self.value - other.value)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else ApproxComplex(other.value - self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else ApproxComplex(self.value * other.value)

    __rmul__ = __mul__

    def inverse(self) -> "ApproxComplex":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return ApproxComplex(1 / self.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero scalar")
        return ApproxComplex(self.value / other.value)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return ApproxComplex(self.value**k)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except BackendMismatchError:
            return False
        if other is None:
            return NotImplemented
        a, b = self.value, other.value
        return _close(abs(a - b), max(abs(a), abs(b)))

    def is_zero(self) -> bool:
        v = abs(self.value)
        return _close(v, v)

    def embed(self) -> complex:
        return self.value

    def approx(self) -> "ApproxComplex":
        return self

    def __abs__(self) -> float:
        return abs(self.value)

    def __str__(self) -> str:
        re, im = self.value.real, self.value.imag
        if im == 0:
            return _format_float(re)
        im_part = "i" if abs(im) == 1 else f"{_format_float(abs(im))}*i"
        if re == 0:
            return im_part if im > 0 else "-" + im_part
        sign = "+" if im > 0 else "-"
        return f"{_format_float(re)} {sign} {im_part}"

    def __repr__(self) -> str:
        return f"ApproxComplex({self.value!r})"


Scalar = Union[CyclotomicNumber, ApproxComplex]


def zeta(n: int, k: int = 1) -> CyclotomicNumber:
    return CyclotomicNumber.zeta(n, k)


def exact(q) -> CyclotomicNumber:
    """Lift an int or Fraction into the exact backend."""
    return CyclotomicNumber.from_rational(q)


def approx(v) -> ApproxComplex:
    return ApproxComplex(v)


def as_scalar(x, backend: str = "exact") -> Scalar:
    """Lift a neutral literal (or pass a scalar through) to the given backend."""
    if isinstance(x, (CyclotomicNumber, ApproxComplex)):
        return x
    if isinstance(x, _NEUTRAL):
        return exact(x) if backend == "exact" else approx(complex(x))
    if isinstance(x, (float, complex)):
        if backend == "exact":
            raise BackendMismatchError("float literals require the approximate backend")
        return approx(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def backend_of(s: Scalar) -> str:
    if isinstance(s, CyclotomicNumber):
        return "exact"
    if isinstance(s, ApproxComplex):
        return "approx"
    raise TypeError(f"not a scalar: {s!r}")


def zero_like(s: Scalar) -> Scalar:
    return exact(0) if isinstance(s, CyclotomicNumber) else approx(0)


def one_like(s: Scalar) -> Scalar:
    return exact(1) if isinstance(s, CyclotomicNumber) else approx(1)


_MAX_ORDER = 1024  # largest order probed for an approximate root of unity


def root_of_unity_order(s: Scalar) -> int | None:
    """Least k with s^k = 1, or None if s is not a root of unity.

    Exact scalars: the roots of unity in Q(zeta_N) form a cyclic group whose
    order divides 2N, so only divisors of 2N need testing.  Approximate
    scalars: |s| must be 1 within tolerance and arg(s)/2pi within tolerance
    of a fraction p/q with q <= _MAX_ORDER; the candidate order is
    verified by powering.
    """
    if isinstance(s, CyclotomicNumber):
        if s.is_zero():
            return None
        one = exact(1)
        for k in divisors(2 * s.conductor):
            if s**k == one:
                return k
        return None
    if isinstance(s, ApproxComplex):
        v = s.value
        if abs(abs(v) - 1.0) > CONFIG.tol:
            return None
        frac = Fraction(cmath.phase(v) / (2 * math.pi)).limit_denominator(_MAX_ORDER)
        q = frac.denominator
        if abs(cmath.phase(v) / (2 * math.pi) - frac) > max(CONFIG.tol, 1e-12):
            return None
        if abs(v**q - 1) <= max(CONFIG.tol, q * 1e-14):
            return q
        return None
    raise TypeError(f"not a scalar: {s!r}")
