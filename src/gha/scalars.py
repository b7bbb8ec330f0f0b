"""Scalar arithmetic: exact cyclotomic rationals and approximate complexes.

Two backends coexist but never mix inside one computation:

* ``CyclotomicNumber`` is an element of Q(zeta_N), stored as rational
  coordinates in the power basis 1, zeta, ..., zeta^(phi(N)-1) modulo the
  N-th cyclotomic polynomial.  Arithmetic is exact; elements of different
  conductors are promoted to the lcm before combining.
* ``ApproxComplex`` is a finite complex double with tolerance-based equality
  (tolerance taken from :data:`gha.config.CONFIG`).

Plain ``int``/``Fraction`` literals are backend-neutral and lift into either
side.  Promotion exact -> approx is explicit via ``.approx()`` and one-way.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .config import CONFIG

Rational = Fraction

_NEUTRAL = (int, Fraction)


class BackendMismatchError(TypeError):
    """Raised when exact and approximate scalars meet in one operation."""


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
    divisors of n, which keeps everything in integer arithmetic.

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
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        num = _int_poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


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


def _lift_rows(num, m: int, n: int) -> list:
    """num, rows of phi(m) coordinates over Q(zeta_m), as rows of phi(n)
    over Q(zeta_n), m dividing n: zeta_m = zeta_n^(n/m), reduced mod Phi_n."""
    phi = euler_phi(n)
    if m == 1:
        out = [0] * (len(num) * phi)
        out[::phi] = num
        return out
    step = n // m
    raw = [0] * (len(num) * step)
    raw[::step] = num
    return _reduce_mod_cyclotomic(raw, n, euler_phi(m) * step)


def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    # extended Euclid over Q[x]; returns (g, s, t) with s*a + t*b = g
    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    def sub_scaled(p, q, c, shift):
        out = list(p) + [Fraction(0)] * max(0, len(q) + shift - len(p))
        for i, x in enumerate(q):
            if x:
                out[i + shift] -= c * x
        return out

    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], [Fraction(0)]
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while deg(r1) >= 0:
        d0, d1 = deg(r0), deg(r1)
        if d0 < d1:
            r0, r1, s0, s1, t0, t1 = r1, r0, s1, s0, t1, t0
            continue
        c = r0[d0] / r1[d1]
        shift = d0 - d1
        r0 = sub_scaled(r0, r1, c, shift)
        s0 = sub_scaled(s0, s1, c, shift)
        t0 = sub_scaled(t0, t1, c, shift)
    return r0, s0, t0


class CyclotomicNumber:
    """An exact element of the cyclotomic field Q(zeta_N).

    ``coords[j]`` is the rational coefficient of zeta_N^j in the power basis
    of length phi(N).  Rational values normalise to conductor 1.  Instances
    are immutable; equality promotes both sides to a common conductor.

    >>> z = CyclotomicNumber.zeta(3)
    >>> z**3 == 1
    True
    >>> z + z**2 == -1
    True
    """

    __slots__ = ("conductor", "coords")
    __hash__ = None  # tolerance-free but cross-conductor equal forms differ structurally

    def __init__(self, conductor: int, coords) -> None:
        coords = tuple(Fraction(c) for c in coords)
        phi = euler_phi(conductor)
        if len(coords) != phi:
            raise ValueError(f"expected {phi} coordinates for conductor {conductor}")
        if conductor != 1 and not any(coords[1:]):
            conductor, coords = 1, (coords[0],)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):  # pragma: no cover - guards accidental mutation
        raise AttributeError("CyclotomicNumber is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor; restoring the
        # slots would meet the immutability guard
        return CyclotomicNumber, (self.conductor, self.coords)

    @classmethod
    def from_rational(cls, q) -> "CyclotomicNumber":
        return cls(1, (Fraction(q),))

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "CyclotomicNumber":
        """zeta_n^k as an element of Q(zeta_n)."""
        k %= n
        coords = _reduce_mod_cyclotomic(
            [Fraction(0)] * k + [Fraction(1)], n
        )
        return cls(n, coords)

    # -- conductor bookkeeping ------------------------------------------

    def _lift_coords(self, m: int) -> tuple[Fraction, ...]:
        """Coordinates of self in the power basis of Q(zeta_m); conductor | m."""
        n = self.conductor
        if m == n:
            return self.coords
        if m % n:
            raise ValueError("can only lift to a multiple of the conductor")
        return tuple(_lift_rows(self.coords, n, m))

    @staticmethod
    def _common(a: "CyclotomicNumber", b: "CyclotomicNumber"):
        m = math.lcm(a.conductor, b.conductor)
        return a._lift_coords(m), b._lift_coords(m), m

    def _coerce(self, other):
        if isinstance(other, _NEUTRAL):
            return CyclotomicNumber.from_rational(other)
        if isinstance(other, CyclotomicNumber):
            return other
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
        ca, cb, m = self._common(self, other)
        return CyclotomicNumber(m, tuple(x + y for x, y in zip(ca, cb)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coords))

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
        ca, cb, m = self._common(self, other)
        raw = [Fraction(0)] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    if y:
                        raw[i + j] += x * y
        return CyclotomicNumber(m, _reduce_mod_cyclotomic(raw, m))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.conductor == 1:
            return CyclotomicNumber.from_rational(1 / self.coords[0])
        cp = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        g, s, _ = _poly_xgcd(list(self.coords), cp)
        # g is a nonzero constant because the cyclotomic polynomial is irreducible
        gc = next(c for c in g if c)
        inv = [c / gc for c in s]
        return CyclotomicNumber(self.conductor, _reduce_mod_cyclotomic(inv, self.conductor))

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
        if isinstance(other, CyclotomicNumber):
            ca, cb, _ = self._common(self, other)
            return ca == cb
        return NotImplemented

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def embed(self) -> complex:
        """Numeric value under zeta_N -> exp(2*pi*i/N)."""
        n = self.conductor
        return sum(
            float(c) * cmath.exp(2j * math.pi * j / n)
            for j, c in enumerate(self.coords)
            if c
        ) + 0j

    def approx(self) -> "ApproxComplex":
        return ApproxComplex(self.embed())

    def __abs__(self) -> float:
        return abs(self.embed())

    # -- canonical text form ----------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for j, c in enumerate(self.coords):
            if not c:
                continue
            if j == 0:
                body = str(abs(c))
            else:
                zeta = f"zeta({self.conductor})" + (f"^{j}" if j > 1 else "")
                body = zeta if abs(c) == 1 else f"{abs(c)}*{zeta}"
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append(("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self})"


def _format_float(x: float) -> str:
    return repr(x)


class ApproxComplex:
    """A finite complex double compared up to the configured tolerance."""

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
        return abs(self.value - other.value) <= CONFIG.tol

    def is_zero(self) -> bool:
        return abs(self.value) <= CONFIG.tol

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
