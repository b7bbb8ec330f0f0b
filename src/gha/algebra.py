"""The algebra H(f) with exact normal-form arithmetic.

H(f) is generated by x, y, h subject to

    h*x = x*f(h),    y*h = f(h)*y,    y*x - x*y = f(h) - h,

for a polynomial f.  Monomials x^i * g(h) * y^k form a basis, so every
element is stored as a finite map (i, k) -> polynomial in h and products are
rewritten back to that normal form.  The distinguished central element is
z = x*y - h.

The only nontrivial rewriting is pushing a power of y past a power of x.
For an exact f of degree <= 1, H(f) is a generalized Weyl algebra and
y^k x^i has a closed q-binomial form, read off directly; every other f
fills a trapezoid of smaller middles.  ``Presentation`` memoises the
middles a product reads, which is what makes repeated products cheap.
``FreeModuleElement`` and
:func:`free_module_action` implement the faithful action on the free
commutative polynomial ring C[X, H, Y] used as an independent oracle for the
product.
"""

from __future__ import annotations

from .polys import (
    _ZERO,
    Poly,
    _compose_rows,
    _exact,
    _h_power,
    _terms_text,
    iterate,
)
from .scalars import (
    _NEUTRAL,
    ApproxComplex,
    CyclotomicNumber,
    Scalar,
    _canonical,
    _form,
    _inverse_form,
    _power,
    _product_form,
    _rational_drop,
    _sum_form,
    as_scalar,
    exact,
    zero_like,
)


class PresentationMismatchError(ValueError):
    """Raised when elements of different H(f) presentations are combined."""


class Presentation:
    """H(f) for a fixed defining polynomial f.

    Carries per-presentation caches: one memo of the normal forms of the
    middles y^k x^i, every trapezoid cell a fill computes among them; for
    an exact f of degree <= 1 the q-integers of its closed form; and the
    recursive y-action on free-module monomials.  The iterates f^(i) are
    kept with f itself, by :func:`gha.polys.iterate`.  Fill cells, the
    closed form, element products and sums build their terms as entries
    (``_mul_entries``, ``_add_entry``); then ``_canonical_terms`` makes
    each term a canonical Poly once.

    ``middle_reductions`` counts the trapezoid cells ``_fill`` computes,
    and nothing else.  y^k x^i with k > i is read off y^i x^k, so a fresh
    presentation reduces y^k x^i in (m+1)(m+2)/2 steps, m = min(k, i).
    An exact f of degree <= 1 takes none: its closed form is a sum of at
    most m + 1 terms, each one step of a product recurrence, and of at
    most min(k mod p, i mod p) + 1 when f^(p) = h.  Those two bounds are
    the termination certificate for the rewriting.
    """

    def __init__(self, f: Poly) -> None:
        self.f = f
        self._one = Poly.constant(1, f.backend)
        self._f_powers: list[Poly] = [self._one]
        self._middles: dict[tuple[int, int], dict[tuple[int, int], Poly]] = {}
        self._y_actions: dict[tuple[int, int, int], dict[tuple[int, int, int], Scalar]] = {}
        self.middle_reductions = 0
        # the closed form of an exact f = alpha*h + c: alpha as a form; the
        # q-integers [0], [1], ... as canonical forms, [0] = 0 as None; the
        # period p of alpha once [p] = 0; l = f - h
        if f._n and f.degree <= 1:
            self._alpha = _form(f.coefficient(1))
            self._q_integers: list = [None, _ONE_FORM]
            self._q_period: int | None = None
            self._l = f - Poly.variable()

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return self is other or self.f == other.f

    __hash__ = None

    def __repr__(self) -> str:
        return f"Presentation(f = {self.f})"

    def f_iterate(self, i: int) -> Poly:
        """f^(i), the i-fold self-composition (f^(0) = h)."""
        return iterate(self.f, i)

    def f_power(self, j: int) -> Poly:
        """f(h)**j as a polynomial (plain power, not composition)."""
        while len(self._f_powers) <= j:
            self._f_powers.append(self._f_powers[-1] * self.f)
        return self._f_powers[j]

    # -- element constructors ---------------------------------------------

    def zero(self) -> "GHAElement":
        return GHAElement(self, {})

    def one(self) -> "GHAElement":
        return GHAElement(self, {(0, 0): self._one})

    def scalar(self, s) -> "GHAElement":
        s = as_scalar(s, self.f.backend)
        return GHAElement(self, {(0, 0): Poly([s])})

    def from_poly(self, g: Poly) -> "GHAElement":
        """The element g(h)."""
        return GHAElement(self, {(0, 0): g})

    def generator(self, name: str) -> "GHAElement":
        one = self._one
        if name == "x":
            return GHAElement(self, {(1, 0): one})
        if name == "y":
            return GHAElement(self, {(0, 1): one})
        if name == "h":
            return GHAElement(self, {(0, 0): Poly.variable(self.f.backend)})
        if name == "z":
            # z = x*y - h, central for every f
            return GHAElement(
                self, {(1, 1): one, (0, 0): -Poly.variable(self.f.backend)}
            )
        raise ValueError(f"unknown generator {name!r} (expected x, y, h, or z)")

    def monomial(self, i: int, g: Poly, k: int) -> "GHAElement":
        """x^i * g(h) * y^k."""
        if i < 0 or k < 0:
            raise ValueError("exponents must be >= 0")
        if g.is_zero():
            return self.zero()
        return GHAElement(self, {(i, k): g})

    # -- the rewriting core -------------------------------------------------

    def _middle(self, k: int, i: int) -> dict[tuple[int, int], Poly]:
        """Normal form of y^k x^i as a map (a, b) -> polynomial.

        An exact f of degree <= 1 reads it off the closed form of
        ``_closed_form``; every other f has ``_fill`` fill its trapezoid.
        Either way the map is kept in ``_middles``, so a warm read is one
        lookup.  The anti-automorphism x <-> y, h -> h sends
        x^a p(h) y^b to x^b p(h) y^a, so for k > i the normal form is read
        off that of y^i x^k.
        """
        hit = self._middles.get((k, i))
        if hit is None:
            if k > i:
                hit = {(b, a): p for (a, b), p in self._middle(i, k).items()}
            elif self.f._n and self.f.degree <= 1:
                hit = self._closed_form(k, i)
            else:
                return self._fill(k, i)
            self._middles[(k, i)] = hit
        return hit

    def _closed_form(self, k: int, i: int) -> dict[tuple[int, int], Poly]:
        """y^k x^i for an exact f = alpha*h + c, with no reduction step.

        l = f(h) - h satisfies l(f(h)) = alpha*l(h), so l(h) x = alpha x l(h),
        and with the q-integers [n] = 1 + alpha + ... + alpha^(n-1)

            y^k x^i = sum_{j <= min(k, i)} g_j x^(i-j) l(h)^j y^(k-j),
            g_j = prod_{t < j} [k-t][i-t] / [t+1],

        the Gaussian-binomial form of a generalized Weyl algebra (Bavula,
        1993): alpha = 1 is the Weyl algebra, with g_j = j! C(k,j) C(i,j).
        Each g_j is g_(j-1) [k-j+1] [i-j+1] / [j] by the form routines of
        ``gha.scalars``, made canonical; a step whose numerator factor
        [k-t] or [i-t] is 0 ends the sum.  For a primitive p-th root of
        unity alpha that happens at t = min(k mod p, i mod p), before any
        [t+1] = 0 divides.  Term j is the entry l^j g_j, with l^j a running
        product of entries, and ``_canonical_terms`` makes the terms
        canonical.
        """
        out = {(i, k): self._one}
        l = self._l
        if l.is_zero():  # f = h: x and y commute
            return out
        gamma, lj = _ONE_FORM, self._one
        for j in range(1, k + 1):
            a, b = self._q_integer(k - j + 1), self._q_integer(i - j + 1)
            if a is None or b is None:
                break
            gamma = _product_form(_product_form(gamma, a), b)
            gamma = _canonical(*_product_form(gamma, _inverse_form(self._q_integer(j))))
            lj = _mul_entries(lj, l)
            out[(i - j, k - j)] = _mul_entries(lj, gamma)
        return _canonical_terms(out)

    def _q_integer(self, t: int):
        """[t] = 1 + alpha + ... + alpha^(t-1) for f = alpha*h + c, as a
        canonical form; None for [t] = 0.

        The table is built once per presentation by [t+1] = 1 + alpha*[t],
        on the form routines of ``gha.scalars``.  A first [p] = 0 with
        p >= 1 means alpha^p = 1, so the table stops there and [t] is read
        as [t mod p]."""
        qs = self._q_integers
        if self._q_period:
            return qs[t % self._q_period]
        while len(qs) <= t:
            nxt = _canonical(*_sum_form(_ONE_FORM, _product_form(self._alpha, qs[-1])))
            if nxt is None:
                self._q_period = len(qs)
                return qs[t % self._q_period]
            qs.append(nxt)
        return qs[t]

    def _fill(self, k: int, i: int) -> dict[tuple[int, int], Poly]:
        """The normal form of y^k x^i for k <= i, filling the cells it reads
        first.

        The relations telescope to y x^i = x^i y + x^(i-1) (f^(i)(h) - h), so

            y^k x^i = (y^(k-1) x^i) y + (y^(k-1) x^(i-1)) (f^(i)(h) - h).

        Right multiplication by y sends the key (a, b) to (a, b+1); right
        multiplication by g(h) sends x^a p y^b to x^a p (g o f^(b)) y^b, and
        for g = f^(i) - h that factor is the shift f^(i+b) - f^(b).  So
        y^k x^i reads only the trapezoid of cells (kk, ii), kk <= ii, with
        i-k+kk <= ii <= i.  Filled bottom-up, that is (m+1)(m+2)/2 reductions
        for m = min(k, i) = k, the termination bound, not the (k+1)*(i+1) of
        the rectangle: 6 instead of 18 for (2, 5), 91 instead of 169 for (12, 12).
        The leading term x^(i-1) y^(k-1) of y^(k-1) x^(i-1) needs the shift
        by f^(i+k-1), the highest iterate of the fill; it is built first, so
        the degree guard refuses before any reduction.  Every iterate is
        read through :func:`gha.polys.iterate`.

        Each cell is a normal form like any other middle and is kept in
        ``_middles``.  A step adds ``_mul_entries(p, shift)``, the entry p the
        outer factor (which fixes the order of the approximate sums), on
        numerator rows; the cell's terms become Polys once, at the end.
        The shifts are kept for one fill.
        """
        cells = self._middles
        f = self.f
        if k:
            iterate(f, i + k - 1)
        shifts: dict[tuple[int, int], Poly] = {}
        for kk in range(k + 1):
            for ii in range(i - k + kk, i + 1):
                if (kk, ii) in cells:
                    continue
                self.middle_reductions += 1
                if kk == 0:
                    cells[(0, ii)] = {(ii, 0): self._one}
                    continue
                out = {(a, b + 1): p for (a, b), p in cells[(kk - 1, ii)].items()}
                for key, p in cells[(kk - 1, ii - 1)].items():
                    b = key[1]
                    shift = shifts.get((ii, b))
                    if shift is None:
                        shift = shifts[(ii, b)] = iterate(f, ii + b) - iterate(f, b)
                    if shift._num:
                        _add_entry(out, key, _mul_entries(p, shift))
                cells[(kk, ii)] = _canonical_terms(out)
        return cells[(k, i)]

    def _mul_terms(self, t1: dict, t2: dict) -> dict[tuple[int, int], Poly]:
        """Product of two normal forms, returned as a normal form.

        For x^i1 g1 y^k1 * x^i2 g2 y^k2, substitute the normal form of the
        middle y^k1 x^i2 = sum x^a p y^b and use the commutation rules
        g(h) x^a = x^a g(f^(a)(h)) and y^b g(h) = g(f^(b)(h)) y^b:

            x^(i1+a) * g1(f^(a)) p g2(f^(b)) * y^(b+k2).

        The work is staged: for each distinct k1, y^k1 * t2 is summed once
        into terms x^a q y^c with q = sum p g2(f^(b)) and c = b + k2, and only
        then is each term of t1 with that k1 applied on the left as
        x^i1 g1(f^(a)).  Each composite g(f^(a)) is built at most once per
        call, as the form :func:`gha.polys._compose_rows` gives; a constant
        g equals its own composite and is not composed.

        Every factor and sum is an entry: a Poly, or a form (N, den, num)
        on numerator rows that is not made canonical (``_mul_entries``,
        ``_add_entry``).  An entry still drops to conductor 1 when its zeta
        parts vanish, as a canonical Poly does, since the conductor of the
        next sum or product, and so the field the result prints in, depends
        on it.  ``_canonical_terms`` makes each output term a canonical Poly
        once, at the end, and drops the zero ones; a term that is a single
        Poly times exact 1s is that Poly.
        """
        # keyed by id(g): every g is held by t1 or t2 for the whole call
        composites: dict = {}

        def composite(g: Poly, a: int):
            if a == 0:
                return g
            c = composites.get((id(g), a))
            if c is None:
                c = g if g.is_constant() else _rational_drop(*_compose_rows(g, self.f_iterate(a)))
                composites[(id(g), a)] = c
            return c

        lefts: dict[int, list[tuple[int, Poly]]] = {}
        for (i1, k1), g1 in t1.items():
            lefts.setdefault(k1, []).append((i1, g1))
        out: dict = {}
        for k1, terms in lefts.items():
            right: dict = {}
            for (i2, k2), g2 in t2.items():
                for (a, b), p in self._middle(k1, i2).items():
                    _add_entry(right, (a, b + k2), _mul_entries(p, composite(g2, b)))
            for i1, g1 in terms:
                for (a, c), q in right.items():
                    _add_entry(out, (i1 + a, c), _mul_entries(composite(g1, a), q))
        return _canonical_terms(out)

    # -- free-module oracle ---------------------------------------------------

    def _y_monomial_action(self, i: int, j: int, k: int) -> dict[tuple[int, int, int], Scalar]:
        """y acting on the free-module basis vector X^i H^j Y^k.

        On X-free vectors y multiplies by f(H)^j and raises the Y power;
        otherwise one x is peeled off via y = (x*y + f(h) - h) x^(-1),
        recursing on the smaller X power.
        """
        key = (i, j, k)
        hit = self._y_actions.get(key)
        if hit is not None:
            return hit
        one = as_scalar(1, self.f.backend)
        if i == 0:
            out = {
                (0, m, k + 1): c
                for m, c in enumerate(self.f_power(j).coeffs)
                if not _is_zero_scalar(c)
            }
        else:
            inner = {(i - 1, j, k): one}
            moved = _free_y(self, inner)
            moved = _free_x(moved)
            plus = _free_poly(self, self.f - Poly.variable(self.f.backend), inner)
            out = dict(moved)
            for mon, c in plus.items():
                _accumulate_scalar(out, mon, c)
        self._y_actions[key] = out
        return out


# the form of the exact 1
_ONE_FORM = (1, 1, (1,))


def _mul_entries(a, b):
    """a*b for two entries of a product, each a Poly or a form (N, den, num),
    a the outer factor, which fixes the order of the approximate sums; a
    Poly that is the exact 1 returns the other entry itself.  The product
    drops to conductor 1 when its zeta parts vanish."""
    if type(b) is Poly and b._n == 1 and b._den == 1 and b._num == (1,):
        return a
    if type(a) is Poly and a._n == 1 and a._den == 1 and a._num == (1,):
        return b
    a = (a._n, a._den, a._num) if type(a) is Poly else a
    return _rational_drop(*_product_form(a, (b._n, b._den, b._num) if type(b) is Poly else b))


def _add_entry(terms: dict, key, e) -> None:
    """terms[key] + e for entries, the running sum first, dropped to
    conductor 1 as ``_mul_entries`` has it; e for a new key."""
    cur = terms.get(key)
    if cur is None:
        terms[key] = e
        return
    cur = (cur._n, cur._den, cur._num) if type(cur) is Poly else cur
    terms[key] = _rational_drop(*_sum_form(cur, (e._n, e._den, e._num) if type(e) is Poly else e))


def _canonical_terms(terms: dict) -> dict[tuple[int, int], Poly]:
    """The entries of terms as canonical Polys, each made once, with the
    zero ones dropped."""
    out = {key: e if type(e) is Poly else _exact(*e) for key, e in terms.items()}
    return {key: p for key, p in out.items() if p._num}


def _is_zero_scalar(s: Scalar) -> bool:
    return s == zero_like(s)


def _accumulate_scalar(terms: dict, key, c: Scalar) -> None:
    """Add c into terms[key] as terms[key] + c, dropping the key on a zero sum."""
    cur = terms.get(key)
    tot = c if cur is None else cur + c
    if _is_zero_scalar(tot):
        terms.pop(key, None)
    else:
        terms[key] = tot


class GHAElement:
    """An element of H(f) in normal form: sum of x^i * g_ik(h) * y^k.

    Instances are immutable by convention; arithmetic returns new elements.
    """

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: Presentation, terms: dict[tuple[int, int], Poly]) -> None:
        self.presentation = presentation
        self.terms = {ik: g for ik, g in terms.items() if not g.is_zero()}

    def _check(self, other: "GHAElement") -> None:
        if self.presentation is not other.presentation and self.presentation != other.presentation:
            raise PresentationMismatchError("elements belong to different H(f)")

    def _coerce(self, other):
        if isinstance(other, GHAElement):
            return other
        if isinstance(other, (CyclotomicNumber, ApproxComplex) + _NEUTRAL):
            return self.presentation.scalar(other)
        if isinstance(other, Poly):
            return self.presentation.from_poly(other)
        return None

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for ik, g in other.terms.items():
            _add_entry(out, ik, g)
        return GHAElement(self.presentation, _canonical_terms(out))

    __radd__ = __add__

    def __neg__(self):
        return GHAElement(self.presentation, {ik: -g for ik, g in self.terms.items()})

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

    def scale(self, s) -> "GHAElement":
        s = as_scalar(s, self.presentation.f.backend)
        return GHAElement(self.presentation, {ik: g * s for ik, g in self.terms.items()})

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, _NEUTRAL + (CyclotomicNumber, ApproxComplex)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        out = self.presentation._mul_terms(self.terms, other.terms)
        return GHAElement(self.presentation, out)

    def __rmul__(self, other):
        if isinstance(other, _NEUTRAL + (CyclotomicNumber, ApproxComplex)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        if len(self.terms) == 1:
            [((i, j), g)] = self.terms.items()
            if i == j == 0 or g.is_constant() and (i == 0 or j == 0):
                # g(h)^k is Poly.__pow__, which runs the degree guard; a constant
                # commutes with x^i and y^j: (x^i c)^k = x^(ki) c^k
                return GHAElement(self.presentation, {(k * i, k * j): g**k})
        return _power(self, k, self.presentation.one())

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.presentation is not other.presentation and self.presentation != other.presentation:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(self.terms.get(k, _ZERO) == other.terms.get(k, _ZERO) for k in keys)

    __hash__ = None

    # -- structure queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> tuple[int, int]:
        """The lexicographically largest (x-exponent, y-exponent) pair.

        The polynomial part does not count: with this grading the degree
        of a product is the componentwise sum of the degrees whenever f is
        nonconstant (composition with a nonconstant f cannot kill a
        leading coefficient).
        """
        if self.is_zero():
            raise ValueError("degree of the zero element is undefined")
        return max(self.terms)

    def leading_term(self) -> tuple[int, int, Poly]:
        """(n, m, g) for the term x^n g(h) y^m of highest (x-degree, y-degree).

        Here the order is by (i, k) lexicographically; g keeps its full
        polynomial part.
        """
        if self.is_zero():
            raise ValueError("leading term of the zero element is undefined")
        i, k = max(self.terms)
        return i, k, self.terms[(i, k)]

    def __str__(self) -> str:
        pieces = []
        for (i, k) in sorted(self.terms, reverse=True):
            pieces.extend(_term_strings(i, self.terms[(i, k)], k))
        return " + ".join(pieces) or "0"

    def __repr__(self) -> str:
        return f"GHAElement({self})"


def _scalar_atom(negative: bool | None, text: str) -> str:
    """A coefficient as a product factor, from its parts: bare when it is
    positive, parenthesised otherwise."""
    if negative is False:
        return text
    return f"(-{text})" if negative else f"({text})"


def _term_strings(i: int, g: Poly, k: int) -> list[str]:
    """Render x^i * g(h) * y^k, g nonzero, as canonical summands."""
    xpart = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
    ypart = "" if k == 0 else ("y" if k == 1 else f"y^{k}")
    terms = g._terms()
    if i == 0 and k == 0:
        # splice the polynomial into the sum directly
        out = []
        for j, negative, text, unit in reversed(terms):
            mono = _h_power(j)
            if not mono:
                out.append(_scalar_atom(negative, text))
            elif unit and not negative:
                out.append(mono)
            else:
                out.append(f"{_scalar_atom(negative, text)}*{mono}")
        return out
    if len(terms) == 1:
        j, negative, text, unit = terms[0]
        parts = [xpart] if xpart else []
        if not (unit and not negative):
            parts.append(_scalar_atom(negative, text))
        parts += [p for p in (_h_power(j), ypart) if p]
        return ["*".join(parts or ["1"])]
    return ["*".join(p for p in (xpart, f"({_terms_text(terms)})", ypart) if p)]


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------


def commutator(a: GHAElement, b: GHAElement) -> GHAElement:
    return a * b - b * a


def is_central(a: GHAElement) -> bool:
    """True when a commutes with the generators x, h, y: a*g == g*a, which
    on approximate terms is closeness, not an exact zero commutator."""
    return _noncommuting_generator(a) is None


def _noncommuting_generator(a: GHAElement):
    """(name, a*g, g*a) for the first generator g of x, h, y with
    a*g != g*a, or None when a is central."""
    for name in ("x", "h", "y"):
        g = a.presentation.generator(name)
        ag, ga = a * g, g * a
        if ag != ga:
            return name, ag, ga
    return None


# ---------------------------------------------------------------------------
# the free-module oracle
# ---------------------------------------------------------------------------


class FreeModuleElement:
    """A vector in the free polynomial module C[X, H, Y].

    Stored as a map (i, j, k) -> scalar for the monomial X^i H^j Y^k.  The
    algebra acts through :func:`free_module_action`; the action of a product
    must match the composite action, which is what the oracle checks.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int], Scalar] | None = None) -> None:
        self.terms = {m: c for m, c in (terms or {}).items() if not _is_zero_scalar(c)}

    @classmethod
    def one(cls) -> "FreeModuleElement":
        return cls({(0, 0, 0): exact(1)})

    @classmethod
    def basis(cls, i: int, j: int, k: int, backend: str = "exact") -> "FreeModuleElement":
        return cls({(i, j, k): as_scalar(1, backend)})

    def __add__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate_scalar(out, m, c)
        return FreeModuleElement(out)

    def __neg__(self) -> "FreeModuleElement":
        return FreeModuleElement({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        return self + (-other)

    def scale(self, s: Scalar) -> "FreeModuleElement":
        return FreeModuleElement({m: c * s for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FreeModuleElement):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            a, b = self.terms.get(k), other.terms.get(k)
            if a is None:
                a = zero_like(b)
            if b is None:
                b = zero_like(a)
            if a != b:
                return False
        return True

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"X^{i} H^{j} Y^{k}: {c}" for (i, j, k), c in sorted(self.terms.items()))
        return f"FreeModuleElement({{{inner}}})"


def _free_x(terms: dict) -> dict:
    return {(i + 1, j, k): c for (i, j, k), c in terms.items()}


def _free_h(p: Presentation, terms: dict) -> dict:
    # h . X^i H^j Y^k = X^i f^(i)(H) H^j Y^k
    out: dict = {}
    for (i, j, k), c in terms.items():
        for m, coef in enumerate(p.f_iterate(i).coeffs):
            if not _is_zero_scalar(coef):
                _accumulate_scalar(out, (i, j + m, k), c * coef)
    return out


def _free_poly(p: Presentation, g: Poly, terms: dict) -> dict:
    # g(h) acting, by Horner in the h-action
    acc: dict = {}
    for c in reversed(g.coeffs):
        acc = _free_h(p, acc)
        if not _is_zero_scalar(c):
            for m, cv in terms.items():
                _accumulate_scalar(acc, m, cv * c)
    return acc


def _free_y(p: Presentation, terms: dict) -> dict:
    out: dict = {}
    for (i, j, k), c in terms.items():
        for m, coef in p._y_monomial_action(i, j, k).items():
            _accumulate_scalar(out, m, c * coef)
    return out


def free_module_action(a: GHAElement, v: FreeModuleElement) -> FreeModuleElement:
    """Act by a on the free-module vector v.

    Each normal-form term x^i g(h) y^k acts as the composite of k y-actions,
    then g(h), then i x-shifts; summing over terms gives the action of a.
    """
    p = a.presentation
    total = FreeModuleElement()
    for (i, k), g in a.terms.items():
        cur = v.terms
        for _ in range(k):
            cur = _free_y(p, cur)
        cur = _free_poly(p, g, cur)
        for _ in range(i):
            cur = _free_x(cur)
        total = total + FreeModuleElement(cur)
    return total
