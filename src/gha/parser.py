"""Text front-end: polynomials in h, scalars, and algebra expressions.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := NUMBER | NAME | 'zeta' '(' INT ')' | '(' expr ')'

``*`` is mandatory between factors, ``^`` binds tighter than ``*`` and
``/``, which bind tighter than ``+`` and ``-``.  Exponents are nonnegative
integer literals.  Division is only by nonzero scalar-valued
subexpressions, which is how rational literals like 3/4 are written.  NAME
is one of x, y, h, z, i; which of them are legal depends on the context (a
polynomial in h cannot mention x).  Decimal and exponent-notation literals
(0.5, 1e-9) are only meaningful on the approx backend.

Parsing runs in two phases.  A recursive descent checks the grammar of the
whole text and emits it as postfix steps ``(op, arg, pos)``; then
:func:`_evaluate` runs the steps on a stack, with a symbol lookup that
decides the context.  So a syntax error anywhere in the text is reported
before any arithmetic runs (and before a degree guard can trip).
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from typing import NoReturn

from .algebra import GHAElement, Presentation
from .polys import Poly
from .scalars import ApproxComplex, Scalar, approx, as_scalar, zeta


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# -- tokenizer ------------------------------------------------------------------

_PUNCT = set("+-*/^()")
# digits are the Unicode decimal digits (str.isdecimal), as int() reads them
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_WORD = re.compile(r"\w+")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens ``(kind, text, pos)`` of the text, kind one of "int",
    "dec" (a literal with a dot or an exponent), "name", "punct" and "end"."""
    toks = []
    idx = 0
    while idx < len(text):
        ch = text[idx]
        if ch.isspace():
            idx += 1
            continue
        if ch in _PUNCT:
            tok = ("punct", ch, idx)
        elif m := _NUMBER.match(text, idx):
            tok = ("int" if m[0].isdecimal() else "dec", m[0], idx)
        elif ch.isalpha() or ch == "_":
            tok = ("name", _WORD.match(text, idx)[0], idx)
        else:
            _fail(text, f"unexpected character {ch!r}", idx)
        toks.append(tok)
        idx += len(tok[1])
    toks.append(("end", "", len(text)))
    return toks


def _fail(text: str, message: str, pos: int) -> NoReturn:
    line = text.count("\n", 0, pos) + 1
    raise ParseError(message, line, pos - text.rfind("\n", 0, pos))


# -- grammar: text -> postfix steps ---------------------------------------------


class _Postfix:
    """Recursive descent over the tokens; ``steps`` is the text in postfix.

    Steps are ``("int" | "dec", literal, pos)``, ``("zeta", order, pos)``,
    ``("name", name, pos)``, ``("neg", None, pos)``, ``("^", exponent, pos)``
    and ``(op, None, pos)`` for the binary operators ``+ - * /``.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.toks = _tokenize(text)
        self.idx = 0
        self.steps: list[tuple[str, object, int]] = []
        self.expr()
        kind, lit, _ = self.toks[self.idx]
        if kind != "end":
            self.fail(f"unexpected trailing input {lit!r}")

    def fail(self, message: str) -> NoReturn:
        _fail(self.text, message, self.toks[self.idx][2])

    def take(self, ops: str) -> tuple[str, int] | None:
        """The next token's (text, pos), consumed, if it is one of the
        punctuation ops."""
        kind, lit, pos = self.toks[self.idx]
        if kind == "punct" and lit in ops:
            self.idx += 1
            return lit, pos
        return None

    def expect(self, ch: str) -> None:
        if self.take(ch) is None:
            self.fail(f"expected {ch!r}")

    def expr(self) -> None:
        self.term()
        while tok := self.take("+-"):
            self.term()
            self.steps.append((tok[0], None, tok[1]))

    def term(self) -> None:
        self.unary()
        while tok := self.take("*/"):
            self.unary()
            self.steps.append((tok[0], None, tok[1]))

    def unary(self) -> None:
        tok = self.take("-")
        if tok is None:
            self.power()
        else:
            self.unary()
            self.steps.append(("neg", None, tok[1]))

    def power(self) -> None:
        self.atom()
        if self.take("^"):
            kind, lit, pos = self.toks[self.idx]
            if kind == "punct" and lit == "-":
                self.fail("negative exponents are not allowed")
            if kind != "int":
                self.fail("exponent must be a nonnegative integer")
            self.idx += 1
            self.steps.append(("^", int(lit), pos))

    def atom(self) -> None:
        tok = self.toks[self.idx]
        kind, lit, pos = tok
        if kind == "int" or kind == "dec" or (kind == "name" and lit != "zeta"):
            # the token is its own step
            self.idx += 1
            self.steps.append(tok)
        elif kind == "name":
            self.idx += 1
            self.expect("(")
            order_kind, order, _ = self.toks[self.idx]
            if order_kind != "int" or int(order) < 1:
                self.fail("zeta() needs a positive integer order")
            self.idx += 1
            self.expect(")")
            self.steps.append(("zeta", int(order), pos))
        elif self.take("("):
            self.expr()
            self.expect(")")
        else:
            self.fail("expected a number, name, or parenthesized expression")


# -- evaluation: postfix steps -> value -----------------------------------------


def _evaluate(text: str, backend: str, symbol):
    """Value of the text; ``symbol(name)`` is the value of a name besides
    i, or None where the name is not legal.

    On the exact backend a literal stays an int or a Fraction throughout:
    scalars, polynomials and elements take plain numbers as operands, and
    the caller lifts a value made of literals alone.
    """
    plain = backend == "exact"
    stack: list = []
    for op, arg, pos in _Postfix(text).steps:
        if op == "int":
            try:
                stack.append(int(arg) if plain else approx(int(arg)))
            except OverflowError:
                _fail(text, "number too large for the approx backend", pos)
        elif op == "dec":
            if plain:
                _fail(text, "decimal literals need the approx backend (use p/q on exact)", pos)
            stack.append(approx(float(arg)))
        elif op == "zeta":
            stack.append(zeta(arg) if plain else approx(cmath.exp(2j * cmath.pi / arg)))
        elif op == "name":
            if arg == "i":
                stack.append(zeta(4) if plain else approx(1j))
            else:
                value = symbol(arg)
                if value is None:
                    _fail(text, f"unknown symbol {arg!r} in this context", pos)
                stack.append(value)
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "^":
            base = stack[-1]
            try:
                stack[-1] = base ** arg
            except OverflowError:
                # a power of an approximate scalar overflowed in complex ** int;
                # a polynomial or an element overflowing is a numeric failure
                if not isinstance(base, ApproxComplex):
                    raise
                _fail(text, "number too large for the approx backend", pos)
        else:
            right = stack.pop()
            left = stack[-1]
            if op == "/":
                stack[-1] = _divide(text, pos, left, right)
                continue
            if op == "+":
                stack[-1] = left + right
            elif op == "-":
                stack[-1] = left - right
            else:
                stack[-1] = left * right
    return stack[0]


def _divide(text: str, pos: int, left, right):
    """left / right for the '/' at pos, where right must be a scalar value."""
    if isinstance(right, GHAElement):
        right = right.terms.get((0, 0), 0) if set(right.terms) <= {(0, 0)} else None
    if isinstance(right, Poly):
        right = right.coefficient(0) if right.is_constant() else None
    if right is None:
        _fail(text, "division is only by scalar values", pos)
    try:
        inverse = 1 / (Fraction(right) if isinstance(right, int) else right)
    except ZeroDivisionError:
        _fail(text, "division by zero", pos)
    return left * inverse


def parse_scalar(text: str, backend: str = "exact") -> Scalar:
    return as_scalar(_evaluate(text, backend, {}.get), backend)


def parse_poly(text: str, backend: str = "exact") -> Poly:
    """A polynomial in h over the chosen backend."""
    value = _evaluate(text, backend, lambda name: Poly.variable(backend) if name == "h" else None)
    return value if isinstance(value, Poly) else Poly([as_scalar(value, backend)])


def parse_element(text: str, presentation: Presentation) -> GHAElement:
    """An element of H(f), normalized; only the generators the text names
    are built."""
    value = _evaluate(
        text,
        presentation.f.backend,
        lambda name: presentation.generator(name) if name in ("h", "x", "y", "z") else None,
    )
    return value if isinstance(value, GHAElement) else presentation.scalar(value)
