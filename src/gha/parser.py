"""Text front-end: polynomials in h, scalars, and algebra expressions.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := NUMBER | NAME | 'zeta' '(' INT ')' | '(' expr ')'

``*`` is mandatory between factors, ``^`` binds tighter than ``*`` and
``/``, which bind tighter than ``+`` and ``-``.  Exponents are nonnegative
integer literals.  Division is only by scalar-valued subexpressions, which
is how rational literals like 3/4 are written.  NAME is one of x, y, h, z,
i; which of them are legal depends on the context (a polynomial in h
cannot mention x).  Decimal and exponent-notation literals (0.5, 1e-9)
are only meaningful on the approx backend.

Parsing runs in two phases.  A recursive descent checks the grammar of the
whole text and emits it as postfix steps ``(op, arg, pos)``; then
:func:`_evaluate` runs the steps on a stack, with a symbol table that
decides the context.  So a syntax error anywhere in the text is reported
before any arithmetic runs (and before a degree guard can trip).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NoReturn

from .algebra import GHAElement, Presentation
from .polys import Poly
from .scalars import ApproxComplex, CyclotomicNumber, Scalar, as_scalar, zeta


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# -- tokenizer ------------------------------------------------------------------

_PUNCT = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "punct", "end"
    text: str
    pos: int
    is_float: bool = False


def _tokenize(text: str) -> list[_Token]:
    toks = []
    idx = 0
    size = len(text)
    while idx < size:
        ch = text[idx]
        if ch.isspace():
            idx += 1
            continue
        if ch in _PUNCT:
            toks.append(_Token("punct", ch, idx))
            idx += 1
            continue
        if ch.isdecimal() or (ch == "." and idx + 1 < size and text[idx + 1].isdecimal()):
            start = idx
            seen_dot = False
            seen_exp = False
            while idx < size:
                c = text[idx]
                if c.isdecimal():
                    idx += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    idx += 1
                elif c in "eE" and not seen_exp and idx + 1 < size and (
                    text[idx + 1].isdecimal()
                    or (text[idx + 1] in "+-" and idx + 2 < size and text[idx + 2].isdecimal())
                ):
                    seen_exp = True
                    idx += 1
                    if text[idx] in "+-":
                        idx += 1
                else:
                    break
            lit = text[start:idx]
            toks.append(_Token("num", lit, start, is_float=seen_dot or seen_exp))
            continue
        if ch.isalpha() or ch == "_":
            start = idx
            while idx < size and (text[idx].isalnum() or text[idx] == "_"):
                idx += 1
            toks.append(_Token("name", text[start:idx], start))
            continue
        _fail(text, f"unexpected character {ch!r}", idx)
    toks.append(_Token("end", "", size))
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
        tok = self.toks[self.idx]
        if tok.kind != "end":
            self.fail(f"unexpected trailing input {tok.text!r}")

    def fail(self, message: str) -> NoReturn:
        _fail(self.text, message, self.toks[self.idx].pos)

    def take(self, ops: str) -> _Token | None:
        """The next token, consumed, if it is one of the punctuation ops."""
        tok = self.toks[self.idx]
        if tok.kind == "punct" and tok.text in ops:
            self.idx += 1
            return tok
        return None

    def expect(self, ch: str) -> None:
        if self.take(ch) is None:
            self.fail(f"expected {ch!r}")

    def expr(self) -> None:
        self.term()
        while tok := self.take("+-"):
            self.term()
            self.steps.append((tok.text, None, tok.pos))

    def term(self) -> None:
        self.unary()
        while tok := self.take("*/"):
            self.unary()
            self.steps.append((tok.text, None, tok.pos))

    def unary(self) -> None:
        tok = self.take("-")
        if tok is None:
            self.power()
        else:
            self.unary()
            self.steps.append(("neg", None, tok.pos))

    def power(self) -> None:
        self.atom()
        if self.take("^"):
            tok = self.toks[self.idx]
            if tok.kind == "punct" and tok.text == "-":
                self.fail("negative exponents are not allowed")
            if tok.kind != "num" or tok.is_float:
                self.fail("exponent must be a nonnegative integer")
            self.idx += 1
            self.steps.append(("^", int(tok.text), tok.pos))

    def atom(self) -> None:
        tok = self.toks[self.idx]
        if tok.kind == "num":
            self.idx += 1
            self.steps.append(("dec" if tok.is_float else "int", tok.text, tok.pos))
        elif tok.kind == "name" and tok.text == "zeta":
            self.idx += 1
            self.expect("(")
            order = self.toks[self.idx]
            if order.kind != "num" or order.is_float or int(order.text) < 1:
                self.fail("zeta() needs a positive integer order")
            self.idx += 1
            self.expect(")")
            self.steps.append(("zeta", int(order.text), tok.pos))
        elif tok.kind == "name":
            self.idx += 1
            self.steps.append(("name", tok.text, tok.pos))
        elif self.take("("):
            self.expr()
            self.expect(")")
        else:
            self.fail("expected a number, name, or parenthesized expression")


# -- evaluation: postfix steps -> value -----------------------------------------


def _evaluate(text: str, backend: str, symbols: dict):
    """Value of the text; ``symbols`` decides the legal names besides i."""
    stack: list = []
    for op, arg, pos in _Postfix(text).steps:
        if op == "int":
            stack.append(as_scalar(int(arg), backend))
        elif op == "dec":
            if backend != "approx":
                _fail(text, "decimal literals need the approx backend (use p/q on exact)", pos)
            stack.append(as_scalar(float(arg), "approx"))
        elif op == "zeta":
            if backend == "exact":
                stack.append(zeta(arg))
            else:
                stack.append(as_scalar(cmath.exp(2j * cmath.pi / arg), "approx"))
        elif op == "name":
            if arg == "i":
                stack.append(zeta(4) if backend == "exact" else as_scalar(1j, "approx"))
            elif arg in symbols:
                stack.append(symbols[arg])
            else:
                _fail(text, f"unknown symbol {arg!r} in this context", pos)
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "^":
            stack[-1] = stack[-1] ** arg
        else:
            right = stack.pop()
            if op == "+":
                stack[-1] = stack[-1] + right
            elif op == "-":
                stack[-1] = stack[-1] - right
            elif op == "*":
                stack[-1] = stack[-1] * right
            else:
                scalar = _as_plain_scalar(right)
                if scalar is None:
                    _fail(text, "division is only by scalar values", pos)
                stack[-1] = stack[-1] * (as_scalar(1, backend) / scalar)
    return stack[0]


def _as_plain_scalar(value) -> Scalar | None:
    """The scalar a value stands for, or None if it is zero or not a constant."""
    if isinstance(value, (CyclotomicNumber, ApproxComplex)):
        return value
    if isinstance(value, GHAElement):
        if set(value.terms) != {(0, 0)}:
            return None
        value = value.terms[(0, 0)]
    if isinstance(value, Poly) and value.is_constant() and not value.is_zero():
        return value.coefficient(0)
    return None


def parse_scalar(text: str, backend: str = "exact") -> Scalar:
    return as_scalar(_evaluate(text, backend, {}), backend)


def parse_poly(text: str, backend: str = "exact") -> Poly:
    """A polynomial in h over the chosen backend."""
    value = _evaluate(text, backend, {"h": Poly.variable(backend)})
    return value if isinstance(value, Poly) else Poly([as_scalar(value, backend)])


def parse_element(text: str, presentation: Presentation) -> GHAElement:
    """An element of H(f), normalized."""
    symbols = {name: presentation.generator(name) for name in "hxyz"}
    value = _evaluate(text, presentation.f.backend, symbols)
    return value if isinstance(value, GHAElement) else presentation.scalar(value)
