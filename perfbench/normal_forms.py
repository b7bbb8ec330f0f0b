"""normal_forms_cold: ``gha normalize -f F -e "y^k*x^i"`` with a fresh
``Presentation`` per job, run in-process through ``gha.cli.main``.

Why: this is where the time goes today.  Middle reductions write the memo,
high-degree ``Poly`` multiply and compose run over exact scalars; there is
no root finding and no linear algebra.

Each round runs every cell of ``CELLS`` once, in an order drawn from the
seed.  Cold jobs share no state, so the grid itself is the input; the
seed only orders it.  The exponents are capped per f so that no job took
more than about 2 s when the benchmark was written (the largest are h^3 - h
at y^3 x^3 and h^2 at y^4 x^4); the largest cells are the high-degree tail
that ``job_p90_ms`` follows.

Check: the free-module oracle.  The normal form acting on 1 must equal
y^k x^i applied to 1 one letter at a time.  Every cell is verified once per
run by the oracle; repeats of a cell must print the same text.
"""

from __future__ import annotations

import random
import re

from common import cli_job
from gha import FreeModuleElement, Presentation, free_module_action, parse_poly, parse_scalar

NAME = "normal_forms_cold"

# f -> (k, i) cells, each asked both ways round (y^k x^i and y^i x^k).
# Sparse, dense and cubic f, two linear and two cyclotomic f.  The grid
# has many cells of middling size (about 40 to 90 ms when the benchmark
# was written) so that job_p50_ms falls where latencies lie close together
# and does not jump between two distant cells from run to run.
CELLS = {
    "h^2": [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)],
    "h^2 + 1": [(1, 1), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3)],
    "h^3 - h": [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)],
    "2*h - 1": [(2, 2), (3, 5), (4, 5), (5, 5), (4, 6), (4, 8), (8, 8), (10, 10)],
    "h/2 + 1/3": [(2, 2), (3, 5), (4, 5), (3, 7), (6, 6), (4, 9), (8, 8)],
    "zeta(3)*h": [(2, 2), (4, 6), (5, 6), (4, 8), (6, 8), (8, 8), (6, 12), (12, 12), (20, 20)],
    "zeta(3)*h + 1": [(2, 2), (4, 6), (5, 5), (5, 6), (4, 8), (8, 8), (6, 12), (12, 12)],
}


class State:
    def __init__(self, seed: int) -> None:
        self.jobs = sorted(
            {(f_text, k, i) for f_text, cells in CELLS.items() for a, b in cells for k, i in ((a, b), (b, a))}
        )
        random.Random(seed).shuffle(self.jobs)
        self.presentations: list = []  # long-lived presentations: none, every job is cold
        self._first: dict = {}
        self._oracles: dict[str, Presentation] = {}

    def run_round(self, runner) -> None:
        for cell in self.jobs:
            f_text, k, i = cell
            label = f"normalize -f '{f_text}' -e 'y^{k}*x^{i}'"
            out = runner.run(label, cli_job(["normalize", "-f", f_text, "-e", f"y^{k}*x^{i}"]))
            if out is not None:
                runner.check_repeatable(self._first, cell, label, out, self.oracle_problem)

    def oracle_problem(self, cell, out: str) -> str | None:
        f_text, k, i = cell
        pres = self._oracles.get(f_text)
        if pres is None:
            pres = self._oracles[f_text] = Presentation(parse_poly(f_text))
        expected = letter_by_letter(pres, k, i)
        got = FreeModuleElement(action_on_one(out.strip(), pres.f.backend))
        if got != expected:
            return "normal form disagrees with the free-module action of y^k x^i"
        return None


def setup(seed: int) -> State:
    return State(seed)


def letter_by_letter(pres: Presentation, k: int, i: int) -> FreeModuleElement:
    """y^k x^i acting on 1 in the free module, one generator at a time."""
    v = FreeModuleElement.one()
    x, y = pres.generator("x"), pres.generator("y")
    for _ in range(i):
        v = free_module_action(x, v)
    for _ in range(k):
        v = free_module_action(y, v)
    return v


# -- reading a printed normal form back ---------------------------------------
#
# x^a g(h) y^b acts on 1 as X^a g(H) Y^b, so the free-module vector of a
# normal form is its coefficient table.  Reading it from the printed text
# keeps the check independent of the rewriting code and of the element
# parser (which would redo products of large polynomials).

_X = re.compile(r"x(?:\^(\d+))?$")
_Y = re.compile(r"y(?:\^(\d+))?$")
_H = re.compile(r"h(?:\^(\d+))?$")


def _split(text: str, seps: tuple[str, ...]) -> list[tuple[str, str]]:
    """Split at separators outside parentheses; (separator before, piece)."""
    out, depth, start, sep_before, pos = [], 0, 0, "", 0
    while pos < len(text):
        ch = text[pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            hit = next((s for s in seps if text.startswith(s, pos)), None)
            if hit is not None:
                out.append((sep_before, text[start:pos]))
                sep_before, start = hit, pos + len(hit)
                pos = start
                continue
        pos += 1
    out.append((sep_before, text[start:]))
    return out


def _power(match) -> int:
    return int(match.group(1) or 1)


def _scalar(text: str, backend: str):
    while text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return parse_scalar(text, backend)


def _summand(text: str, backend: str) -> tuple[int, object]:
    """'c*h^j', 'h^j' or 'c' -> (j, c)."""
    factors = [f for _, f in _split(text, ("*",))]
    hit = _H.match(factors[-1])
    if hit is None:
        return 0, _scalar(text, backend)
    coeff = "*".join(factors[:-1]) or "1"
    return _power(hit), _scalar(coeff, backend)


def _poly_terms(text: str, backend: str) -> list[tuple[int, object]]:
    """Poly.__str__ text -> [(degree, coefficient)]; repeated degrees add up."""
    out = []
    for sep, piece in _split(text, (" + ", " - ")):
        negate = sep == " - "
        if piece.startswith("-"):
            negate, piece = not negate, piece[1:]
        j, c = _summand(piece, backend)
        out.append((j, -c if negate else c))
    return out


def action_on_one(text: str, backend: str) -> dict:
    """Free-module terms {(a, j, b): c} of a printed normal form acting on 1."""
    terms: dict = {}
    if text == "0":
        return terms
    for _, piece in _split(text, (" + ",)):
        factors = [f for _, f in _split(piece, ("*",))]
        a = b = 0
        hit = _X.match(factors[0])
        if hit:
            a = _power(hit)
            factors = factors[1:]
        hit = _Y.match(factors[-1]) if factors else None
        if hit:
            b = _power(hit)
            factors = factors[:-1]
        if len(factors) == 1 and factors[0].startswith("(") and "h" in factors[0]:
            pieces = _poly_terms(factors[0][1:-1], backend)
        elif factors:
            pieces = [_summand("*".join(factors), backend)]
        else:
            pieces = [(0, parse_scalar("1", backend))]
        for j, c in pieces:
            key = (a, j, b)
            terms[key] = c if key not in terms else terms[key] + c
    return terms
