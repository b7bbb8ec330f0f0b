"""products_warm: products of random elements in a long-lived library
session, one warmed ``Presentation`` per f.

Why: the rewriting layer is used for reads, not writes.  Set-up warms the
memo of middle reductions y^k x^i and the f-iterates for every exponent a
job can reach, so the timed region does no middle reduction at all; the
work is many small-degree products and compositions g o f^(a).  A change
that pays off on large cold jobs but costs small warm ones shows here.

Each job multiplies two random 3-term elements sum x^a g(h) y^b with
a, b <= cap and deg g <= 2, drawn as acceptance criterion 01 draws its
factors (cap 4 for linear f, 2 otherwise).  The shapes of the factors (the
exponents a, b and the degree of every g) are a fixed design drawn once
from DESIGN_SEED; the run seed draws every coefficient and the order of
the round.  Runs with different seeds therefore do the same amount of
rewriting on different numbers, which keeps ``jobs_per_s`` comparable
across seeds.  A round multiplies every pair once.

Check: the free-module oracle, a*b acting on 1 against a acting on b
acting on 1, computed in a separate ``Presentation`` so the oracle does not
fill the caches of the timed one.  Repeats of a pair must give the same
product.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gha import FreeModuleElement, GHAElement, Poly, Presentation, exact, free_module_action, parse_poly

NAME = "products_warm"

PANEL = [
    ("h^2", 2),
    ("h^2 + 1", 2),
    ("h^3 - h", 2),
    ("2*h - 1", 4),
    ("h/2 + 1/3", 4),
    ("zeta(3)*h", 4),
    ("zeta(3)*h + 1", 4),
]
PAIRS_PER_F = 40
TERMS = 3
DESIGN_SEED = 1401_0700


def _shape(rng: random.Random, cap: int) -> list[tuple[int, int, int]]:
    return [(rng.randint(0, cap), rng.randint(0, 2), rng.randint(0, cap)) for _ in range(TERMS)]


def _poly(rng: random.Random, deg: int) -> Poly:
    low = [Fraction(rng.randint(-3, 3)) for _ in range(deg)]
    lead = Fraction(rng.choice([-2, -1, 1, 2, 3]))
    return Poly([exact(c) for c in low] + [exact(lead)])


def _element(p: Presentation, shape, rng: random.Random) -> GHAElement:
    e = p.zero()
    for a, deg, b in shape:
        e = e + p.monomial(a, _poly(rng, deg), b)
    return e


def warm(p: Presentation, cap: int) -> None:
    """Fill the memo of y^k x^i for k, i <= cap and the f-iterates up to cap."""
    p.generator("y") ** cap * p.generator("x") ** cap
    for a in range(cap + 1):
        p.f_iterate(a)


class State:
    def __init__(self, seed: int) -> None:
        design = random.Random(DESIGN_SEED)
        values = random.Random(seed)
        self.presentations: list[Presentation] = []
        self.pairs: list[tuple[str, GHAElement, GHAElement]] = []
        for f_text, cap in PANEL:
            p = Presentation(parse_poly(f_text))
            warm(p, cap)
            self.presentations.append(p)
            for _ in range(PAIRS_PER_F):
                a = _element(p, _shape(design, cap), values)
                b = _element(p, _shape(design, cap), values)
                self.pairs.append((f_text, a, b))
        values.shuffle(self.pairs)
        self._first: dict = {}
        self._oracles: dict[str, Presentation] = {}

    def run_round(self, runner) -> None:
        for idx, (f_text, a, b) in enumerate(self.pairs):
            label = lambda f_text=f_text, a=a, b=b: f"product over f = {f_text}: ({a}) * ({b})"
            out = runner.run(label, lambda a=a, b=b: a * b)
            if out is not None:
                runner.check_repeatable(self._first, idx, label, out, self.oracle_problem)

    def oracle_problem(self, idx: int, out: GHAElement) -> str | None:
        f_text, a, b = self.pairs[idx]
        pres = self._oracles.get(f_text)
        if pres is None:
            pres = self._oracles[f_text] = Presentation(parse_poly(f_text))
        one = FreeModuleElement.one()
        a, b, out = (GHAElement(pres, e.terms) for e in (a, b, out))
        if free_module_action(out, one) != free_module_action(a, free_module_action(b, one)):
            return "a*b disagrees with a acting after b in the free module"
        return None


def setup(seed: int) -> State:
    return State(seed)
