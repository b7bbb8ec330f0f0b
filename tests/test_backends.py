"""The two scalar backends against each other on the simple modules.

For each f of a fixed panel (the census panel of
scripts/simple_module_census.py plus a few f with repeated, irrational or
parabolic periodic points) and each n <= 4, ``enumerate_simples`` must list
as many families of each variant on the approximate backend as on the
exact one, where a family with no instantiation (numeric roots that did
not group into orbits) counts on its own.  The exact backend gets the
census conductor hint for f = h^m, so that its orbits stay exact.
"""

import pathlib
import runpy
from collections import Counter

import pytest

from gha.modules import enumerate_simples
from gha.parser import parse_poly

CENSUS = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parent.parent / "scripts" / "simple_module_census.py")
)

PANEL = CENSUS["DEFAULT_PANEL"] + [
    "h^2 - 2",
    "h^3 - h",
    "zeta(3)*h + 1",
    "h^2 - 3/4",
    "3*h^2 + 5*h + 1",
    "(h - 1)^2*(h + 2)",
    "(h + 2)^5 + h",
]

# Cells where both backends fail the same way, with a numeric failure
# (exit 3 on the command line): the root finder's starting circle overflows
# the iterates' Horner evaluation (ROADMAP item 23).  (h + 2)^5 + h also
# takes about 2 s a side at n = 3 before it fails.
LEFT_OUT = {("h^3 - h", 4), ("(h - 1)^2*(h + 2)", 4), ("(h + 2)^5 + h", 3), ("(h + 2)^5 + h", 4)}

# Cells where the backends still disagree, each with its cause
DISAGREE = {
    ("h^2 + 2*h - 3/4", 4): "the approximate backend finds 10 of the 12 nilpotent zdots: the pair "
    "near 2.4382 +- 0.0577i misses the closure test by about 1e-10 (ROADMAP item 3)",
    ("3*h^2 + 5*h + 1", 4): "the roots of f^(4) - h are accurate only to about 1e-9, so the "
    "approximate orbits do not chain under the closeness rule (ROADMAP item 23)",
    ("(h - 1)^2*(h + 2)", 3): "the exact backend lists 7 cyclic_x orbits and the approximate one "
    "2, both with roots of f^(3) - h that do not group into orbits",
    ("(h + 2)^5 + h", 1): "the 5-fold fixed point -2 comes back from Aberth spread by about 1e-2, "
    "past the grouping radius 1e-3*(1 + max|z|) of _refine_multiples, so the approximate "
    "backend lists 5 fixed points where the exact one lists -2 once",
}


def family_counts(f, n, conductor=None) -> Counter:
    fams = enumerate_simples(f, n, samples=1, conductor=conductor)
    return Counter((fam.variant, bool(fam.instantiations)) for fam in fams)


CELLS = [
    pytest.param(
        f_text,
        n,
        marks=[pytest.mark.xfail(strict=True, raises=AssertionError, reason=DISAGREE[f_text, n])]
        if (f_text, n) in DISAGREE
        else [],
        id=f"{f_text}, n={n}",
    )
    for f_text in PANEL
    for n in range(1, 5)
    if (f_text, n) not in LEFT_OUT
]


@pytest.mark.parametrize("f_text, n", CELLS)
def test_backends_list_the_same_families(f_text, n):
    f = parse_poly(f_text)
    hint = CENSUS["monomial_conductor_hint"](f, n)
    assert family_counts(parse_poly(f_text, "approx"), n) == family_counts(f, n, hint)
