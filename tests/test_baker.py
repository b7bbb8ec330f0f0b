"""Baker's theorem as an oracle for the orbit layer.

A polynomial map f of degree >= 2 has periodic points of every exact
period n, with one exception: n = 2 when f is affinely conjugate to
h^2 - 3/4 (I. N. Baker, "Fixpoints of polynomials and rational functions",
J. London Math. Soc. 39 (1964)).  So ``periodic_points(f, n)`` must list at
least one orbit for each f of the panel and each n <= 4, and none exactly
when n = 2 and ``iso_check(f, h^2 - 3/4)`` says isomorphic.  That ties the
orbit search to the isomorphism decision of degree >= 2, which is an
affine conjugacy.
"""

import pytest

from gha.parser import parse_poly
from gha.polys import RootFindingError, periodic_points
from gha.structure import iso_check

EXCEPTION = parse_poly("h^2 - 3/4")

# f and whether it is conjugate to h^2 - 3/4
PANEL = {
    "h^2": False,
    "h^3": False,
    "h^2 - 1": False,
    "h^2 + 2*h - 3/4": True,
    "h^2 - 2": False,
    "2*h^2 - 3/2": False,
    "h^3 - h": False,
    "h^4 + h": False,
    "h^2 - h": True,
    "3*h^2 + 5*h + 1": True,
    "h^2 - 3/4": True,
    "h^2 + 1": False,
}

# f^(4) - h of h^4 + h has degree 256, and periodic_points runs 7 to 12 s
# before the root finder breaks down on it (ROADMAP item 23)
LEFT_OUT = {("h^4 + h", 4)}

XFAIL = {
    ("3*h^2 + 5*h + 1", 4): pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the roots of f^(4) - h come back accurate only to about 1e-9, so they do not "
        "chain into orbits: 0 orbits and 12 residual roots (ROADMAP item 23)",
    ),
    ("h^3 - h", 4): pytest.mark.xfail(
        strict=True,
        raises=RootFindingError,
        reason="the root finder's starting circle for f^(4) - h, of degree 81, overflows "
        "Horner (ROADMAP item 23)",
    ),
}

CELLS = [
    pytest.param(text, n, marks=[XFAIL[text, n]] if (text, n) in XFAIL else [], id=f"{text}, n={n}")
    for text in PANEL
    for n in range(1, 5)
    if (text, n) not in LEFT_OUT
]


@pytest.mark.parametrize("text", list(PANEL))
def test_panel_conjugacy_to_the_exception(text):
    assert iso_check(parse_poly(text), EXCEPTION).isomorphic is PANEL[text]


@pytest.mark.parametrize("text, n", CELLS)
def test_every_period_has_an_orbit_but_one(text, n):
    f = parse_poly(text)
    orbits = periodic_points(f, n).orbits
    if n == 2 and iso_check(f, EXCEPTION).isomorphic:
        assert not orbits
    else:
        assert orbits
