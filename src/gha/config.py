"""The two numeric values a caller may set, shared through ``CONFIG``.

``tol`` is read by the approximate code paths only (the exact backend never
consults it); ``max_compose_degree`` guards both backends.  The fixed
constants of the numeric routines (root-finder iteration cap, cluster
radius, rank threshold, ...) live as private constants next to their
only reader.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class NumericConfig:
    """Settable numeric limits.

    tol: equality tolerance for approximate scalars and relation residuals
        (``--tol`` on the command line).
    max_compose_degree: largest polynomial degree that iterating or
        composing f may reach; past it a DegreeOverflowError is raised
        before the oversized polynomial is built.
    """

    tol: float = 1e-9
    max_compose_degree: int = 4096


CONFIG = NumericConfig()
