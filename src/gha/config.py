"""The two numeric values a caller may set, shared through ``CONFIG``, and
the version every JSON document carries.

``tol`` is read by the approximate code paths only (the exact backend never
consults it); ``max_compose_degree`` guards both backends.  The fixed
constants of the numeric routines (root-finder iteration cap, cluster
radius, rank threshold, ...) live as private constants next to their
only reader.
"""

from __future__ import annotations

from dataclasses import dataclass

# "schema_version" of every JSON document; kept here, in a module that
# ``import gha`` loads anyway, so that ``gha normalize --json`` can stamp
# it without loading the schemas and the module layers behind them
SCHEMA_VERSION = 1


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
